"""Numeric kernels on plain numpy arrays.

The pipeline calls ``project_rows`` (embedding one text) and
``adamw_step`` (the scorer's optimizer). ``scatter_add_outer``,
``csr_matvec`` and ``logistic_epochs`` are per-vector forms of the
batched scorer and label-tree code, kept as its test references
(``logistic_epochs`` checks ``selftrain._fit_logistic``) and timed by
``pipebench/bench_kernels.py``.

All sparse inputs use plain arrays: either a single (indices, values)
pair for one vector, or CSR triplets (data, indices, indptr) for a row
matrix. indices are int64, floats are float64.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _sigmoid(z):
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def project_rows(proj, idx, val):
    """r = sum_i val[i] * proj[idx[i], :] for a sparse feature vector."""
    if idx.size == 0:
        return np.zeros(proj.shape[1], dtype=np.float64)
    return val @ proj[idx]


def scatter_add_outer(out, idx, val, g):
    """out[idx[i], :] += val[i] * g (duplicate indices accumulate)."""
    if idx.size:
        np.add.at(out, idx, val[:, None] * g[None, :])


def adamw_step(param, grad, m, v, t, lr, beta1, beta2, eps, wd, scratch=None):
    """One decoupled-weight-decay Adam update, in place.

    ``lr`` and ``wd`` arrive already multiplied by the schedule factor.
    ``scratch`` is an optional pair of arrays shaped like ``param`` that
    holds the temporaries; without it they are allocated per call.
    """
    a, b = scratch if scratch is not None else (np.empty_like(param), np.empty_like(param))
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=a)
    m += a
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=a)
    a *= grad
    v += a
    np.divide(m, 1.0 - beta1 ** t, out=a)  # mhat
    a *= lr
    np.divide(v, 1.0 - beta2 ** t, out=b)  # vhat
    np.sqrt(b, out=b)
    b += eps
    a /= b
    param -= a
    np.multiply(param, wd, out=a)
    param -= a


def csr_matvec(data, indices, indptr, w, b):
    """z = X @ w + b over CSR rows."""
    n = indptr.shape[0] - 1
    if data.size == 0:
        return np.full(n, b, dtype=np.float64)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    z = np.bincount(rows, weights=data * w[indices], minlength=n)
    return z + b


def logistic_epochs(data, indices, indptr, y, w, b, epochs, lr, l2):
    """Full-batch gradient descent on L2-regularized logistic loss.

    Returns the trained bias; the weight vector is updated in place.
    """
    n = indptr.shape[0] - 1
    if n == 0:
        return b
    rows = np.repeat(np.arange(n), np.diff(indptr))
    for _ in range(epochs):
        z = np.bincount(rows, weights=data * w[indices], minlength=n) + b
        p = _sigmoid(z)
        d = (p - y) / n
        gw = np.bincount(indices, weights=data * d[rows], minlength=w.shape[0])
        w -= lr * (gw + l2 * w)
        b -= lr * float(d.sum())
    return b
