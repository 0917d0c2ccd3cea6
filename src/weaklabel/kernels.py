"""Hot numeric kernels with two interchangeable backends.

Every kernel exists twice: a numba ``@njit`` version and a pure-numpy
version with identical signatures and semantics. The active backend is
chosen at import time: numba when importable, unless the environment
variable ``WEAKLABEL_NUMBA`` is set to ``0`` (then pure numpy).

All sparse inputs use plain arrays: either a single (indices, values)
pair for one vector, or CSR triplets (data, indices, indptr) for a row
matrix. indices are int64, floats are float64.
"""

from __future__ import annotations

import os

import numpy as np

_FLAG = os.environ.get("WEAKLABEL_NUMBA", "1").strip().lower()
_WANT_NUMBA = _FLAG not in ("0", "false", "off")

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a hard dependency normally
    HAS_NUMBA = False

USE_NUMBA = _WANT_NUMBA and HAS_NUMBA
BACKEND = "numba" if USE_NUMBA else "numpy"


def _sigmoid_np(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# pure-numpy backend
# ---------------------------------------------------------------------------


def project_rows_np(proj, idx, val):
    """r = sum_i val[i] * proj[idx[i], :] for a sparse feature vector."""
    if idx.size == 0:
        return np.zeros(proj.shape[1], dtype=np.float64)
    return val @ proj[idx]


def scatter_add_outer_np(out, idx, val, g):
    """out[idx[i], :] += val[i] * g (duplicate indices accumulate)."""
    if idx.size:
        np.add.at(out, idx, val[:, None] * g[None, :])


def adamw_step_np(param, grad, m, v, t, lr, beta1, beta2, eps, wd, scratch=None):
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


def csr_matvec_np(data, indices, indptr, w, b):
    """z = X @ w + b over CSR rows."""
    n = indptr.shape[0] - 1
    if data.size == 0:
        return np.full(n, b, dtype=np.float64)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    z = np.bincount(rows, weights=data * w[indices], minlength=n)
    return z + b


def logistic_epochs_np(data, indices, indptr, y, w, b, epochs, lr, l2):
    """Full-batch gradient descent on L2-regularized logistic loss.

    Returns the trained bias; the weight vector is updated in place.
    """
    n = indptr.shape[0] - 1
    if n == 0:
        return b
    rows = np.repeat(np.arange(n), np.diff(indptr))
    for _ in range(epochs):
        z = np.bincount(rows, weights=data * w[indices], minlength=n) + b
        p = _sigmoid_np(z)
        d = (p - y) / n
        gw = np.bincount(indices, weights=data * d[rows], minlength=w.shape[0])
        w -= lr * (gw + l2 * w)
        b -= lr * float(d.sum())
    return b


# ---------------------------------------------------------------------------
# numba backend (defined whenever numba is importable, bound by the flag)
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True, nogil=True)
    def project_rows_nb(proj, idx, val):
        e = proj.shape[1]
        r = np.zeros(e, dtype=np.float64)
        for i in range(idx.shape[0]):
            row = idx[i]
            x = val[i]
            for j in range(e):
                r[j] += x * proj[row, j]
        return r

    @njit(cache=True, nogil=True)
    def scatter_add_outer_nb(out, idx, val, g):
        e = g.shape[0]
        for i in range(idx.shape[0]):
            row = idx[i]
            x = val[i]
            for j in range(e):
                out[row, j] += x * g[j]

    @njit(cache=True, nogil=True)
    def adamw_step_nb(param, grad, m, v, t, lr, beta1, beta2, eps, wd, scratch=None):
        # scratch is accepted for signature parity with the numpy kernel; unused
        c1 = 1.0 - beta1 ** t
        c2 = 1.0 - beta2 ** t
        p = param.ravel()
        g = grad.ravel()
        mm = m.ravel()
        vv = v.ravel()
        for i in range(p.shape[0]):
            mm[i] = beta1 * mm[i] + (1.0 - beta1) * g[i]
            vv[i] = beta2 * vv[i] + (1.0 - beta2) * g[i] * g[i]
            step = lr * (mm[i] / c1) / (np.sqrt(vv[i] / c2) + eps)
            p[i] -= step
            p[i] -= wd * p[i]

    @njit(cache=True, nogil=True)
    def csr_matvec_nb(data, indices, indptr, w, b):
        n = indptr.shape[0] - 1
        z = np.empty(n, dtype=np.float64)
        for i in range(n):
            acc = 0.0
            for k in range(indptr[i], indptr[i + 1]):
                acc += data[k] * w[indices[k]]
            z[i] = acc + b
        return z

    @njit(cache=True, nogil=True)
    def logistic_epochs_nb(data, indices, indptr, y, w, b, epochs, lr, l2):
        n = indptr.shape[0] - 1
        if n == 0:
            return b
        p = np.empty(n, dtype=np.float64)
        for _ in range(epochs):
            for i in range(n):
                acc = 0.0
                for k in range(indptr[i], indptr[i + 1]):
                    acc += data[k] * w[indices[k]]
                z = acc + b
                if z >= 0.0:
                    p[i] = 1.0 / (1.0 + np.exp(-z))
                else:
                    ez = np.exp(z)
                    p[i] = ez / (1.0 + ez)
            gb = 0.0
            gw = np.zeros(w.shape[0], dtype=np.float64)
            for i in range(n):
                d = (p[i] - y[i]) / n
                gb += d
                for k in range(indptr[i], indptr[i + 1]):
                    gw[indices[k]] += data[k] * d
            for j in range(w.shape[0]):
                w[j] -= lr * (gw[j] + l2 * w[j])
            b -= lr * gb
        return b

if USE_NUMBA:
    project_rows = project_rows_nb
    scatter_add_outer = scatter_add_outer_nb
    adamw_step = adamw_step_nb
    csr_matvec = csr_matvec_nb
    logistic_epochs = logistic_epochs_nb
else:
    project_rows = project_rows_np
    scatter_add_outer = scatter_add_outer_np
    adamw_step = adamw_step_np
    csr_matvec = csr_matvec_np
    logistic_epochs = logistic_epochs_np


def warmup():
    """Trigger JIT compilation of every kernel on tiny inputs."""
    proj = np.zeros((2, 3))
    idx = np.array([0, 1], dtype=np.int64)
    val = np.array([0.5, 0.5])
    g = np.zeros(3)
    project_rows(proj, idx, val)
    scatter_add_outer(proj, idx, val, g)
    adamw_step(proj, proj.copy(), proj.copy(), proj.copy(), 1, 0.0, 0.9, 0.999, 1e-8, 0.0)
    data = np.array([1.0, 1.0])
    indptr = np.array([0, 1, 2], dtype=np.int64)
    w = np.zeros(2)
    csr_matvec(data, idx, indptr, w, 0.0)
    logistic_epochs(data, idx, indptr, np.array([0.0, 1.0]), w, 0.0, 1, 0.1, 0.0)
