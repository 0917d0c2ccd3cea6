"""Numeric kernels on plain numpy arrays, and the one sparse-row type.

``CsrMatrix`` holds every sparse row the package makes: hashed text
features, term counts and tf-idf. ``_row_blocks`` and ``_dense_blocks``
write its rows densely, a block at a time, for the scorer's steps and the
label-tree fits and predictions. The pipeline also calls ``project_rows``
(embedding one text) and ``adamw_step`` (the scorer's optimizer), which the
scorer passes only the projection rows its batch touches (``rows``), since
every other row of the gradient is exactly zero; the parameter update runs
over blocks of ``ADAMW_BLOCK_ROWS`` rows. Both give the dense update bit for
bit. Its moments are kept scaled (``adamw_step`` says how, and when the
scale folds back), so that a row without a gradient term needs neither a
decay nor a square root; the update matches the textbook formula up to
rounding (README, "Numerics rule"). ``scatter_add_outer``, ``csr_matvec``
and ``logistic_epochs`` are per-vector forms of the batched scorer and
label-tree code on plain arrays, kept as its test references
(``logistic_epochs`` checks ``selftrain._fit_logistic``) and timed by
``pipebench/bench_kernels.py``. Indices are int64, floats are float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BACKEND = "numpy"
# rows per block of the AdamW parameter update: two float64 temporaries of
# 128 x 256 take 512 KiB, well inside a 4 MiB L2
ADAMW_BLOCK_ROWS = 128
# the least beta**k the AdamW moments are scaled by before they fold back
ADAMW_SCALE_FLOOR = 1e-8


@dataclass
class CsrMatrix:
    """Sparse rows: row i holds ``data[indptr[i]:indptr[i + 1]]`` at the
    columns ``indices[...]``, ascending and each at most once; ``indices``
    and ``indptr`` are int64."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    n_rows: int
    n_cols: int


def _nonzeros(X: CsrMatrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions in X.data and X.indices of the nonzeros of ``rows``,
    row after row, and each row's nonzero count."""
    lo = X.indptr[rows]
    lengths = X.indptr[rows + 1] - lo
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1])) + np.repeat(lo - (ends - lengths), lengths), lengths


def _row_blocks(X: CsrMatrix, rows: np.ndarray, block_rows: int):
    """Cut ``rows`` of X (a row may repeat) into runs of at most
    ``block_rows`` rows.

    Yields (start, count, flat, values): writing ``values`` at ``flat``
    into a zeroed, raveled (count, n_cols) buffer gives rows
    ``rows[start:start + count]`` densely.
    """
    for start in range(0, rows.size, block_rows):
        block = rows[start:start + block_rows]
        take, lengths = _nonzeros(X, block)
        local = np.repeat(np.arange(block.size), lengths)
        yield start, block.size, local * X.n_cols + X.indices[take], X.data[take]


def _dense_blocks(blocks, buf: np.ndarray):
    """Yield (start, dense rows) for each of ``blocks``, reusing ``buf``.

    A yielded view is valid until the next one is requested; ``buf`` is
    left zeroed.
    """
    flat = buf.reshape(-1)
    for start, count, pos, values in blocks:
        flat[pos] = values
        yield start, buf[:count]
        flat[pos] = 0.0


def _sigmoid(z):
    """1 / (1 + e) where z >= 0, else e / (1 + e), with e = exp(-|z|): no
    exp overflows. Two float arrays the size of ``z`` are made."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.copyto(e, 1.0, where=z >= 0)
    return np.divide(e, d, out=d)


def project_rows(proj, idx, val):
    """r = sum_i val[i] * proj[idx[i], :] for a sparse feature vector (zeros if empty)."""
    return val @ proj[idx]


def scatter_add_outer(out, idx, val, g):
    """out[idx[i], :] += val[i] * g (duplicate indices accumulate)."""
    if idx.size:
        np.add.at(out, idx, val[:, None] * g[None, :])


def _fold_interval(beta1, beta2):
    """Steps between folds: the most n with both ``beta**(n-1) >= ADAMW_SCALE_FLOOR``."""
    beta = min(beta1, beta2)
    return 1 if beta <= 0.0 else 1 + int(math.log(ADAMW_SCALE_FLOOR) / math.log(beta))


def adamw_step(param, grad, m, v, t, lr, beta1, beta2, eps, wd, scratch=None, rows=None):
    """One decoupled-weight-decay Adam update, in place.

    ``lr`` and ``wd`` arrive already multiplied by the schedule factor;
    ``beta1`` and ``beta2`` lie in [0, 1). With ``rows`` (sorted unique
    indices along axis 0), ``grad`` holds only those rows of the gradient and
    every other row is taken as exactly zero; ``rows=None`` is the dense form.

    ``m`` and ``v`` start at zero and hold the moments scaled to the step
    ``t0`` of their last fold, with ``k = t - t0``: ``m = m_t / beta1**k``
    and ``v = sqrt(v_t / beta2**k)``. An untouched row keeps both; a touched
    row adds ``(1 - beta1) * g / beta1**k`` to ``m`` and sets ``v = sqrt(v**2
    + (1 - beta2) * g**2 / beta2**k)``. Every parameter then takes
    ``p -= C * m / (v + E)`` and ``p *= 1 - wd``, with ``C = lr * sqrt(1 -
    beta2**t) / (1 - beta1**t) * beta1**k / beta2**(k/2)`` and ``E = eps *
    sqrt(1 - beta2**t) / beta2**(k/2)``: the textbook update up to rounding.
    A step with ``(t - 1) % _fold_interval(beta1, beta2) == 0`` first folds
    the scale into both arrays (one pass each) and runs at ``k = 0``.

    Both loops run over blocks of ``ADAMW_BLOCK_ROWS`` rows; ``scratch``, an
    optional pair of arrays at least one block long, holds their temporaries.
    """
    if scratch is None:
        scratch = (np.empty_like(param[:ADAMW_BLOCK_ROWS]),
                   np.empty_like(param[:ADAMW_BLOCK_ROWS]))
    fold = _fold_interval(beta1, beta2)
    k = (t - 1) % fold
    if k == 0:
        m *= beta1 ** fold
        v *= math.sqrt(beta2 ** fold)
    s1, s2 = beta1 ** k, beta2 ** k
    for lo in range(0, grad.shape[0], ADAMW_BLOCK_ROWS):
        blk = slice(lo, lo + ADAMW_BLOCK_ROWS)
        touched = blk if rows is None else rows[blk]
        g = grad[blk]
        a, b = scratch[0][:g.shape[0]], scratch[1][:g.shape[0]]
        np.multiply(g, (1.0 - beta1) / s1, out=a)
        m[touched] += a
        np.multiply(g, (1.0 - beta2) / s2, out=a)
        a *= g
        np.square(v[touched], out=b)
        b += a
        np.sqrt(b, out=b)
        v[touched] = b
    root_c2, root_s2 = math.sqrt(1.0 - beta2 ** t), math.sqrt(s2)
    c = lr * root_c2 / (1.0 - beta1 ** t) * s1 / root_s2
    e = eps * root_c2 / root_s2
    for lo in range(0, param.shape[0], ADAMW_BLOCK_ROWS):
        blk = slice(lo, lo + ADAMW_BLOCK_ROWS)
        p_blk = param[blk]
        a, b = scratch[0][:p_blk.shape[0]], scratch[1][:p_blk.shape[0]]
        np.multiply(m[blk], c, out=a)
        np.add(v[blk], e, out=b)
        a /= b
        p_blk -= a
        p_blk *= 1.0 - wd


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
