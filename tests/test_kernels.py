"""Semantics of the numeric kernels against hand-written references."""

import math

import numpy as np
import pytest

from weaklabel import kernels
from weaklabel.corpus import build_vocabulary, count_terms
from weaklabel.encoder import BaseFeaturizer
from weaklabel.selftrain import tfidf_from_terms

from conftest import load_corpus_records, paper_record


def test_project_rows_empty_vector_is_zero():
    proj = np.ones((4, 3))
    out = kernels.project_rows(proj, np.empty(0, dtype=np.int64), np.empty(0))
    np.testing.assert_array_equal(out, np.zeros(proj.shape[1]))


def test_scatter_add_outer_accumulates_repeated_indices():
    rng = np.random.default_rng(1)
    idx = np.array([3, 7, 3, 0, 7, 3], dtype=np.int64)
    val = rng.normal(size=idx.size)
    g = rng.normal(size=8)
    out = np.zeros((10, 8))
    kernels.scatter_add_outer(out, idx, val, g)
    ref = np.zeros((10, 8))
    for i, x in zip(idx, val):
        ref[i] += x * g
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)


def test_csr_matvec_empty_rows():
    data = np.array([2.0])
    indices = np.array([1], dtype=np.int64)
    indptr = np.array([0, 0, 1, 1], dtype=np.int64)  # rows 0 and 2 empty
    w = np.array([0.0, 3.0])
    np.testing.assert_allclose(kernels.csr_matvec(data, indices, indptr, w, 1.0),
                               [1.0, 7.0, 1.0])


class TestAdamwSemantics:
    def test_matches_reference_formulas(self):
        # independent scalar re-derivation of the update rule
        rng = np.random.default_rng(5)
        p = rng.normal(size=(3, 2))
        m = np.zeros((3, 2))
        v = np.zeros((3, 2))
        p_ref, m_ref, v_ref = p.copy(), m.copy(), v.copy()
        lr, b1, b2, eps, wd = 0.05, 0.9, 0.999, 1e-8, 0.01
        for t in range(1, 4):
            g = rng.normal(size=(3, 2))
            kernels.adamw_step(p, g, m, v, t, lr, b1, b2, eps, wd)
            m_ref = b1 * m_ref + (1 - b1) * g
            v_ref = b2 * v_ref + (1 - b2) * g * g
            step = lr * (m_ref / (1 - b1 ** t)) / (np.sqrt(v_ref / (1 - b2 ** t)) + eps)
            p_ref = p_ref - step
            p_ref = p_ref - wd * p_ref
        np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=1e-15)

    def test_zero_lr_zero_wd_is_identity(self):
        rng = np.random.default_rng(6)
        p = rng.normal(size=(4, 4))
        before = p.copy()
        kernels.adamw_step(p, rng.normal(size=(4, 4)), np.zeros((4, 4)),
                           np.zeros((4, 4)), 1, 0.0, 0.9, 0.999, 1e-8, 0.0)
        np.testing.assert_array_equal(p, before)


class TestLogisticTraining:
    def test_learns_separable_data(self):
        rng = np.random.default_rng(7)
        n = 40
        # feature 0 active for positives, feature 1 for negatives
        y = (np.arange(n) < n // 2).astype(np.float64)
        data = np.ones(n)
        indices = np.where(y > 0, 0, 1).astype(np.int64)
        indptr = np.arange(n + 1, dtype=np.int64)
        w = np.zeros(2)
        b = kernels.logistic_epochs(data, indices, indptr, y, w, 0.0, 50, 2.0, 1e-4)
        z = kernels.csr_matvec(data, indices, indptr, w, b)
        assert ((z > 0) == (y > 0)).mean() == 1.0

    def test_zero_rows_noop(self):
        w = np.ones(3)
        b = kernels.logistic_epochs(np.empty(0), np.empty(0, dtype=np.int64),
                                    np.array([0], dtype=np.int64),
                                    np.empty(0), w, 0.25, 10, 1.0, 0.0)
        assert b == 0.25
        np.testing.assert_array_equal(w, np.ones(3))


def adamw_allocating_reference(param, grad, m, v, t, lr, beta1, beta2, eps, wd):
    # the scaled-moment update written with one temporary per operation
    fold = kernels._fold_interval(beta1, beta2)
    k = (t - 1) % fold
    if k == 0:
        m *= beta1 ** fold
        v *= math.sqrt(beta2 ** fold)
    s1, s2 = beta1 ** k, beta2 ** k
    m += (1.0 - beta1) / s1 * grad
    v[...] = np.sqrt(np.square(v) + (1.0 - beta2) / s2 * grad * grad)
    root_c2, root_s2 = math.sqrt(1.0 - beta2 ** t), math.sqrt(s2)
    c = lr * root_c2 / (1.0 - beta1 ** t) * s1 / root_s2
    e = eps * root_c2 / root_s2
    param -= c * m / (v + e)
    param *= 1.0 - wd


def textbook_adamw(p, g, m, v, t, lr, b1, b2, eps, wd):
    """The unscaled moments and the updated parameters, as new arrays."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p - wd * p, m, v


@pytest.mark.parametrize("with_scratch", [False, True])
def test_adamw_in_place_bitwise_equals_allocating_reference(with_scratch):
    rng = np.random.default_rng(8)
    shape = (2048, 256)
    p = rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[0])
    m, v = np.zeros(shape), np.zeros(shape)
    p_ref, m_ref, v_ref = p.copy(), m.copy(), v.copy()
    scratch = (np.empty(shape), np.empty(shape)) if with_scratch else None
    for t in range(1, 21):
        g = rng.normal(size=shape) * 1e-3
        lr = wd = 1e-2 * t / 20  # a warmup-like schedule factor
        args = (t, lr, 0.9, 0.999, 1e-8, wd)
        if with_scratch:
            kernels.adamw_step(p, g, m, v, *args, scratch)
        else:
            kernels.adamw_step(p, g, m, v, *args)
        adamw_allocating_reference(p_ref, g, m_ref, v_ref, *args)
    np.testing.assert_array_equal(p, p_ref)
    np.testing.assert_array_equal(m, m_ref)
    np.testing.assert_array_equal(v, v_ref)


@pytest.mark.parametrize("shape, steps", [((2048, 256), 100), ((300,), 60)])
@pytest.mark.parametrize("with_scratch", [False, True])
def test_adamw_row_form_bitwise_equals_dense_reference(shape, steps, with_scratch):
    # the gradient is zero outside a random third of rows; passing only
    # those rows must give the dense update bit for bit (300 is not a
    # multiple of the block size, so the last block is short)
    rng = np.random.default_rng(9)
    p = rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[0])
    m, v = np.zeros(shape), np.zeros(shape)
    p_ref, m_ref, v_ref = p.copy(), m.copy(), v.copy()
    scratch = (np.empty(shape), np.empty(shape)) if with_scratch else None
    for t in range(1, steps + 1):
        n_rows = 0 if t % 25 == 0 else shape[0] // 3  # some steps touch no row
        rows = np.sort(rng.choice(shape[0], size=n_rows, replace=False))
        g_rows = rng.normal(size=(n_rows,) + shape[1:]) * 1e-3
        g = np.zeros(shape)
        g[rows] = g_rows
        sched = min(t / 30, (steps - t) / (steps - 30))  # warmup, then linear decay
        args = (t, 1e-2 * sched, 0.9, 0.999, 1e-8, 1e-2 * sched)
        kernels.adamw_step(p, g_rows, m, v, *args, scratch, rows)
        adamw_allocating_reference(p_ref, g, m_ref, v_ref, *args)
    np.testing.assert_array_equal(p, p_ref)
    np.testing.assert_array_equal(m, m_ref)
    np.testing.assert_array_equal(v, v_ref)


def test_adamw_row_form_matches_textbook_formula():
    # 200 steps of the row form against the unfolded bias corrections:
    # folding them changes only the rounding
    rng = np.random.default_rng(10)
    shape, steps = (2048, 256), 200
    p = rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[0])
    m, v = np.zeros(shape), np.zeros(shape)
    p_ref, m_ref, v_ref = p.copy(), m.copy(), v.copy()
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, steps + 1):
        rows = np.sort(rng.choice(shape[0], size=shape[0] // 3, replace=False))
        g_rows = rng.normal(size=(rows.size, shape[1])) * 1e-3
        sched = min(t / 30, (steps - t) / (steps - 30))  # warmup, then linear decay
        lr, wd = 1e-2 * sched, 1e-2 * sched
        kernels.adamw_step(p, g_rows, m, v, t, lr, b1, b2, eps, wd, rows=rows)
        g = np.zeros(shape)
        g[rows] = g_rows
        p_ref, m_ref, v_ref = textbook_adamw(p_ref, g, m_ref, v_ref, t, lr, b1, b2, eps, wd)
    np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("beta1, beta2, fold", [(0.9, 0.999, 175), (0.5, 0.9, 27), (0.0, 0.0, 1)])
def test_fold_interval_keeps_the_scale_above_the_floor(beta1, beta2, fold):
    assert kernels._fold_interval(beta1, beta2) == fold
    beta = min(beta1, beta2)
    if beta > 0:
        assert beta ** (fold - 1) >= kernels.ADAMW_SCALE_FLOOR > beta ** fold


def run_against_textbook(shape, steps, beta1, beta2, dense, lr, wd):
    """``steps`` of ``adamw_step`` (the dense form, or the row form on a third of
    the rows, every 25th step none) beside ``textbook_adamw``, with ``lr(t)``
    and ``wd(t)``; returns the kernel's state, the textbook's and the last
    step's scale exponent k."""
    rng = np.random.default_rng(11)
    p = rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[0])
    m, v = np.zeros(shape), np.zeros(shape)
    p_ref, m_ref, v_ref = p.copy(), m.copy(), v.copy()
    for t in range(1, steps + 1):
        n_rows = shape[0] if dense else (0 if t % 25 == 0 else shape[0] // 3)
        rows = np.sort(rng.choice(shape[0], size=n_rows, replace=False))
        g = np.zeros(shape)
        g[rows] = rng.normal(size=(n_rows,) + shape[1:]) * 1e-3
        args = (t, lr(t), beta1, beta2, 1e-8, wd(t))
        if dense:
            kernels.adamw_step(p, g, m, v, *args)
        else:
            kernels.adamw_step(p, g[rows], m, v, *args, rows=rows)
        p_ref, m_ref, v_ref = textbook_adamw(p_ref, g, m_ref, v_ref, *args)
    k = (steps - 1) % kernels._fold_interval(beta1, beta2)
    return (p, m, v), (p_ref, m_ref, v_ref), k


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("beta1, beta2", [(0.9, 0.999), (0.5, 0.9), (0.0, 0.0)])
def test_adamw_matches_textbook_formula_across_folds(beta1, beta2, dense):
    # each run crosses at least two folds of the moment scale and, unless
    # every step folds, ends between two, so that the last step's k is not 0
    fold = kernels._fold_interval(beta1, beta2)
    steps = 2 * fold + 60
    sched = lambda t: 1e-2 * min(t / 30, (steps - t) / (steps - 30) + 0.1)
    (p, m, v), (p_ref, m_ref, v_ref), k = run_against_textbook(
        (300, 16), steps, beta1, beta2, dense, lr=sched, wd=sched)
    assert steps > 2 * fold and (fold == 1 or k > 0)
    np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=1e-15)
    # the two arrays hold the moments scaled to the step of the last fold
    # (m is a signed sum, so its small entries are compared on its own scale)
    np.testing.assert_allclose(m * beta1 ** k, m_ref, rtol=1e-12,
                               atol=1e-12 * np.abs(m_ref).max())
    np.testing.assert_allclose(np.square(v) * beta2 ** k, v_ref, rtol=1e-12)


def test_adamw_10000_steps_stay_finite_and_textbook():
    # 57 folds at (0.9, 0.999); the schedule is the scorer's, warmup then
    # linear decay, so lr and wd change every step as in training (a wd held
    # constant rounds 1 - wd the same way every step, which `p *= 1 - wd`
    # accumulates to about 1e-14 over 10,000 steps)
    steps = 10_000
    sched = lambda t: min(t / 100, (steps - t) / (steps - 100) + 0.01)
    (p, m, v), (p_ref, _, _), _ = run_against_textbook(
        (64, 8), steps, 0.9, 0.999, dense=False, lr=lambda t: 1e-3 * sched(t),
        wd=lambda t: 1e-4 * sched(t))
    assert np.isfinite(p).all() and np.isfinite(m).all() and np.isfinite(v).all()
    np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("beta1, beta2", [(0.5, 0.9), (0.0, 0.0)])
def test_adamw_row_form_bitwise_equals_dense_form_across_folds(beta1, beta2):
    # the kernel's own dense form, given the zero rows, against its row form
    # over 100 steps: three folds at (0.5, 0.9), one every step at (0, 0)
    rng = np.random.default_rng(12)
    shape = (300, 16)
    p = rng.uniform(-1.0, 1.0, size=shape)
    m, v = np.zeros(shape), np.zeros(shape)
    p_d, m_d, v_d = p.copy(), m.copy(), v.copy()
    for t in range(1, 101):
        n_rows = 0 if t % 25 == 0 else shape[0] // 3
        rows = np.sort(rng.choice(shape[0], size=n_rows, replace=False))
        g = np.zeros(shape)
        g[rows] = rng.normal(size=(n_rows, shape[1])) * 1e-3
        args = (t, 1e-2, beta1, beta2, 1e-8, 1e-2)
        kernels.adamw_step(p, g[rows], m, v, *args, rows=rows)
        kernels.adamw_step(p_d, g, m_d, v_d, *args)
    np.testing.assert_array_equal(p, p_d)
    np.testing.assert_array_equal(m, m_d)
    np.testing.assert_array_equal(v, v_d)


def sigmoid_reference(z):
    """The sigmoid formula before it shared one ``1 + e``."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_sigmoid_bitwise_equals_reference():
    rng = np.random.default_rng(11)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324,
                      709.8, -709.8, 745.2, -745.2, 36.0, -36.0, 1.0, -1.0])
    z = np.concatenate([edges, rng.normal(0.0, 1.0, 200_000),
                        rng.normal(0.0, 40.0, 200_000),
                        rng.uniform(-800.0, 800.0, 100_000)]).reshape(-1, 4)
    before = z.copy()
    got = kernels._sigmoid(z)
    want = sigmoid_reference(z)
    assert got.shape == z.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert z.tobytes() == before.tobytes()  # the input is left as it was


def test_sigmoid_of_nan_is_nan():
    assert np.isnan(kernels._sigmoid(np.array([np.nan]))).all()


def assert_csr_rows(X, n_rows, n_cols):
    """X is a CsrMatrix of n_rows x n_cols with int64 indices and indptr and
    ascending unique columns in each row."""
    assert isinstance(X, kernels.CsrMatrix)
    assert X.indices.dtype == np.int64 and X.indptr.dtype == np.int64
    assert (X.n_rows, X.n_cols, X.indptr.size) == (n_rows, n_cols, n_rows + 1)
    assert X.indptr[0] == 0 and X.indptr[-1] == X.indices.size == X.data.size
    for i in range(n_rows):
        cols = X.indices[X.indptr[i]:X.indptr[i + 1]]
        assert (np.diff(cols) > 0).all() and (cols >= 0).all() and (cols < n_cols).all()


TEXTS = ["graph neural network graph", "", "  ,.;!? ", "network pruning of graph neural network",
         "graph graph graph"]


class TestCsrProducers:
    """Every producer of sparse rows returns the one CsrMatrix form."""

    @pytest.mark.parametrize("texts", [TEXTS, []])
    def test_featurize_many(self, texts):
        assert_csr_rows(BaseFeaturizer(dim=4, hash_seed=3).featurize_many(texts), len(texts), 4)
        assert_csr_rows(BaseFeaturizer(dim=2048).featurize_many(texts), len(texts), 2048)

    def test_count_terms_and_tfidf(self, tmp_path):
        recs = [paper_record(f"p{i}", title=text.split(" ")[0],
                             sections=[{"name": "s", "paragraphs": [text]}])
                for i, text in enumerate(TEXTS)]
        corpus = load_corpus_records(tmp_path, recs, min_words=1)
        words, counts = count_terms(corpus)
        assert_csr_rows(counts, len(corpus), len(words))
        assert counts.data.dtype == np.int64 and (counts.data > 0).all()
        vocab = build_vocabulary(corpus, min_df=1)
        X = tfidf_from_terms((words, counts), vocab)
        assert_csr_rows(X, len(corpus), len(vocab))
        assert X.data.dtype == np.float64 and (X.data != 0.0).all()


def per_row_scatter(X, rows):
    """The rows of X, dense, one row at a time."""
    out = np.zeros((rows.size, X.n_cols))
    for k, r in enumerate(rows):
        lo, hi = X.indptr[r], X.indptr[r + 1]
        out[k, X.indices[lo:hi]] = X.data[lo:hi]
    return out


class TestDenseBlocks:
    # rows 1 and 4 are empty
    X = kernels.CsrMatrix(np.arange(1.0, 9.0), np.array([0, 3, 9, 2, 5, 1, 4, 7], dtype=np.int64),
                          np.array([0, 3, 3, 5, 6, 6, 8], dtype=np.int64), 6, 10)

    @pytest.mark.parametrize("rows, block_rows", [
        ([2, 2, 1, 0, 4, 3, 2, 2, 1, 4], 4),  # repeats; the last block holds empty rows only
        ([5, 5, 5], 3),  # one block of one repeated row
        ([1], 1),
        ([0, 1, 2, 3, 4, 5], 128),
    ])
    def test_equal_a_per_row_scatter(self, rows, block_rows):
        rows = np.array(rows, dtype=np.int64)
        buf = np.zeros((min(rows.size, block_rows), self.X.n_cols))
        got = [(start, dense.copy()) for start, dense in
               kernels._dense_blocks(kernels._row_blocks(self.X, rows, block_rows), buf)]
        assert [start for start, _ in got] == list(range(0, rows.size, block_rows))
        np.testing.assert_array_equal(np.vstack([dense for _, dense in got]),
                                      per_row_scatter(self.X, rows))
        assert not buf.any()  # left zeroed for the next caller
