"""Backend equivalence: every numba kernel must agree with its numpy twin."""

import numpy as np
import pytest

from weaklabel import kernels


def rand_sparse(rng, dim, nnz):
    idx = np.sort(rng.choice(dim, size=nnz, replace=False)).astype(np.int64)
    val = rng.normal(size=nnz)
    return idx, val


def rand_csr(rng, n_rows, n_cols, density=0.2):
    data, indices, indptr = [], [], [0]
    for _ in range(n_rows):
        nnz = rng.binomial(n_cols, density)
        idx, val = rand_sparse(rng, n_cols, nnz)
        data.append(val)
        indices.append(idx)
        indptr.append(indptr[-1] + nnz)
    return (np.concatenate(data), np.concatenate(indices).astype(np.int64),
            np.array(indptr, dtype=np.int64))


needs_numba = pytest.mark.skipif(not kernels.HAS_NUMBA,
                                 reason="numba not importable")


@needs_numba
class TestBackendEquivalence:
    def test_project_rows(self):
        rng = np.random.default_rng(0)
        proj = rng.normal(size=(64, 16))
        idx, val = rand_sparse(rng, 64, 20)
        np.testing.assert_allclose(kernels.project_rows_nb(proj, idx, val),
                                   kernels.project_rows_np(proj, idx, val),
                                   rtol=1e-12, atol=1e-14)

    def test_project_rows_empty(self):
        proj = np.ones((4, 3))
        idx = np.empty(0, dtype=np.int64)
        val = np.empty(0)
        np.testing.assert_array_equal(kernels.project_rows_nb(proj, idx, val),
                                      np.zeros(3))

    def test_scatter_add_outer(self):
        rng = np.random.default_rng(1)
        idx, val = rand_sparse(rng, 32, 10)
        # duplicate indices must accumulate in both backends
        idx = np.concatenate([idx, idx[:3]])
        val = np.concatenate([val, val[:3]])
        g = rng.normal(size=8)
        a = np.zeros((32, 8))
        b = np.zeros((32, 8))
        kernels.scatter_add_outer_nb(a, idx, val, g)
        kernels.scatter_add_outer_np(b, idx, val, g)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_adamw_step(self):
        rng = np.random.default_rng(2)
        shape = (17, 5)
        state_a = [rng.normal(size=shape) for _ in range(2)] + [np.zeros(shape), np.zeros(shape)]
        state_b = [x.copy() for x in state_a]
        for t in range(1, 6):
            g = rng.normal(size=shape)
            kernels.adamw_step_nb(state_a[0], g, state_a[2], state_a[3], t,
                                  0.01, 0.9, 0.999, 1e-8, 0.001)
            kernels.adamw_step_np(state_b[0], g, state_b[2], state_b[3], t,
                                  0.01, 0.9, 0.999, 1e-8, 0.001)
        np.testing.assert_allclose(state_a[0], state_b[0], rtol=1e-10, atol=1e-13)

    def test_csr_matvec(self):
        rng = np.random.default_rng(3)
        data, indices, indptr = rand_csr(rng, 12, 30)
        w = rng.normal(size=30)
        np.testing.assert_allclose(
            kernels.csr_matvec_nb(data, indices, indptr, w, 0.5),
            kernels.csr_matvec_np(data, indices, indptr, w, 0.5),
            rtol=1e-12, atol=1e-14)

    def test_csr_matvec_empty_rows(self):
        data = np.array([2.0])
        indices = np.array([1], dtype=np.int64)
        indptr = np.array([0, 0, 1, 1], dtype=np.int64)  # rows 0 and 2 empty
        w = np.array([0.0, 3.0])
        for fn in (kernels.csr_matvec_nb, kernels.csr_matvec_np):
            np.testing.assert_allclose(fn(data, indices, indptr, w, 1.0),
                                       [1.0, 7.0, 1.0])

    def test_logistic_epochs(self):
        rng = np.random.default_rng(4)
        data, indices, indptr = rand_csr(rng, 25, 12)
        y = rng.integers(0, 2, size=25).astype(np.float64)
        w_a = np.zeros(12)
        w_b = np.zeros(12)
        b_a = kernels.logistic_epochs_nb(data, indices, indptr, y, w_a, 0.0, 15, 0.5, 1e-3)
        b_b = kernels.logistic_epochs_np(data, indices, indptr, y, w_b, 0.0, 15, 0.5, 1e-3)
        np.testing.assert_allclose(w_a, w_b, rtol=1e-9, atol=1e-12)
        assert b_a == pytest.approx(b_b, rel=1e-9, abs=1e-12)


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
    # the update written with one temporary per operation
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    param -= lr * mhat / (np.sqrt(vhat) + eps)
    param -= wd * param


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
            kernels.adamw_step_np(p, g, m, v, *args, scratch)
        else:
            kernels.adamw_step_np(p, g, m, v, *args)
        adamw_allocating_reference(p_ref, g, m_ref, v_ref, *args)
    np.testing.assert_array_equal(p, p_ref)
    np.testing.assert_array_equal(m, m_ref)
    np.testing.assert_array_equal(v, v_ref)
