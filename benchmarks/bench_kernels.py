#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy fallbacks.

Sizes mirror the real workload: 2048-dim hashed features projected to
256 dims during scorer training, and CSR logistic epochs over tf-idf
rows (the per-label form of the self-training fit). Without numba only
the numpy kernels are timed and the numba column reads ``n/a``.

Usage:
    python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import time

import numpy as np

from weaklabel import kernels


def timeit(fn, repeat):
    fn()  # warmup (JIT compile / cache touch)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# Each bench returns (label, kernel name, run) where run(kernel) does the
# timed work with either backend's version of that kernel.


def bench_project(rng):
    proj = rng.normal(size=(2048, 256))
    idx = np.sort(rng.choice(2048, size=400, replace=False)).astype(np.int64)
    val = rng.normal(size=400)
    return ("project_rows (nnz=400, 2048x256)", "project_rows",
            lambda k: [k(proj, idx, val) for _ in range(500)])


def bench_scatter(rng):
    idx = np.sort(rng.choice(2048, size=400, replace=False)).astype(np.int64)
    val = rng.normal(size=400)
    g = rng.normal(size=256)
    out = np.zeros((2048, 256))
    return ("scatter_add_outer (nnz=400, 2048x256)", "scatter_add_outer",
            lambda k: [k(out, idx, val, g) for _ in range(500)])


def bench_adamw(rng):
    shape = (2048, 256)
    state = {k: rng.normal(size=shape) for k in "pgmv"}
    state["v"] = np.abs(state["v"])

    def run(k):
        p, m, v = (state[key].copy() for key in "pmv")
        for t in range(1, 51):
            k(p, state["g"], m, v, t, 1e-2, 0.9, 0.999, 1e-8, 1e-4)

    return ("adamw_step (2048x256)", "adamw_step", run)


def make_csr(rng, n_rows, n_cols, nnz_per_row):
    indices = np.concatenate([
        np.sort(rng.choice(n_cols, size=nnz_per_row, replace=False))
        for _ in range(n_rows)]).astype(np.int64)
    data = rng.random(indices.size) + 0.1
    indptr = np.arange(0, (n_rows + 1) * nnz_per_row, nnz_per_row, dtype=np.int64)
    return data, indices, indptr


def bench_logistic(rng):
    data, indices, indptr = make_csr(rng, 2000, 5000, 60)
    y = rng.integers(0, 2, size=2000).astype(np.float64)
    return ("logistic_epochs (2000x5000, nnz/row=60, 20 epochs)", "logistic_epochs",
            lambda k: k(data, indices, indptr, y, np.zeros(5000), 0.0, 20, 1.0, 1e-4))


def bench_matvec(rng):
    data, indices, indptr = make_csr(rng, 2000, 5000, 60)
    w = rng.normal(size=5000)
    return ("csr_matvec (2000x5000)", "csr_matvec",
            lambda k: [k(data, indices, indptr, w, 0.1) for _ in range(200)])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions; best-of is reported")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    rows = []
    for bench in (bench_project, bench_scatter, bench_adamw, bench_logistic,
                  bench_matvec):
        label, kernel, run = bench(rng)
        t_np = timeit(lambda: run(getattr(kernels, f"{kernel}_np")), args.repeat)
        t_nb = (timeit(lambda: run(getattr(kernels, f"{kernel}_nb")), args.repeat)
                if kernels.HAS_NUMBA else None)
        rows.append((label, t_nb, t_np))

    width = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{width}}  {'numba':>9}  {'numpy':>9}  speedup")
    for label, t_nb, t_np in rows:
        if t_nb is None:
            print(f"{label:<{width}}  {'n/a':>9}  {t_np * 1e3:8.1f}ms  {'n/a':>6}")
        else:
            print(f"{label:<{width}}  {t_nb * 1e3:8.1f}ms  {t_np * 1e3:8.1f}ms  "
                  f"{t_np / t_nb:6.1f}x")


if __name__ == "__main__":
    main()
