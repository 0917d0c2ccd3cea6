#!/usr/bin/env python3
"""Micro-benchmark of weaklabel's numpy kernels.

    python3 pipebench/bench_kernels.py [--repeat 7]

It runs on one BLAS thread, like the pipeline benchmark. For each kernel
it reports the median wall time per call over ``--repeat`` timings, and
the floating-point operations and bytes moved per call. Operations and
bytes are computed from the shapes (the least traffic the algorithm
needs: each operand read once, each result written once, float64 values
and int64 indices), not measured; the rates derived from them are
labelled the same way. Sizes follow the default scorer
(2048 hash dims x 256 embedding dims) and a label-tree leaf fit of the
wide-1000 workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
F8 = I8 = 8


def _kernels():
    os.environ["WEAKLABEL_NUMBA"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from weaklabel import kernels

    return kernels


def _median_call_s(fn, calls: int, repeat: int) -> float:
    fn()
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def _csr(rng, n_rows, n_cols, nnz_per_row):
    import numpy as np

    indices = np.concatenate([np.sort(rng.choice(n_cols, size=nnz_per_row, replace=False))
                              for _ in range(n_rows)]).astype(np.int64)
    data = rng.random(indices.size) + 0.1
    indptr = np.arange(0, (n_rows + 1) * nnz_per_row, nnz_per_row, dtype=np.int64)
    return data, indices, indptr


def cases(kernels, rng):
    """Yield (name, shape note, callable, calls per timing, flops, bytes) per kernel."""
    import numpy as np

    h, e, nnz = 2048, 256, 64
    proj = rng.normal(size=(h, e))
    idx = np.sort(rng.choice(h, size=nnz, replace=False)).astype(np.int64)
    val = rng.normal(size=nnz)
    g = rng.normal(size=e)
    yield ("project_rows", f"nnz={nnz}, {h}x{e}",
           lambda: kernels.project_rows(proj, idx, val), 2000,
           2 * nnz * e, nnz * e * F8 + nnz * (I8 + F8) + e * F8)

    grad = np.zeros((h, e))
    yield ("scatter_add_outer", f"nnz={nnz}, {h}x{e}",
           lambda: kernels.scatter_add_outer(grad, idx, val, g), 2000,
           2 * nnz * e, 2 * nnz * e * F8 + nnz * (I8 + F8) + e * F8)

    p, gr, m = rng.normal(size=(h, e)), rng.normal(size=(h, e)), rng.normal(size=(h, e))
    v = np.abs(rng.normal(size=(h, e)))
    n = h * e
    yield ("adamw_step", f"{h}x{e}",
           lambda: kernels.adamw_step(p, gr, m, v, 10, 1e-3, 0.9, 0.999, 1e-8, 1e-5), 20,
           16 * n, 7 * n * F8)

    rows, cols, per_row, epochs = 600, 2000, 120, 20
    data, indices, indptr = _csr(rng, rows, cols, per_row)
    nz = data.size
    w = rng.normal(size=cols)
    yield ("csr_matvec", f"{rows}x{cols}, nnz/row={per_row}",
           lambda: kernels.csr_matvec(data, indices, indptr, w, 0.1), 200,
           2 * nz + rows, nz * (F8 + I8) + nz * F8 + rows * F8)

    y = rng.integers(0, 2, size=rows).astype(np.float64)
    w0 = np.zeros(cols)
    yield ("logistic_epochs", f"{rows}x{cols}, nnz/row={per_row}, {epochs} epochs",
           lambda: kernels.logistic_epochs(data, indices, indptr, y, w0.copy(), 0.0,
                                           epochs, 1.0, 1e-4), 5,
           epochs * (4 * nz + 8 * rows + 4 * cols),
           epochs * (2 * nz * (F8 + I8) + nz * F8 + 2 * nz * F8 + rows * F8 + 3 * cols * F8))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="timings per kernel")
    args = parser.parse_args(argv)
    kernels = _kernels()
    import numpy as np

    rows = []
    for name, shape, fn, calls, flops, nbytes in cases(kernels, np.random.default_rng(0)):
        t = _median_call_s(fn, calls, args.repeat)
        rows.append({"kernel": name, "shape": shape, "median_call_us": t * 1e6,
                     "computed_flops_per_call": flops, "computed_bytes_per_call": nbytes,
                     "computed_gflop_per_s": flops / t / 1e9,
                     "computed_gbyte_per_s": nbytes / t / 1e9})

    print(f"backend {kernels.BACKEND}, numpy {np.__version__}, python {sys.version.split()[0]}, "
          f"nproc {os.cpu_count()}; flops and bytes are computed from shapes")
    print(f"{'kernel':<18} {'shape':<34} {'us/call':>10} {'flops (computed)':>17} "
          f"{'bytes (computed)':>17} {'GFLOP/s':>8} {'GB/s':>7}")
    for r in rows:
        print(f"{r['kernel']:<18} {r['shape']:<34} {r['median_call_us']:>10.1f} "
              f"{r['computed_flops_per_call']:>17,} {r['computed_bytes_per_call']:>17,} "
              f"{r['computed_gflop_per_s']:>8.3f} {r['computed_gbyte_per_s']:>7.3f}")
    print(json.dumps({"backend": kernels.BACKEND, "numpy": np.__version__, "kernels": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
