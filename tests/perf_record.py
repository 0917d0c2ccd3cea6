"""The in-tree perf record: each tree's run-all, stage by stage, on fixed scales.

    python tests/perf_record.py TREE [TREE ...]

Each tree is a checkout of this repository (``git archive`` of a commit,
say), in a directory named after the commit it holds: its entry records
that name. For each scale of SCALES (synth seed 1, run seed 7) the first
tree's ``weaklabel synth`` writes the inputs once. The trees then run in
alternation, RUNS times each, each run in a fresh process with
``OPENBLAS_NUM_THREADS=1``. A run is ``pipeline.stages`` over one
``RunContext`` from the tree's ``src/``, with ``time.perf_counter`` around
each stage and around the whole. Peak RSS (``ru_maxrss``) comes from one
more run of each tree under ``MALLOC_MMAP_THRESHOLD_=131072``: a fixed
threshold steadies the peak but slows scorer training, so those runs are
not timed.

One entry per tree is appended to BENCH_pipeline.json at the repository
root. An entry holds the tree's name, when it was recorded, the number of
runs and the machine (CPUs, Python, numpy, the BLAS and the thread count
it ran with). Per scale it holds the config values besides the input
paths, run-all wall time (min, median, max), each stage's median time,
peak RSS in MB, each artifact's bytes and the ``score_stats.json``
counters. Entries of one call share their ``recorded`` time, so a gain is
read as k of k alternating pairs between entries of one call. Two trees
took about 4 minutes on 2 vCPU. The exit status is 0, 1 when a run fails,
and 2 on no tree or a path that is not a source tree.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # protocol, run as a script
from protocol import weaklabel  # noqa: E402

RECORD = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
# (name, papers, labels, config values besides the input paths)
SCALES = (("500x50", 500, 50, {"seed": 7}),
          ("1000x220", 1000, 220, {"seed": 7, "train_steps": 50}),
          ("5000x500", 5000, 500, {"seed": 7, "train_steps": 50}))
RUNS = 3
SYNTH_SEED = "1"

# one run-all from the tree whose src/ is the first argument, timed stage by stage; prints
# its times, its ru_maxrss and the BLAS it ran on as one JSON line
_RUN = """\
import contextlib, ctypes, io, json, resource, sys, time
src, corpus, labels, out, values = sys.argv[1:]
sys.path.insert(0, src)
import numpy as np
from weaklabel import pipeline
from weaklabel.config import make_config
if not pipeline.__file__.startswith(src):
    sys.exit(f"imported {pipeline.__file__}")
cfg = make_config(None, dict(corpus_path=corpus, labels_path=labels, output_dir=out,
                             **json.loads(values)))
stage_s = {}
with contextlib.redirect_stdout(io.StringIO()):  # evaluate prints its report
    start = time.perf_counter()
    ctx = pipeline.RunContext(cfg)
    for name, fn in pipeline.stages(cfg):
        began = time.perf_counter()
        fn(cfg, ctx)
        stage_s[name] = time.perf_counter() - began
    run_all_s = time.perf_counter() - start
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
try:
    core = ctypes.CDLL(np._core._multiarray_umath.__file__)
    threads = core.scipy_openblas_get_num_threads64_()
except (AttributeError, OSError):
    threads = "unknown"
print(json.dumps({"run_all_s": run_all_s, "stage_s": stage_s,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
                  "blas_threads": threads}))
"""


def run(tree, data: Path, out: Path, values: dict, **env) -> dict:
    """One run-all of ``tree`` over the inputs in ``data``, written to a fresh ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    src = os.path.join(os.path.realpath(tree), "src") + os.sep
    proc = subprocess.run([sys.executable, "-c", _RUN, src, str(data / "corpus.jsonl"),
                           str(data / "labels.jsonl"), str(out), json.dumps(values)],
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1", **env),
                          capture_output=True, text=True)
    if proc.returncode:
        why = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"{tree}: run-all failed with exit {proc.returncode}: {why}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_scale(trees, scale, runs: int, work: Path) -> list[dict]:
    """Each tree's record of one ``scale`` (an entry of SCALES), the BLAS it ran on under
    "blas"."""
    name, papers, labels, values = scale
    data = work / name
    proc = weaklabel(trees[0], work, "synth", "--papers", str(papers), "--label-count",
                     str(labels), "--seed", SYNTH_SEED, "--out-dir", str(data))
    if proc.returncode:
        raise RuntimeError(f"{trees[0]}: synth failed with exit {proc.returncode}")
    timed = [[] for _ in trees]
    for _ in range(runs):
        for i, tree in enumerate(trees):
            timed[i].append(run(tree, data, work / str(i), values))
    records = []
    for i, tree in enumerate(trees):
        out = work / str(i)  # the last timed run's output
        peak = run(tree, data, work / "rss", values, MALLOC_MMAP_THRESHOLD_="131072")
        walls = [r["run_all_s"] for r in timed[i]]
        records.append({
            "config": values,
            "run_all_s": {"min": min(walls), "median": statistics.median(walls),
                          "max": max(walls)},
            "stage_s": {stage: statistics.median(r["stage_s"][stage] for r in timed[i])
                        for stage in timed[i][0]["stage_s"]},
            "peak_rss_mb": peak["maxrss_kb"] / 1024,
            "artifact_bytes": {p.name: p.stat().st_size for p in sorted(out.iterdir())},
            "score_stats": json.loads((out / "score_stats.json").read_text(encoding="utf-8")),
            "blas": {key: peak[key] for key in ("numpy", "blas", "blas_threads")},
        })
    shutil.rmtree(data)
    return records


def record(trees, path=RECORD, scales=SCALES, runs: int = RUNS) -> list[dict]:
    """Measure ``trees`` on ``scales`` and append their entries to the JSON list at ``path``."""
    recorded = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    entries = [{"tree": os.path.basename(os.path.realpath(tree)), "recorded": recorded,
                "runs": runs, "scales": {}} for tree in trees]
    with tempfile.TemporaryDirectory() as tmp:
        for scale in scales:
            for entry, rec in zip(entries, measure_scale(trees, scale, runs, Path(tmp))):
                entry["machine"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                                    **rec.pop("blas")}
                entry["scales"][scale[0]] = rec
    path = Path(path)
    held = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    path.write_text(json.dumps(held + entries, indent=1) + "\n", encoding="utf-8")
    return entries


def main(argv: list[str]) -> int:
    """The script's exit status for ``argv`` (the trees)."""
    if not argv:
        print("usage: python tests/perf_record.py TREE [TREE ...]", file=sys.stderr)
        return 2
    missing = [tree for tree in argv if not (Path(tree) / "src" / "weaklabel").is_dir()]
    if missing:
        print(f"not a source tree (no src/weaklabel): {missing[0]}", file=sys.stderr)
        return 2
    try:
        entries = record(argv)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    for entry in entries:
        for name, rec in entry["scales"].items():
            print(f"{entry['tree']} {name}: run-all median {rec['run_all_s']['median']:.2f} s, "
                  f"peak RSS {rec['peak_rss_mb']:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
