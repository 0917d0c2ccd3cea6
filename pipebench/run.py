#!/usr/bin/env python3
"""End-to-end benchmark of the weaklabel pipeline on generated corpora.

    python3 pipebench/run.py --workload planted-500 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``). ``--seed`` is the synth seed: it fixes the generated corpus,
labels and planted-label manifest. ``--run-seed`` is the pipeline's root
seed. Inputs are generated before anything is timed; the program gets
only the corpus and label files.

Each run:
  1. starts SETUP_REPEATS fresh processes that only import weaklabel
     (their median is ``setup_s``; retag workloads add the fitting run,
     done once in its own fresh process);
  2. starts one worker that repeats the workload's op until ``--seconds``
     have passed (at least one op) and checks every op's outputs;
  3. with ``--trace 1``, the worker then wraps weaklabel's public
     functions and runs one traced op (on retag, also a traced fit) and
     reports per-layer metrics instead of end-to-end ones.

The last stdout line is the JSON result; the line before it holds the
provenance. See pipebench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 5

WIDE_CONFIG = {"train_steps": 50}
# "ops" is the least number of ops a run times, whatever --seconds says.
WORKLOADS = {
    # op = run-all; scorer training is ~90% of an op (default config)
    "planted-500": {"papers": 500, "labels": 50, "config": {}, "mode": "run-all", "ops": 1},
    # op = run-all; label-tree fitting and beam search dominate
    "wide-1000": {"papers": 1000, "labels": 220, "config": WIDE_CONFIG, "mode": "run-all",
                  "ops": 2},
    # op = score + predict + evaluate over models fitted during set-up
    "retag-1000": {"papers": 1000, "labels": 220, "config": WIDE_CONFIG, "mode": "retag",
                   "ops": 2},
}

END_TO_END = {
    "papers_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB",
    "p_at_1": "share", "p_at_5": "share", "psp_at_5": "score", "ndcg_at_5": "share",
}


def per_layer_units(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_share", "_at_5")) or name == "candidates.precision":
        return "share"
    if name == "encoder.final_loss":
        return "nats"
    if name == "candidates.per_paper":
        return "count/paper"
    return "count"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["WEAKLABEL_NUMBA"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _remaining(started: float) -> float:
    left = RUN_LIMIT_S - (time.monotonic() - started)
    if left <= 0:
        raise SystemExit("benchmark: out of time before the workload finished")
    return left


def _spawn(args: list[str], log: Path, started: float) -> subprocess.CompletedProcess:
    with open(log, "ab") as fh:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                              stdout=subprocess.PIPE, stderr=fh,
                              timeout=_remaining(started))
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise SystemExit(f"benchmark: {args[0]} exited {proc.returncode}\n{tail}")
    return proc


def _worker(mode: str, job: dict, work: Path, started: float) -> dict:
    job_path = work / f"{mode}-job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path = Path(job["result_path"])
    result_path.unlink(missing_ok=True)
    _spawn([str(HERE / "worker.py"), mode, str(job_path)], work / "worker.log", started)
    return json.loads(result_path.read_text(encoding="utf-8"))


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode("utf-8") + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _generate(spec: dict, seed: int, data: Path) -> dict:
    sys.path.insert(0, str(SRC))
    from weaklabel.synth import SyntheticSpec, write_synthetic

    data.mkdir(parents=True)
    paths = {k: data / f"{k}.jsonl" for k in ("corpus", "labels", "manifest")}
    write_synthetic(SyntheticSpec(n_papers=spec["papers"], n_labels=spec["labels"], seed=seed),
                    paths["corpus"], paths["labels"], paths["manifest"])
    return {k: str(p) for k, p in paths.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="synth seed (inputs)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat ops until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-seed", type=int, default=7, help="pipeline root seed")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "weaklabel" / "__init__.py").is_file():
        print(f"benchmark: no weaklabel sources under {SRC}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = _generate(spec, args.seed, work / "inputs")

    import_s = [float(_spawn([str(HERE / "import_time.py"), repr(time.monotonic())],
                             work / "worker.log", started).stdout)
                for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(import_s)

    job = {"src": str(SRC), "mode": spec["mode"], "config": spec["config"],
           "run_seed": args.run_seed, "seconds": args.seconds, "min_ops": spec["ops"],
           "trace": bool(args.trace),
           "out_dir": str(work / "out"), "spans_path": str(work / "spans.tsv"),
           **inputs}
    fit_s = None
    if spec["mode"] == "retag":
        fit = _worker("fit", dict(job, result_path=str(work / "fit-result.json")),
                      work, started)
        if fit["error"] or fit["problems"]:
            raise SystemExit(f"benchmark: the fitting run failed: "
                             f"{fit['error'] or fit['problems']}")
        fit_s = fit["fit_s"]
        setup_s += fit_s
        job["reference_sha"] = fit["reference_sha"]
    res = _worker("ops", dict(job, result_path=str(work / "ops-result.json")), work, started)

    ops = res["ops"]
    failed = [op for op in ops if op["error"] or op["problems"]]
    untraced = res["untraced_op_s"]
    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_units(name)}
                   for name, value in res.get("layers", {}).items()}
    else:
        values = dict(res.get("quality", {}),
                      papers_per_s=res["n_papers"] / statistics.median(untraced)
                      if untraced else 0.0,
                      setup_s=setup_s, peak_rss_mb=res["peak_rss_mb"],
                      artifact_mb=res["artifact_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items() if name in values}
    correct = not failed

    for op in failed:
        print(f"op {op['id']} ({op['kind']}) failed: "
              f"{op['error'] or '; '.join(op['problems'])}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, {len(failed)} failed, "
          f"error_rate {len(failed) / len(ops):.4f}; op wall s {[round(t, 3) for t in untraced]}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    if "quality" in res and not args.trace:
        print(f"  {'fulltext_hit_at_5':<36} {res['quality']['fulltext_hit_at_5']:>14.6g} share"
              " (unbounded: reported per layer as selftrain.fulltext_hit_at_5)")
    provenance = {
        "git_sha": _git_sha(),
        "src_sha256": _sha256_files(sorted(SRC.rglob("*.py"))),
        "inputs_sha256": _sha256_files([Path(inputs["corpus"]), Path(inputs["labels"])]),
        "backend": res["backend"], "python": res["python"], "numpy": res["numpy"],
        "nproc": os.cpu_count(), "workload": args.workload, "synth_seed": args.seed,
        "run_seed": args.run_seed, "ops_attempted": len(ops), "fit_s": fit_s,
        "import_s": import_s, "trace": args.trace,
    }
    result = {"correct": correct, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    (work / "result.json").write_text(
        json.dumps({"provenance": provenance, "result": result, "ops": ops}, indent=1),
        encoding="utf-8")
    for out in (work / "out", work / "out-traced", work / "inputs"):
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
