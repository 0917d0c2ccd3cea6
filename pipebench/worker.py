"""Benchmark worker: a fresh process that imports weaklabel and runs ops.

run.py starts it in one of two modes:

    worker.py fit <job.json>   run-all once, making the models that retag ops read
    worker.py ops <job.json>   timed ops with output checks, then an optional traced op

Either mode writes its result to the job's ``result_path``. The pipeline
runs on the numpy kernels with threads=1.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import weaklabel
from weaklabel import kernels, pipeline
from weaklabel.config import make_config

MODEL_FILES = ("encoder.npz", "classifier.npz")
STAGE_METRICS = ("ingest", "candidates", "sample_tuples", "train_encoder", "score",
                 "self_train", "predict", "evaluate")
ARTIFACT_METRICS = {"classifier": "classifier.npz", "predictions": "predictions.jsonl",
                    "encoder": "encoder.npz", "scores": "scores.jsonl"}
KERNELS = ("adamw_step", "scatter_add_outer", "project_rows", "logistic_epochs")


def _jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Reference:
    """What correct outputs must satisfy, read from the generated inputs."""

    def __init__(self, job: dict):
        papers = _jsonl(job["corpus"])
        self.paper_ids = {p["id"] for p in papers}
        self.gold = {p["id"]: set(p["labels"]) for p in papers}
        self.label_ids = sorted(rec["id"] for rec in _jsonl(job["labels"]))
        self.manifest = _jsonl(job["manifest"])

    def check(self, out_dir: Path, expect_sha: str | None):
        """Return (predictions sha256, rankings, problems) for one op's outputs."""
        problems = []
        try:
            pred_bytes = (out_dir / "predictions.jsonl").read_bytes()
            rankings = {}
            for line in pred_bytes.splitlines():
                rec = json.loads(line)
                rankings[rec["paper_id"]] = rec["ranking"]
            cands = {rec["paper_id"]: set(rec["candidates"])
                     for rec in _jsonl(out_dir / "candidates.jsonl")}
            stats = json.loads((out_dir / "score_stats.json").read_text(encoding="utf-8"))
            json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError) as exc:
            return None, {}, [f"unreadable outputs: {exc}"]
        sha = hashlib.sha256(pred_bytes).hexdigest()

        if set(rankings) != self.paper_ids:
            problems.append("predictions do not cover exactly the corpus papers")
        bad = sum(sorted(r) != self.label_ids for r in rankings.values())
        if bad:
            problems.append(f"{bad} rankings are not permutations of the label space")
        missed = sum(not set(m["abstract_labels"]) <= cands.get(m["paper_id"], set())
                     for m in self.manifest)
        if missed:
            problems.append(f"candidate recall below 1.0: {missed} papers miss a "
                            "planted abstract label")
        if stats["cross_score_calls"] != stats["sum_candidates"]:
            problems.append("cross_score_calls != sum of candidate counts")
        if stats["bi_embed_calls"] != stats["sum_paragraphs"] + stats["n_labels"]:
            problems.append("bi_embed_calls != paragraph count + label count")
        if expect_sha is not None and sha != expect_sha:
            problems.append("predictions bytes differ from the reference op")
        return sha, rankings, problems

    def fulltext_hit_at_5(self, rankings) -> float:
        hit = total = 0
        for m in self.manifest:
            top5 = set(rankings.get(m["paper_id"], [])[:5])
            total += len(m["fulltext_labels"])
            hit += sum(lid in top5 for lid in m["fulltext_labels"])
        return hit / total if total else 0.0


def _timed(fn):
    """Run one op with stdout captured; return (wall seconds, traceback or None)."""
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            fn()
    except Exception:  # an op's failure is counted, not fatal to the run
        return time.perf_counter() - t0, traceback.format_exc()
    return time.perf_counter() - t0, None


def _run_all(cfg):
    shutil.rmtree(cfg.output_dir, ignore_errors=True)
    return lambda: pipeline.run_pipeline(cfg)


def _retag(cfg):
    def op():
        pipeline.stage_score(cfg)
        pipeline.stage_predict(cfg)
        pipeline.stage_evaluate(cfg)
    return op


class OpLog:
    """Ops attempted in this worker, each checked against the reference bytes."""

    def __init__(self, ref: Reference, reference_sha: str | None):
        self.ref = ref
        self.reference_sha = reference_sha
        self.ops: list[dict] = []
        self.first_rankings = None

    def run(self, kind: str, cfg, make_op, readonly: tuple[Path, ...] = ()) -> dict:
        out_dir = Path(cfg.output_dir)
        before = {p: _sha256(p) for p in readonly}
        wall, error = _timed(make_op(cfg))
        problems = []
        if error is None:
            sha, rankings, problems = self.ref.check(out_dir, self.reference_sha)
            if self.reference_sha is None and sha is not None:
                self.reference_sha = sha
            if self.first_rankings is None and not problems:
                self.first_rankings = rankings
            problems += [f"{p.name} was rewritten" for p, h in before.items()
                         if _sha256(p) != h]
        op = {"id": len(self.ops), "kind": kind, "wall_s": wall,
              "error": error, "problems": problems}
        self.ops.append(op)
        return op


def _config(job: dict, output_dir) -> "weaklabel.PipelineConfig":
    return make_config(None, dict(job["config"], corpus_path=job["corpus"],
                                  labels_path=job["labels"], output_dir=str(output_dir),
                                  seed=job["run_seed"], threads=1))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _layer_metrics(tracer: spans.Tracer, out_dir: Path, ref: Reference,
                   fulltext_hit_at_5: float, traced_op_s: float, untraced_op_s: float) -> dict:
    t = spans.SpanTable(tracer)
    m = {}
    for stage in STAGE_METRICS:
        m[f"pipeline.{stage}_s"] = t.seconds(f"pipeline.stage_{stage}")
    for name, file in ARTIFACT_METRICS.items():
        m[f"pipeline.{name}_bytes"] = (out_dir / file).stat().st_size

    m["corpus.load_calls"] = t.calls("corpus.load_corpus")
    m["corpus.load_s"] = t.seconds("corpus.load_corpus")
    m["corpus.vocab_calls"] = t.calls("corpus.build_vocabulary")
    m["corpus.vocab_s"] = t.seconds("corpus.build_vocabulary")

    cands = {rec["paper_id"]: rec["candidates"] for rec in _jsonl(out_dir / "candidates.jsonl")}
    n_cands = sum(len(c) for c in cands.values())
    m["candidates.retrieve_s"] = t.seconds("candidates.retrieve_candidates")
    m["candidates.per_paper"] = n_cands / len(cands)
    m["candidates.precision"] = sum(len(set(c) & ref.gold[pid])
                                    for pid, c in cands.items()) / n_cands

    m["citegraph.sample_s"] = t.seconds("citegraph.sample_tuples")
    with open(out_dir / "tuples.jsonl", "rb") as fh:
        m["citegraph.tuples"] = sum(1 for line in fh if line.strip())

    losses = json.loads((out_dir / "loss_trace.json").read_text(encoding="utf-8"))["losses"]
    m["encoder.train_s"] = t.seconds("encoder.train")
    m["encoder.train_steps"] = len(losses)
    m["encoder.step_ms"] = 1e3 * m["encoder.train_s"] / len(losses)
    m["encoder.final_loss"] = losses[-1]
    m["encoder.featurize_calls"] = t.calls("encoder.featurize")
    m["encoder.featurize_s"] = t.seconds("encoder.featurize")
    m["encoder.featurize_unique_share"] = (len(tracer.featurized_texts)
                                           / max(m["encoder.featurize_calls"], 1))
    m["encoder.bi_embed_calls"] = t.calls("encoder.bi_embed")
    m["encoder.cross_score_calls"] = t.calls("encoder.cross_score_pair")

    for k in KERNELS:
        m[f"kernels.{k}_calls"] = t.calls(f"kernels.{k}")
        m[f"kernels.{k}_s"] = t.seconds(f"kernels.{k}")

    m["ranker.score_cross_s"] = t.seconds("ranker.score_cross")
    m["ranker.aggregate_s"] = t.seconds("ranker.aggregate_hierarchy")

    m["selftrain.tfidf_s"] = (t.seconds("selftrain.build_tfidf_matrix")
                              + t.seconds("selftrain.tfidf_vector",
                                          outside="selftrain.build_tfidf_matrix"))
    m["selftrain.fit_s"] = t.seconds("selftrain.train_classifier")
    m["selftrain.predict_proba_calls"] = t.calls("selftrain.predict_proba")
    m["selftrain.predict_proba_s"] = t.seconds("selftrain.predict_proba")
    with np.load(out_dir / "classifier.npz") as data:
        weights = data["weights"]
        m["selftrain.weight_nonzero_share"] = np.count_nonzero(weights) / max(weights.size, 1)
    m["selftrain.fulltext_hit_at_5"] = fulltext_hit_at_5

    m["metrics.evaluate_s"] = t.seconds("metrics.evaluate")

    for layer, seconds in t.layer_self_seconds().items():
        m[f"{layer}.self_s"] = seconds
    m["trace.spans"] = int(t.duration.size)
    m["trace.op_s"] = traced_op_s
    m["trace.untraced_op_s"] = untraced_op_s
    m["trace.overhead_share"] = traced_op_s / untraced_op_s - 1.0
    return {k: float(v) for k, v in m.items()}


def _fit(job: dict) -> dict:
    cfg = _config(job, job["out_dir"])
    log = OpLog(Reference(job), None)
    op = log.run("fit", cfg, _run_all)
    return {"fit_s": op["wall_s"], "error": op["error"], "problems": op["problems"],
            "reference_sha": log.reference_sha}


def _ops(job: dict) -> dict:
    ref = Reference(job)
    out_dir = Path(job["out_dir"])
    cfg = _config(job, out_dir)
    retag = job["mode"] == "retag"
    make_op = _retag if retag else _run_all
    readonly = tuple(out_dir / f for f in MODEL_FILES) if retag else ()
    log = OpLog(ref, job.get("reference_sha"))

    begin = time.perf_counter()
    while len(log.ops) < job["min_ops"] or time.perf_counter() - begin < job["seconds"]:
        log.run("untraced", cfg, make_op, readonly)
    untraced = [op["wall_s"] for op in log.ops if not (op["error"] or op["problems"])]
    result = {
        "backend": kernels.BACKEND,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "n_papers": len(ref.paper_ids),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "artifact_mb": _dir_bytes(out_dir) / 1e6,
        "untraced_op_s": untraced,
    }
    if log.first_rankings is not None:
        report = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
        result["quality"] = {
            "p_at_1": report["P@1"], "p_at_5": report["P@5"],
            "psp_at_5": report["PSP@5"], "ndcg_at_5": report["NDCG@5"],
            "fulltext_hit_at_5": ref.fulltext_hit_at_5(log.first_rankings),
        }

    if job["trace"] and untraced:
        tracer = spans.Tracer()
        spans.install(tracer)
        traced_cfg = cfg
        if retag:
            traced_cfg = dataclasses.replace(cfg, output_dir=str(out_dir) + "-traced")
            tracer.op_id = len(log.ops)
            log.run("traced-fit", traced_cfg, _run_all)
        tracer.op_id = len(log.ops)
        traced = log.run("traced", traced_cfg, make_op)
        if not (traced["error"] or traced["problems"]):
            result["layers"] = _layer_metrics(
                tracer, Path(traced_cfg.output_dir), ref, result["quality"]["fulltext_hit_at_5"],
                traced["wall_s"], float(np.median(untraced)))
        tracer.write_tsv(job["spans_path"])
    result["ops"] = log.ops
    return result


def main(argv) -> int:
    mode, job_path = argv[1], argv[2]
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    src = Path(job["src"]).resolve()
    if src not in Path(weaklabel.__file__).resolve().parents:
        print(f"weaklabel was imported from {weaklabel.__file__}, not {src}", file=sys.stderr)
        return 1
    result = _fit(job) if mode == "fit" else _ops(job)
    tmp = job["result_path"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result_path"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
