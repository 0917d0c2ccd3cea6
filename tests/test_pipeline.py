import argparse
import dataclasses
import gc
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklabel import candidates as cand
from weaklabel import citegraph, cli, encoder, kernels, metrics, pipeline, ranker, selftrain
from weaklabel.config import ConfigError, PipelineConfig, make_config
from weaklabel.corpus import (Paper, load_corpus, load_labels, read_jsonl, read_npz_members,
                              tokenize, write_jsonl, write_npz)
from weaklabel.synth import SyntheticSpec, write_synthetic

from conftest import per_text_stage_score, reset_counters
import quality_gate
from numerics_rule import compare_outputs

SPEC = SyntheticSpec(n_papers=120, n_labels=20, labels_per_paper=3, seed=2)
OVERRIDES = dict(tuple_count=600, train_steps=220, seed=13)


def base_config(data_dir, out_dir, **extra):
    values = dict(corpus_path=str(data_dir / "corpus.jsonl"),
                  labels_path=str(data_dir / "labels.jsonl"),
                  output_dir=str(out_dir), **OVERRIDES)
    values.update(extra)
    return make_config(None, values)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    write_synthetic(SPEC, tmp / "corpus.jsonl", tmp / "labels.jsonl",
                    tmp / "manifest.jsonl")
    return tmp


@pytest.fixture(scope="module")
def run(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = base_config(data_dir, out)
    report = pipeline.run_pipeline(cfg)
    # the stored rankings, parsed here without read_predictions, which a test checks
    rankings = {rec["paper_id"]: rec["ranking"] for rec in read_jsonl(out / "predictions.jsonl")}
    return cfg, out, rankings, report


def artifact(out, key):
    return os.path.join(str(out), pipeline.ARTIFACTS[key][0])


class TestEndToEnd:
    def test_all_artifacts_written(self, run):
        _, out, _, _ = run
        for key in pipeline.ARTIFACTS:
            assert os.path.exists(artifact(out, key)), key

    def test_predictions_are_label_permutations(self, run, data_dir):
        cfg, _, rankings, _ = run
        labels = {l.id for l in load_labels(cfg.labels_path)}
        for ranking in rankings.values():
            assert sorted(ranking) == sorted(labels)

    def test_metrics_reasonable(self, run):
        _, _, _, report = run
        assert report.precision[1] >= 0.9
        assert 0.0 <= report.ndcg[5] <= 1.0

    def test_first_batch_loss_is_ln2(self, run):
        _, out, _, _ = run
        trace = json.load(open(artifact(out, "loss_trace")))
        assert trace["losses"][0] == pytest.approx(math.log(2), abs=1e-12)

    def test_encoder_meta_records_the_training_config(self, run):
        cfg, out, _, _ = run
        members = read_npz_members(artifact(out, "encoder"))
        meta = json.loads(bytes(members["meta"]).decode("utf-8"))
        assert list(meta["train"].items()) == [
            ("batch_size", cfg.batch_size), ("learning_rate", cfg.learning_rate),
            ("warmup_steps", cfg.warmup_steps), ("weight_decay", cfg.weight_decay),
            ("epsilon", cfg.epsilon), ("beta1", cfg.beta1), ("beta2", cfg.beta2),
            ("total_steps", cfg.train_steps), ("epochs", cfg.train_epochs),
            ("seed", cfg.stage_seed("train-encoder"))]

    def test_ingest_stats(self, run):
        _, out, _, _ = run
        stats = json.load(open(artifact(out, "ingest")))
        assert stats["n_papers"] == SPEC.n_papers
        assert stats["n_labels"] == SPEC.n_labels
        assert stats["paragraphs_per_paper"] > 1


def record_featurized(monkeypatch) -> list[Counter]:
    """The texts of each ``BaseFeaturizer.featurize_many`` call from now on, one
    Counter a call (``featurize`` hands it its one text)."""
    calls = []
    featurize_many = encoder.BaseFeaturizer.featurize_many

    def recording(self, batch):
        batch = list(batch)
        calls.append(Counter(batch))
        return featurize_many(self, batch)
    monkeypatch.setattr(encoder.BaseFeaturizer, "featurize_many", recording)
    return calls


def score_stage_texts(cfg) -> list[Counter]:
    """The texts of each featurizer call the score stage must make (no embeddings
    file, hierarchy on): one call for the label texts, then one per block of
    ``SCORE_BLOCK_PAPERS`` papers for every paper's title+abstract and
    paragraphs, each distinct text once a call."""
    corpus = load_corpus(cfg.corpus_path)
    blocks = [corpus[lo:lo + pipeline.SCORE_BLOCK_PAPERS]
              for lo in range(0, len(corpus), pipeline.SCORE_BLOCK_PAPERS)]
    return [Counter({l.text for l in load_labels(cfg.labels_path)})] + [
        Counter({text for p in block for text in (p.title_abstract, *p.paragraphs)})
        for block in blocks]


def rescore_recording_texts(cfg, monkeypatch, tmp_path):
    """Rerun ``stage_score`` on a copy of ``cfg``'s output; returns the texts of
    each featurizer call it made and the copy's config."""
    copy = tmp_path / "rescored"
    shutil.copytree(cfg.output_dir, copy)
    cfg = dataclasses.replace(cfg, output_dir=str(copy))
    texts = record_featurized(monkeypatch)
    pipeline.stage_score(cfg)
    return texts, cfg


class TestCallAccounting:
    def test_counters_match_cost_model(self, run):
        _, out, _, _ = run
        stats = json.load(open(artifact(out, "score_stats")))
        assert stats["n_empty_papers"] == 0
        assert stats["cross_score_calls"] == stats["sum_candidates"]
        assert stats["bi_embed_calls"] == stats["sum_paragraphs"] + stats["n_labels"]

    def test_per_paper_cross_calls_equal_candidate_count(self, data_dir, run):
        cfg, out, _, _ = run
        corpus = load_corpus(cfg.corpus_path)
        labels = load_labels(cfg.labels_path)
        model = encoder.load_model(artifact(out, "encoder"))
        cands = cand.read_candidates(artifact(out, "candidates"))
        paper = corpus[0]
        u = encoder.bi_embed(model, paper.title_abstract)
        label_embs = {l.id: encoder.bi_embed(model, l.text) for l in labels}
        reset_counters(model)
        ranker.score_cross(model, u, label_embs, cands[paper.id])
        assert model.counters.cross_score == len(cands[paper.id])
        assert ranker.score_cross(model, u, label_embs, []) == {}
        assert model.counters.cross_score == len(cands[paper.id])

    def test_score_stage_featurizes_each_text_once(self, monkeypatch, run, tmp_path):
        cfg, out, _, _ = run
        texts, rescored = rescore_recording_texts(cfg, monkeypatch, tmp_path)
        assert texts == score_stage_texts(rescored)
        assert open(artifact(rescored.output_dir, "scores"), "rb").read() == \
            open(artifact(out, "scores"), "rb").read()


class TestPlantedTopicScores:
    def test_planted_label_outscores_noncandidate(self, tmp_path):
        # two well-separated topics; the trained joint scorer must rank a
        # paper's planted label text above the other topic's label text
        data = tmp_path / "c2"
        data.mkdir()
        write_synthetic(SyntheticSpec(n_papers=200, n_labels=2,
                                      labels_per_paper=1,
                                      fulltext_only_fraction=0.0,
                                      edge_prob=0.2, seed=21),
                        data / "corpus.jsonl", data / "labels.jsonl")
        cfg = base_config(data, tmp_path / "c2out", tuple_count=800,
                          train_steps=300)
        for stage in ("candidates", "sample-tuples", "train-encoder"):
            dict(pipeline.STAGES)[stage](cfg)
        corpus = load_corpus(cfg.corpus_path)
        label_text = {l.id: l.text for l in load_labels(cfg.labels_path)}
        model = encoder.load_model(artifact(tmp_path / "c2out", "encoder"))
        wins = total = 0
        for paper in corpus[:60]:
            planted = sorted(paper.gold_labels)[0]
            other = next(lid for lid in label_text if lid != planted)
            wins += (encoder.cross_score(model, paper.title_abstract, label_text[planted])
                     > encoder.cross_score(model, paper.title_abstract, label_text[other]))
            total += 1
        assert wins / total >= 0.9


class TestDeterminismAndIsolation:
    def test_rerun_byte_identical(self, data_dir, run, tmp_path):
        cfg, out, _, _ = run
        cfg2 = base_config(data_dir, tmp_path / "again")
        pipeline.run_pipeline(cfg2)
        for key in ("candidates", "tuples", "scores", "predictions"):
            assert open(artifact(out, key), "rb").read() == \
                open(artifact(tmp_path / "again", key), "rb").read(), key

    def test_thread_count_does_not_change_output(self, data_dir, run, tmp_path):
        cfg, out, _, _ = run
        cfg4 = base_config(data_dir, tmp_path / "t4", threads=4)
        pipeline.run_pipeline(cfg4)
        assert open(artifact(out, "predictions"), "rb").read() == \
            open(artifact(tmp_path / "t4", "predictions"), "rb").read()

    def test_stagewise_subprocess_equals_single_shot(self, data_dir, run, tmp_path):
        cfg, out, _, _ = run
        stage_out = tmp_path / "stages"
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(dict(
            corpus_path=cfg.corpus_path, labels_path=cfg.labels_path,
            output_dir=str(stage_out), **OVERRIDES)))
        for name, _ in pipeline.STAGES:
            proc = subprocess.run(
                [sys.executable, "-m", "weaklabel.cli", name,
                 "--config", str(config_file)],
                capture_output=True, text=True)
            assert proc.returncode == 0, (name, proc.stderr)
        for key in pipeline.ARTIFACTS:
            assert open(artifact(out, key), "rb").read() == \
                open(artifact(stage_out, key), "rb").read(), key


class TestEvaluateStage:
    def test_reads_only_the_top_k_and_writes_the_same_metrics(self, data_dir, run, tmp_path,
                                                              monkeypatch):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        cfg = base_config(data_dir, copy)
        longest = []
        evaluate, read_predictions = pipeline.metrics.evaluate, pipeline.read_predictions

        def recording(rankings, *args, **kwargs):
            longest.append(max(len(r) for r in rankings.values()))
            return evaluate(rankings, *args, **kwargs)

        monkeypatch.setattr(pipeline.metrics, "evaluate", recording)
        pipeline.stage_evaluate(cfg)
        cut = (copy / "metrics.json").read_bytes()
        monkeypatch.setattr(pipeline, "read_predictions", lambda path, limit: read_predictions(path))
        pipeline.stage_evaluate(cfg)
        assert (copy / "metrics.json").read_bytes() == cut == \
            (out / "metrics.json").read_bytes()
        assert longest == [max(*cfg.precision_ks, *cfg.ndcg_ks), SPEC.n_labels]

    def test_read_predictions_limit(self, run):
        _, out, rankings, _ = run
        path = artifact(out, "predictions")
        assert pipeline.read_predictions(path) == rankings
        assert pipeline.read_predictions(path, limit=2) == {p: r[:2] for p, r in rankings.items()}


class TestPredictionsRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(records=st.dictionaries(
        st.text(max_size=8),
        st.tuples(st.lists(st.text(max_size=6), max_size=8),
                  st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5)),
        max_size=6),
        limit=st.none() | st.integers(0, 10))
    def test_written_records_read_back(self, records, limit):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "predictions.jsonl")
            write_jsonl(({"paper_id": pid, "ranking": ranking, "top_k_scores": scores}
                         for pid, (ranking, scores) in records.items()), path)
            assert [rec["top_k_scores"] for rec in read_jsonl(path)] == \
                [scores for _, scores in records.values()]
            got = pipeline.read_predictions(path, limit=limit)
        assert list(got) == list(records)
        assert got == {pid: ranking[:limit] for pid, (ranking, _) in records.items()}


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestJsonArtifactsRoundTrip:
    """train-encoder and evaluate write every number of ``loss_trace.json``
    and ``metrics.json`` so that it reads back exactly."""

    @pytest.fixture(scope="class")
    def stage_dir(self, data_dir, run, tmp_path_factory):
        _, out, _, _ = run
        copy = tmp_path_factory.mktemp("json_round_trip")
        shutil.copytree(out, copy, dirs_exist_ok=True)
        cfg = base_config(data_dir, copy)
        return cfg, pipeline.RunContext(cfg)

    @settings(max_examples=25, deadline=None)
    @given(losses=st.lists(FINITE, min_size=1, max_size=40))
    def test_loss_trace(self, stage_dir, losses):
        cfg, ctx = stage_dir
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoder, "train", lambda model, *args: (model, np.array(losses)))
            pipeline.stage_train_encoder(cfg, ctx)
        with open(artifact(cfg.output_dir, "loss_trace"), encoding="utf-8") as fh:
            got = json.load(fh)
        assert list(got) == ["losses"]
        assert np.array(got["losses"]).tobytes() == np.array(losses).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(report=st.builds(
        metrics.MetricsReport,
        **{name: st.dictionaries(st.integers(1, 20), FINITE, max_size=4)
           for name in ("precision", "ndcg", "psp", "psn")},
        n_papers=st.integers(0, 10**6), n_evaluated=st.integers(0, 10**6),
        n_skipped=st.integers(0, 10**6), mean_candidates=st.none() | FINITE))
    def test_metrics(self, stage_dir, report):
        cfg, ctx = stage_dir
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline.metrics, "evaluate", lambda *args, **kwargs: report)
            pipeline.stage_evaluate(cfg, ctx)
        with open(artifact(cfg.output_dir, "metrics"), encoding="utf-8") as fh:
            assert json.load(fh) == report.to_dict()


class TestNumericsRule:
    """``compare_outputs`` holds a run to the numerics rule: differences
    within its bounds pass, a reordered ranking or a larger loss change fails."""

    @pytest.fixture
    def dirs(self, run, tmp_path):
        _, out, _, _ = run
        shutil.copytree(out, tmp_path / "out")
        return out, tmp_path / "out"

    def test_within_the_bounds_holds(self, dirs):
        out, new = dirs
        assert compare_outputs(out, new) == []
        members = read_npz_members(new / "encoder.npz")
        meta = json.loads(bytes(members.pop("meta")).decode("utf-8"))
        members["proj"] += 1e-10
        write_npz(new / "encoder.npz", members, meta)
        trace = json.loads((new / "loss_trace.json").read_text())
        trace["losses"][-1] *= 1.0 + 1e-10
        (new / "loss_trace.json").write_text(json.dumps(trace))
        assert compare_outputs(out, new) == []

    def test_swapped_ranking_rejected(self, dirs):
        out, new = dirs
        recs = list(read_jsonl(new / "predictions.jsonl"))
        ranking = recs[3]["ranking"]
        ranking[0], ranking[1] = ranking[1], ranking[0]
        write_jsonl(recs, new / "predictions.jsonl")
        assert compare_outputs(out, new) == [
            f"predictions.jsonl: paper {recs[3]['paper_id']!r}: ranking not identical"]

    def test_loss_perturbation_rejected(self, dirs):
        out, new = dirs
        trace = json.loads((new / "loss_trace.json").read_text())
        trace["losses"][10] *= 1.0 + 1e-6
        (new / "loss_trace.json").write_text(json.dumps(trace))
        breaches = compare_outputs(out, new)
        assert len(breaches) == 1
        assert breaches[0].startswith("loss_trace.json: losses: differs by up to 1e-06 relative")

    def test_meta_difference_names_the_keys(self, dirs):
        out, new = dirs
        with np.load(new / "classifier.npz") as data:
            members = {key: data[key] for key in data.files}
        meta = json.loads(bytes(members["meta"]).decode("utf-8"))
        meta["beam_width"] = 10
        del meta["n_features"]
        meta["nodes"][0]["index"] = 0
        meta["label_ids"].reverse()
        members["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(new / "classifier.npz", **members)
        expected = ("classifier.npz: meta differs (added beam_width, added nodes[].index, "
                    "changed label_ids[], missing n_features)")
        assert compare_outputs(out, new) == [expected]
        proc = self.script(out, new)
        assert (proc.returncode, proc.stdout) == (1, expected + "\n")

    @staticmethod
    def script(*args):
        return subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__),
                                                            "numerics_rule.py"), *map(str, args)],
                              capture_output=True, text=True)

    def test_script_exits_0_when_the_rule_holds(self, dirs):
        proc = self.script(*dirs)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "the numerics rule holds\n", "")

    def test_script_exits_1_and_prints_each_breach(self, dirs):
        out, new = dirs
        recs = list(read_jsonl(new / "predictions.jsonl"))
        recs[3]["ranking"].reverse()
        write_jsonl(recs, new / "predictions.jsonl")
        proc = self.script(out, new)
        assert proc.returncode == 1
        assert proc.stdout == (f"predictions.jsonl: paper {recs[3]['paper_id']!r}: "
                               "ranking not identical\n")

    def test_script_exits_2_on_a_missing_directory(self, dirs, tmp_path):
        out, _ = dirs
        missing = tmp_path / "no_such_out"
        for args in ((out, missing), (missing, out)):
            proc = self.script(*args)
            assert proc.returncode == 2
            assert proc.stderr == f"not an output directory: {missing}\n"
            assert "Traceback" not in proc.stderr
        assert self.script(out).returncode == 2  # one directory only


class TestQualityGate:
    """``quality_gate.py`` fails a model change whose P@1, P@5, PSP@5 or
    NDCG@5 falls beyond the relative bound ``BENCHMARK.json`` gives it."""

    @pytest.fixture
    def dirs(self, run, tmp_path):
        _, out, _, _ = run
        shutil.copytree(out, tmp_path / "out")
        return out, tmp_path / "out"

    @staticmethod
    def script(*args):
        return subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__),
                                                            "quality_gate.py"), *map(str, args)],
                              capture_output=True, text=True)

    @staticmethod
    def scale(path, key, factor):
        report = json.loads((path / "metrics.json").read_text())
        report[key] *= factor
        (path / "metrics.json").write_text(json.dumps(report))
        return report[key]

    def test_bounds_come_from_the_benchmark(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as fh:
            spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
        assert quality_gate.bounds() == {
            "P@1": spec["p_at_1"]["bound"], "P@5": spec["p_at_5"]["bound"],
            "PSP@5": spec["psp_at_5"]["bound"], "NDCG@5": spec["ndcg_at_5"]["bound"]}
        assert all(spec[name]["better"] == "higher" for name in quality_gate.METRICS.values())

    def test_drops_within_the_bounds_and_rises_hold(self, dirs):
        out, new = dirs
        for key, bound in quality_gate.bounds().items():
            self.scale(new, key, 1.0 - 0.9 * bound)
        self.scale(new, "P@3", 0.0)  # not gated
        assert quality_gate.compare_metrics(out, new) == []
        assert quality_gate.compare_metrics(new, out) == []

    def test_script_exits_0_when_the_gate_holds(self, dirs):
        proc = self.script(*dirs, *dirs)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "the quality gate holds on 2 pair(s)\n", "")

    def test_script_exits_1_and_prints_each_breach(self, dirs):
        out, new = dirs
        old = json.loads((out / "metrics.json").read_text())
        low = self.scale(new, "NDCG@5", 0.8)
        proc = self.script(out, out, out, new)
        assert proc.returncode == 1
        assert proc.stdout == (f"{new}: NDCG@5 {old['NDCG@5']:.6g} -> {low:.6g}, "
                               "a drop of 0.2 relative (gate: 0.15)\n")

    def test_nan_and_a_fall_from_zero_are_breaches(self, tmp_path):
        for name, p1 in (("a", 0.0), ("b", -1e-9), ("c", math.nan)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "metrics.json").write_text(json.dumps({"P@1": p1}))
        limits = {"P@1": 0.1}
        assert len(quality_gate.compare_metrics(tmp_path / "a", tmp_path / "b", limits)) == 1
        assert len(quality_gate.compare_metrics(tmp_path / "a", tmp_path / "c", limits)) == 1
        assert len(quality_gate.compare_metrics(tmp_path / "c", tmp_path / "a", limits)) == 1

    def test_script_exits_2_on_bad_arguments(self, dirs, tmp_path):
        out, _ = dirs
        missing, empty = tmp_path / "no_such_out", tmp_path / "empty"
        empty.mkdir()
        for args, bad in (((out, missing), missing), ((missing, out), missing),
                          ((out, empty), empty)):
            proc = self.script(*args)
            assert (proc.returncode, proc.stderr) == (2, f"not an output directory: {bad}\n")
        for args in ((), (out,), (out, out, out)):
            proc = self.script(*args)
            assert proc.returncode == 2 and proc.stderr.startswith("usage:")


def count_input_reads(monkeypatch):
    """Count each read of an input and each build of the tf-idf features
    through the pipeline module; ``corpora`` holds a weakref to the first
    paper of every corpus loaded."""
    calls = {"load_corpus": 0, "load_labels": 0, "count_terms": 0,
             "vocabulary_from_terms": 0, "tfidf_from_terms": 0, "full_text_tokens": 0}
    corpora = []

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "load_corpus":
                corpora.append(weakref.ref(result[0]))
            return result
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("load_corpus", "load_labels", "count_terms", "vocabulary_from_terms"):
        counted(pipeline, name)
    counted(selftrain, "tfidf_from_terms")
    counted(Paper, "full_text_tokens")
    return calls, corpora


def count_paper_label_reads(monkeypatch) -> list[int]:
    """Count the pipeline's passes over the corpus file for ids and gold labels alone."""
    views = [0]
    read = pipeline.load_paper_labels

    def counted(*args):
        views[0] += 1
        return read(*args)
    monkeypatch.setattr(pipeline, "load_paper_labels", counted)
    return views


class TestRunContext:
    """One context per run: each input is read, and each feature matrix
    built, once; the context is released when the run returns."""

    def test_run_reads_each_input_once(self, monkeypatch, tmp_path):
        # the acceptance corpus (500 x 50, synth seed 1, run seed 7), trained briefly
        data = tmp_path / "data"
        data.mkdir()
        write_synthetic(SyntheticSpec(seed=1), data / "corpus.jsonl", data / "labels.jsonl",
                        data / "manifest.jsonl")
        cfg = base_config(data, tmp_path / "out", seed=7, tuple_count=400, train_steps=50)
        calls, corpora = count_input_reads(monkeypatch)
        report = pipeline.run_pipeline(cfg)
        assert calls == {"load_corpus": 1, "load_labels": 1, "count_terms": 1,
                         "vocabulary_from_terms": 1, "tfidf_from_terms": 1,
                         "full_text_tokens": 500}
        assert len(pipeline.read_predictions(artifact(cfg.output_dir, "predictions"))) == 500
        assert report is not None
        assert corpora[0]() is None  # nothing outlives the run's context

    def test_a_second_run_holds_no_more_traced_memory(self, tmp_path):
        # nothing a run makes is kept for the next: peak RSS that grows across run-alls in one
        # process must then come from the allocator, not from a Python object kept alive
        write_synthetic(SyntheticSpec(n_papers=40, n_labels=6, seed=3), tmp_path / "corpus.jsonl",
                        tmp_path / "labels.jsonl", tmp_path / "manifest.jsonl")
        cfg = make_config(None, dict(corpus_path=str(tmp_path / "corpus.jsonl"),
                                     labels_path=str(tmp_path / "labels.jsonl"),
                                     output_dir=str(tmp_path / "out"), seed=7, train_steps=5))
        held = []
        tracemalloc.start()
        try:
            for _ in range(2):
                pipeline.run_pipeline(cfg)
                gc.collect()
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert abs(held[1] - held[0]) <= 64 * 2 ** 10, held

    def test_cli_run_all_reads_each_input_once(self, monkeypatch, data_dir, tmp_path):
        calls, _ = count_input_reads(monkeypatch)
        assert cli.main(["run-all", "--corpus", str(data_dir / "corpus.jsonl"),
                         "--labels", str(data_dir / "labels.jsonl"),
                         "--output-dir", str(tmp_path), "--tuple-count", "200",
                         "--train-steps", "20"]) == 0
        assert calls["load_corpus"] == calls["load_labels"] == calls["count_terms"] == 1

    def test_standalone_stage_builds_its_own_context(self, monkeypatch, run, tmp_path):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / "predictions.jsonl").unlink()
        calls, corpora = count_input_reads(monkeypatch)
        pipeline.stage_predict(dataclasses.replace(cfg, output_dir=str(copy)))
        assert calls["load_corpus"] == calls["load_labels"] == calls["count_terms"] == 1
        assert corpora[0]() is None
        assert (copy / "predictions.jsonl").read_bytes() == \
            open(artifact(out, "predictions"), "rb").read()

    def test_stages_share_a_context(self, monkeypatch, run, tmp_path):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        cfg = dataclasses.replace(cfg, output_dir=str(copy))
        calls, _ = count_input_reads(monkeypatch)
        ctx = pipeline.RunContext(cfg)
        for fn in (pipeline.stage_score, pipeline.stage_self_train, pipeline.stage_predict):
            fn(cfg, ctx)
        assert calls["load_corpus"] == calls["count_terms"] == calls["tfidf_from_terms"] == 1
        for key in ("scores", "classifier", "predictions"):
            assert open(artifact(out, key), "rb").read() == \
                open(artifact(copy, key), "rb").read(), key

    def test_standalone_evaluate_reads_only_ids_and_gold_labels(self, monkeypatch, run,
                                                                 tmp_path, capsys):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / "metrics.json").unlink()
        calls, _ = count_input_reads(monkeypatch)
        views = count_paper_label_reads(monkeypatch)
        pipeline.stage_evaluate(dataclasses.replace(cfg, output_dir=str(copy)))
        assert calls == {"load_corpus": 0, "load_labels": 1, "count_terms": 0,
                         "vocabulary_from_terms": 0, "tfidf_from_terms": 0,
                         "full_text_tokens": 0}
        assert views == [1]
        assert (copy / "metrics.json").read_bytes() == \
            open(artifact(out, "metrics"), "rb").read()
        capsys.readouterr()

    def test_standalone_evaluate_tokenizes_no_corpus_text(self, monkeypatch, run, tmp_path,
                                                          capsys):
        # load_paper_labels walks each record as load_corpus does, but keeps no text
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        assert sum(len(paper.paragraphs) for paper in load_corpus(cfg.corpus_path)) > 0
        names = [name for label in load_labels(cfg.labels_path) for name in label.names]
        texts = []
        monkeypatch.setattr("weaklabel.corpus.tokenize",
                            lambda text: texts.append(text) or tokenize(text))
        monkeypatch.setattr("weaklabel.corpus.Paper", None)  # and builds no paper
        pipeline.stage_evaluate(dataclasses.replace(cfg, output_dir=str(copy)))
        assert texts == names  # load_labels checks each label name: 0 corpus texts
        assert (copy / "metrics.json").read_bytes() == \
            open(artifact(out, "metrics"), "rb").read()
        capsys.readouterr()

    def test_evaluate_in_a_shared_context_reads_no_file_again(self, monkeypatch, run,
                                                               tmp_path, capsys):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        cfg = dataclasses.replace(cfg, output_dir=str(copy))
        calls, _ = count_input_reads(monkeypatch)
        views = count_paper_label_reads(monkeypatch)
        ctx = pipeline.RunContext(cfg)
        for fn in (pipeline.stage_score, pipeline.stage_predict, pipeline.stage_evaluate):
            fn(cfg, ctx)
        assert calls["load_corpus"] == calls["load_labels"] == 1 and views == [0]
        for key in ("scores", "predictions", "metrics"):
            assert open(artifact(out, key), "rb").read() == \
                open(artifact(copy, key), "rb").read(), key
        capsys.readouterr()

    def test_context_of_another_config_rejected(self, run):
        cfg, _, _, _ = run
        ctx = pipeline.RunContext(dataclasses.replace(cfg, min_df=cfg.min_df + 1))
        with pytest.raises(ValueError, match="another config"):
            pipeline.stage_ingest(cfg, ctx)


def count_artifact_reads(monkeypatch) -> Counter:
    """Count each parse of an artifact a stage reads, by its reader's name."""
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args: calls.update([name]) or fn(*args))

    counted(citegraph, "read_tuples")
    counted(cand, "read_candidates")
    counted(encoder, "load_model")
    counted(ranker, "read_scores")
    counted(selftrain, "load_classifier")
    counted(pipeline, "read_predictions")
    return calls


def replace_file(path, data: bytes):
    """Put ``data`` at ``path`` as a new file, as a writer that renames into place does."""
    tmp = f"{path}.new"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


class TestHandedArtifacts:
    """In one context a stage takes what an earlier stage wrote from the
    context, not from its file, while the file is the one written."""

    @pytest.mark.parametrize("extra", [{}, {"use_selftrain": False}, {"ranking_limit": 3}],
                             ids=["default", "no selftrain", "ranking_limit 3"])
    def test_run_all_parses_none_of_its_artifacts(self, data_dir, tmp_path, monkeypatch,
                                                  capsys, extra):
        cfg = base_config(data_dir, tmp_path / "run", tuple_count=200, train_steps=20, **extra)
        alone = dataclasses.replace(cfg, output_dir=str(tmp_path / "alone"))
        calls = count_artifact_reads(monkeypatch)
        assert pipeline.run_pipeline(cfg) is not None
        assert calls == Counter()
        for _, fn in pipeline.stages(alone):
            fn(alone)  # each stage in a fresh context of its own, as the CLI runs one
        assert calls == Counter(read_tuples=1, load_model=1, read_candidates=2,
                                read_scores=1 + cfg.use_selftrain,
                                load_classifier=cfg.use_selftrain, read_predictions=1)
        files = sorted(os.listdir(tmp_path / "run"))
        assert files == sorted(os.listdir(tmp_path / "alone"))
        for file in files:
            assert (tmp_path / "run" / file).read_bytes() == \
                (tmp_path / "alone" / file).read_bytes(), file
        capsys.readouterr()

    @pytest.fixture
    def scored(self, data_dir, tmp_path):
        """A context that has run every stage up to score, and its config."""
        cfg = base_config(data_dir, tmp_path / "out", tuple_count=200, train_steps=20)
        ctx = pipeline.RunContext(cfg)
        for name, fn in pipeline.stages(cfg)[:5]:
            fn(cfg, ctx)
        assert name == "score"
        return cfg, ctx

    def test_scores_replaced_with_a_nan_fail_predict(self, scored, tmp_path):
        cfg, ctx = scored
        path = tmp_path / "out" / "scores.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rec = json.loads(lines[0])
        rec["candidates"][0]["mrr"] = float("nan")
        lines[0] = json.dumps(rec) + "\n"
        replace_file(path, "".join(lines).encode("utf-8"))
        problem = f"{path}: line 1: malformed record (non-finite number NaN); rerun score"
        for context in (ctx, None):  # in the context that wrote the file, and on its own
            with pytest.raises(ValueError, match=re.escape(problem)):
                pipeline.stage_predict(cfg, context)
        assert not (tmp_path / "out" / "predictions.jsonl").exists()

    def test_classifier_of_another_run_is_read(self, scored, data_dir, tmp_path):
        cfg, ctx = scored
        pipeline.stage_self_train(cfg, ctx)
        # at 20 labels a leaf of the default size holds them all: smaller leaves make the
        # trees, and so the rankings, depend on the seed
        other = base_config(data_dir, tmp_path / "seed8", tuple_count=200, train_steps=20,
                            seed=8, max_leaf=4)
        pipeline.run_pipeline(other)
        alone = tmp_path / "alone"
        shutil.copytree(tmp_path / "out", alone)
        for out in (tmp_path / "out", alone):
            replace_file(out / "classifier.npz", (tmp_path / "seed8" / "classifier.npz")
                         .read_bytes())
        calls = Counter()
        read = selftrain.load_classifier
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selftrain, "load_classifier", lambda path: calls.update([path]) or
                       read(path))
            pipeline.stage_predict(cfg, ctx)
            pipeline.stage_predict(dataclasses.replace(cfg, output_dir=str(alone)))
        assert calls == Counter([artifact(tmp_path / "out", "classifier"),
                                 artifact(alone, "classifier")])
        written = (tmp_path / "out" / "predictions.jsonl").read_bytes()
        assert written == (alone / "predictions.jsonl").read_bytes()
        # the swap mattered: the run's own classifier ranks otherwise
        pipeline.stage_self_train(cfg, ctx)
        pipeline.stage_predict(cfg, ctx)
        assert (tmp_path / "out" / "predictions.jsonl").read_bytes() != written

    def test_the_stage_that_reads_last_drops_the_object(self, scored, tmp_path, capsys):
        cfg, ctx = scored
        assert set(ctx._written) == {"candidates", "scores"}  # tuples and model taken
        pipeline.stage_self_train(cfg, ctx)
        pipeline.stage_predict(cfg, ctx)
        assert set(ctx._written) == {"candidates", "predictions"}
        pipeline.stage_evaluate(cfg, ctx)
        assert ctx._written == {}
        capsys.readouterr()


def per_candidate_cross(model, paper, labels_by_id, cand_ids, overrides):
    """Reference joint scores: both texts encoded afresh for every candidate."""
    out = {}
    u_over = overrides.get(paper.id)
    for lid in cand_ids:
        v_over = overrides.get(lid)
        if u_over is None and v_over is None:
            out[lid] = encoder.cross_score(model, paper.title_abstract, labels_by_id[lid].text)
            continue
        u = u_over if u_over is not None else encoder._embed_features(
            model, model.featurizer.featurize(paper.title_abstract), 0)
        v = v_over if v_over is not None else encoder._embed_features(
            model, model.featurizer.featurize(labels_by_id[lid].text), 0)
        out[lid] = encoder.cross_score_pair(model, u, v)
    return out


class TestScoreStage:
    """``stage_score`` rerun on a copy of a finished run's output directory."""

    @pytest.mark.parametrize("overridden, use_hierarchy", [
        ((), True), (("paper",), True), (("label",), True), (("paper", "label"), True),
        ((), False), (("paper", "label"), False),
    ])
    def test_joint_scores_match_per_candidate_path(self, data_dir, run, tmp_path,
                                                   overridden, use_hierarchy):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        corpus = load_corpus(cfg.corpus_path)
        labels_by_id = {l.id: l for l in load_labels(cfg.labels_path)}
        from weaklabel.candidates import read_candidates
        cands = read_candidates(artifact(out, "candidates"))
        # override one paper and one of its candidate labels
        paper = next(p for p in corpus if cands[p.id])
        keys = {"paper": paper.id, "label": cands[paper.id][0]}
        rng = np.random.default_rng(0)
        emb_file = tmp_path / "ext.tsv"
        emb_file.write_text("".join(
            f"{keys[k]}\t" + " ".join(map(repr, rng.normal(size=cfg.embed_dim).tolist())) + "\n"
            for k in overridden))
        pipeline.stage_score(base_config(data_dir, copy, use_hierarchy=use_hierarchy,
                                         embeddings_path=str(emb_file)))

        model = encoder.load_model(artifact(copy, "encoder"))
        overrides = encoder.load_embedding_overrides(emb_file, cfg.embed_dim)
        scored = ranker.read_scores(artifact(copy, "scores"))
        for p in corpus:
            want = per_candidate_cross(model, p, labels_by_id, cands[p.id], overrides)
            assert {r.label_id: r.score_x for r in scored[p.id]} == want, p.id
        stats = json.load(open(artifact(copy, "score_stats")))
        assert stats["cross_score_calls"] == stats["sum_candidates"]
        if use_hierarchy:
            assert stats["bi_embed_calls"] == (stats["sum_paragraphs"] + stats["n_labels"]
                                               - ("label" in overridden))
        else:
            assert stats["bi_embed_calls"] == 0

    def test_thread_count_gives_identical_score_files(self, data_dir, run, tmp_path):
        _, out, _, _ = run
        for threads in (1, 2):
            copy = tmp_path / f"t{threads}"
            shutil.copytree(out, copy)
            pipeline.stage_score(base_config(data_dir, copy, threads=threads))
        for key in ("scores", "score_stats"):
            want = open(artifact(out, key), "rb").read()
            for threads in (1, 2):
                assert open(artifact(tmp_path / f"t{threads}", key), "rb").read() == want, \
                    (key, threads)


class TestScoreBlocks:
    """The score stage featurizes a block of papers per call and writes what
    the per-text loop writes, across block boundaries."""

    N_PAPERS = 70  # two full blocks of 32 and a partial one
    NO_CANDIDATES, EMPTY = 5, 40  # in the first and in the second block

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        assert pipeline.SCORE_BLOCK_PAPERS == 32
        data = tmp_path_factory.mktemp("blocks")
        write_synthetic(SyntheticSpec(n_papers=self.N_PAPERS, n_labels=12, seed=4),
                        data / "corpus.jsonl", data / "labels.jsonl")
        recs = list(read_jsonl(data / "corpus.jsonl"))
        recs[self.NO_CANDIDATES].update(title="nothing to match", abstract="")
        # a label name as the whole title: candidates, but no paragraph
        name = next(read_jsonl(data / "labels.jsonl"))["names"][0]
        recs[self.EMPTY].update(title=name, abstract="",
                                sections=[{"name": "s", "paragraphs": ["too short"]}])
        write_jsonl(recs, data / "corpus.jsonl")
        out = data / "out"
        cfg = base_config(data, out, tuple_count=120, train_steps=20)
        for stage in ("candidates", "sample-tuples", "train-encoder"):
            dict(pipeline.STAGES)[stage](cfg)
        corpus = load_corpus(cfg.corpus_path)
        cands = cand.read_candidates(artifact(out, "candidates"))
        assert not cands[corpus[self.NO_CANDIDATES].id]
        assert corpus[self.EMPTY].is_empty and cands[corpus[self.EMPTY].id]
        return data, out, corpus

    @pytest.mark.parametrize("use_hierarchy", [True, False])
    @pytest.mark.parametrize("with_overrides", [False, True])
    def test_equals_per_text_loop(self, trained, tmp_path, use_hierarchy, with_overrides):
        data, out, corpus = trained
        extra = {}
        if with_overrides:
            # a label, the empty paper, a paper of the last block and a
            # paragraph of the second block
            labels = load_labels(data / "labels.jsonl")
            keys = [labels[3].id, corpus[self.EMPTY].id, corpus[66].id,
                    f"{corpus[33].id}#1"]
            rng = np.random.default_rng(3)
            emb_file = tmp_path / "ext.jsonl"
            embed_dim = base_config(data, out).embed_dim
            write_jsonl(({"id": key, "embedding": rng.normal(size=embed_dim).tolist()}
                         for key in keys), emb_file)
            extra["embeddings_path"] = str(emb_file)
        dirs = {}
        for side in ("blocks", "per_text"):
            dirs[side] = tmp_path / side
            shutil.copytree(out, dirs[side])
        pipeline.stage_score(base_config(data, dirs["blocks"], use_hierarchy=use_hierarchy,
                                         **extra))
        per_text_stage_score(base_config(data, dirs["per_text"], use_hierarchy=use_hierarchy,
                                         **extra))
        for key in ("scores", "score_stats"):
            assert open(artifact(dirs["blocks"], key), "rb").read() == \
                open(artifact(dirs["per_text"], key), "rb").read(), key

    def test_paper_override_alone_sets_u(self, trained, tmp_path):
        # one vector serves paragraph 0 and the joint scorer's u when both are
        # the title+abstract, but a file that names the paper sets u alone
        data, out, corpus = trained
        cands = cand.read_candidates(artifact(out, "candidates"))
        paper = next(p for p in corpus if p.paragraphs[:1] == [p.title_abstract] and cands[p.id])
        emb_file = tmp_path / "ext.jsonl"
        vec = np.random.default_rng(5).normal(size=base_config(data, out).embed_dim)
        write_jsonl([{"id": paper.id, "embedding": vec.tolist()}], emb_file)
        scores = {}
        for side, score, extra in (("plain", pipeline.stage_score, {}),
                                   ("blocks", pipeline.stage_score,
                                    {"embeddings_path": str(emb_file)}),
                                   ("per_text", per_text_stage_score,
                                    {"embeddings_path": str(emb_file)})):
            shutil.copytree(out, tmp_path / side)
            score(base_config(data, tmp_path / side, **extra))
            scores[side] = ranker.read_scores(artifact(tmp_path / side, "scores"))[paper.id]
        assert scores["blocks"] == scores["per_text"]
        assert [c.score_x for c in scores["blocks"]] != [c.score_x for c in scores["plain"]]


class TestEmbeddingOverrides:
    def test_override_replaces_surrogate_embedding(self, data_dir, run, tmp_path):
        cfg, out, _, _ = run
        base_stats = json.load(open(artifact(out, "score_stats")))
        labels = load_labels(cfg.labels_path)
        emb_file = tmp_path / "ext.tsv"
        vec = np.zeros(cfg.embed_dim)
        vec[0] = 1.0
        emb_file.write_text(f"{labels[0].id}\t" + " ".join(map(str, vec)) + "\n")
        cfg_ov = base_config(data_dir, tmp_path / "ov",
                             embeddings_path=str(emb_file))
        for stage in ("candidates", "sample-tuples", "train-encoder"):
            dict(pipeline.STAGES)[stage](cfg_ov)
        pipeline.stage_score(cfg_ov)
        ov_stats = json.load(open(artifact(tmp_path / "ov", "score_stats")))
        # exactly one label embedding came from the file instead of the model
        assert ov_stats["bi_embed_calls"] == base_stats["bi_embed_calls"] - 1
        scored = ranker.read_scores(artifact(tmp_path / "ov", "scores"))
        baseline = ranker.read_scores(artifact(out, "scores"))
        changed = any(
            a.label_id == labels[0].id and a.score_b != b.score_b
            for pid in scored for a, b in zip(scored[pid], baseline[pid]))
        assert changed


class TestOverrideIds:
    """An embeddings file none of whose ids names a label, a paper or a
    paragraph of the corpus fails the score stage before it writes; ids
    that name none in a file that matches in part are warned about."""

    @staticmethod
    def write_tsv(path, ids, dim):
        """One line per id, its vector drawn from a generator seeded by the id."""
        path.write_text("".join(
            f"{key}\t" + " ".join(map(repr, np.random.default_rng(list(key.encode()))
                                      .normal(size=dim).tolist())) + "\n" for key in ids))
        return path

    def test_file_matching_nothing_fails_and_writes_nothing(self, run, tmp_path, capsys):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        emb_file = self.write_tsv(tmp_path / "ext.tsv", ["nosuch"], cfg.embed_dim)
        assert cli.main(["score", "--corpus", cfg.corpus_path, "--labels", cfg.labels_path,
                         "--output-dir", str(copy), "--embeddings", str(emb_file)]) == 1
        assert (f"stage score failed: {emb_file}: none of its 1 ids is a label id, a paper id "
                "or a <paper_id>#<i> paragraph id of this corpus") in capsys.readouterr().err
        for key in ("scores", "score_stats"):
            assert open(artifact(copy, key), "rb").read() == open(artifact(out, key), "rb").read()
        assert sorted(os.listdir(copy)) == sorted(os.listdir(out))

    @pytest.mark.parametrize("kind", ["label", "paper", "paragraph"])
    def test_unknown_ids_warned_and_the_rest_used(self, run, tmp_path, caplog, kind):
        cfg, out, _, _ = run
        corpus = load_corpus(cfg.corpus_path)
        known = {"label": load_labels(cfg.labels_path)[0].id, "paper": corpus[1].id,
                 "paragraph": f"{corpus[2].id}#{len(corpus[2].paragraphs) - 1}"}[kind]
        unknown = [f"nosuch{i}" for i in range(3)] + [f"{corpus[2].id}#999", "x#0", "P"]
        files = {"known": [known], "mixed": unknown[:3] + [known] + unknown[3:]}
        for name, ids in files.items():
            copy = tmp_path / name
            shutil.copytree(out, copy)
            emb_file = self.write_tsv(tmp_path / f"{name}.tsv", ids, cfg.embed_dim)
            with caplog.at_level(logging.WARNING, logger="weaklabel.pipeline"):
                pipeline.stage_score(dataclasses.replace(cfg, output_dir=str(copy),
                                                         embeddings_path=str(emb_file)))
        warned = [r.getMessage() for r in caplog.records if "match no label" in r.getMessage()]
        assert warned == [f"{tmp_path / 'mixed.tsv'}: 6 of its 7 ids match no label, paper or "
                          f"paragraph (first {unknown[:5]})"]
        for key in ("scores", "score_stats"):
            assert open(artifact(tmp_path / "mixed", key), "rb").read() == \
                open(artifact(tmp_path / "known", key), "rb").read(), key
        assert open(artifact(tmp_path / "known", "scores"), "rb").read() != \
            open(artifact(out, "scores"), "rb").read()  # the known id was used


class TestEmptyPaperFallback:
    @pytest.fixture
    def empty_run(self, tmp_path):
        # paper E has no surviving paragraphs; its candidates still get
        # scored through the title+abstract fallback embedding
        body = " ".join(f"w{i} common topic words about things" for i in range(3))
        recs = []
        for pid, refs in (("A", ["C"]), ("B", ["C"]), ("C", []), ("D", ["C"])):
            recs.append({"id": pid, "title": "alpha beta",
                         "abstract": "a study of the alpha beta phenomenon "
                                     "with plenty of words",
                         "sections": [{"name": "s", "paragraphs": [body, body]}],
                         "bib_refs": refs, "labels": ["L0"]})
        recs.append({"id": "E", "title": "alpha beta", "abstract": "",
                     "sections": [{"name": "s", "paragraphs": ["too short"]}],
                     "bib_refs": [], "labels": ["L0"]})
        (tmp_path / "corpus.jsonl").write_text(
            "\n".join(json.dumps(r) for r in recs) + "\n")
        (tmp_path / "labels.jsonl").write_text(
            json.dumps({"id": "L0", "names": ["alpha beta"],
                        "description": "the alpha beta phenomenon"}) + "\n" +
            json.dumps({"id": "L1", "names": ["gamma delta"],
                        "description": "unrelated"}) + "\n")
        cfg = base_config(tmp_path, tmp_path / "out", tuple_count=40,
                          train_steps=10)
        pipeline.run_pipeline(cfg)
        return cfg, pipeline.read_predictions(artifact(cfg.output_dir, "predictions"))

    def test_empty_paper_scored_via_title_abstract(self, empty_run, tmp_path):
        cfg, rankings = empty_run
        scored = ranker.read_scores(artifact(tmp_path / "out", "scores"))
        assert [r.label_id for r in scored["E"]] == ["L0"]
        assert sorted(rankings["E"]) == ["L0", "L1"]
        stats = json.load(open(artifact(tmp_path / "out", "score_stats")))
        assert stats["n_empty_papers"] == 1
        # the fallback embedding is one extra call over sum |P_d| + |L|
        assert stats["bi_embed_calls"] == \
            stats["sum_paragraphs"] + stats["n_labels"] + 1

    def test_empty_paper_title_abstract_embedded_once(self, empty_run, monkeypatch, tmp_path):
        # one vector serves both the joint scorer and the root fallback; the body
        # paragraph and title+abstract that papers A-D share are featurized once
        cfg, _ = empty_run
        empty = next(p for p in load_corpus(cfg.corpus_path) if p.is_empty)
        texts, rescored = rescore_recording_texts(cfg, monkeypatch, tmp_path)
        assert sum(texts, Counter())[empty.title_abstract] == 1
        assert texts == score_stage_texts(rescored)
        assert sum(texts[1].values()) == 3  # E's title+abstract, A-D's, and the body
        for key in ("scores", "score_stats"):
            assert open(artifact(rescored.output_dir, key), "rb").read() == \
                open(artifact(cfg.output_dir, key), "rb").read(), key


class TestRankingLimit:
    @pytest.mark.parametrize("use_selftrain", [True, False])
    def test_top_k_scores_cover_only_stored_labels(self, data_dir, run, tmp_path,
                                                   use_selftrain):
        _, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        cfg = base_config(data_dir, copy, use_selftrain=use_selftrain, top_k=5)
        pipeline.stage_predict(cfg)
        full = list(read_jsonl(copy / "predictions.jsonl"))
        pipeline.stage_predict(dataclasses.replace(cfg, ranking_limit=1))
        cut = list(read_jsonl(copy / "predictions.jsonl"))
        assert any(len(rec["top_k_scores"]) > 1 for rec in full)  # some are cut
        for want, got in zip(full, cut, strict=True):
            assert got["ranking"] == want["ranking"][:1]
            assert got["top_k_scores"] == want["top_k_scores"][:len(got["ranking"])]


class TestStreamedPredictions:
    """predict writes each block of papers as it ranks it and returns nothing."""

    @pytest.fixture
    def copy(self, run, tmp_path, monkeypatch):
        cfg, out, _, _ = run
        shutil.copytree(out, tmp_path / "out")
        monkeypatch.setattr(selftrain, "BLOCK_ROWS", 32)  # four blocks of the 120 papers
        return dataclasses.replace(cfg, output_dir=str(tmp_path / "out")), tmp_path / "out", out

    @pytest.mark.parametrize("use_selftrain", [True, False])
    def test_returns_none_and_writes_every_paper(self, copy, use_selftrain):
        cfg, output, out = copy
        assert pipeline.stage_predict(dataclasses.replace(cfg, use_selftrain=use_selftrain)) is None
        written = (output / "predictions.jsonl").read_bytes()
        assert written.count(b"\n") == SPEC.n_papers
        if use_selftrain:  # the block size does not show in the bytes
            assert written == (out / "predictions.jsonl").read_bytes()

    def test_failure_part_way_keeps_the_earlier_file(self, copy, monkeypatch):
        cfg, output, out = copy
        final_rankings, calls = selftrain.final_rankings, []

        def failing(pinned, *args):
            calls.append(len(pinned))
            if len(calls) == 2:
                raise RuntimeError("ranking failed")
            return final_rankings(pinned, *args)

        monkeypatch.setattr(selftrain, "final_rankings", failing)
        with pytest.raises(RuntimeError, match="ranking failed"):
            pipeline.stage_predict(cfg)
        assert calls == [32, 32]
        assert (output / "predictions.jsonl").read_bytes() == \
            (out / "predictions.jsonl").read_bytes()
        assert not list(output.glob("*.tmp"))


class TestAblations:
    def test_no_selftrain_rankings_are_candidates_only(self, data_dir, tmp_path):
        cfg = base_config(data_dir, tmp_path / "nost", use_selftrain=False)
        report = pipeline.run_pipeline(cfg)
        rankings = pipeline.read_predictions(artifact(tmp_path / "nost", "predictions"))
        from weaklabel.candidates import read_candidates
        cands = read_candidates(artifact(tmp_path / "nost", "candidates"))
        for pid, ranking in rankings.items():
            assert sorted(ranking) == sorted(cands[pid])
        assert report is not None

    def test_no_hierarchy_skips_bi_embedding(self, data_dir, tmp_path):
        cfg = base_config(data_dir, tmp_path / "noh", use_hierarchy=False,
                          use_selftrain=False)
        pipeline.run_pipeline(cfg)
        stats = json.load(open(artifact(tmp_path / "noh", "score_stats")))
        assert stats["bi_embed_calls"] == 0
        assert stats["cross_score_calls"] == stats["sum_candidates"]


class TestCli:
    def test_synth_and_run_all(self, tmp_path):
        data = tmp_path / "data"
        proc = subprocess.run(
            [sys.executable, "-m", "weaklabel.cli", "synth", "--papers", "40",
             "--label-count", "8", "--seed", "3", "--out-dir", str(data)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            [sys.executable, "-m", "weaklabel.cli", "run-all",
             "--corpus", str(data / "corpus.jsonl"),
             "--labels", str(data / "labels.jsonl"),
             "--output-dir", str(tmp_path / "out"),
             "--tuple-count", "150", "--train-steps", "60", "--seed", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(tmp_path / "out" / "predictions.jsonl")
        assert '"P@1"' in proc.stdout

    def test_full_text_match_flag(self, tmp_path):
        # synth plants each fulltext_labels name in body paragraphs only
        assert cli.main(["synth", "--papers", "40", "--label-count", "8", "--seed", "3",
                         "--out-dir", str(tmp_path)]) == 0
        planted = {m["paper_id"]: set(m["fulltext_labels"])
                   for m in read_jsonl(tmp_path / "synth_manifest.jsonl")}
        assert all(planted.values())
        found = {}
        for flags in ([], ["--full-text-match"]):
            out = tmp_path / ("full" if flags else "plain")
            assert cli.main(["candidates", "--corpus", str(tmp_path / "corpus.jsonl"),
                             "--labels", str(tmp_path / "labels.jsonl"),
                             "--output-dir", str(out), *flags]) == 0
            got = cand.read_candidates(artifact(out, "candidates"))
            found[bool(flags)] = {pid: planted[pid] & set(got[pid]) for pid in planted}
        assert found[True] == planted
        assert not any(found[False].values())

    def test_bad_config_exits_2(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "weaklabel.cli", "ingest",
             "--corpus", "x.jsonl", "--labels", "y.jsonl",
             "--meta-path", "garbage"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("text, names", [
        ('{"batch_size": 8,', "config.json: invalid JSON"),
        ('{"batch_size": "8"}', "config.json: 'batch_size' must be an int, got str"),
        ('{"classifier_lr": NaN}',
         "config.json: 'classifier_lr' must be a finite number, got float"),
        ('{"propensity_b": -Infinity}',
         "config.json: 'propensity_b' must be a finite number, got float"),
        ('{"batch_sise": 8}', "config.json: unknown config keys: ['batch_sise']"),
        ('{"ranking_limit": 0}', "config.json: ranking_limit must be positive"),
        (b'{"batch_size": 8, "x": "\xff"}', "config.json: invalid JSON: 'utf-8' codec can't decode"),
        ('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "config.json: invalid JSON: maximum recursion depth exceeded"),
    ], ids=["truncated", "string int", "NaN", "-Infinity", "unknown key", "zero limit",
            "not UTF-8", "too deep"])
    def test_bad_config_file_exits_2(self, tmp_path, text, names):
        config_file = tmp_path / "config.json"
        config_file.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        proc = subprocess.run(
            [sys.executable, "-m", "weaklabel.cli", "ingest",
             "--corpus", "x.jsonl", "--labels", "y.jsonl",
             "--config", str(config_file)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert names in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("file_top_k, flag_top_k, code, names", [
        (0, "3", 1, "stage ingest failed"),  # the flag's valid value wins
        (3, "0", 2, "config error: top_k must be positive"),  # the flag's fault names no file
        (0, "0", 2, "config error: top_k must be positive"),
    ], ids=["flag mends the file", "flag at fault", "both at fault"])
    def test_flag_over_a_config_file_value(self, tmp_path, file_top_k, flag_top_k, code,
                                            names):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"top_k": file_top_k}))
        proc = subprocess.run(
            [sys.executable, "-m", "weaklabel.cli", "ingest",
             "--corpus", str(tmp_path / "x.jsonl"), "--labels", str(tmp_path / "y.jsonl"),
             "--config", str(config_file), "--top-k", flag_top_k],
            capture_output=True, text=True)
        assert proc.returncode == code
        assert names in proc.stderr
        assert "config.json: top_k" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_zero_epsilon_rejected_before_training(self, data_dir, tmp_path):
        # with epsilon 0, a hash row no batch has touched divides 0 by 0
        config_file = tmp_path / "config.json"
        config_file.write_text('{"epsilon": 0.0, "train_steps": 120}')
        proc = subprocess.run(
            [sys.executable, "-m", "weaklabel.cli", "run-all",
             "--corpus", str(data_dir / "corpus.jsonl"),
             "--labels", str(data_dir / "labels.jsonl"),
             "--output-dir", str(tmp_path / "out"), "--config", str(config_file)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert f"config error: {config_file}: epsilon must be positive" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_failed_reading_stage_leaves_no_directory(self, data_dir, tmp_path, capsys):
        assert cli.main(["predict", "--corpus", str(data_dir / "corpus.jsonl"),
                         "--labels", str(data_dir / "labels.jsonl"),
                         "--output-dir", str(tmp_path / "missing" / "typo")]) == 1
        assert "scores.jsonl" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_run_all_creates_nested_output_dir(self, data_dir, tmp_path):
        out = tmp_path / "fresh" / "nested" / "out"
        assert cli.main(["run-all", "--corpus", str(data_dir / "corpus.jsonl"),
                         "--labels", str(data_dir / "labels.jsonl"),
                         "--output-dir", str(out), "--tuple-count", "200",
                         "--train-steps", "20"]) == 0
        assert sorted(os.listdir(out)) == sorted(file for file, _ in pipeline.ARTIFACTS.values())

    def test_missing_artifact_names_stage(self, data_dir, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "weaklabel.cli", "score",
             "--corpus", str(data_dir / "corpus.jsonl"),
             "--labels", str(data_dir / "labels.jsonl"),
             "--output-dir", str(tmp_path / "empty")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "stage score failed" in proc.stderr
        assert proc.stderr.endswith(f"{tmp_path / 'empty' / 'candidates.jsonl'}'; "
                                    "rerun candidates\n")

    def test_score_on_a_version_1_checkpoint_names_train_encoder(self, data_dir, run,
                                                                 tmp_path):
        _, out, _, _ = run
        stale = tmp_path / "out"
        shutil.copytree(out, stale)
        with np.load(stale / "encoder.npz") as data:
            members = {key: data[key] for key in data.files}
        meta = json.loads(bytes(members["meta"]).decode("utf-8"))
        assert meta["version"] == encoder.CHECKPOINT_VERSION == 2
        meta["version"] = 1
        members["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(stale / "encoder.npz", **members)
        scores = (stale / "scores.jsonl").read_bytes()
        proc = run_cli("score", "--corpus", str(data_dir / "corpus.jsonl"),
                       "--labels", str(data_dir / "labels.jsonl"), "--output-dir", str(stale))
        assert proc.returncode == 1
        assert proc.stderr == (f"stage score failed: {stale / 'encoder.npz'}: checkpoint "
                               "version 1 is not 2; rerun train-encoder\n")
        assert (stale / "scores.jsonl").read_bytes() == scores

    @pytest.mark.parametrize("args, names", [
        (["--papers", "0"], "counts must be positive"),
        (["--labels-per-paper", "3", "--label-count", "2"],
         "labels_per_paper exceeds the label count"),
        (["--fulltext-fraction", "2"], "fulltext_only_fraction must lie in [0, 1]"),
        (["--edge-prob", "nan"], "edge_prob must lie in [0, 1]"),
    ])
    def test_synth_invalid_arguments_exit_2(self, tmp_path, args, names):
        proc = run_cli("synth", *args, "--out-dir", str(tmp_path / "data"))
        assert proc.returncode == 2
        assert proc.stderr == f"synth error: {names}\n"  # one line, no traceback
        assert not (tmp_path / "data").exists()

    @staticmethod
    def _subparsers():
        parser = cli._build_parser()
        action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {name: sub for name, sub in action.choices.items() if name != "synth"}

    def test_every_stage_flag_is_a_config_field(self):
        field_names = {f.name for f in dataclasses.fields(PipelineConfig)}
        for name in [name for name, _ in pipeline.STAGES] + ["run-all"]:
            dests = set(vars(cli._build_parser().parse_args([name])))
            assert dests - {"command", "config", "verbose"} <= field_names, name

    def test_every_stage_flag_reaches_make_config(self, monkeypatch):
        defaults = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}
        made = []

        def make_config(file_path, overrides):
            made.append(real_make_config(file_path, overrides))
            raise ConfigError("stop before running a stage")

        real_make_config = cli.make_config
        monkeypatch.setattr(cli, "make_config", make_config)
        subparsers = self._subparsers()
        assert set(subparsers) == {name for name, _ in pipeline.STAGES} | {"run-all"}
        for name, sub in subparsers.items():
            argv, want = [name], {}
            for action in sub._actions:
                if action.dest in ("help", "config"):
                    continue
                flag = action.option_strings[-1]
                if action.const is not None:  # a switch
                    argv.append(flag)
                    want[action.dest] = action.const
                    continue
                default = defaults[action.dest]
                if action.type is int:
                    value = (default or 1) + 1
                elif action.type is float:
                    value = default / 2
                elif action.dest == "meta_path":
                    value = "P->P"
                else:
                    value = f"{action.dest}.x"
                argv += [flag, str(value)]
                want[action.dest] = value
            assert all(want[k] != defaults[k] for k in want)
            made.clear()
            assert cli.main(argv) == 2
            cfg, = made
            assert {k: getattr(cfg, k) for k in want} == want, name

    def test_run_all_without_selftrain(self, data_dir, tmp_path):
        out = tmp_path / "cli"
        assert cli.main(["run-all", "--corpus", str(data_dir / "corpus.jsonl"),
                         "--labels", str(data_dir / "labels.jsonl"),
                         "--output-dir", str(out), "--no-selftrain",
                         # the OVERRIDES of base_config
                         "--tuple-count", "600", "--train-steps", "220", "--seed", "13"]) == 0
        assert not os.path.exists(artifact(out, "classifier"))
        pipeline.run_pipeline(base_config(data_dir, tmp_path / "api", use_selftrain=False))
        with open(artifact(out, "predictions"), "rb") as got, \
                open(artifact(tmp_path / "api", "predictions"), "rb") as want:
            assert got.read() == want.read()


def run_cli(*args, timeout=None):
    return subprocess.run([sys.executable, "-m", "weaklabel.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


class TestEncoderOfAnotherDtype:
    """``weaklabel score`` rejects an encoder.npz whose members are not float64."""

    @pytest.mark.parametrize("dtype", ["int64", "float32"])
    def test_score_fails_and_keeps_its_scores(self, run, tmp_path, dtype):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        members = read_npz_members(copy / "encoder.npz")
        np.savez(copy / "encoder.npz", meta=members["meta"],
                 **{name: members[name].astype(dtype) for name in ("proj", "w")})
        proc = run_cli("score", "--corpus", cfg.corpus_path, "--labels", cfg.labels_path,
                       "--output-dir", str(copy), "--seed", str(cfg.seed))
        assert proc.returncode == 1
        assert re.search(rf"stage score failed: \S*encoder\.npz: proj is {dtype} \(\d+, \d+\) "
                         rf"and w {dtype} \(\d+,\), but its meta names float64 .*; "
                         r"rerun train-encoder$", proc.stderr.strip()), proc.stderr
        assert (copy / "scores.jsonl").read_bytes() == (out / "scores.jsonl").read_bytes()


class TestCheckpointMembers:
    """A checkpoint lacking a member, holding one as int64 or float32, or whose
    meta nests too deeply stops the stage that reads it, naming the file and
    its writer, and leaves that stage's output as it was."""

    READERS = {"encoder": ("score", "scores.jsonl", "train-encoder"),  # file: stage, output, writer
               "classifier": ("predict", "predictions.jsonl", "self-train")}
    CASES = [(name, member, fault) for name, members in (("encoder", ("proj", "w")),
                                                         ("classifier", ("weights", "biases")))
             for member in members for fault in ("missing", "int64", "float32")]

    @pytest.mark.parametrize("name, member, fault", CASES + [("encoder", "meta", "deep"),
                                                             ("classifier", "meta", "deep")])
    def test_stage_fails_and_keeps_its_output(self, run, tmp_path, name, member, fault):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        path = copy / f"{name}.npz"
        members = read_npz_members(path)
        if fault == "missing":
            del members[member]
            problem = rf"member {member} is missing"
        elif fault == "deep":
            members["meta"] = np.frombuffer(b"[" * 100_000 + b"]" * 100_000, dtype=np.uint8)
            problem = r"unreadable meta \(nested too deeply\)"
        else:
            members[member] = members[member].astype(fault)
            problem = rf"\b{member} (is )?{fault} \({members[member].shape[0]},.*, but its meta"
        np.savez(path, **members)
        stage, output, writer = self.READERS[name]
        proc = run_cli(stage, "--corpus", cfg.corpus_path, "--labels", cfg.labels_path,
                       "--output-dir", str(copy), "--seed", str(cfg.seed))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"stage {stage} failed: {path}: "), proc.stderr
        assert proc.stderr.endswith(f"; rerun {writer}\n"), proc.stderr
        assert re.search(problem, proc.stderr), proc.stderr
        assert (copy / output).read_bytes() == (out / output).read_bytes()


class TestStandalonePredict:
    """``weaklabel predict`` on a copy of a finished run's output directory."""

    @pytest.fixture
    def out(self, run, tmp_path):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(dict(
            corpus_path=cfg.corpus_path, labels_path=cfg.labels_path,
            output_dir=str(copy), **OVERRIDES)))
        return copy, str(config_file)

    def test_beam_width_flag_applies(self, out):
        copy, config = out
        proc = run_cli("self-train", "--config", config, "--max-leaf", "1")
        assert proc.returncode == 0, proc.stderr
        outputs = {}
        for beam in ("10", "1"):
            proc = run_cli("predict", "--config", config, "--beam-width", beam)
            assert proc.returncode == 0, proc.stderr
            outputs[beam] = (copy / "predictions.jsonl").read_bytes()
        proc = run_cli("predict", "--config", config)
        assert proc.returncode == 0, proc.stderr
        assert (copy / "predictions.jsonl").read_bytes() == outputs["10"]
        assert outputs["1"] != outputs["10"]

    def write_classifier(self, copy, label_ids, n_features):
        X = kernels.CsrMatrix(np.ones(2), np.array([0, 1], dtype=np.int64),
                              np.array([0, 1, 2], dtype=np.int64), 2, n_features)
        clf = selftrain.train_classifier(
            X, ["a", "b"], {"a": (label_ids[0],), "b": (label_ids[1],)}, label_ids,
            PipelineConfig(n_trees=1, classifier_epochs=1))
        selftrain.save_classifier(clf, copy / "classifier.npz")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_vocabulary_width_mismatch_fails(self, out, delta):
        copy, config = out
        fitted = selftrain.load_classifier(copy / "classifier.npz")
        n_features = fitted.weights.shape[1]
        self.write_classifier(copy, list(fitted.label_ids), n_features + delta)
        proc = run_cli("predict", "--config", config)
        assert proc.returncode == 1
        assert "stage predict failed" in proc.stderr
        assert f"fitted on {n_features + delta} tf-idf features" in proc.stderr
        assert f"vocabulary has {n_features}" in proc.stderr
        assert "rerun self-train" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_label_set_mismatch_fails(self, out):
        copy, config = out
        fitted = selftrain.load_classifier(copy / "classifier.npz")
        label_ids = list(fitted.label_ids[:-1]) + ["ghost"]
        self.write_classifier(copy, label_ids, fitted.weights.shape[1])
        proc = run_cli("predict", "--config", config)
        assert proc.returncode == 1
        assert "stage predict failed" in proc.stderr
        assert "different label set" in proc.stderr
        assert repr([fitted.label_ids[-1]]) in proc.stderr and "['ghost']" in proc.stderr
        assert "rerun self-train" in proc.stderr

    @pytest.mark.parametrize("case, problem", [
        ("root_twice", "tree 1 does not continue the preorder at node"),
        ("child_out_of_range", "not all of them later nodes"),
        ("leaf_label_not_in_label_ids", "tree 0 are not a permutation of the distinct label_ids"),
        ("self_child", "not all of them later nodes"),
    ])
    def test_malformed_meta_fails(self, out, case, problem):
        copy, config = out
        proc = run_cli("self-train", "--config", config, "--max-leaf", "1")  # routing nodes
        assert proc.returncode == 0, proc.stderr
        path = copy / "classifier.npz"
        with np.load(path) as data:
            members = {key: data[key] for key in data.files}
        meta = json.loads(bytes(members["meta"]).decode("utf-8"))
        nodes = meta["nodes"]
        inner = next(i for i, rec in enumerate(nodes) if "children" in rec)
        if case == "root_twice":  # tree 0 would count twice in the average
            meta["roots"][1] = meta["roots"][0]
        elif case == "child_out_of_range":
            nodes[inner]["children"][0] = len(nodes)
        elif case == "leaf_label_not_in_label_ids":
            next(rec for rec in nodes if "labels" in rec)["labels"][0] = "NOPE"
        else:  # a walk of the meta's trees would never end
            nodes[inner]["children"][0] = inner
        members["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **members)
        proc = run_cli("predict", "--config", config, timeout=60)
        assert proc.returncode == 1
        assert f"stage predict failed: {path}: " in proc.stderr
        assert problem in proc.stderr and "; rerun self-train" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case, problem", [
        ("no_low", "weights.high has no weights beside it"),
        ("other_shape", "weights.high is uint8 (2, "),
        ("one_value_more", "weights.high is uint8 (2, "),
        ("two_dims", "weights.high is uint8 (2, "),
    ])
    def test_high_planes_without_their_low_bytes_fail(self, out, case, problem):
        copy, config = out
        path = copy / "classifier.npz"
        with np.load(path) as data:
            members = {key: data[key] for key in data.files}
        assert members["weights"].ndim == 1  # the pruned weights' zeros are left out
        if case == "no_low":
            del members["weights"]
        elif case == "other_shape":  # one value fewer
            members["weights"] = members["weights"][1:]
        elif case == "one_value_more":
            members["weights"] = np.resize(members["weights"], members["weights"].size + 1)
        else:
            members["weights"] = members["weights"].reshape(1, -1)
        np.savez_compressed(path, **members)
        proc = run_cli("predict", "--config", config)
        assert proc.returncode == 1
        assert f"stage predict failed: {path}: unreadable archive ({problem}" in proc.stderr
        assert "; rerun self-train" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("name, stage, edit, problem", [
        ("classifier", "predict", lambda m: {**m, "nodes": [5] + m["nodes"][1:]},
         "malformed meta ('nodes' entry must be an object, got int)"),
        ("classifier", "predict", lambda m: {k: v for k, v in m.items() if k != "nodes"},
         "malformed meta (missing field 'nodes')"),
        ("classifier", "predict", lambda m: {**m, "roots": 0},
         "malformed meta ('roots' must be a list, got int)"),
        ("classifier", "predict", lambda m: b"{version: 1}",
         "unreadable meta (Expecting property name"),
        ("encoder", "score", lambda m: {k: v for k, v in m.items() if k != "hash_seed"},
         "malformed meta (missing field 'hash_seed')"),
        ("encoder", "score", lambda m: [1], "malformed meta (expected an object, got list)"),
        ("encoder", "score", lambda m: {**m, "max_tokens": "x"},
         "malformed meta ('max_tokens' must be an int, got str)"),
        ("encoder", "score", lambda m: b"{version: 2}", "unreadable meta (Expecting property name"),
    ])
    def test_mistyped_meta_fails(self, out, name, stage, edit, problem):
        copy, config = out
        path = copy / f"{name}.npz"
        with np.load(path) as data:
            members = {key: data[key] for key in data.files}
        meta = edit(json.loads(bytes(members["meta"]).decode("utf-8")))
        raw = meta if isinstance(meta, bytes) else json.dumps(meta).encode("utf-8")
        members["meta"] = np.frombuffer(raw, dtype=np.uint8)
        np.savez(path, **members)
        proc = run_cli(stage, "--config", config)
        rerun = {"classifier": "self-train", "encoder": "train-encoder"}[name]
        assert proc.returncode == 1
        assert f"stage {stage} failed: {path}: {problem}" in proc.stderr
        assert f"; rerun {rerun}" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key", ["hash_dim", "embed_dim"])
    def test_zero_width_encoder_fails(self, out, key):
        # members shaped as the meta says: embed_dim 0 would score every pair 0.0,
        # hash_dim 0 would fail indexing a row, naming neither file nor stage
        copy, config = out
        path = copy / "encoder.npz"
        members = read_npz_members(path)
        meta = {**json.loads(bytes(members["meta"]).decode("utf-8")), key: 0}
        members.update(proj=np.zeros((meta["hash_dim"], meta["embed_dim"])),
                       w=np.zeros(2 * meta["embed_dim"]),
                       meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8))
        np.savez(path, **members)
        before = (copy / "scores.jsonl").read_bytes()
        proc = run_cli("score", "--config", config)
        assert proc.returncode == 1
        assert proc.stderr.endswith(f"stage score failed: {path}: meta {key} 0 is not positive; "
                                    "rerun train-encoder\n")
        assert (copy / "scores.jsonl").read_bytes() == before


class TestBlasThreads:
    """``weaklabel self-train`` and ``predict`` on one set of scores under 1 and 2
    OpenBLAS threads write the same bytes: the pipeline sets its BLAS to one thread."""

    def test_artifacts_identical(self, run, tmp_path):
        cfg, out, _, _ = run
        written = {}
        for threads in ("1", "2"):
            copy = tmp_path / threads
            shutil.copytree(out, copy)
            for stage, file in (("self-train", "classifier.npz"),
                                ("predict", "predictions.jsonl")):
                (copy / file).unlink()
                proc = subprocess.run(
                    [sys.executable, "-m", "weaklabel.cli", stage,
                     "--corpus", cfg.corpus_path, "--labels", cfg.labels_path,
                     "--output-dir", str(copy), "--seed", str(cfg.seed)],
                    capture_output=True, text=True,
                    env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
                assert proc.returncode == 0, proc.stderr
                written[threads, file] = (copy / file).read_bytes()
        for file in ("classifier.npz", "predictions.jsonl"):
            assert written["1", file] == written["2", file], file


class TestArtifactsFromAnotherCorpus:
    """A stage rejects an upstream artifact written for other paper ids."""

    @pytest.fixture
    def other_corpus(self, run, tmp_path):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        write_synthetic(SyntheticSpec(n_papers=60, n_labels=SPEC.n_labels,
                                      labels_per_paper=3, seed=1),
                        tmp_path / "corpus.jsonl", tmp_path / "labels.jsonl")
        return ("--corpus", str(tmp_path / "corpus.jsonl"), "--labels", cfg.labels_path,
                "--output-dir", str(copy))

    @pytest.mark.parametrize("stage, flags, artifact, rerun", [
        ("score", (), "candidates.jsonl", "rerun candidates"),
        ("self-train", (), "scores.jsonl", "rerun score"),
        ("predict", (), "scores.jsonl", "rerun score"),
        ("predict", ("--no-selftrain",), "scores.jsonl", "rerun score"),
        ("evaluate", (), "predictions.jsonl", "rerun predict"),
    ])
    def test_rejected_with_both_counts(self, other_corpus, stage, flags, artifact, rerun):
        proc = run_cli(stage, *other_corpus, *flags)
        assert proc.returncode == 1
        assert f"stage {stage} failed: {artifact} was written for another corpus" in proc.stderr
        assert f"it has {SPEC.n_papers} papers, the corpus has 60" in proc.stderr
        assert rerun in proc.stderr
        assert "Traceback" not in proc.stderr


class TestArtifactsFromAnotherLabelSet:
    """A stage rejects an upstream artifact naming labels the label file lacks."""

    @pytest.fixture
    def fewer_labels(self, run, tmp_path):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        scored = ranker.read_scores(copy / "scores.jsonl")
        used = sorted({r.label_id for rows in scored.values() for r in rows})
        dropped = used[1:7]
        with open(cfg.labels_path, encoding="utf-8") as src, \
                open(tmp_path / "labels.jsonl", "w", encoding="utf-8") as dst:
            dst.writelines(line for line in src if json.loads(line)["id"] not in dropped)
        return copy, dropped, ("--corpus", cfg.corpus_path,
                               "--labels", str(tmp_path / "labels.jsonl"),
                               "--output-dir", str(copy))

    @pytest.mark.parametrize("stage, flags, artifact, rerun, output", [
        ("score", (), "candidates.jsonl", "rerun candidates", "scores.jsonl"),
        ("self-train", (), "scores.jsonl", "rerun score", "classifier.npz"),
        ("predict", (), "scores.jsonl", "rerun score", "predictions.jsonl"),
        ("predict", ("--no-selftrain",), "scores.jsonl", "rerun score", "predictions.jsonl"),
        ("evaluate", (), "predictions.jsonl", "rerun predict", "metrics.json"),
    ])
    def test_rejected_naming_the_labels(self, fewer_labels, stage, flags, artifact, rerun,
                                        output):
        copy, dropped, args = fewer_labels
        found = (cand.read_candidates(copy / artifact) if artifact == "candidates.jsonl" else
                 # evaluate reads the top k of each ranking
                 pipeline.read_predictions(copy / artifact, limit=5)
                 if artifact == "predictions.jsonl" else
                 {p: [r.label_id for r in rows]
                  for p, rows in ranker.read_scores(copy / artifact).items()})
        unknown = sorted({lid for ids in found.values() for lid in ids} & set(dropped))
        assert len(unknown) > 5
        before = (copy / output).read_bytes()
        proc = run_cli(stage, *args, *flags)
        assert proc.returncode == 1
        assert (f"stage {stage} failed: {artifact} was written for another label set: "
                f"{len(unknown)} of its label ids are not in the label file "
                f"(first {unknown[:5]!r}); {rerun}") in proc.stderr
        assert "Traceback" not in proc.stderr
        assert (copy / output).read_bytes() == before


class TestEvaluateChecksCandidates:
    """evaluate reads ``mean_candidates`` only from a candidates.jsonl
    written for this corpus and label set."""

    @pytest.mark.parametrize("candidates, message", [
        ({f"X{i:03d}": [] for i in range(60)},
         f"candidates.jsonl was written for another corpus: it has 60 papers, "
         f"the corpus has {SPEC.n_papers}, 0 in both; rerun candidates"),
        (None, "candidates.jsonl was written for another label set: 1 of its label ids "
               "are not in the label file (first ['ZZZ']); rerun candidates"),
    ])
    def test_rejected(self, run, tmp_path, capsys, candidates, message):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        if candidates is None:  # this corpus's papers, one naming an unknown label
            candidates = cand.read_candidates(copy / "candidates.jsonl")
            candidates[next(iter(candidates))] = ["ZZZ"]
        cand.write_candidates(candidates, copy / "candidates.jsonl")
        before = (copy / "metrics.json").read_bytes()
        assert cli.main(["evaluate", "--corpus", cfg.corpus_path, "--labels", cfg.labels_path,
                         "--output-dir", str(copy)]) == 1
        assert f"stage evaluate failed: {message}" in capsys.readouterr().err
        assert (copy / "metrics.json").read_bytes() == before


class TestEvaluateCorpusFaults:
    """evaluate reads only paper ids and gold labels, yet a bad corpus line
    fails it with the message it fails predict with."""

    @pytest.mark.parametrize("fault", [
        lambda rec: {**rec, "sections": [{"subsections": [["a section as a list"]]}]},
        lambda rec: {**rec, "sections": [{"subsections": [{"paragraphs": ["ok", 7]}]}]},
        "duplicate", lambda rec: {**rec, "id": ""}, "not UTF-8",
    ], ids=["wrong-typed section", "non-string paragraph", "duplicate id", "empty id",
            "not UTF-8"])
    def test_fails_as_predict_fails(self, run, tmp_path, capsys, fault):
        cfg, out, _, _ = run
        lines = open(cfg.corpus_path, "rb").read().splitlines(keepends=True)
        if fault == "duplicate":
            lines[5] = lines[0]
        elif fault == "not UTF-8":
            lines[5] = lines[5].replace(b'"title": "', b'"title": "\xff', 1)
        else:
            lines[5] = (json.dumps(fault(json.loads(lines[5]))) + "\n").encode("utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"".join(lines))
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        errors = []
        for stage in ("predict", "evaluate"):
            assert cli.main([stage, "--corpus", str(corpus), "--labels", cfg.labels_path,
                             "--output-dir", str(copy)]) == 1
            errors.append(capsys.readouterr().err.removeprefix(f"stage {stage} failed: "))
        assert errors[0] == errors[1] and f"{corpus}: line 6: " in errors[0], errors
        for key in ("predictions", "metrics"):
            assert open(artifact(out, key), "rb").read() == \
                open(artifact(copy, key), "rb").read(), key


class TestMalformedArtifactLine:
    """A malformed line of a JSONL artifact fails the stage that reads it,
    naming the file and the line."""

    CASES = {  # artifact: (reading stage, a required field, line 2 in a wrong shape)
        "candidates.jsonl": ("score", "candidates", lambda rec: rec | {"candidates": 5}),
        "tuples.jsonl": ("train-encoder", "positive",
                         lambda rec: rec | {"anchor": rec["anchor"][:1]}),
        "scores.jsonl": ("self-train", "candidates",
                         lambda rec: rec | {"candidates": [["L0000", 0.5]]}),
        "predictions.jsonl": ("evaluate", "ranking", lambda rec: rec | {"ranking": 5}),
    }

    @pytest.mark.parametrize("fault", ["truncated", "missing field", "wrong shape"])
    @pytest.mark.parametrize("name", CASES)
    def test_names_file_and_line(self, run, tmp_path, capsys, name, fault):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        stage, field, reshape = self.CASES[name]
        lines = (copy / name).read_text(encoding="utf-8").splitlines(keepends=True)
        rec = json.loads(lines[1])
        lines[1] = {"truncated": lines[1][:len(lines[1]) // 2] + "\n",
                    "missing field": json.dumps({k: v for k, v in rec.items() if k != field}),
                    "wrong shape": json.dumps(reshape(rec))}[fault] + "\n"
        (copy / name).write_text("".join(lines), encoding="utf-8")
        assert cli.main([stage, "--corpus", cfg.corpus_path, "--labels", cfg.labels_path,
                         "--output-dir", str(copy)]) == 1
        err = capsys.readouterr().err
        assert f"stage {stage} failed: {copy / name}: line 2: malformed record (" in err
        if fault == "missing field":
            assert f"(missing field '{field}')" in err
        assert "Traceback" not in err


class TestArtifactPaperIds:
    """A repeated or non-string ``paper_id`` in an artifact line fails the
    stage that reads it, naming the file and the line."""

    @pytest.mark.parametrize("name, stage", [
        ("candidates.jsonl", "score"), ("candidates.jsonl", "evaluate"),
        ("scores.jsonl", "self-train"), ("predictions.jsonl", "evaluate"),
    ])
    @pytest.mark.parametrize("fault", ["duplicate", "list"])
    def test_rejected(self, run, tmp_path, capsys, name, stage, fault):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        lines = (copy / name).read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])
        if fault == "duplicate":  # a second line for the first paper, appended
            lines.append(json.dumps(first) + "\n")
            where, message = len(lines), f"duplicate paper id {first['paper_id']!r}"
        else:
            lines[0] = json.dumps(first | {"paper_id": [first["paper_id"]]}) + "\n"
            where, message = 1, "malformed record ('paper_id' must be a string, got list)"
        (copy / name).write_text("".join(lines), encoding="utf-8")
        assert cli.main([stage, "--corpus", cfg.corpus_path, "--labels", cfg.labels_path,
                         "--output-dir", str(copy)]) == 1
        err = capsys.readouterr().err
        assert f"stage {stage} failed: {copy / name}: line {where}: {message}" in err
        assert "Traceback" not in err


def _first_candidate(**fields):
    """A change to a scores.jsonl record: ``fields`` set in its first candidate."""
    return lambda rec: rec | {"candidates": [rec["candidates"][0] | fields]
                                            + rec["candidates"][1:]}


class TestArtifactFieldTypes:
    """A label id that is not a string, a candidate list or ranking that is
    not a list, or a stored score of another JSON type fails the stage that
    reads it as a malformed line naming the file and the line."""

    @pytest.mark.parametrize("name, stage, change, problem", [
        ("candidates.jsonl", "score", lambda rec: rec | {"candidates": [["L0001"]]},
         "'candidates' entry must be a string, got list"),
        ("candidates.jsonl", "evaluate", lambda rec: rec | {"candidates": "L0001"},
         "'candidates' must be a list, got str"),
        ("predictions.jsonl", "evaluate",
         lambda rec: rec | {"ranking": [rec["ranking"][:1]] + rec["ranking"][1:]},
         "'ranking' entry must be a string, got list"),
        ("predictions.jsonl", "evaluate", lambda rec: rec | {"ranking": "L0001"},
         "'ranking' must be a list, got str"),
        ("scores.jsonl", "self-train", _first_candidate(label_id=["L0001"]),
         "'label_id' must be a string, got list"),
        ("scores.jsonl", "predict", _first_candidate(mrr="2.0"),
         "'mrr' must be a finite number, got str"),
        ("scores.jsonl", "predict", _first_candidate(score_b=True),
         "'score_b' must be a finite number, got bool"),
        ("scores.jsonl", "self-train", _first_candidate(score_x=None),
         "'score_x' must be a finite number, got NoneType"),
        ("scores.jsonl", "predict", _first_candidate(rank_b=1.0),
         "'rank_b' must be an int, got float"),
        ("scores.jsonl", "self-train", _first_candidate(rank_x=False),
         "'rank_x' must be an int, got bool"),
    ])
    def test_rejected(self, run, tmp_path, capsys, name, stage, change, problem):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        lines = (copy / name).read_text(encoding="utf-8").splitlines(keepends=True)
        # the first line whose record has a candidate to change
        where = next(i for i, line in enumerate(lines, start=1)
                     if json.loads(line).get("candidates", True))
        lines[where - 1] = json.dumps(change(json.loads(lines[where - 1]))) + "\n"
        (copy / name).write_text("".join(lines), encoding="utf-8")
        outputs = {p.name: p.read_bytes() for p in copy.iterdir()}
        assert cli.main([stage, "--corpus", cfg.corpus_path, "--labels", cfg.labels_path,
                         "--output-dir", str(copy)]) == 1
        err = capsys.readouterr().err
        assert (f"stage {stage} failed: {copy / name}: line {where}: malformed record "
                f"({problem})") in err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == outputs


class TestUnreadableArtifacts:
    """A JSONL artifact line that is not UTF-8, or an ``.npz`` artifact that is
    not a readable archive, fails the stage that reads it, naming the file
    (and the line) and the stage to rerun."""

    @pytest.fixture
    def copy(self, run, tmp_path):
        cfg, out, _, _ = run
        shutil.copytree(out, tmp_path / "out")
        return tmp_path / "out", ("--corpus", cfg.corpus_path, "--labels", cfg.labels_path,
                                  "--output-dir", str(tmp_path / "out"))

    def test_scores_line_not_utf8(self, copy, capsys):
        out, args = copy
        lines = (out / "scores.jsonl").read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"paper_id": "', b'"paper_id": "\xff', 1)
        (out / "scores.jsonl").write_bytes(b"".join(lines))
        before = (out / "predictions.jsonl").read_bytes()
        assert cli.main(["predict", *args]) == 1
        err = capsys.readouterr().err
        assert f"stage predict failed: {out / 'scores.jsonl'}: line 3: malformed record (" in err
        assert "'utf-8' codec can't decode byte 0xff" in err
        assert err.endswith("; rerun score\n") and "Traceback" not in err
        assert (out / "predictions.jsonl").read_bytes() == before

    @pytest.mark.parametrize("name, stage, rerun, cut", [
        ("classifier.npz", "predict", "self-train", lambda raw: raw[:len(raw) // 2]),
        ("encoder.npz", "score", "train-encoder", lambda raw: b"0123456789"),
    ], ids=["halved classifier", "junk encoder"])
    def test_npz_not_an_archive(self, copy, capsys, name, stage, rerun, cut):
        out, args = copy
        (out / name).write_bytes(cut((out / name).read_bytes()))
        assert cli.main([stage, *args]) == 1
        err = capsys.readouterr().err
        assert f"stage {stage} failed: {out / name}: unreadable archive (" in err
        assert err.endswith(f"; rerun {rerun}\n") and "Traceback" not in err


class TestNonFiniteArtifacts:
    """A NaN in an upstream artifact fails the stage that reads it, naming
    the file and the stage to rerun, and leaves the stage's output as it was."""

    @pytest.fixture
    def copy(self, run, tmp_path):
        cfg, out, _, _ = run
        shutil.copytree(out, tmp_path / "out")
        return tmp_path / "out", ("--corpus", cfg.corpus_path, "--labels", cfg.labels_path,
                                  "--output-dir", str(tmp_path / "out"))

    @pytest.mark.parametrize("name, member, stage, output, rerun", [
        ("encoder.npz", "proj", "score", "scores.jsonl", "train-encoder"),
        ("classifier.npz", "weights", "predict", "predictions.jsonl", "self-train"),
    ])
    def test_npz_member(self, copy, capsys, name, member, stage, output, rerun):
        out, args = copy
        members = read_npz_members(out / name)  # each float64 member whole
        if member == "proj":  # one NaN
            members["proj"][3, 1] = np.nan
        else:
            members["weights"][:] = np.nan
        np.savez(out / name, **members)
        before = (out / output).read_bytes()
        assert cli.main([stage, *args]) == 1
        assert (f"stage {stage} failed: {out / name}: non-finite value in {member}; "
                f"rerun {rerun}\n") in capsys.readouterr().err
        assert (out / output).read_bytes() == before

    def test_stored_score(self, copy, capsys):
        out, args = copy
        lines = (out / "scores.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        rec = json.loads(lines[0])
        rec["candidates"][0]["mrr"] = float("nan")
        lines[0] = json.dumps(rec) + "\n"
        assert "NaN" in lines[0]
        (out / "scores.jsonl").write_text("".join(lines), encoding="utf-8")
        before = (out / "predictions.jsonl").read_bytes()
        assert cli.main(["predict", *args]) == 1
        assert (f"stage predict failed: {out / 'scores.jsonl'}: line 1: malformed record "
                "(non-finite number NaN); rerun score\n") in capsys.readouterr().err
        assert (out / "predictions.jsonl").read_bytes() == before


class TestArtifactTable:
    """Run stage by stage in a fresh output directory, each stage adds the
    files that ``pipeline.ARTIFACTS`` assigns to it and no other file; only
    evaluate returns a value."""

    @pytest.mark.parametrize("use_selftrain", [True, False])
    def test_each_stage_adds_its_artifacts(self, data_dir, tmp_path, use_selftrain):
        cfg = base_config(data_dir, tmp_path / "out", tuple_count=200, train_steps=20,
                          use_selftrain=use_selftrain)
        ctx, seen = pipeline.RunContext(cfg), set()
        for name, fn in pipeline.stages(cfg):
            returned = fn(cfg, ctx)
            assert (returned is None) == (name != "evaluate"), name
            files = set(os.listdir(tmp_path / "out"))
            assert seen <= files
            assert files - seen == {file for file, writer in pipeline.ARTIFACTS.values()
                                    if writer == name}, name
            seen = files
        assert [name for name, _ in pipeline.stages(cfg)] == \
            [name for name, _ in pipeline.STAGES if use_selftrain or name != "self-train"]
        assert ("classifier.npz" in seen) == use_selftrain
        assert len(seen) == len(pipeline.ARTIFACTS) - (not use_selftrain)


class TestTuplesFromAnotherCorpus:
    """train-encoder rejects a tuples.jsonl whose references miss the corpus."""

    @pytest.fixture
    def small(self, run, tmp_path):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        write_synthetic(SyntheticSpec(n_papers=60, n_labels=SPEC.n_labels,
                                      labels_per_paper=3, seed=1),
                        tmp_path / "corpus.jsonl", tmp_path / "labels.jsonl")
        return cfg, copy, str(tmp_path / "corpus.jsonl")

    def check_rejected(self, copy, corpus_path, labels_path):
        corpus = load_corpus(corpus_path)
        n_paragraphs = {p.id: len(p.paragraphs) for p in corpus}
        tuples = citegraph.read_tuples(copy / "tuples.jsonl")
        first = next((pid, i) for t in tuples for pid, i in (t.anchor, t.positive, t.negative)
                     if not i < n_paragraphs.get(pid, 0))
        before = (copy / "encoder.npz").read_bytes()
        proc = run_cli("train-encoder", "--corpus", corpus_path, "--labels", labels_path,
                       "--output-dir", str(copy))
        assert proc.returncode == 1
        assert ("stage train-encoder failed: tuples.jsonl was written for another corpus: "
                f"reference {first!r} does not resolve") in proc.stderr
        assert "rerun sample-tuples" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert (copy / "encoder.npz").read_bytes() == before
        return proc.stderr

    def test_tuples_of_a_larger_corpus(self, small):
        cfg, copy, small_corpus = small
        stderr = self.check_rejected(copy, small_corpus, cfg.labels_path)
        assert "(no such paper)" in stderr

    def test_tuples_of_a_smaller_corpus(self, small):
        cfg, copy, small_corpus = small
        proc = run_cli("sample-tuples", "--corpus", small_corpus, "--labels", cfg.labels_path,
                       "--output-dir", str(copy), "--tuple-count", "600", "--seed", "13")
        assert proc.returncode == 0, proc.stderr
        stderr = self.check_rejected(copy, cfg.corpus_path, cfg.labels_path)
        assert "paragraphs)" in stderr


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            make_config(None, {"no_such_option": 1})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            make_config(None, {"n_trees": 0})
        with pytest.raises(ConfigError):
            make_config(None, {"meta_path": "P<-"})

    @pytest.mark.parametrize("values", [
        {"batch_size": "8"}, {"batch_size": True}, {"train_steps": 2.5},
        {"learning_rate": "0.1"}, {"use_hierarchy": "no"}, {"output_dir": 3},
        {"precision_ks": [1, "5"]},
    ])
    def test_wrong_types_rejected(self, values):
        (key,) = values
        with pytest.raises(ConfigError, match=key):
            make_config(None, values)

    @pytest.mark.parametrize("key", [
        "learning_rate", "weight_decay", "epsilon", "beta1", "beta2", "classifier_lr",
        "classifier_l2", "propensity_a", "propensity_b",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^'{key}' must be a finite number, got float$"):
            make_config(None, {key: value})

    @pytest.mark.parametrize("limit", [-1, 0])
    def test_ranking_limit_below_one_rejected(self, limit):
        with pytest.raises(ConfigError, match="ranking_limit must be positive"):
            make_config(None, {"ranking_limit": limit})

    def test_ranking_limit_one_or_unset_accepted(self):
        assert make_config(None, {"ranking_limit": 1}).ranking_limit == 1
        assert make_config(None, {"ranking_limit": None}).ranking_limit is None

    def test_compatible_types_accepted(self):
        cfg = make_config(None, {"learning_rate": 1, "train_steps": None,
                                 "precision_ks": [1, 2]})
        assert cfg.learning_rate == 1 and cfg.precision_ks == (1, 2)

    def test_file_faults_name_the_file_before_the_overrides_merge(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"batch_size": "8"}')
        # the flag's valid value would hide the file's string after a merge
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: 'batch_size' must be "
                                              f"an int, got str$"):
            make_config(path, {"batch_size": 8})
        path.write_text('{"batch_sise": 8}')
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: unknown config keys: "
                                              r"\['batch_sise'\]$"):
            make_config(path, {"batch_size": 8})

    def test_override_faults_name_no_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"batch_size": 8}')
        with pytest.raises(ConfigError, match="^'batch_size' must be an int, got str$"):
            make_config(path, {"batch_size": "8"})
        with pytest.raises(ConfigError, match=r"^unknown config keys: \['x'\]$"):
            make_config(path, {"x": 1})

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="cfg.json: expected a JSON object"):
            make_config(path)

    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5, "n_trees": 2}))
        cfg = make_config(path, {"seed": 9})
        assert cfg.seed == 9
        assert cfg.n_trees == 2

    def test_stage_seeds_differ_and_are_stable(self):
        cfg = make_config(None, {"seed": 5})
        assert cfg.stage_seed("a") != cfg.stage_seed("b")
        assert cfg.stage_seed("a") == cfg.stage_seed("a")
        other = make_config(None, {"seed": 6})
        assert cfg.stage_seed("a") != other.stage_seed("a")


class TestPropensityRange:
    """``propensity_b`` must exceed -1, since the propensity constant takes
    ``(b + 1) ** a``; a config that breaks this fails before any stage."""

    @pytest.mark.parametrize("b", [-1, -1.0, -2.0, -1e9])
    def test_rejected(self, b):
        with pytest.raises(ConfigError, match=r"^propensity_b must be greater than -1$"):
            make_config(None, {"propensity_b": b})

    def test_just_above_accepted(self):
        assert make_config(None, {"propensity_b": -0.999}).propensity_b == -0.999

    @pytest.mark.parametrize("b", ["-1", "-2"])
    def test_cli_exits_2_before_writing(self, data_dir, tmp_path, capsys, b):
        config_file = tmp_path / "config.json"
        config_file.write_text('{"propensity_b": ' + b + "}")
        assert cli.main(["run-all", "--corpus", str(data_dir / "corpus.jsonl"),
                         "--labels", str(data_dir / "labels.jsonl"),
                         "--output-dir", str(tmp_path / "out"),
                         "--config", str(config_file)]) == 2
        assert (f"config error: {config_file}: propensity_b must be greater than -1"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


class TestSeedRange:
    """``seed`` must fit the signed 8-byte key of ``stage_seed``; a seed
    outside it fails before any stage."""

    @pytest.mark.parametrize("seed", [-2**63, 2**63 - 1])
    def test_ends_accepted(self, seed):
        cfg = make_config(None, {"seed": seed})
        assert cfg.seed == seed and 0 <= cfg.stage_seed("sample-tuples") < 2**63

    @pytest.mark.parametrize("seed", [-2**63 - 1, 2**63, 99999999999999999999])
    def test_outside_rejected(self, seed):
        with pytest.raises(ConfigError, match=r"^seed must lie in \[-2\*\*63, 2\*\*63\)$"):
            make_config(None, {"seed": seed})

    @pytest.mark.parametrize("seed", [str(-2**63 - 1), str(2**63), "99999999999999999999"])
    def test_cli_exits_2_before_writing(self, data_dir, tmp_path, capsys, seed):
        assert cli.main(["run-all", "--corpus", str(data_dir / "corpus.jsonl"),
                         "--labels", str(data_dir / "labels.jsonl"),
                         "--output-dir", str(tmp_path / "out"), "--seed", seed]) == 2
        assert "config error: seed must lie in [-2**63, 2**63)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTupleReferenceTypes:
    """train-encoder rejects a tuples.jsonl reference that is not a
    [string, int] pair, naming the file and the line, and trains nothing."""

    @pytest.mark.parametrize("reshape", [lambda ref: [[ref[0]], ref[1]],
                                         lambda ref: [ref[0], ref[1] + 0.9]],
                             ids=["list id", "float index"])
    def test_rejected(self, run, tmp_path, capsys, reshape):
        cfg, out, _, _ = run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        lines = (copy / "tuples.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        rec = json.loads(lines[1])
        lines[1] = json.dumps(rec | {"anchor": reshape(rec["anchor"])}) + "\n"
        (copy / "tuples.jsonl").write_text("".join(lines), encoding="utf-8")
        before = (copy / "encoder.npz").read_bytes()
        assert cli.main(["train-encoder", "--corpus", cfg.corpus_path,
                         "--labels", cfg.labels_path, "--output-dir", str(copy)]) == 1
        err = capsys.readouterr().err
        assert (f"stage train-encoder failed: {copy / 'tuples.jsonl'}: line 2: malformed "
                "record ('anchor' must be a [str, int] pair, got [") in err
        assert "Traceback" not in err
        assert (copy / "encoder.npz").read_bytes() == before
