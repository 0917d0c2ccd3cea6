import argparse
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklabel import candidates as cand
from weaklabel import citegraph, cli, encoder, pipeline, ranker, selftrain
from weaklabel.config import ConfigError, PipelineConfig, make_config
from weaklabel.corpus import Paper, load_corpus, load_labels, write_jsonl
from weaklabel.synth import SyntheticSpec, write_synthetic

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
    rankings, report = pipeline.run_pipeline(cfg)
    return cfg, out, rankings, report


def artifact(out, key):
    return os.path.join(str(out), pipeline.ARTIFACTS[key])


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

    def test_ingest_stats(self, run):
        _, out, _, _ = run
        stats = json.load(open(artifact(out, "ingest")))
        assert stats["n_papers"] == SPEC.n_papers
        assert stats["n_labels"] == SPEC.n_labels
        assert stats["paragraphs_per_paper"] > 1


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
        labels_by_id = {l.id: l for l in labels}
        from weaklabel.candidates import read_candidates
        cands = read_candidates(artifact(out, "candidates"))
        paper = corpus[0]
        model.counters.reset()
        ranker.score_cross(model, paper, labels_by_id, cands[paper.id])
        assert model.counters.cross_score == len(cands[paper.id])


    def test_score_cross_encodes_each_text_once(self, data_dir, run):
        cfg, out, _, _ = run
        corpus = load_corpus(cfg.corpus_path)
        labels_by_id = {l.id: l for l in load_labels(cfg.labels_path)}
        model = encoder.load_model(artifact(out, "encoder"))
        from weaklabel.candidates import read_candidates
        cands = read_candidates(artifact(out, "candidates"))
        paper = next(p for p in corpus if len(cands[p.id]) >= 2)
        cand_ids = cands[paper.id]
        label_embs = {lid: encoder.bi_embed(model, labels_by_id[lid].text) for lid in cand_ids}
        texts = []
        featurize = model.featurizer.featurize
        model.featurizer.featurize = lambda text: texts.append(text) or featurize(text)

        ranker.score_cross(model, paper, labels_by_id, cand_ids, label_embeddings=label_embs)
        assert texts == [paper.title_abstract]
        texts.clear()
        assert ranker.score_cross(model, paper, labels_by_id, []) == {}
        assert texts == []
        ranker.score_cross(model, paper, labels_by_id, cand_ids)
        assert texts == [paper.title_abstract] + [labels_by_id[l].text for l in cand_ids]


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
        labels = load_labels(cfg.labels_path)
        labels_by_id = {l.id: l for l in labels}
        model = encoder.load_model(artifact(tmp_path / "c2out", "encoder"))
        wins = total = 0
        for paper in corpus[:60]:
            planted = sorted(paper.gold_labels)[0]
            other = next(lid for lid in labels_by_id if lid != planted)
            scores = ranker.score_cross(model, paper, labels_by_id,
                                        [planted, other])
            wins += scores[planted] > scores[other]
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
            assert [rec["top_k_scores"] for rec in pipeline.read_jsonl(path)] == \
                [scores for _, scores in records.values()]
            got = pipeline.read_predictions(path, limit=limit)
        assert list(got) == list(records)
        assert got == {pid: ranking[:limit] for pid, (ranking, _) in records.items()}


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
        rankings, report = pipeline.run_pipeline(cfg)
        assert len(rankings) == 500 and report is not None
        assert calls == {"load_corpus": 1, "load_labels": 1, "count_terms": 1,
                         "vocabulary_from_terms": 1, "tfidf_from_terms": 1,
                         "full_text_tokens": 500}
        assert corpora[0]() is None  # nothing outlives the run's context

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

    def test_context_of_another_config_rejected(self, run):
        cfg, _, _, _ = run
        ctx = pipeline.RunContext(dataclasses.replace(cfg, min_df=cfg.min_df + 1))
        with pytest.raises(ValueError, match="another config"):
            pipeline.stage_ingest(cfg, ctx)


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
            model, model.featurizer.featurize(paper.title_abstract))
        v = v_over if v_over is not None else encoder._embed_features(
            model, model.featurizer.featurize(labels_by_id[lid].text))
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


class TestEmptyPaperFallback:
    def test_empty_paper_scored_via_title_abstract(self, tmp_path):
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
        rankings, _ = pipeline.run_pipeline(cfg)
        scored = ranker.read_scores(artifact(tmp_path / "out", "scores"))
        assert [r.label_id for r in scored["E"]] == ["L0"]
        assert sorted(rankings["E"]) == ["L0", "L1"]
        stats = json.load(open(artifact(tmp_path / "out", "score_stats")))
        assert stats["n_empty_papers"] == 1
        # the fallback embedding is one extra call over sum |P_d| + |L|
        assert stats["bi_embed_calls"] == \
            stats["sum_paragraphs"] + stats["n_labels"] + 1


class TestAblations:
    def test_no_selftrain_rankings_are_candidates_only(self, data_dir, tmp_path):
        cfg = base_config(data_dir, tmp_path / "nost", use_selftrain=False)
        rankings, report = pipeline.run_pipeline(cfg)
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
        ('{"batch_size": "8"}', "batch_size must be int"),
        ('{"classifier_lr": NaN}', "classifier_lr must be finite"),
        ('{"propensity_b": -Infinity}', "propensity_b must be finite"),
        ('{"ranking_limit": 0}', "ranking_limit must be positive"),
    ])
    def test_bad_config_file_exits_2(self, tmp_path, text, names):
        config_file = tmp_path / "config.json"
        config_file.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "weaklabel.cli", "ingest",
             "--corpus", "x.jsonl", "--labels", "y.jsonl",
             "--config", str(config_file)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert names in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_artifact_names_stage(self, data_dir, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "weaklabel.cli", "score",
             "--corpus", str(data_dir / "corpus.jsonl"),
             "--labels", str(data_dir / "labels.jsonl"),
             "--output-dir", str(tmp_path / "empty")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "stage score failed" in proc.stderr

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


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "weaklabel.cli", *args],
                          capture_output=True, text=True)


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
        X = selftrain.CsrMatrix(np.ones(2), np.array([0, 1], dtype=np.int64),
                      np.array([0, 1, 2], dtype=np.int64), 2, n_features)
        clf = selftrain.train_classifier(
            X, ["a", "b"], {"a": (label_ids[0],), "b": (label_ids[1],)}, label_ids,
            selftrain.ClassifierConfig(n_trees=1, epochs=1))
        selftrain.save_classifier(clf, copy / "classifier.npz")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_vocabulary_width_mismatch_fails(self, out, delta):
        copy, config = out
        fitted = selftrain.load_classifier(copy / "classifier.npz")
        self.write_classifier(copy, list(fitted.label_ids), fitted.n_features + delta)
        proc = run_cli("predict", "--config", config)
        assert proc.returncode == 1
        assert "stage predict failed" in proc.stderr
        assert f"fitted on {fitted.n_features + delta} tf-idf features" in proc.stderr
        assert f"vocabulary has {fitted.n_features}" in proc.stderr
        assert "rerun self-train" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_label_set_mismatch_fails(self, out):
        copy, config = out
        fitted = selftrain.load_classifier(copy / "classifier.npz")
        label_ids = list(fitted.label_ids[:-1]) + ["ghost"]
        self.write_classifier(copy, label_ids, fitted.n_features)
        proc = run_cli("predict", "--config", config)
        assert proc.returncode == 1
        assert "stage predict failed" in proc.stderr
        assert "different label set" in proc.stderr
        assert repr([fitted.label_ids[-1]]) in proc.stderr and "['ghost']" in proc.stderr
        assert "rerun self-train" in proc.stderr


class TestBlasThreads:
    """``weaklabel predict`` on one classifier under 1 and 2 BLAS threads:
    the same rankings, and ``top_k_scores`` equal up to summation order."""

    def test_rankings_identical_scores_within_rounding(self, run, tmp_path):
        cfg, out, _, _ = run
        written = {}
        for threads in ("1", "2"):
            copy = tmp_path / threads
            shutil.copytree(out, copy)
            (copy / "predictions.jsonl").unlink()
            proc = subprocess.run(
                [sys.executable, "-m", "weaklabel.cli", "predict",
                 "--corpus", cfg.corpus_path, "--labels", cfg.labels_path,
                 "--output-dir", str(copy), "--seed", str(cfg.seed)],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            written[threads] = {rec["paper_id"]: rec for rec in
                                pipeline.read_jsonl(copy / "predictions.jsonl")}
        one, two = written["1"], written["2"]
        assert one.keys() == two.keys() and len(one) == SPEC.n_papers
        for pid, rec in one.items():
            assert rec["ranking"] == two[pid]["ranking"], pid
            np.testing.assert_allclose(two[pid]["top_k_scores"], rec["top_k_scores"],
                                       rtol=1e-12, atol=0)


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
    ])
    def test_rejected_naming_the_labels(self, fewer_labels, stage, flags, artifact, rerun,
                                        output):
        copy, dropped, args = fewer_labels
        found = (cand.read_candidates(copy / artifact) if artifact == "candidates.jsonl" else
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
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
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
