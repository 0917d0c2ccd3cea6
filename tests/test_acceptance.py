"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion (lines also appear in captured output on failure).
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from weaklabel import encoder, metrics, pipeline
from weaklabel.config import make_config
from weaklabel.corpus import HierarchyNode, Paper, load_corpus
from weaklabel.citegraph import CO_REFERENCE, build_graph, sample_tuples
from weaklabel.ranker import CandidateScore, aggregate_hierarchy, mrr_combine
from weaklabel.synth import SyntheticSpec, write_synthetic

from conftest import final_ranking


def report(num, desc, ok, detail=""):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared end-to-end artifacts (criteria 8, 9, 11, 12)
# ---------------------------------------------------------------------------

SPEC = SyntheticSpec(n_papers=500, n_labels=50, labels_per_paper=3,
                     fulltext_only_fraction=1.0 / 3.0, seed=1)


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    data = tmp_path_factory.mktemp("planted")
    write_synthetic(SPEC, data / "corpus.jsonl", data / "labels.jsonl",
                    data / "manifest.jsonl")

    def config(out, **extra):
        return make_config(None, dict(
            corpus_path=str(data / "corpus.jsonl"),
            labels_path=str(data / "labels.jsonl"),
            output_dir=str(out), seed=7, **extra))

    out = tmp_path_factory.mktemp("planted_out")
    t0 = time.perf_counter()
    rankings, rep = pipeline.run_pipeline(config(out))
    elapsed = time.perf_counter() - t0
    return {
        "data": data, "config": config, "out": out,
        "rankings": rankings, "report": rep, "elapsed": elapsed,
        "tmp": tmp_path_factory,
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_final_merge_golden():
    labels = ["A", "B", "C", "D", "E"]
    probs = {"A": 0.80, "B": 0.85, "C": 0.30, "D": 0.60, "E": 0.90}
    rows = [CandidateScore("A", 3, 3, 1, 1, 2.0),
            CandidateScore("B", 2, 2, 2, 2, 1.0),
            CandidateScore("C", 1, 1, 3, 3, 2.0 / 3.0)]
    t0 = time.perf_counter()
    merged = final_ranking(rows, probs, labels, 2)
    elapsed = time.perf_counter() - t0
    plain = final_ranking([], probs, labels, 0)
    report(1, "top-N-pinned merge reproduces the worked example",
           merged == ["A", "B", "E", "D", "C"] and
           plain == ["E", "B", "A", "D", "C"] and elapsed < 1e-3,
           f"{elapsed * 1e6:.0f} us")


def test_c02_reciprocal_rank_values():
    score_b = {"A": 3.0, "B": 2.0, "C": 1.0}
    score_x = {"A": 0.3, "B": 0.2, "C": 0.1}
    rows = mrr_combine(score_b, score_x)
    got = [r.mrr for r in rows]
    exact = [2.0, 1.0, 2.0 / 3.0]
    printed = [2.00, 1.00, 0.67]
    ok = all(abs(g - e) < 1e-12 for g, e in zip(got, exact)) and \
        all(abs(g - p) < 0.005 for g, p in zip(got, printed))
    report(2, "combined reciprocal ranks equal 2.00 / 1.00 / 0.67", ok,
           f"got {[round(g, 4) for g in got]}")


def test_c03_ndcg_matches_enumeration_oracle():
    def oracle(ranking, relevant, k):
        def dcg(seq):
            return sum((lid in relevant) / math.log(i + 2)
                       for i, lid in enumerate(seq[:k]))
        universe = sorted(set(ranking) | relevant)
        return dcg(ranking) / max(dcg(list(p))
                                  for p in itertools.permutations(universe))

    rng = np.random.default_rng(3)
    labels = [f"L{i}" for i in range(6)]
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        rel = set(rng.choice(labels, size=int(rng.integers(1, 5)), replace=False))
        ranking = list(rng.permutation(labels))[:int(rng.integers(1, 7))]
        k = int(rng.integers(1, 7))
        got = metrics.ndcg_at_k(ranking, rel, k)
        worst = max(worst, abs(got - oracle(ranking, rel, k)))
    elapsed = time.perf_counter() - t0
    report(3, "ndcg matches brute-force reference on 200 random instances",
           worst < 1e-9 and elapsed < 1.0,
           f"max err {worst:.2e}, {elapsed:.2f} s")


def test_c04_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    step = 1e-5
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for trial in range(10):
        model = encoder.init_model(hash_dim=64, embed_dim=8, seed=trial)
        model.w = rng.normal(size=16) * 0.5
        texts = [" ".join(f"tok{rng.integers(40)}" for _ in range(10))
                 for _ in range(3)]
        grad_proj, grad_w, _ = encoder.loss_gradient(model, *texts)

        def loss_now():
            s_pos = encoder.cross_score(model, texts[0], texts[1])
            s_neg = encoder.cross_score(model, texts[0], texts[2])
            return encoder.contrastive_loss(s_pos, s_neg)

        for _ in range(5):
            if rng.random() < 0.5:
                coord = (int(rng.integers(64)), int(rng.integers(8)))
                block, analytic = model.proj, grad_proj[coord]
            else:
                coord = int(rng.integers(16))
                block, analytic = model.w, grad_w[coord]
            orig = block[coord]
            block[coord] = orig + step
            up = loss_now()
            block[coord] = orig - step
            down = loss_now()
            block[coord] = orig
            fd = (up - down) / (2 * step)
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
            worst = max(worst, rel)
            checked += 1
    elapsed = time.perf_counter() - t0
    report(4, "analytic gradient matches central differences",
           worst < 1e-5 and checked == 50 and elapsed < 5.0,
           f"50 coords, max rel err {worst:.2e}, {elapsed:.2f} s")


def test_c05_aggregation_matches_recursive_reference():
    def reference(node, emb):
        if node.kind == "paragraph":
            return emb[id(node)]
        parts = [reference(c, emb) for c in node.children]
        return sum(parts) / len(parts)

    rng = np.random.default_rng(5)

    def random_tree(depth=0):
        if depth >= 5 or (depth > 0 and rng.random() < 0.35):
            return HierarchyNode(kind="paragraph", text="x")
        kids = [random_tree(depth + 1) for _ in range(int(rng.integers(1, 7)))]
        return HierarchyNode(kind="paper" if depth == 0 else "section",
                             children=kids)

    t0 = time.perf_counter()
    exact = True
    for i in range(100):
        root = random_tree()
        if root.kind == "paragraph":
            root = HierarchyNode(kind="paper", children=[root])
        paper = Paper(id=f"p{i}", title="", abstract="", hierarchy=root)
        embs = [rng.normal(size=4) for _ in paper.paragraphs]
        agg = aggregate_hierarchy(paper, embs)
        want = reference(root, {id(n): e for n, e in zip(paper.paragraphs, embs)})
        exact = exact and np.array_equal(agg.root, want)
    elapsed = time.perf_counter() - t0
    report(5, "bottom-up aggregation equals recursive reference exactly",
           exact and elapsed < 1.0, f"100 trees, {elapsed:.2f} s")


def test_c06_initial_loss_anchor(tmp_path):
    data = tmp_path / "d"
    data.mkdir()
    write_synthetic(SyntheticSpec(n_papers=40, n_labels=4, labels_per_paper=1,
                                  fulltext_only_fraction=0, edge_prob=0.3,
                                  seed=6),
                    data / "corpus.jsonl", data / "labels.jsonl")
    corpus = load_corpus(data / "corpus.jsonl")
    graph = build_graph(corpus)
    tuples = sample_tuples(graph, corpus, CO_REFERENCE, 64, seed=6)
    model = encoder.init_model(seed=6)  # zero scoring head
    _, losses = encoder.train(model, tuples, corpus,
                              encoder.TrainConfig(total_steps=3, seed=6))
    err = abs(losses[0] - math.log(2))
    report(6, "zero-head first batch loss equals ln 2", err < 1e-12,
           f"err {err:.1e}")


def test_c07_contrastive_training_effectiveness(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "c2"
    data.mkdir()
    write_synthetic(SyntheticSpec(n_papers=500, n_labels=2, labels_per_paper=1,
                                  fulltext_only_fraction=0.0, edge_prob=0.2,
                                  seed=11),
                    data / "corpus.jsonl", data / "labels.jsonl")
    corpus = load_corpus(data / "corpus.jsonl")
    graph = build_graph(corpus)
    tuples = sample_tuples(graph, corpus, CO_REFERENCE, 2200, seed=3)
    train_tuples, held_out = tuples[:2000], tuples[2000:]
    model = encoder.init_model(seed=5)
    model, _ = encoder.train(model, train_tuples, corpus,
                             encoder.TrainConfig(seed=5))
    by_id = {p.id: p for p in corpus}

    def text(ref):
        return by_id[ref[0]].paragraphs[ref[1]].text

    correct = sum(
        encoder.cross_score(model, text(t.anchor), text(t.positive)) >
        encoder.cross_score(model, text(t.anchor), text(t.negative))
        for t in held_out)
    acc = correct / len(held_out)
    elapsed = time.perf_counter() - t0
    report(7, "held-out tuple ordering accuracy after training >= 0.95",
           acc >= 0.95 and elapsed < 60.0, f"acc {acc:.3f}, {elapsed:.1f} s")


def test_c08_end_to_end_planted_run(planted):
    from weaklabel.candidates import read_candidates
    manifest = [json.loads(l) for l in open(planted["data"] / "manifest.jsonl")]
    cands = read_candidates(os.path.join(planted["out"], "candidates.jsonl"))
    recalled = sum(set(m["abstract_labels"]) <= set(cands[m["paper_id"]])
                   for m in manifest)
    recall = recalled / len(manifest)

    p1 = planted["report"].precision[1]
    p5 = planted["report"].precision[5]

    abl_out = planted["tmp"].mktemp("ablation")
    _, abl_report = pipeline.run_pipeline(
        planted["config"](abl_out, use_hierarchy=False, use_selftrain=False))
    gap = p5 - abl_report.precision[5]

    ok = recall == 1.0 and p1 >= 0.9 and gap >= 0.05 and planted["elapsed"] < 120
    report(8, "planted run: recall 1.0, P@1 >= 0.9, beats abstract-only by >= 0.05",
           ok, f"recall {recall:.3f}, P@1 {p1:.3f}, P@5 gap {gap:+.3f}, "
           f"{planted['elapsed']:.1f} s")


def test_c09_selftraining_recovers_unretrievable_labels(planted):
    manifest = [json.loads(l) for l in open(planted["data"] / "manifest.jsonl")]
    rankings = planted["rankings"]

    before_out = planted["tmp"].mktemp("before_st")
    before_rankings, _ = pipeline.run_pipeline(
        planted["config"](before_out, use_selftrain=False))

    def recovered(ranks):
        hit = total = 0
        for m in manifest:
            top5 = set(ranks[m["paper_id"]][:5])
            for lid in m["fulltext_labels"]:
                total += 1
                hit += lid in top5
        return hit / total

    after = recovered(rankings)
    before = recovered(before_rankings)
    report(9, "full-text-only labels: 0% in top-5 before, >= 50% after",
           before == 0.0 and after >= 0.5,
           f"before {before:.2f}, after {after:.2f}")


def test_c10_propensity_metric_oracles():
    def oracle_psp(ranking, rel, rewards, k):
        return sum(rewards.get(l, 1.0) for i, l in enumerate(ranking[:k])
                   if l in rel) / k

    def oracle_psn(ranking, rel, rewards, k):
        num = sum(rewards.get(l, 1.0) / math.log(i + 2)
                  for i, l in enumerate(ranking[:k]) if l in rel)
        den = sum(1.0 / math.log(i + 2) for i in range(min(k, len(rel))))
        return num / den

    rng = np.random.default_rng(10)
    labels = [f"L{i}" for i in range(10)]
    worst = 0.0
    equal_at_1 = True
    for _ in range(100):
        rel = set(rng.choice(labels, size=int(rng.integers(1, 5)), replace=False))
        rewards = {l: 1.0 + 3.0 * float(rng.random()) for l in labels}
        ranking = list(rng.permutation(labels))[:int(rng.integers(1, 11))]
        k = int(rng.integers(1, 8))
        worst = max(worst,
                    abs(metrics.psp_at_k(ranking, rel, rewards, k) -
                        oracle_psp(ranking, rel, rewards, k)),
                    abs(metrics.psn_at_k(ranking, rel, rewards, k) -
                        oracle_psn(ranking, rel, rewards, k)))
        equal_at_1 = equal_at_1 and (
            abs(metrics.psp_at_k(ranking, rel, rewards, 1) -
                metrics.psn_at_k(ranking, rel, rewards, 1)) < 1e-12)
    rewards_seq = [metrics.propensity(n, 5000) for n in range(0, 200)]
    decreasing = all(a > b for a, b in zip(rewards_seq, rewards_seq[1:]))
    report(10, "propensity-scored metrics match appendix formulas",
           worst < 1e-12 and equal_at_1 and decreasing,
           f"max err {worst:.2e}")


def test_c11_complexity_accounting(planted):
    stats = json.load(open(os.path.join(planted["out"], "score_stats.json")))
    cross_ok = stats["cross_score_calls"] == stats["sum_candidates"]
    bi_ok = stats["bi_embed_calls"] == stats["sum_paragraphs"] + stats["n_labels"]
    report(11, "instrumented call counts equal the retrieval cost model",
           cross_ok and bi_ok and stats["n_empty_papers"] == 0,
           f"cross {stats['cross_score_calls']}=sum|C(d)|, "
           f"bi {stats['bi_embed_calls']}=sum|P_d|+|L|")


def test_c12_determinism_across_thread_counts(planted):
    rerun_out = planted["tmp"].mktemp("rerun_t4")
    pipeline.run_pipeline(planted["config"](rerun_out, threads=4))
    a = open(os.path.join(planted["out"], "predictions.jsonl"), "rb").read()
    b = open(os.path.join(rerun_out, "predictions.jsonl"), "rb").read()
    report(12, "reruns are byte-identical regardless of thread count", a == b,
           f"{len(a)} bytes")
