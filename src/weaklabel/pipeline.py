"""Pipeline stages and the end-to-end runner.

Each stage is a standalone function reading only documented artifacts of
earlier stages from the output directory, so the CLI can run any stage
in isolation (including in a separate process) and a single-shot run is
byte-identical to a stage-by-stage one.

Stage order: candidates -> sample-tuples -> train-encoder -> score
(joint scores, hierarchy aggregation, rank ensembling) -> self-train ->
predict -> evaluate.
"""

from __future__ import annotations

import json
import logging
import os

import numpy as np

from . import candidates as cand
from . import citegraph, encoder, metrics, ranker, selftrain
from .config import PipelineConfig
from .corpus import (build_vocabulary, corpus_stats, load_corpus, load_labels, read_jsonl,
                     write_jsonl)

log = logging.getLogger(__name__)

ARTIFACTS = {
    "ingest": "ingest.json",
    "candidates": "candidates.jsonl",
    "tuples": "tuples.jsonl",
    "encoder": "encoder.npz",
    "loss_trace": "loss_trace.json",
    "scores": "scores.jsonl",
    "score_stats": "score_stats.json",
    "classifier": "classifier.npz",
    "predictions": "predictions.jsonl",
    "metrics": "metrics.json",
}


def _path(cfg: PipelineConfig, key: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, ARTIFACTS[key])


def _load_inputs(cfg: PipelineConfig):
    corpus = load_corpus(cfg.corpus_path, cfg.min_paragraph_words)
    labels = load_labels(cfg.labels_path)
    return corpus, labels


def _check_paper_ids(found: dict, corpus, key: str, stage: str):
    """Reject an artifact written for a corpus with other paper ids."""
    ids = {p.id for p in corpus}
    if found.keys() != ids:
        raise ValueError(f"{ARTIFACTS[key]} was written for another corpus: it has "
                         f"{len(found)} papers, the corpus has {len(ids)}, "
                         f"{len(ids & found.keys())} in both; rerun {stage}")


def _check_tuple_refs(tuples, corpus):
    """Reject tuples with a (paper id, paragraph index) reference the corpus lacks."""
    n_paragraphs = {p.id: len(p.paragraphs) for p in corpus}
    for tup in tuples:
        for pid, i in (tup.anchor, tup.positive, tup.negative):
            n = n_paragraphs.get(pid)
            if n is None or not 0 <= i < n:
                why = "no such paper" if n is None else f"the paper has {n} paragraphs"
                raise ValueError(f"{ARTIFACTS['tuples']} was written for another corpus: "
                                 f"reference ({pid!r}, {i}) does not resolve ({why}); "
                                 f"rerun sample-tuples")


def stage_ingest(cfg: PipelineConfig) -> dict:
    corpus, labels = _load_inputs(cfg)
    stats = corpus_stats(corpus)
    stats["n_labels"] = len(labels)
    with open(_path(cfg, "ingest"), "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
    log.info("ingested %d papers, %d labels", stats["n_papers"], len(labels))
    return stats


def stage_candidates(cfg: PipelineConfig) -> dict[str, list[str]]:
    corpus, labels = _load_inputs(cfg)
    index = cand.build_name_index(labels)
    out = {p.id: cand.retrieve_candidates(p, index, full_text=cfg.match_full_text)
           for p in corpus}
    cand.write_candidates(out, _path(cfg, "candidates"))
    stats = cand.candidate_stats(out)
    log.info("retrieval: mean %.2f candidates/paper, %d empty",
             stats.mean_candidates, stats.n_empty)
    return out


def stage_sample_tuples(cfg: PipelineConfig) -> list[citegraph.ContrastiveTuple]:
    corpus, _ = _load_inputs(cfg)
    graph = citegraph.build_graph(corpus)
    tuples = citegraph.sample_tuples(graph, corpus, citegraph.MetaPath.parse(cfg.meta_path),
                                     cfg.tuple_count, seed=cfg.stage_seed("sample-tuples"))
    citegraph.write_tuples(tuples, _path(cfg, "tuples"))
    return tuples


def stage_train_encoder(cfg: PipelineConfig) -> encoder.ScorerModel:
    corpus, _ = _load_inputs(cfg)
    tuples = citegraph.read_tuples(_path(cfg, "tuples"))
    _check_tuple_refs(tuples, corpus)
    model = encoder.init_model(cfg.hash_dim, cfg.embed_dim, seed=cfg.stage_seed("init-model"))
    train_cfg = encoder.TrainConfig(
        batch_size=cfg.batch_size, learning_rate=cfg.learning_rate,
        warmup_steps=cfg.warmup_steps, weight_decay=cfg.weight_decay,
        epsilon=cfg.epsilon, beta1=cfg.beta1, beta2=cfg.beta2,
        total_steps=cfg.train_steps, epochs=cfg.train_epochs,
        seed=cfg.stage_seed("train-encoder"))
    model, losses = encoder.train(model, tuples, corpus, train_cfg)
    encoder.save_model(model, _path(cfg, "encoder"), train_config=train_cfg)
    with open(_path(cfg, "loss_trace"), "w", encoding="utf-8") as fh:
        json.dump({"losses": losses.tolist()}, fh)
    log.info("trained scorer: first-batch loss %.4f, final %.4f", losses[0], losses[-1])
    return model


def stage_score(cfg: PipelineConfig) -> dict[str, list[ranker.CandidateScore]]:
    corpus, labels = _load_inputs(cfg)
    cands = cand.read_candidates(_path(cfg, "candidates"))
    _check_paper_ids(cands, corpus, "candidates", "candidates")
    model = encoder.load_model(_path(cfg, "encoder"))
    overrides = (encoder.load_embedding_overrides(cfg.embeddings_path, model.embed_dim)
                 if cfg.embeddings_path else {})
    labels_by_id = {l.id: l for l in labels}
    model.counters.reset()

    def embedding(key: str, text: str, counted: bool = True) -> np.ndarray:
        # an external vector under ``key`` replaces the model's embedding of ``text``
        ov = overrides.get(key)
        if ov is not None:
            return ov
        return encoder.bi_embed(model, text) if counted else encoder._embed_text(model, text)

    # both scorers read the label vectors; bi calls count them only on the bi path
    label_embs = {l.id: embedding(l.id, l.text, cfg.use_hierarchy) for l in labels}

    scored: dict[str, list[ranker.CandidateScore]] = {}
    for paper in corpus:
        cand_ids = cands[paper.id]
        score_x = ranker.score_cross(model, paper, labels_by_id, cand_ids, overrides,
                                     label_embeddings=label_embs)
        if cfg.use_hierarchy:
            leaf_embs = [embedding(f"{paper.id}#{i}", leaf.text)
                         for i, leaf in enumerate(paper.paragraphs)]
            fallback = embedding(paper.id, paper.title_abstract) if paper.is_empty else None
            agg = ranker.aggregate_hierarchy(paper, leaf_embs, fallback=fallback)
            score_b = ranker.score_bi(agg.root, label_embs, cand_ids)
        else:
            score_b = dict(score_x)  # degenerate ensemble: joint scores only
        scored[paper.id] = ranker.mrr_combine(score_b, score_x)

    ranker.write_scores(scored, _path(cfg, "scores"))
    stats = {
        "bi_embed_calls": model.counters.bi_embed,
        "cross_score_calls": model.counters.cross_score,
        "sum_candidates": sum(len(c) for c in cands.values()),
        "sum_paragraphs": sum(len(p.paragraphs) for p in corpus),
        "n_labels": len(labels),
        "n_empty_papers": sum(p.is_empty for p in corpus),
    }
    with open(_path(cfg, "score_stats"), "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
    return scored


def stage_self_train(cfg: PipelineConfig) -> selftrain.LabelTreeClassifier:
    corpus, labels = _load_inputs(cfg)
    scored = ranker.read_scores(_path(cfg, "scores"))
    _check_paper_ids(scored, corpus, "scores", "score")
    vocab = build_vocabulary(corpus, cfg.min_df)
    X = selftrain.build_tfidf_matrix(corpus, vocab)
    pseudo = selftrain.pseudo_labels(scored, cfg.pseudo_top_n)
    clf_cfg = selftrain.ClassifierConfig(
        n_trees=cfg.n_trees, max_leaf=cfg.max_leaf, beam_width=cfg.beam_width,
        epochs=cfg.classifier_epochs, learning_rate=cfg.classifier_lr,
        l2=cfg.classifier_l2, seed=cfg.stage_seed("self-train"))
    clf = selftrain.train_classifier(X, [p.id for p in corpus], pseudo,
                                     [l.id for l in labels], clf_cfg)
    selftrain.save_classifier(clf, _path(cfg, "classifier"))
    return clf


def _check_label_set(clf: selftrain.LabelTreeClassifier, label_ids: list[str]):
    only_file = sorted(set(label_ids) - set(clf.label_ids))
    only_clf = sorted(set(clf.label_ids) - set(label_ids))
    if only_file or only_clf:
        raise ValueError(f"classifier was fitted on a different label set (only in the "
                         f"label file: {only_file[:5]}, only in the classifier: "
                         f"{only_clf[:5]}); rerun self-train")


def stage_predict(cfg: PipelineConfig) -> dict[str, list[str]]:
    corpus, labels = _load_inputs(cfg)
    scored = ranker.read_scores(_path(cfg, "scores"))
    _check_paper_ids(scored, corpus, "scores", "score")
    label_ids = [l.id for l in labels]

    rankings: dict[str, list[str]] = {}
    top_scores: dict[str, list[float]] = {}
    if cfg.use_selftrain:
        clf = selftrain.load_classifier(_path(cfg, "classifier"))
        _check_label_set(clf, label_ids)
        vocab = build_vocabulary(corpus, cfg.min_df)
        X = selftrain.build_tfidf_matrix(corpus, vocab)
        probs, _ = selftrain.predict_matrix(clf, X, cfg.beam_width)  # unreached labels hold 0
        pinned = [[r.label_id for r in scored[p.id][:cfg.pseudo_top_n]] for p in corpus]
        ranked = selftrain.final_rankings(pinned, probs, clf.label_ids)
        column = {lid: j for j, lid in enumerate(clf.label_ids)}
        for i, paper in enumerate(corpus):
            rankings[paper.id] = ranked[i]
            top_scores[paper.id] = [scored[paper.id][j].mrr if j < len(pinned[i])
                                    else float(probs[i, column[lid]])
                                    for j, lid in enumerate(ranked[i][:cfg.top_k])]
    else:
        for paper in corpus:
            rows = scored[paper.id]
            rankings[paper.id] = [r.label_id for r in rows]
            top_scores[paper.id] = [r.mrr for r in rows[:cfg.top_k]]

    write_jsonl(({"paper_id": pid, "ranking": rankings[pid][:cfg.ranking_limit],
                  "top_k_scores": top_scores[pid]} for pid in rankings),
                _path(cfg, "predictions"))
    return rankings


def read_predictions(path) -> dict[str, list[str]]:
    return {rec["paper_id"]: list(rec["ranking"]) for rec in read_jsonl(path)}


def stage_evaluate(cfg: PipelineConfig) -> metrics.MetricsReport | None:
    corpus, _ = _load_inputs(cfg)
    rankings = read_predictions(_path(cfg, "predictions"))
    _check_paper_ids(rankings, corpus, "predictions", "predict")
    gold = {p.id: set(p.gold_labels) for p in corpus if p.gold_labels is not None}
    if not any(gold.values()):
        log.warning("no ground-truth labels in the corpus; skipping evaluation")
        return None
    mean_c = None
    cand_path = _path(cfg, "candidates")
    if os.path.exists(cand_path):
        mean_c = cand.candidate_stats(cand.read_candidates(cand_path)).mean_candidates
    report = metrics.evaluate(rankings, gold, precision_ks=tuple(cfg.precision_ks),
                              ndcg_ks=tuple(cfg.ndcg_ks), a=cfg.propensity_a,
                              b=cfg.propensity_b, mean_candidates=mean_c)
    with open(_path(cfg, "metrics"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    print(report.to_json())
    return report


STAGES = [
    ("ingest", stage_ingest),
    ("candidates", stage_candidates),
    ("sample-tuples", stage_sample_tuples),
    ("train-encoder", stage_train_encoder),
    ("score", stage_score),
    ("self-train", stage_self_train),
    ("predict", stage_predict),
    ("evaluate", stage_evaluate),
]


def stages(cfg: PipelineConfig) -> list:
    """The ``(name, function)`` pairs of a full run, in order: every stage,
    less self-train when ``use_selftrain`` is off."""
    return [(name, fn) for name, fn in STAGES if cfg.use_selftrain or name != "self-train"]


def run_pipeline(cfg: PipelineConfig):
    """Run ``stages(cfg)`` in order; returns (rankings, metrics report or None)."""
    kept = {}
    for name, fn in stages(cfg):
        log.info("stage %s", name)
        # later stages must not hold earlier results in memory, except the two returned
        if name in ("predict", "evaluate"):
            kept[name] = fn(cfg)
        else:
            fn(cfg)
    return kept.get("predict"), kept.get("evaluate")
