"""Pipeline stages and the end-to-end runner.

Each stage is a standalone function reading only documented artifacts of
earlier stages from the output directory, so the CLI can run any stage
in isolation (including in a separate process) and a single-shot run is
byte-identical to a stage-by-stage one. The inputs a stage derives from
the corpus and label files come from a ``RunContext``: a full run shares
one, so each input is read and each feature matrix built once per run.

Stage order: candidates -> sample-tuples -> train-encoder -> score
(joint scores, hierarchy aggregation, rank ensembling) -> self-train ->
predict -> evaluate.
"""

from __future__ import annotations

import json
import logging
import os
from functools import cached_property

import numpy as np

from . import candidates as cand
from . import citegraph, encoder, metrics, ranker, selftrain
from .config import PipelineConfig
from .corpus import (Label, Paper, TermCounts, Vocabulary, atomic_write, corpus_stats,
                     count_terms, load_corpus, load_labels, read_jsonl, vocabulary_from_terms,
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


class RunContext:
    """The inputs of one run under one config, each read or built on first use.

    ``run_pipeline`` and the CLI pass one context to every stage they run,
    so the corpus and labels are parsed once, and the ingest statistics,
    vocabulary and tf-idf matrix all come from one tokenization of each
    paper (``terms``, dropped once the matrix is built). A stage called
    without a context builds its own.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg

    @cached_property
    def corpus(self) -> list[Paper]:
        return load_corpus(self.cfg.corpus_path, self.cfg.min_paragraph_words)

    @cached_property
    def labels(self) -> list[Label]:
        return load_labels(self.cfg.labels_path)

    @cached_property
    def paper_ids(self) -> frozenset[str]:
        return frozenset(p.id for p in self.corpus)

    @cached_property
    def terms(self) -> TermCounts:
        return count_terms(self.corpus)

    @cached_property
    def vocab(self) -> Vocabulary:
        return vocabulary_from_terms(self.terms, self.cfg.min_df)

    @cached_property
    def tfidf(self) -> selftrain.CsrMatrix:
        X = selftrain.tfidf_from_terms(self.terms, self.vocab)
        del self.terms  # no later stage reads the counts; free them before the fit
        return X


def _context(cfg: PipelineConfig, ctx: RunContext | None) -> RunContext:
    """``ctx``, or a new context for a stage run on its own.

    Either way the corpus and labels are loaded here, so a bad input fails
    the stage before any artifact is read.
    """
    if ctx is None:
        ctx = RunContext(cfg)
    elif ctx.cfg != cfg:
        raise ValueError("the run context was built for another config")
    ctx.corpus, ctx.labels  # first access reads both files
    return ctx


def _write_json(cfg: PipelineConfig, key: str, obj, **kwargs):
    with atomic_write(_path(cfg, key)) as fh:
        json.dump(obj, fh, **kwargs)


def _check_paper_ids(found: dict, ctx: RunContext, key: str, stage: str):
    """Reject an artifact written for a corpus with other paper ids."""
    ids = ctx.paper_ids
    if found.keys() != ids:
        raise ValueError(f"{ARTIFACTS[key]} was written for another corpus: it has "
                         f"{len(found)} papers, the corpus has {len(ids)}, "
                         f"{len(ids & found.keys())} in both; rerun {stage}")


def _check_label_ids(found, ctx: RunContext, key: str, stage: str):
    """Reject an artifact naming label ids (``found``) the label file lacks."""
    unknown = sorted(set(found) - {l.id for l in ctx.labels})
    if unknown:
        raise ValueError(f"{ARTIFACTS[key]} was written for another label set: "
                         f"{len(unknown)} of its label ids are not in the label file "
                         f"(first {unknown[:5]}); rerun {stage}")


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


def stage_ingest(cfg: PipelineConfig, ctx: RunContext | None = None) -> dict:
    ctx = _context(cfg, ctx)
    stats = corpus_stats(ctx.corpus, ctx.terms)
    stats["n_labels"] = len(ctx.labels)
    _write_json(cfg, "ingest", stats, indent=2, sort_keys=True)
    log.info("ingested %d papers, %d labels", stats["n_papers"], len(ctx.labels))
    return stats


def stage_candidates(cfg: PipelineConfig,
                     ctx: RunContext | None = None) -> dict[str, list[str]]:
    ctx = _context(cfg, ctx)
    index = cand.build_name_index(ctx.labels)
    out = {p.id: cand.retrieve_candidates(p, index, full_text=cfg.match_full_text)
           for p in ctx.corpus}
    cand.write_candidates(out, _path(cfg, "candidates"))
    stats = cand.candidate_stats(out)
    log.info("retrieval: mean %.2f candidates/paper, %d empty",
             stats.mean_candidates, stats.n_empty)
    return out


def stage_sample_tuples(cfg: PipelineConfig,
                        ctx: RunContext | None = None) -> list[citegraph.ContrastiveTuple]:
    corpus = _context(cfg, ctx).corpus
    graph = citegraph.build_graph(corpus)
    tuples = citegraph.sample_tuples(graph, corpus, citegraph.MetaPath.parse(cfg.meta_path),
                                     cfg.tuple_count, seed=cfg.stage_seed("sample-tuples"))
    citegraph.write_tuples(tuples, _path(cfg, "tuples"))
    return tuples


def stage_train_encoder(cfg: PipelineConfig,
                        ctx: RunContext | None = None) -> encoder.ScorerModel:
    corpus = _context(cfg, ctx).corpus
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
    _write_json(cfg, "loss_trace", {"losses": losses.tolist()})
    log.info("trained scorer: first-batch loss %.4f, final %.4f", losses[0], losses[-1])
    return model


def stage_score(cfg: PipelineConfig,
                ctx: RunContext | None = None) -> dict[str, list[ranker.CandidateScore]]:
    ctx = _context(cfg, ctx)
    corpus, labels = ctx.corpus, ctx.labels
    cands = cand.read_candidates(_path(cfg, "candidates"))
    _check_paper_ids(cands, ctx, "candidates", "candidates")
    _check_label_ids((lid for ids in cands.values() for lid in ids), ctx, "candidates",
                     "candidates")
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
    _write_json(cfg, "score_stats", stats, indent=2, sort_keys=True)
    return scored


def _read_scores(cfg: PipelineConfig,
                 ctx: RunContext) -> dict[str, list[ranker.CandidateScore]]:
    """The score stage's output, checked against the corpus and the label file."""
    scored = ranker.read_scores(_path(cfg, "scores"))
    _check_paper_ids(scored, ctx, "scores", "score")
    _check_label_ids((r.label_id for rows in scored.values() for r in rows), ctx, "scores",
                     "score")
    return scored


def stage_self_train(cfg: PipelineConfig,
                     ctx: RunContext | None = None) -> selftrain.LabelTreeClassifier:
    ctx = _context(cfg, ctx)
    scored = _read_scores(cfg, ctx)
    pseudo = selftrain.pseudo_labels(scored, cfg.pseudo_top_n)
    clf_cfg = selftrain.ClassifierConfig(
        n_trees=cfg.n_trees, max_leaf=cfg.max_leaf, beam_width=cfg.beam_width,
        epochs=cfg.classifier_epochs, learning_rate=cfg.classifier_lr,
        l2=cfg.classifier_l2, seed=cfg.stage_seed("self-train"))
    clf = selftrain.train_classifier(ctx.tfidf, [p.id for p in ctx.corpus], pseudo,
                                     [l.id for l in ctx.labels], clf_cfg)
    selftrain.save_classifier(clf, _path(cfg, "classifier"))
    return clf


def _check_label_set(clf: selftrain.LabelTreeClassifier, label_ids: list[str]):
    only_file = sorted(set(label_ids) - set(clf.label_ids))
    only_clf = sorted(set(clf.label_ids) - set(label_ids))
    if only_file or only_clf:
        raise ValueError(f"classifier was fitted on a different label set (only in the "
                         f"label file: {only_file[:5]}, only in the classifier: "
                         f"{only_clf[:5]}); rerun self-train")


def stage_predict(cfg: PipelineConfig, ctx: RunContext | None = None) -> dict[str, list[str]]:
    ctx = _context(cfg, ctx)
    corpus = ctx.corpus
    scored = _read_scores(cfg, ctx)
    label_ids = [l.id for l in ctx.labels]

    rankings: dict[str, list[str]] = {}
    top_scores: dict[str, list[float]] = {}
    if cfg.use_selftrain:
        clf = selftrain.load_classifier(_path(cfg, "classifier"))
        _check_label_set(clf, label_ids)
        probs, _ = selftrain.predict_matrix(clf, ctx.tfidf, cfg.beam_width)  # unreached labels hold 0
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


def read_predictions(path, limit: int | None = None) -> dict[str, list[str]]:
    """Each paper's ranking, cut to its first ``limit`` labels when given."""
    return {rec["paper_id"]: rec["ranking"][:limit] for rec in read_jsonl(path)}


def stage_evaluate(cfg: PipelineConfig,
                   ctx: RunContext | None = None) -> metrics.MetricsReport | None:
    ctx = _context(cfg, ctx)
    # every metric reads only the top k of a ranking
    rankings = read_predictions(_path(cfg, "predictions"),
                                limit=max((*cfg.precision_ks, *cfg.ndcg_ks), default=0))
    _check_paper_ids(rankings, ctx, "predictions", "predict")
    gold = {p.id: set(p.gold_labels) for p in ctx.corpus if p.gold_labels is not None}
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
    with atomic_write(_path(cfg, "metrics")) as fh:
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
    """Run ``stages(cfg)`` in order over one ``RunContext``; returns
    (rankings, metrics report or None)."""
    ctx = RunContext(cfg)
    kept = {}
    for name, fn in stages(cfg):
        log.info("stage %s", name)
        # later stages must not hold earlier results in memory, except the two returned
        if name in ("predict", "evaluate"):
            kept[name] = fn(cfg, ctx)
        else:
            fn(cfg, ctx)
    return kept.get("predict"), kept.get("evaluate")
