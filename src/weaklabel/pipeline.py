"""Pipeline stages and the end-to-end runner.

Each stage is a standalone function reading only documented artifacts of
earlier stages from the output directory, so the CLI can run any stage
in isolation (including in a separate process) and a single-shot run is
byte-identical to a stage-by-stage one. The inputs a stage derives from
the corpus and label files come from a ``RunContext``: a full run shares
one, so each input is read and each feature matrix built once per run,
and a stage takes what an earlier stage of the run wrote from the context
instead of parsing it back, while the file is the one written.
Evaluate reads only the corpus's paper ids and gold labels. A stage's
product is its artifacts, and evaluate also returns its report; predict
writes each block of papers to predictions.jsonl as it ranks it.

Importing this module sets numpy's bundled OpenBLAS to one thread: the
bytes of a product depend on its thread count, and every artifact must not.

Stage order: ingest -> candidates -> sample-tuples -> train-encoder ->
score (joint scores, hierarchy aggregation, rank ensembling) ->
self-train -> predict -> evaluate.
"""

from __future__ import annotations

import ctypes
import json
import logging
import os
from contextlib import contextmanager
from functools import cached_property

import numpy as np

from . import candidates as cand
from . import citegraph, encoder, metrics, ranker, selftrain
from .config import PipelineConfig
from .corpus import (CorpusError, Label, Paper, Vocabulary, atomic_write, corpus_stats,
                     count_terms, load_corpus, load_labels, load_paper_labels,
                     read_by_paper, vocabulary_from_terms)
from .kernels import CsrMatrix

log = logging.getLogger(__name__)

try:  # numpy's bundled OpenBLAS, reached through the symbols of numpy's core module
    ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_(1)
except (AttributeError, OSError):
    pass  # no such handle: another BLAS, or one numpy does not bundle

ARTIFACTS = {  # key: (its file in the output directory, the stage that writes it)
    "ingest": ("ingest.json", "ingest"),
    "candidates": ("candidates.jsonl", "candidates"),
    "tuples": ("tuples.jsonl", "sample-tuples"),
    "encoder": ("encoder.npz", "train-encoder"),
    "loss_trace": ("loss_trace.json", "train-encoder"),
    "scores": ("scores.jsonl", "score"),
    "score_stats": ("score_stats.json", "score"),
    "classifier": ("classifier.npz", "self-train"),
    "predictions": ("predictions.jsonl", "predict"),
    "metrics": ("metrics.json", "evaluate"),
}


# papers whose texts the score stage featurizes in one call; larger blocks gain
# little more and hold more (peak +1.1 MiB at 1000 x 220 with 32, +4.8 MiB with 128)
SCORE_BLOCK_PAPERS = 32


def _path(cfg: PipelineConfig, key: str) -> str:
    return os.path.join(cfg.output_dir, ARTIFACTS[key][0])


@contextmanager
def _upstream(key: str):
    """Around a read of artifact ``key``: its ValueError or OSError gets "; rerun <writer>"."""
    try:
        yield
    except (ValueError, OSError) as exc:  # a CorpusError or an OSError keeps its type
        kind = type(exc) if isinstance(exc, (CorpusError, OSError)) else ValueError
        raise kind(f"{exc}; rerun {ARTIFACTS[key][1]}") from None


def _identity(path) -> tuple[int, int, int]:
    """The inode, size and mtime of the file at ``path``; no file raises as its reader would."""
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns


class RunContext:
    """The inputs of one run under one config, each read or built on first use,
    and the objects its stages wrote.

    ``run_pipeline`` and the CLI pass one context to every stage they run,
    so the corpus and labels are parsed once, and the ingest statistics,
    vocabulary and tf-idf matrix all come from one tokenization of each
    paper (``terms``, dropped once the matrix is built). ``paper_labels``,
    each paper's id and gold labels, is all that evaluate reads of the
    corpus: it comes from the loaded corpus when there is one, else from
    ``load_paper_labels``, which reads each record through load_corpus's
    checked walk but keeps no text, so it builds and tokenizes nothing. A
    stage called without a context builds its own.

    A stage hands the context what it wrote to an artifact (``hand``), and a
    later stage takes it (``take``) in place of parsing the file, while the
    file's inode, size and mtime are those it had when written; a file
    replaced since, or never written in this context, is read from disk with
    every check. So a run-all parses none of its own artifacts, and a stage
    run on its own reads them all.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self._written: dict[str, tuple] = {}  # artifact key: (the file's _identity, its object)

    def hand(self, key: str, obj):
        """Keep ``obj``, what was just written to artifact ``key``, for a later stage."""
        self._written[key] = (_identity(_path(self.cfg, key)), obj)

    def take(self, key: str, read, *args, keep: bool = False):
        """What artifact ``key`` holds: the object handed for it, while its file is the
        one written, else ``read(path, *args)``. The caller is the object's last
        reader, so the context drops it, unless ``keep``."""
        path = _path(self.cfg, key)
        held = self._written.get(key) if keep else self._written.pop(key, None)
        if held is not None and held[0] == _identity(path):
            return held[1]
        return read(path, *args)

    @cached_property
    def corpus(self) -> list[Paper]:
        return load_corpus(self.cfg.corpus_path, self.cfg.min_paragraph_words)

    @cached_property
    def paper_labels(self) -> dict[str, frozenset[str] | None]:
        if "corpus" in self.__dict__:  # loaded: no second read of the file
            return {p.id: p.gold_labels for p in self.corpus}
        return load_paper_labels(self.cfg.corpus_path)

    @cached_property
    def labels(self) -> list[Label]:
        return load_labels(self.cfg.labels_path)

    @cached_property
    def terms(self) -> tuple[list[str], CsrMatrix]:
        return count_terms(self.corpus)

    @cached_property
    def vocab(self) -> Vocabulary:
        return vocabulary_from_terms(self.terms, self.cfg.min_df)

    @cached_property
    def tfidf(self) -> CsrMatrix:
        X = selftrain.tfidf_from_terms(self.terms, self.vocab)
        del self.terms  # no later stage reads the counts; free them before the fit
        return X


def _context(cfg: PipelineConfig, ctx: RunContext | None,
             corpus_view: str = "corpus") -> RunContext:
    """``ctx``, or a new context for a stage run on its own.

    Either way the labels and the context's ``corpus_view`` ("corpus" or
    "paper_labels") are loaded here, so a bad input fails the stage before
    any artifact is read.
    """
    if ctx is None:
        ctx = RunContext(cfg)
    elif ctx.cfg != cfg:
        raise ValueError("the run context was built for another config")
    getattr(ctx, corpus_view), ctx.labels  # first access reads both files
    return ctx


def _write_json(cfg: PipelineConfig, key: str, obj, **kwargs):
    with atomic_write(_path(cfg, key)) as fh:
        json.dump(obj, fh, allow_nan=False, **kwargs)


def _read_paper_keyed(cfg: PipelineConfig, ctx: RunContext, key: str, *args,
                      keep: bool = False) -> dict:
    """The paper-keyed artifact under ``key`` (label ids or scored candidates per paper),
    taken from ``ctx`` with ``args`` and ``keep`` (RunContext.take) and checked against
    the corpus's paper ids and the label file."""
    read = {"candidates": cand.read_candidates, "scores": ranker.read_scores,
            "predictions": read_predictions}[key]
    file, ids = ARTIFACTS[key][0], ctx.paper_labels.keys()
    with _upstream(key):
        found = ctx.take(key, read, *args, keep=keep)
        if found.keys() != ids:
            raise ValueError(f"{file} was written for another corpus: it has {len(found)} "
                             f"papers, the corpus has {len(ids)}, "
                             f"{len(ids & found.keys())} in both")
        unknown = sorted({getattr(c, "label_id", c) for entry in found.values() for c in entry}
                         - {l.id for l in ctx.labels})
        if unknown:
            raise ValueError(f"{file} was written for another label set: {len(unknown)} of "
                             f"its label ids are not in the label file (first {unknown[:5]})")
    return found


def _check_tuple_refs(tuples, corpus):
    """Reject tuples with a (paper id, paragraph index) reference the corpus lacks."""
    n_paragraphs = {p.id: len(p.paragraphs) for p in corpus}
    for tup in tuples:
        for pid, i in (tup.anchor, tup.positive, tup.negative):
            n = n_paragraphs.get(pid)
            if n is None or not 0 <= i < n:
                why = "no such paper" if n is None else f"the paper has {n} paragraphs"
                raise ValueError(f"{ARTIFACTS['tuples'][0]} was written for another corpus: "
                                 f"reference ({pid!r}, {i}) does not resolve ({why})")


def _check_override_ids(path, overrides: dict, corpus: list[Paper], labels: list[Label]):
    """Reject an embeddings file none of whose ids is a label id, a paper id
    or a ``<paper_id>#<i>`` paragraph id of this run; warn about the ids of
    a file that match in part."""
    known = ({l.id for l in labels} | {p.id for p in corpus}
             | {f"{p.id}#{i}" for p in corpus for i in range(len(p.paragraphs))})
    unknown = [key for key in overrides if key not in known]
    if len(unknown) == len(overrides):
        raise ValueError(f"{path}: none of its {len(overrides)} ids is a label id, a paper "
                         "id or a <paper_id>#<i> paragraph id of this corpus")
    if unknown:
        log.warning("%s: %d of its %d ids match no label, paper or paragraph (first %s)",
                    path, len(unknown), len(overrides), unknown[:5])


def stage_ingest(cfg: PipelineConfig, ctx: RunContext | None = None):
    ctx = _context(cfg, ctx)
    stats = corpus_stats(ctx.corpus, ctx.terms)
    stats["n_labels"] = len(ctx.labels)
    _write_json(cfg, "ingest", stats, indent=2, sort_keys=True)
    log.info("ingested %d papers, %d labels", stats["n_papers"], len(ctx.labels))


def stage_candidates(cfg: PipelineConfig, ctx: RunContext | None = None):
    ctx = _context(cfg, ctx)
    index = cand.build_name_index(ctx.labels)
    out = {p.id: cand.retrieve_candidates(p, index, full_text=cfg.match_full_text)
           for p in ctx.corpus}
    cand.write_candidates(out, _path(cfg, "candidates"))
    ctx.hand("candidates", out)
    stats = cand.candidate_stats(out)
    log.info("retrieval: mean %.2f candidates/paper, %d empty",
             stats.mean_candidates, stats.n_empty)


def stage_sample_tuples(cfg: PipelineConfig, ctx: RunContext | None = None):
    ctx = _context(cfg, ctx)
    graph = citegraph.build_graph(ctx.corpus)
    tuples = citegraph.sample_tuples(graph, ctx.corpus, citegraph.MetaPath.parse(cfg.meta_path),
                                     cfg.tuple_count, seed=cfg.stage_seed("sample-tuples"))
    citegraph.write_tuples(tuples, _path(cfg, "tuples"))
    ctx.hand("tuples", tuples)


def stage_train_encoder(cfg: PipelineConfig, ctx: RunContext | None = None):
    ctx = _context(cfg, ctx)
    corpus = ctx.corpus
    with _upstream("tuples"):
        tuples = ctx.take("tuples", citegraph.read_tuples)
        _check_tuple_refs(tuples, corpus)
    model = encoder.init_model(cfg.hash_dim, cfg.embed_dim, seed=cfg.stage_seed("init-model"))
    seed = cfg.stage_seed("train-encoder")
    model, losses = encoder.train(model, tuples, corpus, cfg, seed)
    encoder.save_model(model, _path(cfg, "encoder"), cfg, seed)
    ctx.hand("encoder", model)  # its featurizer holds the word codes of every drawn paragraph
    _write_json(cfg, "loss_trace", {"losses": losses.tolist()})
    log.info("trained scorer: first-batch loss %.4f, final %.4f", losses[0], losses[-1])


def stage_score(cfg: PipelineConfig, ctx: RunContext | None = None):
    ctx = _context(cfg, ctx)
    corpus, labels = ctx.corpus, ctx.labels
    cands = _read_paper_keyed(cfg, ctx, "candidates", keep=True)  # evaluate reads them too
    with _upstream("encoder"):
        # dropped from the context: score_stats.json counts this model's cross scores
        model = ctx.take("encoder", encoder.load_model)
    overrides = (encoder.load_embedding_overrides(cfg.embeddings_path, model.embed_dim)
                 if cfg.embeddings_path else {})
    if overrides:
        _check_override_ids(cfg.embeddings_path, overrides, corpus, labels)

    def embeddings(items) -> list[np.ndarray]:
        """The vector of each ``(key, text)``: the external vector under ``key``,
        or else the model's, from one featurizer call over the distinct texts."""
        texts = list(dict.fromkeys(text for key, text in items if key not in overrides))
        feats = model.featurizer.featurize_many(texts)
        vec = {text: encoder._embed_features(model, feats, i) for i, text in enumerate(texts)}
        return [overrides[key] if key in overrides else vec[text] for key, text in items]

    label_embs = dict(zip((l.id for l in labels), embeddings([(l.id, l.text) for l in labels])))
    scored: dict[str, list[ranker.CandidateScore]] = {}
    for lo in range(0, len(corpus), SCORE_BLOCK_PAPERS):
        block = corpus[lo:lo + SCORE_BLOCK_PAPERS]
        # every title+abstract, then (hierarchy on) every paragraph as a leaf
        items = [(paper.id, paper.title_abstract) for paper in block]
        if cfg.use_hierarchy:
            items += [(f"{paper.id}#{i}", text)
                      for paper in block for i, text in enumerate(paper.paragraphs)]
        vecs = embeddings(items)
        leaves = iter(vecs[len(block):])
        for paper, u in zip(block, vecs):
            cand_ids = cands[paper.id]
            score_x = ranker.score_cross(model, u, label_embs, cand_ids)
            if cfg.use_hierarchy:
                leaf_embs = [next(leaves) for _ in paper.paragraphs]
                root_emb = ranker.aggregate_hierarchy(paper, leaf_embs, fallback=u)
                score_b = ranker.score_bi(root_emb, label_embs, cand_ids)
            else:
                score_b = dict(score_x)  # degenerate ensemble: joint scores only
            scored[paper.id] = ranker.mrr_combine(score_b, score_x)

    ranker.write_scores(scored, _path(cfg, "scores"))
    ctx.hand("scores", scored)
    # the bi path's own embeddings: each label, each paragraph and the title+abstract
    # of each paper with no paragraphs (its root), less those the file gives
    bi_keys = []
    if cfg.use_hierarchy:
        bi_keys = [l.id for l in labels] + [p.id for p in corpus if p.is_empty]
        bi_keys += [f"{p.id}#{i}" for p in corpus for i in range(len(p.paragraphs))]
    stats = {
        "bi_embed_calls": sum(key not in overrides for key in bi_keys),
        "cross_score_calls": model.counters.cross_score,
        "sum_candidates": sum(len(c) for c in cands.values()),
        "sum_paragraphs": sum(len(p.paragraphs) for p in corpus),
        "n_labels": len(labels),
        "n_empty_papers": sum(p.is_empty for p in corpus),
    }
    _write_json(cfg, "score_stats", stats, indent=2, sort_keys=True)


def stage_self_train(cfg: PipelineConfig, ctx: RunContext | None = None):
    ctx = _context(cfg, ctx)
    scored = _read_paper_keyed(cfg, ctx, "scores", keep=True)  # predict reads them too
    pseudo = selftrain.pseudo_labels(scored, cfg.pseudo_top_n)
    clf = selftrain.train_classifier(ctx.tfidf, [p.id for p in ctx.corpus], pseudo,
                                     [l.id for l in ctx.labels], cfg,
                                     cfg.stage_seed("self-train"))
    selftrain.save_classifier(clf, _path(cfg, "classifier"))
    ctx.hand("classifier", clf)


def _check_label_set(clf: selftrain.LabelTreeClassifier, label_ids: list[str]):
    only_file = sorted(set(label_ids) - set(clf.label_ids))
    only_clf = sorted(set(clf.label_ids) - set(label_ids))
    if only_file or only_clf:
        raise ValueError(f"classifier was fitted on a different label set (only in the label "
                         f"file: {only_file[:5]}, only in the classifier: {only_clf[:5]})")


def stage_predict(cfg: PipelineConfig, ctx: RunContext | None = None):
    ctx = _context(cfg, ctx)
    scored = _read_paper_keyed(cfg, ctx, "scores")
    top_k = min(cfg.top_k, cfg.ranking_limit or cfg.top_k)  # scores only stored labels
    if cfg.use_selftrain:
        X = ctx.tfidf  # built outside the block: its errors are no fault of classifier.npz
        with _upstream("classifier"):
            clf = ctx.take("classifier", selftrain.load_classifier)
            _check_label_set(clf, [l.id for l in ctx.labels])
            blocks = selftrain.predict_blocks(clf, X, cfg.beam_width)  # checks X's width
        column = {lid: j for j, lid in enumerate(clf.label_ids)}
        pinned = selftrain.pseudo_labels(scored, cfg.pseudo_top_n)

    # each line as write_jsonl writes it, each label id JSON-encoded once
    quoted = {l.id: json.dumps(l.id) for l in ctx.labels}
    depth = _evaluate_depth(cfg)
    handed = {}  # each paper's ranking as evaluate reads it: read_predictions(path, depth)
    with atomic_write(_path(cfg, "predictions")) as fh:
        def write(pid: str, ranking: list[str], top_scores: list[float]):
            ranking = ranking[:cfg.ranking_limit]
            handed[pid] = ranking[:depth]
            labels = ", ".join(map(quoted.__getitem__, ranking))
            fh.write(f'{{"paper_id": {json.dumps(pid)}, "ranking": [{labels}], '
                     f'"top_k_scores": {json.dumps(top_scores, allow_nan=False)}}}\n')

        if not cfg.use_selftrain:
            for paper in ctx.corpus:
                rows = scored[paper.id]
                write(paper.id, [r.label_id for r in rows], [r.mrr for r in rows[:top_k]])
        else:
            # one row block at a time, each paper written as its block is ranked, so
            # neither a papers x labels matrix nor the corpus's full rankings are ever held
            for start, probs in blocks:
                papers = ctx.corpus[start:start + probs.shape[0]]
                ranked = selftrain.final_rankings([pinned[p.id] for p in papers], probs,
                                                  clf.label_ids)
                for paper, ranking, row in zip(papers, ranked, probs):
                    n_pinned = len(pinned[paper.id])
                    write(paper.id, ranking,
                          [scored[paper.id][j].mrr if j < n_pinned
                           else float(row[column[lid]])  # unreached labels hold 0
                           for j, lid in enumerate(ranking[:top_k])])
    ctx.hand("predictions", handed)


def _evaluate_depth(cfg: PipelineConfig) -> int:
    """How many labels of each ranking evaluate reads: every metric reads only the top k."""
    return max((*cfg.precision_ks, *cfg.ndcg_ks), default=0)


PREDICTIONS_FIELDS = {"paper_id": "str", "ranking": "list[str]", "top_k_scores": "list[float]"}


def read_predictions(path, limit: int | None = None) -> dict[str, list[str]]:
    """Each paper's ranking, cut to its first ``limit`` labels when given."""
    return read_by_paper(path, PREDICTIONS_FIELDS, lambda rec: rec["ranking"][:limit])


def stage_evaluate(cfg: PipelineConfig,
                   ctx: RunContext | None = None) -> metrics.MetricsReport | None:
    """Score the stored rankings against the corpus's gold labels; of the
    corpus it reads only ``ctx.paper_labels``, so on its own it tokenizes no corpus text."""
    ctx = _context(cfg, ctx, "paper_labels")
    rankings = _read_paper_keyed(cfg, ctx, "predictions", _evaluate_depth(cfg))
    gold = {pid: set(labels) for pid, labels in ctx.paper_labels.items()
            if labels is not None}
    if not any(gold.values()):
        log.warning("no ground-truth labels in the corpus; skipping evaluation")
        return None
    mean_c = None
    if os.path.exists(_path(cfg, "candidates")):
        mean_c = cand.candidate_stats(_read_paper_keyed(cfg, ctx, "candidates")).mean_candidates
    report = metrics.evaluate(rankings, gold, cfg.precision_ks, cfg.ndcg_ks, cfg.propensity_a,
                              cfg.propensity_b, mean_candidates=mean_c)
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


def run_pipeline(cfg: PipelineConfig) -> metrics.MetricsReport | None:
    """Run ``stages(cfg)`` in order over one ``RunContext``; returns what the
    last stage, evaluate, returns: the metrics report, or None when the
    corpus has no gold labels."""
    ctx = RunContext(cfg)
    for name, fn in stages(cfg):
        log.info("stage %s", name)
        report = fn(cfg, ctx)
    return report
