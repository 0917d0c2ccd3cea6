import gc
import json
import os

import numpy as np
import pytest

from weaklabel import encoder, kernels, pipeline, ranker
from weaklabel.corpus import count_terms, load_corpus, load_labels
from weaklabel.encoder import pair_features
from weaklabel.kernels import CsrMatrix
from weaklabel.selftrain import final_rankings, predict_blocks, tfidf_from_terms

# the CLI tests run ``python -m weaklabel.cli`` in subprocesses, which import it from here
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return str(path)


@pytest.fixture
def corpus_file(tmp_path):
    def make(records, name="corpus.jsonl"):
        return write_jsonl(tmp_path / name, records)
    return make


@pytest.fixture
def label_file(tmp_path):
    def make(records, name="labels.jsonl"):
        return write_jsonl(tmp_path / name, records)
    return make


def paper_record(pid, title="", abstract="", sections=None, bib_refs=(), labels=None):
    rec = {"id": pid, "title": title, "abstract": abstract,
           "sections": sections or [], "bib_refs": list(bib_refs)}
    if labels is not None:
        rec["labels"] = list(labels)
    return rec


def load_corpus_records(tmp_path, records, min_words=10):
    path = write_jsonl(tmp_path / "corpus.jsonl", records)
    return load_corpus(path, min_words)


def load_label_records(tmp_path, records):
    path = write_jsonl(tmp_path / "labels.jsonl", records)
    return load_labels(path)


def garbage_after(fn, *args, **kwargs) -> int:
    """How many objects the cyclic collector finds unreachable right after
    ``fn(*args, **kwargs)`` returns, with automatic collection off while it
    runs: 0 means the call left no reference cycle behind."""
    gc.collect()
    gc.disable()
    try:
        result = fn(*args, **kwargs)  # alive while collecting, so only true garbage counts
        return gc.collect()
    finally:
        gc.enable()


# one-paper forms of the batched label-tree API, as references for the tests


def build_tfidf_matrix(corpus, vocab) -> CsrMatrix:
    """The tf-idf matrix of ``corpus`` over ``vocab``."""
    return tfidf_from_terms(count_terms(corpus), vocab)


def csr_row(X: CsrMatrix, i: int) -> CsrMatrix:
    """Row i of X as a one-row matrix."""
    lo, hi = X.indptr[i], X.indptr[i + 1]
    return CsrMatrix(X.data[lo:hi], X.indices[lo:hi], np.array([0, hi - lo], dtype=np.int64),
                     1, X.n_cols)


def stacked_probabilities(clf, X: CsrMatrix, beam_width: int = 10) -> np.ndarray:
    """The blocks of predict_blocks stacked into one rows x labels matrix."""
    return np.vstack([np.zeros((0, len(clf.label_ids)))]
                     + [probs for _, probs in predict_blocks(clf, X, beam_width)])


def predict_proba(clf, x: CsrMatrix, beam_width: int = 10) -> dict[str, float]:
    """predict_blocks for one document (a one-row matrix), as {label id:
    probability} over the labels it reached (probability > 0)."""
    probs = stacked_probabilities(clf, x, beam_width)[0]
    return {lid: float(probs[j]) for j, lid in enumerate(clf.label_ids) if probs[j] > 0}


def final_ranking(rows, probabilities: dict[str, float], label_ids, n: int) -> list[str]:
    """final_rankings for one paper: pin its top-n combined-rank candidates
    and rerank the rest by ``probabilities`` ({label id: probability},
    absent labels 0)."""
    label_ids = list(label_ids)
    probs = np.array([[probabilities.get(lid, 0.0) for lid in label_ids]])
    return final_rankings([[r.label_id for r in rows[:n]]], probs, label_ids)[0]


# the scorer's training step as it was before the numerics rule: AdamW with
# the bias corrections applied per element, and the forward over every hash
# row; the numerics-rule test reruns the planted corpus with both


def unfolded_adamw_step(param, grad, m, v, t, lr, beta1, beta2, eps, wd, scratch=None,
                        rows=None):
    """``kernels.adamw_step`` dividing by both bias corrections per element."""
    if scratch is None:
        scratch = (np.empty_like(param[:kernels.ADAMW_BLOCK_ROWS]),
                   np.empty_like(param[:kernels.ADAMW_BLOCK_ROWS]))
    m *= beta1
    v *= beta2
    for lo in range(0, grad.shape[0], kernels.ADAMW_BLOCK_ROWS):
        blk = slice(lo, lo + kernels.ADAMW_BLOCK_ROWS)
        touched = blk if rows is None else rows[blk]
        g = grad[blk]
        a = scratch[0][:g.shape[0]]
        np.multiply(g, 1.0 - beta1, out=a)
        m[touched] += a
        np.multiply(g, 1.0 - beta2, out=a)
        a *= g
        v[touched] += a
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for lo in range(0, param.shape[0], kernels.ADAMW_BLOCK_ROWS):
        blk = slice(lo, lo + kernels.ADAMW_BLOCK_ROWS)
        p_blk = param[blk]
        a = scratch[0][:p_blk.shape[0]]
        b = scratch[1][:p_blk.shape[0]]
        np.divide(m[blk], c1, out=a)  # mhat
        a *= lr
        np.divide(v[blk], c2, out=b)  # vhat
        np.sqrt(b, out=b)
        b += eps
        a /= b
        p_blk -= a
        np.multiply(p_blk, wd, out=a)
        p_blk -= a


def dense_batch_loss_grad(model, x, grad_proj, grad_w, rows=None):
    """``encoder._batch_loss_grad`` with the forward ``x @ proj`` over every
    hash row; with ``rows``, the backward product covers those rows only."""
    e = model.embed_dim
    b = x.shape[0] // 3
    w1, w2 = model.w[:e], model.w[e:]

    r = x @ model.proj
    norm = np.sqrt(np.einsum("ij,ij->i", r, r))[:, None]
    live = norm != 0.0  # empty texts embed to the zero vector
    u = np.divide(r, norm, out=np.zeros_like(r), where=live)
    u_a, u_p, u_n = u.reshape(3, b, e)

    psi_pos = pair_features(u_a, u_p)
    psi_neg = pair_features(u_a, u_n)
    delta = psi_neg @ model.w - psi_pos @ model.w
    loss = float(np.logaddexp(0.0, delta).mean())

    # d loss / d s_pos = -g, d loss / d s_neg = +g, with g = sigmoid(delta)
    g = kernels._sigmoid(delta)
    np.matmul(g, psi_neg - psi_pos, out=grad_w)
    grad_w /= b

    g = g[:, None]
    sgn_p = np.sign(u_a - u_p)
    sgn_n = np.sign(u_a - u_n)
    grad_u = np.concatenate([
        g * ((w1 * u_n + w2 * sgn_n) - (w1 * u_p + w2 * sgn_p)),
        -g * (w1 * u_a - w2 * sgn_p),
        g * (w1 * u_a - w2 * sgn_n),
    ])
    # backprop through u = r / |r|, then average over the batch
    radial = np.einsum("ij,ij->i", grad_u, u)[:, None] * u
    grad_r = np.divide(grad_u - radial, norm, out=np.zeros_like(r), where=live)
    grad_r /= b
    np.matmul((x if rows is None else x[:, rows]).T, grad_r, out=grad_proj)
    return loss


def reset_counters(model):
    """Zero ``model``'s inference-call counters."""
    model.counters.bi_embed = model.counters.cross_score = 0


# the score stage as it was before it featurized a block of papers per call:
# each text embedded on its own, in the order the stage meets it


def per_text_stage_score(cfg):
    """``pipeline.stage_score`` with one featurizer call per text."""
    ctx = pipeline._context(cfg, None)
    corpus, labels = ctx.corpus, ctx.labels
    cands = pipeline._read_paper_keyed(cfg, ctx, "candidates")
    model = encoder.load_model(pipeline._path(cfg, "encoder"))
    overrides = (encoder.load_embedding_overrides(cfg.embeddings_path, model.embed_dim)
                 if cfg.embeddings_path else {})
    reset_counters(model)

    def embedding(key, text, counted=True):
        ov = overrides.get(key)
        if ov is not None:
            return ov
        return (encoder.bi_embed(model, text) if counted else
                encoder._embed_features(model, model.featurizer.featurize(text), 0))

    label_embs = {l.id: embedding(l.id, l.text, cfg.use_hierarchy) for l in labels}
    scored = {}
    for paper in corpus:
        cand_ids = cands[paper.id]
        as_root = cfg.use_hierarchy and paper.is_empty
        u = (embedding(paper.id, paper.title_abstract, as_root)
             if cand_ids or as_root else None)
        score_x = ranker.score_cross(model, u, label_embs, cand_ids)
        if cfg.use_hierarchy:
            leaf_embs = [embedding(f"{paper.id}#{i}", text)
                         for i, text in enumerate(paper.paragraphs)]
            root_emb = ranker.aggregate_hierarchy(paper, leaf_embs, fallback=u)
            score_b = ranker.score_bi(root_emb, label_embs, cand_ids)
        else:
            score_b = dict(score_x)
        scored[paper.id] = ranker.mrr_combine(score_b, score_x)

    ranker.write_scores(scored, pipeline._path(cfg, "scores"))
    stats = {
        "bi_embed_calls": model.counters.bi_embed,
        "cross_score_calls": model.counters.cross_score,
        "sum_candidates": sum(len(c) for c in cands.values()),
        "sum_paragraphs": sum(len(p.paragraphs) for p in corpus),
        "n_labels": len(labels),
        "n_empty_papers": sum(p.is_empty for p in corpus),
    }
    pipeline._write_json(cfg, "score_stats", stats, indent=2, sort_keys=True)
