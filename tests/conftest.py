import gc
import json

import numpy as np
import pytest

from weaklabel.corpus import count_terms, load_corpus, load_labels
from weaklabel.encoder import SparseVec
from weaklabel.selftrain import CsrMatrix, final_rankings, predict_matrix, tfidf_from_terms


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


def csr_row(X: CsrMatrix, i: int) -> SparseVec:
    lo, hi = X.indptr[i], X.indptr[i + 1]
    return SparseVec(X.indices[lo:hi], X.data[lo:hi], X.n_cols)


def predict_proba(clf, x: SparseVec, beam_width=None) -> dict[str, float]:
    """predict_matrix for one document, as {label id: probability} over
    the labels it reached."""
    X = CsrMatrix(x.values, x.indices, np.array([0, x.nnz], dtype=np.int64), 1, x.dim)
    probs, reached = predict_matrix(clf, X, beam_width)
    return {lid: float(probs[0, j]) for j, lid in enumerate(clf.label_ids) if reached[0, j]}


def final_ranking(rows, probabilities: dict[str, float], label_ids, n: int) -> list[str]:
    """final_rankings for one paper: pin its top-n combined-rank candidates
    and rerank the rest by ``probabilities`` ({label id: probability},
    absent labels 0)."""
    label_ids = list(label_ids)
    probs = np.array([[probabilities.get(lid, 0.0) for lid in label_ids]])
    return final_rankings([[r.label_id for r in rows[:n]]], probs, label_ids)[0]
