import json
import logging
import math
import os
import tempfile
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklabel import kernels, selftrain
from weaklabel.encoder import SparseVec
from weaklabel.ranker import CandidateScore
from weaklabel.selftrain import (
    BLOCK_ROWS, GRAM_MAX_ROWS, ClassifierConfig, CsrMatrix, LabelTreeClassifier,
    build_label_tree, final_rankings, load_classifier, predict_matrix, pseudo_labels,
    save_classifier, train_classifier, train_tree, _fit_logistic, _in_row_space,
    _normalize_rows, _preorder, _search_plan,
)
from weaklabel.corpus import Vocabulary, build_vocabulary, load_corpus, load_labels
from weaklabel.synth import SyntheticSpec, write_synthetic

from conftest import (build_tfidf_matrix, csr_row, final_ranking, garbage_after,
                      load_corpus_records, paper_record, predict_proba)


def scored_rows(pairs):
    """pairs: [(label_id, mrr), ...] already in descending mrr order."""
    return [CandidateScore(lid, 0.0, 0.0, i + 1, i + 1, mrr)
            for i, (lid, mrr) in enumerate(pairs)]


def tfidf_vector(paper, vocab: Vocabulary) -> SparseVec:
    """Reference tf-idf row: a per-token dict loop over the paper's full text."""
    counts: dict[int, int] = {}
    for tok in paper.full_text_tokens():
        j = vocab.word_index.get(tok)
        if j is not None:
            counts[j] = counts.get(j, 0) + 1
    if not counts:
        return SparseVec(np.empty(0, dtype=np.int64), np.empty(0), len(vocab))
    idx = np.array(sorted(counts), dtype=np.int64)
    idf = np.log(vocab.n_docs / vocab.doc_freq[idx])
    val = np.array([counts[j] for j in idx], dtype=np.float64) * idf
    keep = val != 0.0
    return SparseVec(idx[keep], val[keep], len(vocab))


def reference_vocabulary(corpus, min_df) -> Vocabulary:
    """Reference vocabulary: a Counter of each paper's token set."""
    df: Counter[str] = Counter()
    for paper in corpus:
        df.update(set(paper.full_text_tokens()))
    kept = sorted(w for w, c in df.items() if c >= min_df)
    return Vocabulary(word_index={w: i for i, w in enumerate(kept)},
                      doc_freq=np.array([df[w] for w in kept], dtype=np.int64),
                      n_docs=len(corpus))


def assert_same_features(corpus, min_df):
    """build_vocabulary and build_tfidf_matrix equal the references bitwise."""
    want = reference_vocabulary(corpus, min_df)
    vocab = build_vocabulary(corpus, min_df)
    assert list(vocab.word_index.items()) == list(want.word_index.items())
    assert vocab.doc_freq.dtype == want.doc_freq.dtype
    np.testing.assert_array_equal(vocab.doc_freq, want.doc_freq)
    assert vocab.n_docs == want.n_docs
    X = build_tfidf_matrix(corpus, vocab)
    rows = [tfidf_vector(p, want) for p in corpus]
    assert (X.n_rows, X.n_cols) == (len(corpus), len(want))
    assert X.indices.dtype == np.int64 and X.indptr.dtype == np.int64
    assert X.data.dtype == np.float64
    np.testing.assert_array_equal(X.indptr, np.cumsum([0] + [sv.nnz for sv in rows]))
    for i, sv in enumerate(rows):
        got = csr_row(X, i)
        np.testing.assert_array_equal(got.indices, sv.indices)
        assert got.values.tobytes() == sv.values.tobytes()
    return vocab, X


class TestTfIdf:
    def build(self, tmp_path, bodies):
        recs = [paper_record(f"p{i}", sections=[{"name": "s", "paragraphs": [b]}])
                for i, b in enumerate(bodies)]
        corpus = load_corpus_records(tmp_path, recs, min_words=1)
        return corpus, build_vocabulary(corpus, min_df=1)

    def test_ubiquitous_word_omitted(self, tmp_path):
        corpus, vocab = self.build(tmp_path, ["common alpha", "common beta"])
        sv = csr_row(build_tfidf_matrix(corpus, vocab), 0)
        assert vocab.word_index["common"] not in sv.indices

    def test_direct_formula(self, tmp_path):
        corpus, vocab = self.build(tmp_path, ["rare rare rare", "other words"])
        sv = csr_row(build_tfidf_matrix(corpus, vocab), 0)
        j = vocab.word_index["rare"]
        value = dict(zip(sv.indices.tolist(), sv.values.tolist()))[j]
        assert value == pytest.approx(3 * math.log(2), abs=1e-12)
        assert value == pytest.approx(2.0794, abs=5e-4)

    def test_empty_paper(self, tmp_path):
        recs = [paper_record("p0", sections=[{"name": "s", "paragraphs": ["word " * 12]}]),
                paper_record("p1")]
        corpus = load_corpus_records(tmp_path, recs)
        vocab = build_vocabulary(corpus, min_df=1)
        assert csr_row(build_tfidf_matrix(corpus, vocab), 1).nnz == 0

    def test_matrix_rows_match_vectors(self, tmp_path):
        corpus, vocab = self.build(tmp_path, ["alpha beta alpha", "beta gamma",
                                              "gamma gamma alpha"])
        X = build_tfidf_matrix(corpus, vocab)
        for i, paper in enumerate(corpus):
            sv = tfidf_vector(paper, vocab)
            row = csr_row(X, i)
            np.testing.assert_array_equal(row.indices, sv.indices)
            np.testing.assert_array_equal(row.values, sv.values)


class TestOnePassFeatures:
    """The one-pass vocabulary and tf-idf matrix against the per-token references."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("min_df", [1, 5])
    def test_synthetic_corpus_bitwise(self, tmp_path, seed, min_df):
        write_synthetic(SyntheticSpec(seed=seed), tmp_path / "c.jsonl", tmp_path / "l.jsonl",
                        tmp_path / "m.jsonl")
        vocab, X = assert_same_features(load_corpus(tmp_path / "c.jsonl", 10), min_df)
        assert len(vocab) > 100 and X.data.size > 1000

    def corpus(self, tmp_path, bodies, title=""):
        recs = [paper_record(f"p{i}", title=title,
                             sections=[{"name": "s", "paragraphs": [b]}] if b else [])
                for i, b in enumerate(bodies)]
        return load_corpus_records(tmp_path, recs, min_words=1)

    def test_min_df_filters(self, tmp_path):
        corpus = self.corpus(tmp_path, ["alpha beta beta", "beta gamma", "gamma alpha delta",
                                        "epsilon alpha"])
        vocab, _ = assert_same_features(corpus, 2)
        assert list(vocab.word_index) == ["alpha", "beta", "gamma"]
        assert vocab.doc_freq.tolist() == [3, 2, 2]

    def test_word_in_every_paper_dropped(self, tmp_path):
        corpus = self.corpus(tmp_path, ["shared one", "shared two two", "shared three"])
        vocab, X = assert_same_features(corpus, 1)
        assert vocab.doc_freq[vocab.word_index["shared"]] == 3
        assert vocab.word_index["shared"] not in X.indices

    def test_empty_paper(self, tmp_path):
        corpus = self.corpus(tmp_path, ["alpha beta", "", "beta gamma alpha"])
        _, X = assert_same_features(corpus, 1)
        assert csr_row(X, 1).nnz == 0

    def test_paper_without_vocabulary_words(self, tmp_path):
        corpus = self.corpus(tmp_path, ["alpha beta", "lonely", "beta alpha gamma"])
        vocab, X = assert_same_features(corpus, 2)
        assert "lonely" not in vocab.word_index
        assert csr_row(X, 1).nnz == 0

    def test_empty_vocabulary(self, tmp_path, caplog):
        corpus = self.corpus(tmp_path, ["alpha", "beta", "gamma"])
        with caplog.at_level(logging.WARNING):
            vocab, X = assert_same_features(corpus, 2)
        assert len(vocab) == 0 and X.data.size == 0
        assert X.indptr.tolist() == [0, 0, 0, 0]
        assert "empty" in caplog.text

    def test_matrix_for_a_vocabulary_of_another_corpus(self, tmp_path):
        corpus = self.corpus(tmp_path, ["alpha beta beta", "beta gamma", "zeta alpha"])
        other = reference_vocabulary(corpus[:2], 1)
        X = build_tfidf_matrix(corpus, other)
        for i, paper in enumerate(corpus):
            np.testing.assert_array_equal(csr_row(X, i).indices, tfidf_vector(paper, other).indices)
            np.testing.assert_array_equal(csr_row(X, i).values, tfidf_vector(paper, other).values)


class TestPseudoLabels:
    def test_top_n(self):
        scored = {"d": scored_rows([("A", 2.0), ("B", 1.0), ("C", 0.67)])}
        assert pseudo_labels(scored, 2) == {"d": ("A", "B")}

    def test_fewer_candidates_than_n(self):
        scored = {"d": scored_rows([("A", 2.0)])}
        assert pseudo_labels(scored, 5) == {"d": ("A",)}

    def test_empty_candidates(self):
        assert pseudo_labels({"d": []}, 5) == {"d": ()}

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            pseudo_labels({}, 0)


def leaves(tree):
    return [node for node in _preorder(tree) if node.is_leaf]


def topo(node):
    if node.is_leaf:
        return tuple(sorted(node.label_ids))
    return tuple(topo(c) for c in node.children)


class TestBuildLabelTree:
    def test_planted_pairs_colocated(self):
        feats = np.array([[1.0, 0.05], [0.9, 0.0], [0.0, 1.0], [0.05, 0.95]])
        tree = build_label_tree(feats, ["A", "B", "C", "D"], max_leaf=2, seed=0)
        groups = {frozenset(l.label_ids) for l in leaves(tree)}
        assert groups == {frozenset({"A", "B"}), frozenset({"C", "D"})}
        assert not tree.is_leaf and all(c.is_leaf for c in tree.children)

    def test_single_leaf_when_small(self):
        feats = np.eye(3)
        tree = build_label_tree(feats, ["A", "B", "C"], max_leaf=100, seed=0)
        assert tree.is_leaf
        assert set(tree.label_ids) == {"A", "B", "C"}

    def test_same_seed_same_topology(self):
        rng = np.random.default_rng(5)
        feats = rng.random((30, 8))
        ids = [f"L{i}" for i in range(30)]
        t1 = build_label_tree(feats, ids, max_leaf=4, seed=9)
        t2 = build_label_tree(feats, ids, max_leaf=4, seed=9)
        assert topo(t1) == topo(t2)

    def test_balanced_splits(self):
        rng = np.random.default_rng(6)
        feats = rng.random((17, 5))
        tree = build_label_tree(feats, [f"L{i}" for i in range(17)], max_leaf=1, seed=0)

        def check(node):
            if node.is_leaf:
                return 1
            sizes = [check(c) for c in node.children]
            assert abs(sizes[0] - sizes[1]) <= 1
            return sum(sizes)

        assert check(tree) == 17

    def test_zero_feature_labels_pooled(self):
        feats = np.vstack([np.eye(4), np.zeros((3, 4))])
        ids = [f"F{i}" for i in range(4)] + [f"Z{i}" for i in range(3)]
        tree = build_label_tree(feats, ids, max_leaf=2, seed=0)
        pools = [set(l.label_ids) for l in leaves(tree)]
        assert {"Z0", "Z1", "Z2"} in pools
        assert sorted(lid for l in leaves(tree) for lid in l.label_ids) == sorted(ids)

    def test_every_label_in_exactly_one_leaf(self):
        rng = np.random.default_rng(7)
        feats = rng.random((23, 6))
        feats[5] = 0.0
        ids = [f"L{i}" for i in range(23)]
        tree = build_label_tree(feats, ids, max_leaf=3, seed=1)
        seen = [lid for leaf in leaves(tree) for lid in leaf.label_ids]
        assert sorted(seen) == sorted(ids)


def one_hot_matrix(assignments, n_cols):
    data = np.ones(len(assignments))
    indices = np.array(assignments, dtype=np.int64)
    indptr = np.arange(len(assignments) + 1, dtype=np.int64)
    return CsrMatrix(data, indices, indptr, len(assignments), n_cols)


class TestTrainAndPredict:
    def fitted(self, n_labels=4, per_label=8, max_leaf=1, seed=0):
        ids = [f"L{j}" for j in range(n_labels)]
        assign = [j for j in range(n_labels) for _ in range(per_label)]
        X = one_hot_matrix(assign, n_labels)
        pseudo = {f"p{i}": (ids[j],) for i, j in enumerate(assign)}
        cfg = ClassifierConfig(n_trees=2, max_leaf=max_leaf, beam_width=10,
                               seed=seed)
        clf = train_classifier(X, [f"p{i}" for i in range(len(assign))],
                               pseudo, ids, cfg)
        return clf, X, assign, ids

    def test_separable_training_accuracy(self):
        clf, X, assign, ids = self.fitted()
        correct = 0
        for i, j in enumerate(assign):
            probs = predict_proba(clf, csr_row(X, i))
            top = max(probs, key=lambda lid: (probs[lid], lid))
            correct += top == ids[j]
        assert correct / len(assign) >= 0.95

    def test_single_paper_single_label(self):
        X = one_hot_matrix([0], 3)
        cfg = ClassifierConfig(n_trees=1, max_leaf=10)
        clf = train_classifier(X, ["p0"], {"p0": ("L0",)}, ["L0"], cfg)
        probs = predict_proba(clf, csr_row(X, 0))
        assert probs["L0"] > 0.5

    def test_deterministic_weights(self):
        a = self.fitted(seed=3)[0]
        b = self.fitted(seed=3)[0]
        for ta, tb in zip(a.trees, b.trees):
            assert topo(ta) == topo(tb)
            for x, y in zip(_preorder(ta), _preorder(tb)):
                np.testing.assert_array_equal(x.weights, y.weights)
                np.testing.assert_array_equal(x.bias, y.bias)

    def test_no_training_papers_rejected(self):
        X = one_hot_matrix([0, 1], 2)
        tree = build_label_tree(np.eye(2), ["A", "B"], max_leaf=1, seed=0)
        with pytest.raises(ValueError):
            train_tree(tree, CsrMatrix(np.empty(0), np.empty(0, dtype=np.int64),
                                       np.array([0], dtype=np.int64), 0, 2),
                       np.zeros((0, 2), dtype=bool), ClassifierConfig())
        with pytest.raises(ValueError, match="pseudo"):
            train_tree(tree, _normalize_rows(X), np.zeros((2, 2), dtype=bool),
                       ClassifierConfig())

    def test_single_leaf_equals_leaf_outputs(self):
        clf, X, assign, ids = self.fitted(max_leaf=10)  # one leaf holds all
        tree = clf.trees[0]
        assert tree.is_leaf
        x = csr_row(X, 0)
        probs = predict_proba(LabelTreeClassifier(clf.label_ids, [tree], 10,
                                                  clf.n_features), x)
        xn = SparseVec(x.indices, x.values / np.linalg.norm(x.values), x.dim)
        for j, lid in enumerate(tree.label_ids):
            z = float(tree.weights[j][xn.indices] @ xn.values) + tree.bias[j]
            assert probs[lid] == pytest.approx(1 / (1 + math.exp(-z)), abs=1e-12)

    def test_beam_wider_than_leaves_equals_exhaustive(self):
        clf, X, assign, ids = self.fitted(n_labels=8, per_label=4, max_leaf=1)

        def exhaustive(clf, x):
            norm = np.linalg.norm(x.values)
            xn = SparseVec(x.indices, x.values / norm, x.dim) if norm else x
            out = {}

            def walk(node, p):
                if node.is_leaf:
                    for j, lid in enumerate(node.label_ids):
                        z = float(node.weights[j][xn.indices] @ xn.values) + node.bias[j]
                        out[lid] = out.get(lid, 0.0) + p / (1 + math.exp(-z))
                    return
                for j, child in enumerate(node.children):
                    z = float(node.weights[j][xn.indices] @ xn.values) + node.bias[j]
                    walk(child, p / (1 + math.exp(-z)))

            for tree in clf.trees:
                walk(tree, 1.0)
            return {k: v / len(clf.trees) for k, v in out.items()}

        for i in (0, 7, 20):
            x = csr_row(X, i)
            wide = predict_proba(clf, x, beam_width=64)
            brute = exhaustive(clf, x)
            assert set(wide) == set(brute)
            for lid in wide:
                assert wide[lid] == pytest.approx(brute[lid], abs=1e-12)

    def test_probabilities_in_unit_interval(self):
        clf, X, assign, ids = self.fitted()
        for i in range(X.n_rows):
            for p in predict_proba(clf, csr_row(X, i)).values():
                assert 0.0 <= p <= 1.0

    def test_narrow_beam_prunes(self):
        clf, X, assign, ids = self.fitted(n_labels=8, per_label=4, max_leaf=1)
        narrow = predict_proba(clf, csr_row(X, 0), beam_width=1)
        wide = predict_proba(clf, csr_row(X, 0), beam_width=64)
        assert len(narrow) < len(wide)


def leaf_columns(tree, label_ids):
    """The column in ``label_ids`` of each of the tree's leaf labels, leaves in preorder."""
    column = {lid: j for j, lid in enumerate(label_ids)}
    return [column[lid] for leaf in leaves(tree) for lid in leaf.label_ids]


def reference_label_features(X, paper_ids, pseudo, label_ids):
    """The label features of train_classifier as a per-row loop: each
    label's mean raw tf-idf row over its pseudo-positive papers."""
    pos_rows = {lid: [] for lid in label_ids}
    for i, pid in enumerate(paper_ids):
        for lid in frozenset(pseudo.get(pid, ())):
            pos_rows[lid].append(i)
    feats = np.zeros((len(label_ids), X.n_cols))
    for j, lid in enumerate(label_ids):
        rows = pos_rows[lid]
        if rows:
            acc = np.zeros(X.n_cols)
            for r in rows:
                sv = csr_row(X, r)
                acc[sv.indices] += sv.values
            feats[j] = acc / len(rows)
    return feats


def reference_fits(tree, X, label_sets, cfg):
    """Each node's (weights, bias) by a descent over label sets: a document
    reaches a child when it carries a label of the child's subtree."""
    def labels_under(node):
        return {lid for leaf in leaves(node) for lid in leaf.label_ids}

    out = {}
    todo = [(tree, np.flatnonzero([bool(labels) for labels in label_sets]))]
    while todo:
        node, rows = todo.pop()
        groups = ([{lid} for lid in node.label_ids] if node.is_leaf
                  else [labels_under(c) for c in node.children])
        Y = np.array([[bool(label_sets[i] & g) for g in groups] for i in rows],
                     dtype=bool).reshape(rows.size, len(groups))
        out[id(node)] = _fit_logistic(X, rows, Y.astype(np.float64), cfg)
        todo += [(c, rows[Y[:, j]]) for j, c in enumerate(node.children)]
    return out


class TestMembership:
    """One papers x labels membership matrix for the label features and the targets."""

    def test_label_features_equal_the_row_loop(self, monkeypatch, tmp_path):
        write_synthetic(SyntheticSpec(n_papers=200, n_labels=30, seed=3),
                        tmp_path / "c.jsonl", tmp_path / "l.jsonl", tmp_path / "m.jsonl")
        corpus = load_corpus(tmp_path / "c.jsonl", 10)
        label_ids = [l.id for l in load_labels(tmp_path / "l.jsonl")]
        X = build_tfidf_matrix(corpus, build_vocabulary(corpus, 2))
        ids = [p.id for p in corpus]
        rng = np.random.default_rng(2)
        pseudo = {pid: tuple(rng.choice(label_ids[1:], size=int(rng.integers(0, 4))))
                  for pid in ids[:-5]}  # label_ids[0] and the last 5 papers: no pseudo labels
        pseudo[ids[0]] = (label_ids[3], label_ids[3])
        seen = []
        build = selftrain.build_label_tree
        monkeypatch.setattr(selftrain, "build_label_tree",
                            lambda feats, *args, **kw: seen.append(feats.copy())
                            or build(feats, *args, **kw))
        train_classifier(X, ids, pseudo, label_ids, ClassifierConfig(n_trees=2, epochs=1))
        want = reference_label_features(X, ids, pseudo, label_ids)
        assert not want[0].any() and want[1:].any(axis=1).all()
        assert len(seen) == 2
        for feats in seen:
            assert feats.tobytes() == want.tobytes()

    def test_features_freed_before_the_fits(self, monkeypatch):
        ids = [f"L{j}" for j in range(6)]
        assign = [j % 6 for j in range(30)]
        pseudo = {f"p{i}": (ids[j],) for i, j in enumerate(assign)}
        features, alive_at_fit = [], []
        build, fit = selftrain.build_label_tree, selftrain._fit_logistic
        monkeypatch.setattr(selftrain, "build_label_tree", lambda feats, *args, **kw:
                            features.append(weakref.ref(feats)) or build(feats, *args, **kw))
        monkeypatch.setattr(selftrain, "_fit_logistic", lambda *args: alive_at_fit.append(
            any(ref() is not None for ref in features)) or fit(*args))
        train_classifier(one_hot_matrix(assign, 6), list(pseudo), pseudo, ids,
                         ClassifierConfig(n_trees=3, max_leaf=2))
        assert len(features) == 3 and alive_at_fit and not any(alive_at_fit)

    def test_paper_without_labels_and_paper_with_every_label(self, monkeypatch):
        rng = np.random.default_rng(21)
        ids = [f"L{j}" for j in range(9)]
        feats = rng.random((9, 4))
        feats[7] = 0.0  # pooled in a leaf of its own
        tree = build_label_tree(feats, ids, max_leaf=2, seed=0)
        assert depth(tree) >= 3
        X = random_csr(rng, 40, 15, empty_rows={2})
        label_sets = [frozenset(rng.choice(ids, size=int(rng.integers(1, 3)), replace=False))
                      for _ in range(40)]
        label_sets[4], label_sets[9] = frozenset(), frozenset(ids)
        member = np.array([[lid in labels for lid in ids] for labels in label_sets])
        fitted = []
        fit = selftrain._fit_logistic
        monkeypatch.setattr(selftrain, "_fit_logistic",
                            lambda X, rows, Y, cfg: fitted.append(rows) or fit(X, rows, Y, cfg))
        cfg = ClassifierConfig(epochs=5)
        train_tree(tree, X, member[:, leaf_columns(tree, ids)], cfg)
        assert len(fitted) == len(_preorder(tree))
        assert all(4 not in rows and 9 in rows for rows in fitted)
        want = reference_fits(tree, X, label_sets, cfg)
        for node in _preorder(tree):
            w, b = want[id(node)]
            assert node.weights.tobytes() == w.tobytes() and node.bias.tobytes() == b.tobytes()


def random_csr(rng, n_rows, n_cols, max_nnz=8, empty_rows=()):
    """Random rows with unique sorted columns; ``empty_rows`` get no entries."""
    data, indices, indptr = [], [], [0]
    for i in range(n_rows):
        nnz = 0 if i in empty_rows else int(rng.integers(1, max_nnz + 1))
        indices.append(np.sort(rng.choice(n_cols, size=nnz, replace=False)))
        data.append(rng.random(nnz) + 0.1)
        indptr.append(indptr[-1] + nnz)
    X = CsrMatrix(np.concatenate(data), np.concatenate(indices).astype(np.int64),
                  np.array(indptr, dtype=np.int64), n_rows, n_cols)
    return _normalize_rows(X)


def csr_subset(X, rows):
    pieces = [(X.data[X.indptr[r]:X.indptr[r + 1]], X.indices[X.indptr[r]:X.indptr[r + 1]])
              for r in rows]
    indptr = np.concatenate([[0], np.cumsum([len(d) for d, _ in pieces])]).astype(np.int64)
    return CsrMatrix(np.concatenate([d for d, _ in pieces]),
                     np.concatenate([i for _, i in pieces]), indptr, len(rows), X.n_cols)


class TestMultiOutputFit:
    """_fit_logistic against one kernels.logistic_epochs call per output."""

    @pytest.mark.parametrize("n_rows, k, subset", [
        (2 * BLOCK_ROWS + 37, 5, True),  # several blocks, the last one partial
        (60, 1, False),
        (1, 3, False),
    ])
    def test_matches_per_label_kernel(self, n_rows, k, subset):
        rng = np.random.default_rng(n_rows + k)
        X = random_csr(rng, n_rows, 40, empty_rows={0, n_rows // 2} if n_rows > 2 else ())
        rows = (np.sort(rng.choice(n_rows, size=2 * n_rows // 3, replace=False))
                if subset else np.arange(n_rows))
        Y = (rng.random((rows.size, k)) < 0.4).astype(np.float64)
        if k >= 3:
            Y[:, 1] = 0.0
            Y[:, 2] = 1.0
        cfg = ClassifierConfig(epochs=20, learning_rate=2.0, l2=1e-4)
        W, b = _fit_logistic(X, rows, Y, cfg)
        sub = csr_subset(X, rows)
        for j in range(k):
            w = np.zeros(X.n_cols)
            bj = kernels.logistic_epochs(sub.data, sub.indices, sub.indptr, Y[:, j].copy(),
                                         w, 0.0, cfg.epochs, cfg.learning_rate, cfg.l2)
            np.testing.assert_allclose(W[j], w, rtol=0, atol=1e-12)
            assert abs(b[j] - bj) <= 1e-12

    def test_no_rows_leaves_zeros(self):
        X = random_csr(np.random.default_rng(0), 5, 10)
        W, b = _fit_logistic(X, np.empty(0, dtype=np.int64), np.zeros((0, 2)),
                             ClassifierConfig())
        assert W.shape == (2, 10) and not W.any() and not b.any()


def kernel_fit(X, rows, Y, cfg):
    """One kernels.logistic_epochs call per column of Y: (weights, biases)."""
    sub = csr_subset(X, rows)
    W, b = np.zeros((Y.shape[1], X.n_cols)), np.zeros(Y.shape[1])
    for j in range(Y.shape[1]):
        b[j] = kernels.logistic_epochs(sub.data, sub.indices, sub.indptr, Y[:, j].copy(),
                                       W[j], 0.0, cfg.epochs, cfg.learning_rate, cfg.l2)
    return W, b


class TestRowSpaceFit:
    """The row-space (Gram matrix) form of _fit_logistic."""

    @pytest.mark.parametrize("n_rows, k, subset", [
        (3 * BLOCK_ROWS + 37, 6, True),  # several blocks, the last one partial
        (3 * BLOCK_ROWS + 37, 1, True),
        (2 * BLOCK_ROWS, 4, False),  # whole blocks only
        (BLOCK_ROWS + 1, 1, False),
        (7, 3, False),
    ])
    def test_matches_per_label_kernel(self, monkeypatch, n_rows, k, subset):
        monkeypatch.setattr(selftrain, "_in_row_space", lambda *shape: True)
        rng = np.random.default_rng(100 * n_rows + k)
        X = random_csr(rng, n_rows, 50, empty_rows={0, 3, n_rows // 2, n_rows - 1})
        rows = (np.sort(rng.choice(n_rows, size=2 * n_rows // 3, replace=False))
                if subset else np.arange(n_rows))
        Y = (rng.random((rows.size, k)) < 0.4).astype(np.float64)
        if k >= 3:
            Y[:, 1] = 0.0
            Y[:, 2] = 1.0
        cfg = ClassifierConfig(epochs=20, learning_rate=2.0, l2=1e-4)
        W, b = _fit_logistic(X, rows, Y, cfg)
        W_ref, b_ref = kernel_fit(X, rows, Y, cfg)
        np.testing.assert_allclose(W, W_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-12)

    def test_chosen_without_forcing_on_a_wide_leaf(self):
        rng = np.random.default_rng(3)
        n_rows, n_cols, k = 2 * BLOCK_ROWS + 20, 600, 30
        assert _in_row_space(n_rows, n_cols, k, 20)
        X = random_csr(rng, n_rows, n_cols, max_nnz=30, empty_rows={5})
        rows = np.arange(n_rows)
        Y = (rng.random((n_rows, k)) < 0.2).astype(np.float64)
        Y[:, 0] = 0.0
        Y[:, 1] = 1.0
        cfg = ClassifierConfig(epochs=20, learning_rate=2.0, l2=1e-4)
        W, b = _fit_logistic(X, rows, Y, cfg)
        W_ref, b_ref = kernel_fit(X, rows, Y, cfg)
        np.testing.assert_allclose(W, W_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-12)

    def test_choice_follows_flop_rule_and_row_cap(self):
        assert GRAM_MAX_ROWS ** 2 * 8 <= 8 * 2 ** 20
        for n in (1, 2, 60, 73, 74, 400, 1000, GRAM_MAX_ROWS, GRAM_MAX_ROWS + 1, 5000):
            for c in (40, 2080, 4400):
                for k in (1, 2, 55, 100):
                    for e in (1, 20):
                        row_space = n * n * c + 2 * e * n * n * k + 2 * n * c * k
                        want = n <= GRAM_MAX_ROWS and row_space < 2 * e * n * c * k
                        assert _in_row_space(n, c, k, e) == want, (n, c, k, e)
        assert _in_row_space(400, 2080, 55, 20)  # a leaf
        assert not _in_row_space(400, 2080, 2, 20)  # a routing node
        assert _in_row_space(GRAM_MAX_ROWS, 4400, 100, 20)
        assert not _in_row_space(GRAM_MAX_ROWS + 1, 4400, 100, 20)  # fewer flops, too big

    def test_fit_asks_the_rule_with_the_node_shape(self, monkeypatch):
        asked = []
        monkeypatch.setattr(selftrain, "_in_row_space",
                            lambda *shape: asked.append(shape) or False)
        X = random_csr(np.random.default_rng(4), 30, 12)
        _fit_logistic(X, np.arange(0, 30, 2), np.zeros((15, 4)), ClassifierConfig(epochs=7))
        assert asked == [(15, 12, 4, 7)]

    def test_train_classifier_forms_agree(self, monkeypatch, tmp_path):
        write_synthetic(SyntheticSpec(n_papers=160, n_labels=24, seed=5),
                        tmp_path / "c.jsonl", tmp_path / "l.jsonl", tmp_path / "m.jsonl")
        corpus = load_corpus(tmp_path / "c.jsonl", 10)
        label_ids = [l.id for l in load_labels(tmp_path / "l.jsonl")]
        X = build_tfidf_matrix(corpus, build_vocabulary(corpus, 2))
        ids = [p.id for p in corpus]
        pseudo = {p.id: tuple(sorted(p.gold_labels)) for p in corpus}
        cfg = ClassifierConfig(n_trees=2, max_leaf=6, beam_width=3, seed=8)
        fitted = {}
        for form in (False, True):
            monkeypatch.setattr(selftrain, "_in_row_space", lambda *shape, f=form: f)
            fitted[form] = train_classifier(X, ids, pseudo, label_ids, cfg)
        primal, dual = fitted[False], fitted[True]
        for ta, tb in zip(primal.trees, dual.trees):
            assert topo(ta) == topo(tb)
            for x, y in zip(_preorder(ta), _preorder(tb)):
                np.testing.assert_allclose(x.weights, y.weights, rtol=0, atol=1e-12)
                np.testing.assert_allclose(x.bias, y.bias, rtol=0, atol=1e-12)
        (pa, ra), (pb, rb) = predict_matrix(primal, X), predict_matrix(dual, X)
        np.testing.assert_array_equal(ra, rb)
        np.testing.assert_allclose(pa, pb, rtol=0, atol=1e-12)
        pinned = [[] for _ in ids]
        assert final_rankings(pinned, pa, primal.label_ids) == \
            final_rankings(pinned, pb, dual.label_ids)


def scalar_beam(clf, x, beam):
    """Per-document beam search with scalar logits: the reference for
    predict_matrix."""
    def sigmoid(z):
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        ez = math.exp(z)
        return ez / (1.0 + ez)

    def logit(w, b):
        return float(w[xn.indices] @ xn.values) + b if xn.nnz else b

    norm = math.sqrt(float(x.values @ x.values)) if x.nnz else 0.0
    xn = SparseVec(x.indices, x.values / norm, x.dim) if norm > 0 else x
    acc = {}
    for tree in clf.trees:
        position = {id(node): i for i, node in enumerate(_preorder(tree))}
        frontier = [(1.0, tree)]
        while frontier:
            frontier.sort(key=lambda item: (-item[0], position[id(item[1])]))
            frontier = frontier[:beam]
            nxt = []
            for p, node in frontier:
                if node.is_leaf:
                    for j, lid in enumerate(node.label_ids):
                        s = p * sigmoid(logit(node.weights[j], node.bias[j]))
                        acc[lid] = acc.get(lid, 0.0) + s
                else:
                    for j, child in enumerate(node.children):
                        q = p * sigmoid(logit(node.weights[j], node.bias[j]))
                        nxt.append((q, child))
            frontier = nxt
    return {lid: v / len(clf.trees) for lid, v in acc.items()}


def depth(node):
    return 0 if node.is_leaf else 1 + max(depth(c) for c in node.children)


class TestBatchedBeam:
    """predict_matrix against the scalar per-document beam search."""

    @pytest.fixture(scope="class")
    def deep(self):
        rng = np.random.default_rng(11)
        n_labels, n_cols = 12, 36
        ids = [f"L{j:02d}" for j in range(n_labels)]
        topics = [rng.choice(n_cols, size=5, replace=False) for _ in range(n_labels)]
        rows, pseudo = [], {}
        for i in range(72):
            own = sorted(set(rng.choice(np.arange(1, n_labels), size=2).tolist()))
            if 1 in own:  # L00 and L01 get identical pseudo-label rows
                own = [0] + own
            words = np.unique(np.concatenate([rng.choice(topics[j], size=3) for j in own]
                                             + [rng.choice(n_cols, size=2)]))
            rows.append(words)
            pseudo[f"p{i}"] = tuple(ids[j] for j in own)
        rows[5] = np.empty(0, dtype=np.int64)  # a document with an empty row
        indptr = np.concatenate([[0], np.cumsum([r.size for r in rows])]).astype(np.int64)
        indices = np.concatenate(rows).astype(np.int64)
        X = CsrMatrix(rng.random(indices.size) + 0.2, indices, indptr, len(rows), n_cols)
        cfg = ClassifierConfig(n_trees=2, max_leaf=1, beam_width=10, seed=4)
        clf = train_classifier(X, [f"p{i}" for i in range(len(rows))], pseudo, ids, cfg)
        return clf, X

    def test_trees_are_deep_and_tie(self, deep):
        clf, _ = deep
        assert all(depth(t) >= 3 for t in clf.trees)
        for tree in clf.trees:
            twins = [n for n in _preorder(tree) if not n.is_leaf
                     and {c.label_ids for c in n.children} == {("L00",), ("L01",)}]
            assert twins, "L00 and L01 should be sibling leaves"
            np.testing.assert_array_equal(twins[0].weights[0], twins[0].weights[1])

    @pytest.mark.parametrize("beam", [1, 2, 3, 64])
    def test_matches_scalar_reference(self, deep, beam):
        clf, X = deep
        probs, reached = predict_matrix(clf, X, beam)
        for i in range(X.n_rows):
            ref = scalar_beam(clf, csr_row(X, i), beam)
            got = {lid for j, lid in enumerate(clf.label_ids) if reached[i, j]}
            assert got == set(ref), i
            for j, lid in enumerate(clf.label_ids):
                assert abs(probs[i, j] - ref.get(lid, 0.0)) <= 1e-12

    def test_stored_beam_width_is_the_default(self, deep):
        clf, X = deep
        np.testing.assert_array_equal(predict_matrix(clf, X)[0],
                                      predict_matrix(clf, X, clf.beam_width)[0])

    def test_feature_width_mismatch_rejected(self, deep):
        clf, X = deep
        wider = CsrMatrix(X.data, X.indices, X.indptr, X.n_rows, X.n_cols + 1)
        with pytest.raises(ValueError, match="rerun self-train"):
            predict_matrix(clf, wider)


class TestSearchPlan:
    @settings(max_examples=40, deadline=None)
    @given(n_labels=st.integers(1, 30), max_leaf=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_levels_list_nodes_in_preorder(self, n_labels, max_leaf, seed):
        clf = random_classifier(np.random.default_rng(seed), n_labels, 2, 1, max_leaf)
        tree = clf.trees[0]
        nodes, first_rows, levels = _search_plan(
            tree, {lid: j for j, lid in enumerate(clf.label_ids)})
        assert nodes == _preorder(tree)
        position = {id(node): i for i, node in enumerate(nodes)}
        first = {id(node): lo for node, lo in zip(nodes, first_rows)}
        level, seen = [tree], []
        for d, lvl in enumerate(levels):
            if d:  # each node from its parent's column and its routing row
                level = [level[p].children[r - first[id(level[p])]]
                         for p, r in zip(lvl.parent, lvl.row)]
            at = [position[id(node)] for node in level]
            assert at == sorted(at)
            seen += at
        assert sorted(seen) == list(range(len(nodes)))


class TestFinalRanking:
    LABELS = ["A", "B", "C", "D", "E"]
    PROBS = {"A": 0.80, "B": 0.85, "C": 0.30, "D": 0.60, "E": 0.90}

    def test_golden_merge(self):
        rows = scored_rows([("A", 2.0), ("B", 1.0), ("C", 0.67)])
        assert final_ranking(rows, self.PROBS, self.LABELS, 2) == \
            ["A", "B", "E", "D", "C"]

    def test_pure_probability_alternative(self):
        assert final_ranking([], self.PROBS, self.LABELS, 2) == \
            ["E", "B", "A", "D", "C"]

    def test_equal_probabilities_tie_break_by_id(self):
        rows = scored_rows([("C", 2.0)])
        out = final_ranking(rows, {lid: 0.5 for lid in self.LABELS}, self.LABELS, 2)
        assert out == ["C", "A", "B", "D", "E"]

    def test_permutation_property(self):
        rng = np.random.default_rng(8)
        labels = [f"L{i}" for i in range(12)]
        for _ in range(30):
            k = int(rng.integers(0, 6))
            cand = list(rng.choice(labels, size=k, replace=False))
            rows = scored_rows([(lid, 2.0 - 0.1 * i) for i, lid in enumerate(cand)])
            probs = {lid: float(rng.random()) for lid in labels}
            n = int(rng.integers(1, 6))
            out = final_ranking(rows, probs, labels, n)
            assert sorted(out) == sorted(labels)
            pinned = [r.label_id for r in rows[:n]]
            assert out[:len(pinned)] == pinned


class TestFinalRankings:
    """final_rankings against the per-paper sort keyed on (-probability, label id)."""

    def reference(self, pins, probs, label_ids):
        rest = sorted((lid for lid in label_ids if lid not in set(pins)),
                      key=lambda lid: (-probs[label_ids.index(lid)], lid))
        return list(pins) + rest

    def test_matches_keyed_sort(self):
        rng = np.random.default_rng(12)
        label_ids = [f"L{i}" for i in rng.permutation(15)]  # columns not in id order
        probs = rng.choice([0.0, 0.1, 0.25, 0.5, 1.0], size=(40, 15))  # many ties
        probs[3] = 0.0  # a paper that reached no label
        pinned = [list(rng.choice(label_ids, size=int(rng.integers(0, 6)), replace=False))
                  for _ in range(40)]
        got = final_rankings(pinned, probs, label_ids)
        for i in range(40):
            assert got[i] == self.reference(pinned[i], probs[i], label_ids), i

    def test_one_paper_wrapper(self):
        labels = ["D", "A", "C", "B"]
        probs = {"A": 0.5, "B": 0.5, "D": 0.9}
        rows = scored_rows([("C", 2.0), ("B", 1.0)])
        assert final_ranking(rows, probs, labels, 1) == ["C", "D", "A", "B"]
        assert final_rankings([["C"]], np.array([[0.9, 0.5, 0.0, 0.5]]), labels) == \
            [["C", "D", "A", "B"]]


class TestPersistence:
    def test_roundtrip_predictions_identical(self, tmp_path):
        ids = [f"L{j}" for j in range(5)]
        assign = [j % 5 for j in range(25)]
        X = one_hot_matrix(assign, 5)
        pseudo = {f"p{i}": (ids[j],) for i, j in enumerate(assign)}
        clf = train_classifier(X, [f"p{i}" for i in range(25)], pseudo, ids,
                               ClassifierConfig(n_trees=3, max_leaf=2, seed=1))
        path = tmp_path / "clf.npz"
        save_classifier(clf, path)
        loaded = load_classifier(path)
        assert loaded.label_ids == clf.label_ids
        for i in range(5):
            a = predict_proba(clf, csr_row(X, i))
            b = predict_proba(loaded, csr_row(X, i))
            assert a == b

    @settings(max_examples=40, deadline=None)
    @given(n_labels=st.integers(1, 12), n_features=st.integers(1, 6),
           n_trees=st.integers(1, 3), max_leaf=st.integers(1, 14),
           seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_of_random_trees(self, n_labels, n_features, n_trees, max_leaf, seed):
        clf = random_classifier(np.random.default_rng(seed), n_labels, n_features,
                                n_trees, max_leaf)
        with tempfile.TemporaryDirectory() as tmp:
            path, ref, again = (os.path.join(tmp, n) for n in ("a.npz", "ref.npz", "b.npz"))
            save_classifier(clf, path)
            reference_save_classifier(clf, ref)
            loaded = load_classifier(path)
            save_classifier(loaded, again)
            with open(path, "rb") as a, open(ref, "rb") as r, open(again, "rb") as b:
                written = a.read()
                assert written == r.read() and written == b.read()
        assert (loaded.label_ids, loaded.beam_width, loaded.n_features) == \
            (clf.label_ids, clf.beam_width, clf.n_features)
        for x, y in zip(clf.trees, loaded.trees, strict=True):
            for a, b in zip(_preorder(x), _preorder(y), strict=True):
                assert (a.label_ids, len(a.children)) == (b.label_ids, len(b.children))
                np.testing.assert_array_equal(a.weights, b.weights)
                np.testing.assert_array_equal(a.bias, b.bias)

    def test_single_leaf_root_roundtrip(self, tmp_path):
        root = selftrain.TreeNode(label_ids=("B", "A"), weights=np.eye(2, 3),
                                  bias=np.array([0.5, -1.0]))
        clf = LabelTreeClassifier(label_ids=("A", "B"), trees=[root], beam_width=3,
                                  n_features=3)
        save_classifier(clf, tmp_path / "clf.npz")
        loaded = load_classifier(tmp_path / "clf.npz")
        assert loaded.trees[0].is_leaf and loaded.trees[0].label_ids == clf.trees[0].label_ids
        np.testing.assert_array_equal(loaded.trees[0].weights, clf.trees[0].weights)

    def test_save_holds_no_second_copy_of_the_weights(self, tmp_path):
        clf = random_classifier(np.random.default_rng(5), 32, 20_000, 1, max_leaf=16)
        weight_bytes = sum(node.weights.nbytes for node in _preorder(clf.trees[0]))
        assert weight_bytes >= 4 * 2**20
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_classifier(clf, tmp_path / "clf.npz")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < weight_bytes / 2, (peak, weight_bytes)

    def rewrite(self, path, **changes):
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays.update(changes)
        np.savez_compressed(path, **arrays)

    @pytest.mark.parametrize("change", ["short_weights", "float32_weights", "wide_weights",
                                        "short_biases"])
    def test_archive_disagreeing_with_its_meta_rejected(self, tmp_path, change):
        clf = random_classifier(np.random.default_rng(6), 30, 4, 2, max_leaf=3)
        path = tmp_path / "clf.npz"
        save_classifier(clf, path)
        with np.load(path) as data:
            weights, biases = data["weights"], data["biases"]
        self.rewrite(path, **{
            "short_weights": {"weights": weights[:-10]},
            "float32_weights": {"weights": weights.astype(np.float32)},
            "wide_weights": {"weights": np.hstack([weights, weights[:, :1]])},
            "short_biases": {"biases": biases[:-1]},
        }[change])
        with pytest.raises(ValueError, match="clf.npz: weights are .*rerun self-train"):
            load_classifier(path)


def reference_save_classifier(clf, path):
    """The classifier writer before streaming: every weight row stacked into
    one array, then np.savez_compressed."""
    nodes, weights, biases = [], [], []

    def serialize(node, position):
        slot = len(nodes)
        rec = {"index": position[id(node)]}
        nodes.append(rec)
        if node.is_leaf:
            rec["labels"] = list(node.label_ids)
        rec["clf"] = len(weights)
        for j in range(len(node.bias)):
            weights.append(node.weights[j])
            biases.append(node.bias[j])
        if not node.is_leaf:
            rec["children"] = [serialize(c, position) for c in node.children]
        return slot

    roots = [serialize(t, {id(n): i for i, n in enumerate(_preorder(t))}) for t in clf.trees]
    meta = {"version": selftrain.CLASSIFIER_VERSION, "label_ids": list(clf.label_ids),
            "beam_width": clf.beam_width, "n_features": clf.n_features,
            "roots": roots, "nodes": nodes}
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh, weights=np.vstack(weights) if weights else np.zeros((0, clf.n_features)),
            biases=np.array(biases),
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8))


def random_classifier(rng, n_labels, n_features, n_trees, max_leaf):
    """Label trees from build_label_tree with random weights on every node.
    Some labels get all-zero features, so some trees pool them in a leaf."""
    ids = [f"L{j}" for j in range(n_labels)]
    trees = []
    for t in range(n_trees):
        feats = rng.normal(size=(n_labels, 3)) * (rng.random((n_labels, 1)) < 0.8)
        tree = build_label_tree(feats, ids, max_leaf, seed=t)
        for node in _preorder(tree):
            k = len(node.label_ids) if node.is_leaf else len(node.children)
            node.weights, node.bias = rng.normal(size=(k, n_features)), rng.normal(size=k)
        trees.append(tree)
    return LabelTreeClassifier(label_ids=tuple(ids), trees=trees,
                               beam_width=int(rng.integers(1, 20)), n_features=n_features)


def recursive_label_tree(features, label_ids, max_leaf, seed):
    """build_label_tree as a recursion: the reference for its split order."""
    norms = np.linalg.norm(features, axis=1)
    featured = [i for i in range(len(label_ids)) if norms[i] > 0]
    unfeatured = [i for i in range(len(label_ids)) if norms[i] == 0]
    rng = np.random.default_rng(seed)
    unit = features[featured] / norms[featured, None]

    def recurse(rows):
        if rows.size <= max_leaf:
            return selftrain.TreeNode(label_ids=tuple(label_ids[featured[i]] for i in rows))
        left = selftrain._balanced_split(unit[rows], rng)
        return selftrain.TreeNode(children=[recurse(rows[left]), recurse(rows[~left])])

    root = recurse(np.arange(len(featured)))
    if unfeatured:
        root = selftrain.TreeNode(children=[root, selftrain.TreeNode(
            label_ids=tuple(label_ids[i] for i in unfeatured))])
    return root


def ordered_topo(node):
    return node.label_ids if node.is_leaf else tuple(ordered_topo(c) for c in node.children)


class TestNoReferenceCycles:
    """The tree builders, the fit and the classifier's save and load walk
    their trees without recursive closures, so they leave no cycle for the
    collector (a closure that calls itself keeps its enclosing locals alive)."""

    def test_build_label_tree(self):
        rng = np.random.default_rng(8)
        feats = rng.random((40, 6))
        feats[3] = 0.0
        ids = [f"L{i}" for i in range(40)]
        assert garbage_after(build_label_tree, feats, ids, 3, 2) == 0

    @pytest.mark.parametrize("max_leaf", [1, 3, 40])
    def test_build_label_tree_splits_as_the_recursion(self, max_leaf):
        rng = np.random.default_rng(9)
        feats = rng.random((40, 6))
        feats[[3, 17]] = 0.0
        ids = [f"L{i}" for i in range(40)]
        assert ordered_topo(build_label_tree(feats, ids, max_leaf, seed=4)) == \
            ordered_topo(recursive_label_tree(feats, ids, max_leaf, seed=4))

    def test_train_tree(self):
        ids = [f"L{j}" for j in range(6)]
        assign = [j % 6 for j in range(30)]
        tree = build_label_tree(np.eye(6), ids, max_leaf=2, seed=0)
        X = _normalize_rows(one_hot_matrix(assign, 6))
        member = np.eye(6, dtype=bool)[assign][:, leaf_columns(tree, ids)]
        assert garbage_after(train_tree, tree, X, member, ClassifierConfig()) == 0

    def test_save_and_load_classifier(self, tmp_path):
        clf = random_classifier(np.random.default_rng(10), 20, 5, 2, max_leaf=3)
        path = tmp_path / "clf.npz"
        assert garbage_after(save_classifier, clf, path) == 0
        # np.load parses each member's header with ast.literal_eval, whose
        # own recursive closure is garbage after every call
        assert garbage_after(load_classifier, path) == garbage_after(read_members, path) > 0


def read_members(path):
    with np.load(path) as data:
        return [data[name] for name in data.files]
