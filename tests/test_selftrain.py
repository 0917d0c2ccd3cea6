import dataclasses
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
from weaklabel.config import PipelineConfig
from weaklabel.kernels import CsrMatrix
from weaklabel.ranker import CandidateScore
from weaklabel.selftrain import (
    BLOCK_ROWS, GRAM_MAX_BYTES, LabelTreeClassifier,
    build_label_tree, final_rankings, load_classifier, predict_blocks, pseudo_labels,
    save_classifier, train_classifier, _first_rows, _fit_logistic, _fit_nodes, _gram,
    _in_row_space, _normalize_rows, _search_plan,
)
from weaklabel.corpus import (Vocabulary, build_vocabulary, load_corpus, load_labels,
                              read_npz_members)
from weaklabel.synth import SyntheticSpec, write_synthetic

from conftest import (build_tfidf_matrix, csr_row, final_ranking, garbage_after,
                      load_corpus_records, paper_record, predict_proba, stacked_probabilities)


# the most rows whose float64 Gram matrix takes at most GRAM_MAX_BYTES
GRAM_ROWS = math.isqrt(GRAM_MAX_BYTES // 8)


def scored_rows(pairs):
    """pairs: [(label_id, mrr), ...] already in descending mrr order."""
    return [CandidateScore(lid, 0.0, 0.0, i + 1, i + 1, mrr)
            for i, (lid, mrr) in enumerate(pairs)]


def tfidf_vector(paper, vocab: Vocabulary) -> CsrMatrix:
    """Reference tf-idf row: a per-token dict loop over the paper's full
    text; one row."""
    counts: dict[int, int] = {}
    for tok in paper.full_text_tokens():
        j = vocab.word_index.get(tok)
        if j is not None:
            counts[j] = counts.get(j, 0) + 1
    if not counts:
        return CsrMatrix(np.empty(0), np.empty(0, dtype=np.int64),
                         np.zeros(2, dtype=np.int64), 1, len(vocab))
    idx = np.array(sorted(counts), dtype=np.int64)
    idf = np.log(vocab.n_docs / vocab.doc_freq[idx])
    val = np.array([counts[j] for j in idx], dtype=np.float64) * idf
    keep = val != 0.0
    return CsrMatrix(val[keep], idx[keep], np.array([0, keep.sum()], dtype=np.int64), 1,
                     len(vocab))


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
    np.testing.assert_array_equal(X.indptr, np.cumsum([0] + [sv.data.size for sv in rows]))
    for i, sv in enumerate(rows):
        got = csr_row(X, i)
        np.testing.assert_array_equal(got.indices, sv.indices)
        assert got.data.tobytes() == sv.data.tobytes()
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
        value = dict(zip(sv.indices.tolist(), sv.data.tolist()))[j]
        assert value == pytest.approx(3 * math.log(2), abs=1e-12)
        assert value == pytest.approx(2.0794, abs=5e-4)

    def test_empty_paper(self, tmp_path):
        recs = [paper_record("p0", sections=[{"name": "s", "paragraphs": ["word " * 12]}]),
                paper_record("p1")]
        corpus = load_corpus_records(tmp_path, recs)
        vocab = build_vocabulary(corpus, min_df=1)
        assert csr_row(build_tfidf_matrix(corpus, vocab), 1).data.size == 0

    def test_matrix_rows_match_vectors(self, tmp_path):
        corpus, vocab = self.build(tmp_path, ["alpha beta alpha", "beta gamma",
                                              "gamma gamma alpha"])
        X = build_tfidf_matrix(corpus, vocab)
        for i, paper in enumerate(corpus):
            sv = tfidf_vector(paper, vocab)
            row = csr_row(X, i)
            np.testing.assert_array_equal(row.indices, sv.indices)
            np.testing.assert_array_equal(row.data, sv.data)


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
        assert csr_row(X, 1).data.size == 0

    def test_paper_without_vocabulary_words(self, tmp_path):
        corpus = self.corpus(tmp_path, ["alpha beta", "lonely", "beta alpha gamma"])
        vocab, X = assert_same_features(corpus, 2)
        assert "lonely" not in vocab.word_index
        assert csr_row(X, 1).data.size == 0

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
            np.testing.assert_array_equal(csr_row(X, i).data, tfidf_vector(paper, other).data)


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


# A label tree is a table of node records in preorder (see LabelTreeClassifier):
# ``{"labels": [ids]}`` on a leaf, ``{"children": [positions]}`` on a routing node.


def subtree(nodes, pos=0):
    """The positions of the subtree at ``pos``, in preorder, by a recursion."""
    return [pos] + [p for c in nodes[pos].get("children", []) for p in subtree(nodes, c)]


def leaves(nodes, pos=0):
    """The leaf records of the subtree at ``pos``, in preorder."""
    return [nodes[p] for p in subtree(nodes, pos) if "labels" in nodes[p]]


def node_rows(clf):
    """Each node's classifier rows of ``clf`` as (weights, biases), keyed by
    its position: the rows _first_rows numbers for it."""
    first = _first_rows(clf.nodes)
    return {pos: (clf.weights[first[pos]:first[pos + 1]], clf.biases[first[pos]:first[pos + 1]])
            for pos in range(len(clf.nodes))}


def topo(nodes, pos=0):
    rec = nodes[pos]
    if "labels" in rec:
        return tuple(sorted(rec["labels"]))
    return tuple(topo(nodes, c) for c in rec["children"])


def depth(nodes, pos=0):
    children = nodes[pos].get("children", [])
    return 1 + max(depth(nodes, c) for c in children) if children else 0


class RefNode:
    """A linked label-tree node, as the trees were held before the table."""

    def __init__(self, label_ids=None, children=None):
        self.label_ids = label_ids  # set on leaves only
        self.children = children or []

    @property
    def is_leaf(self):
        return self.label_ids is not None


def flatten(root, start=0):
    """A linked tree as node records in preorder, positions from ``start``."""
    nodes = recursive_preorder(root)
    slot = {id(node): start + s for s, node in enumerate(nodes)}
    return [{"labels": list(node.label_ids)} if node.is_leaf else
            {"children": [slot[id(c)] for c in node.children]} for node in nodes]


def recursive_preorder(node):
    return [node] + [n for child in node.children for n in recursive_preorder(child)]


def reference_label_tree(features, label_ids, max_leaf, seed):
    """build_label_tree as it built linked nodes: the reference for the table."""
    norms = np.linalg.norm(features, axis=1)
    featured = [i for i in range(len(label_ids)) if norms[i] > 0]
    unfeatured = [i for i in range(len(label_ids)) if norms[i] == 0]
    rng = np.random.default_rng(seed)
    if not featured:
        return RefNode(label_ids=tuple(label_ids[i] for i in unfeatured))
    unit = features[featured] / norms[featured, None]
    root = RefNode()
    stack = [(root, np.arange(len(featured)))]
    while stack:
        node, rows = stack.pop()
        if rows.size <= max_leaf:
            node.label_ids = tuple(label_ids[featured[i]] for i in rows)
            continue
        left = selftrain._balanced_split(unit[rows], rng)
        node.children = [RefNode(), RefNode()]
        stack += [(node.children[1], rows[~left]), (node.children[0], rows[left])]
    if unfeatured:
        pooled = RefNode(label_ids=tuple(label_ids[i] for i in unfeatured))
        root = RefNode(children=[root, pooled])
    return root


class TestBuildLabelTree:
    def test_planted_pairs_colocated(self):
        feats = np.array([[1.0, 0.05], [0.9, 0.0], [0.0, 1.0], [0.05, 0.95]])
        tree = build_label_tree(feats, ["A", "B", "C", "D"], max_leaf=2, seed=0)
        groups = {frozenset(l["labels"]) for l in leaves(tree)}
        assert groups == {frozenset({"A", "B"}), frozenset({"C", "D"})}
        assert "children" in tree[0] and all("labels" in tree[c] for c in tree[0]["children"])

    def test_single_leaf_when_small(self):
        feats = np.eye(3)
        tree = build_label_tree(feats, ["A", "B", "C"], max_leaf=100, seed=0)
        assert len(tree) == 1 and "labels" in tree[0]
        assert set(tree[0]["labels"]) == {"A", "B", "C"}

    def test_same_seed_same_topology(self):
        rng = np.random.default_rng(5)
        feats = rng.random((30, 8))
        ids = [f"L{i}" for i in range(30)]
        t1 = build_label_tree(feats, ids, max_leaf=4, seed=9)
        t2 = build_label_tree(feats, ids, max_leaf=4, seed=9)
        assert topo(t1) == topo(t2) and t1 == t2

    def test_balanced_splits(self):
        rng = np.random.default_rng(6)
        feats = rng.random((17, 5))
        tree = build_label_tree(feats, [f"L{i}" for i in range(17)], max_leaf=1, seed=0)

        def check(pos):
            if "labels" in tree[pos]:
                return 1
            sizes = [check(c) for c in tree[pos]["children"]]
            assert abs(sizes[0] - sizes[1]) <= 1
            return sum(sizes)

        assert check(0) == 17

    def test_zero_feature_labels_pooled(self):
        feats = np.vstack([np.eye(4), np.zeros((3, 4))])
        ids = [f"F{i}" for i in range(4)] + [f"Z{i}" for i in range(3)]
        tree = build_label_tree(feats, ids, max_leaf=2, seed=0)
        pools = [set(l["labels"]) for l in leaves(tree)]
        assert {"Z0", "Z1", "Z2"} in pools
        assert sorted(lid for l in leaves(tree) for lid in l["labels"]) == sorted(ids)
        assert tree[0]["children"] == [1, len(tree) - 1]  # the pooled leaf last, under the root

    def test_every_label_in_exactly_one_leaf(self):
        rng = np.random.default_rng(7)
        feats = rng.random((23, 6))
        feats[5] = 0.0
        ids = [f"L{i}" for i in range(23)]
        tree = build_label_tree(feats, ids, max_leaf=3, seed=1)
        seen = [lid for leaf in leaves(tree) for lid in leaf["labels"]]
        assert sorted(seen) == sorted(ids)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_labels=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           start=st.integers(0, 50))
    def test_equals_the_linked_reference(self, data, n_labels, seed, start):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n_labels, 4))
        feats[rng.random(n_labels) < data.draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0
        max_leaf = data.draw(st.integers(1, n_labels))
        ids = [f"L{i}" for i in range(n_labels)]
        want = flatten(reference_label_tree(feats, ids, max_leaf, seed), start)
        assert build_label_tree(feats, ids, max_leaf, seed, start=start) == want


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
        cfg = PipelineConfig(n_trees=2, max_leaf=max_leaf)
        clf = train_classifier(X, [f"p{i}" for i in range(len(assign))],
                               pseudo, ids, cfg, seed=seed)
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
        cfg = PipelineConfig(n_trees=1, max_leaf=10)
        clf = train_classifier(X, ["p0"], {"p0": ("L0",)}, ["L0"], cfg)
        probs = predict_proba(clf, csr_row(X, 0))
        assert probs["L0"] > 0.5

    def test_deterministic_weights(self):
        a = self.fitted(seed=3)[0]
        b = self.fitted(seed=3)[0]
        assert (a.roots, a.nodes) == (b.roots, b.nodes)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)

    def test_no_training_papers_rejected(self):
        X = one_hot_matrix([0, 1], 2)
        tree = build_label_tree(np.eye(2), ["A", "B"], max_leaf=1, seed=0)
        with pytest.raises(ValueError):
            _fit_nodes(tree, range(len(tree)), CsrMatrix(np.empty(0), np.empty(0, dtype=np.int64),
                                                         np.array([0], dtype=np.int64), 0, 2),
                       np.zeros((0, 2), dtype=bool), PipelineConfig())
        with pytest.raises(ValueError, match="pseudo"):
            _fit_nodes(tree, range(len(tree)), _normalize_rows(X), np.zeros((2, 2), dtype=bool),
                       PipelineConfig())

    def test_single_leaf_equals_leaf_outputs(self):
        clf, X, assign, ids = self.fitted(max_leaf=10)  # one leaf holds all
        leaf = clf.nodes[clf.roots[0]]
        assert clf.roots == [0, 1] and "labels" in leaf
        x = csr_row(X, 0)
        n = len(leaf["labels"])  # the first tree's rows come first
        probs = predict_proba(LabelTreeClassifier(clf.label_ids, [0], [leaf], clf.weights[:n],
                                                  clf.biases[:n]), x)
        xn = dataclasses.replace(x, data=x.data / np.linalg.norm(x.data))
        for j, lid in enumerate(leaf["labels"]):
            z = float(clf.weights[j][xn.indices] @ xn.data) + clf.biases[j]
            assert probs[lid] == pytest.approx(1 / (1 + math.exp(-z)), abs=1e-12)

    def test_beam_wider_than_leaves_equals_exhaustive(self):
        clf, X, assign, ids = self.fitted(n_labels=8, per_label=4, max_leaf=1)

        def exhaustive(clf, x):
            norm = np.linalg.norm(x.data)
            xn = dataclasses.replace(x, data=x.data / norm) if norm else x
            out = {}
            rows = node_rows(clf)

            def walk(pos, p):
                weights, bias = rows[pos]
                if "labels" in clf.nodes[pos]:
                    for j, lid in enumerate(clf.nodes[pos]["labels"]):
                        z = float(weights[j][xn.indices] @ xn.data) + bias[j]
                        out[lid] = out.get(lid, 0.0) + p / (1 + math.exp(-z))
                    return
                for j, child in enumerate(clf.nodes[pos]["children"]):
                    z = float(weights[j][xn.indices] @ xn.data) + bias[j]
                    walk(child, p / (1 + math.exp(-z)))

            for root in clf.roots:
                walk(root, 1.0)
            return {k: v / len(clf.roots) for k, v in out.items()}

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


def leaf_columns(nodes, label_ids, root=0):
    """The column in ``label_ids`` of each of the tree's leaf labels, leaves in preorder."""
    column = {lid: j for j, lid in enumerate(label_ids)}
    return [column[lid] for leaf in leaves(nodes, root) for lid in leaf["labels"]]


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
                acc[sv.indices] += sv.data
            feats[j] = acc / len(rows)
    return feats


def reference_fits(nodes, X, label_sets, cfg, root=0):
    """Each node's (weights, bias) of the tree at ``root``, keyed by position,
    by a descent over label sets: a document reaches a child when it carries
    a label of the child's subtree. Every node takes its sub-block of the
    Gram matrix of the documents that carry a label, as _fit_nodes does."""
    def labels_under(pos):
        return {lid for leaf in leaves(nodes, pos) for lid in leaf["labels"]}

    out = {}
    labelled = np.flatnonzero([bool(labels) for labels in label_sets])
    K = _gram(X, labelled)
    todo = [(root, np.arange(labelled.size))]  # (node, its rows' positions in labelled)
    while todo:
        pos, at = todo.pop()
        rows = labelled[at]
        children = nodes[pos].get("children", [])
        groups = ([{lid} for lid in nodes[pos]["labels"]] if "labels" in nodes[pos]
                  else [labels_under(c) for c in children])
        Y = np.array([[bool(label_sets[i] & g) for g in groups] for i in rows],
                     dtype=bool).reshape(rows.size, len(groups))
        out[pos] = _fit_logistic(X, rows, Y.astype(np.float64), cfg, K, at)
        todo += [(c, at[Y[:, j]]) for j, c in enumerate(children)]
    return out


def assert_node_rows(nodes, weights, biases, want):
    """``weights`` and ``biases`` hold ``want[pos]``, (weights, bias) of a fit of node pos's
    own, at each node's rows: a routing node's within 1e-12 absolute, since its columns shared
    one masked fit with every other routing node; a leaf's bitwise."""
    first = _first_rows(nodes)
    for pos, (w, b) in want.items():
        at = slice(first[pos], first[pos + 1])
        if "children" in nodes[pos]:
            np.testing.assert_allclose(weights[at], w, rtol=0, atol=1e-12)
            np.testing.assert_allclose(biases[at], b, rtol=0, atol=1e-12)
        else:
            assert weights[at].tobytes() == w.tobytes() and biases[at].tobytes() == b.tobytes()


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
        train_classifier(X, ids, pseudo, label_ids, PipelineConfig(n_trees=2, classifier_epochs=1))
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
        monkeypatch.setattr(selftrain, "_fit_logistic", lambda *args, **kw: alive_at_fit.append(
            any(ref() is not None for ref in features)) or fit(*args, **kw))
        train_classifier(one_hot_matrix(assign, 6), list(pseudo), pseudo, ids,
                         PipelineConfig(n_trees=3, max_leaf=2))
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
                            lambda X, rows, *rest, **kw: fitted.append(rows)
                            or fit(X, rows, *rest, **kw))
        cfg = PipelineConfig(classifier_epochs=5)
        weights, biases = _fit_nodes(tree, range(len(tree)), X,
                                     member[:, leaf_columns(tree, ids)], cfg)
        assert len(fitted) == 1 + sum("labels" in rec for rec in tree)  # routing, then leaves
        assert all(4 not in rows and 9 in rows for rows in fitted)
        assert_node_rows(tree, weights, biases, reference_fits(tree, X, label_sets, cfg))


class TestFlatFit:
    """_fit_nodes fits every node of the table in one pass over it, each node's rows and
    targets from its label span alone."""

    def test_three_trees_of_two_depths(self, monkeypatch):
        rng = np.random.default_rng(22)
        ids = [f"L{j}" for j in range(9)]
        feats = rng.random((9, 4))
        feats[7] = 0.0  # pooled in a leaf of its own
        roots, nodes = [], []
        for t, max_leaf in enumerate((1, 2, 1)):
            roots.append(len(nodes))
            nodes += build_label_tree(feats, ids, max_leaf, seed=t, start=len(nodes))
        assert depth(nodes, roots[0]) > depth(nodes, roots[1])
        X = random_csr(rng, 40, 15, empty_rows={2})
        label_sets = [frozenset(rng.choice(ids, size=int(rng.integers(1, 3)), replace=False))
                      for _ in range(40)]
        label_sets[4], label_sets[9] = frozenset(), frozenset(ids)
        member = np.array([[lid in labels for lid in ids] for labels in label_sets])
        member = member[:, [c for root in roots for c in leaf_columns(nodes, ids, root)]]
        cfg = PipelineConfig(classifier_epochs=5)
        calls = []
        fit = selftrain._fit_logistic
        monkeypatch.setattr(selftrain, "_fit_logistic",
                            lambda *args, **kw: calls.append(args) or fit(*args, **kw))
        weights, biases = _fit_nodes(nodes, range(len(nodes)), X, member, cfg)
        assert len(calls) == 1 + sum("labels" in rec for rec in nodes)  # routing, then leaves
        want = {pos: fits for root in roots
                for pos, fits in reference_fits(nodes, X, label_sets, cfg, root).items()}
        assert sorted(want) == list(range(len(nodes)))
        assert_node_rows(nodes, weights, biases, want)
        # backwards, every child before its parent: no node reads another's fit, and the
        # routing columns are taken in table order all the same
        backwards = _fit_nodes(nodes, reversed(range(len(nodes))), X, member, cfg)
        assert backwards[0].tobytes() == weights.tobytes()
        assert backwards[1].tobytes() == biases.tobytes()

    def test_train_classifier_fits_each_node_once(self, monkeypatch):
        ids = [f"L{j}" for j in range(6)]
        assign = [j % 6 for j in range(30)]
        pseudo = {f"p{i}": (ids[j],) for i, j in enumerate(assign)}
        fitted = []
        fit = selftrain._fit_logistic
        monkeypatch.setattr(selftrain, "_fit_logistic",
                            lambda X, rows, Y, *rest, **kw: fitted.append(Y.shape)
                            or fit(X, rows, Y, *rest, **kw))
        clf = train_classifier(one_hot_matrix(assign, 6), list(pseudo), pseudo, ids,
                               PipelineConfig(n_trees=3, max_leaf=2))
        outputs = np.diff(_first_rows(clf.nodes))
        routing = ["children" in rec for rec in clf.nodes]
        assert len(clf.roots) == 3 and any(routing)
        # one call for every routing node of every tree, then each leaf in table order
        assert [k for _, k in fitted] == [outputs[routing].sum(), *outputs[~np.array(routing)]]


class TestMaskedRoutingFit:
    """_fit_nodes fits every routing node in one _fit_logistic call, whose per-cell divisors
    (``sizes``) keep each node to its own rows and columns."""

    @pytest.mark.parametrize("form", [False, True])  # primal, row space
    def test_one_call_matches_a_fit_per_node(self, monkeypatch, form):
        monkeypatch.setattr(selftrain, "_in_row_space", lambda *shape: form)
        rng = np.random.default_rng(23)
        ids = [f"L{j}" for j in range(10)]
        tree = build_label_tree(rng.random((10, 4)), ids, max_leaf=1, seed=1)
        empty = tree[0]["children"][0]  # a routing node no row reaches
        assert "children" in tree[empty]
        unused = {lid for leaf in leaves(tree, empty) for lid in leaf["labels"]}
        used = [lid for lid in ids if lid not in unused]
        X = random_csr(rng, 50, 15, empty_rows={3})
        label_sets = [frozenset(rng.choice(used, size=int(rng.integers(1, 3)), replace=False))
                      for _ in range(50)]
        label_sets[7] = frozenset()
        member = np.array([[lid in labels for lid in ids] for labels in label_sets])
        member = member[:, leaf_columns(tree, ids)]
        cfg = PipelineConfig(classifier_epochs=7)
        calls = []
        fit = selftrain._fit_logistic
        monkeypatch.setattr(selftrain, "_fit_logistic",
                            lambda *args, **kw: calls.append(kw) or fit(*args, **kw))
        weights, biases = _fit_nodes(tree, range(len(tree)), X, member, cfg)
        assert ["sizes" in kw for kw in calls] == [True] + [False] * (len(calls) - 1)
        assert len(calls) == 1 + sum("labels" in rec for rec in tree)
        assert_node_rows(tree, weights, biases, reference_fits(tree, X, label_sets, cfg))
        first = _first_rows(tree)
        for pos in subtree(tree, empty):  # no rows: every output stays exactly 0
            at = slice(first[pos], first[pos + 1])
            assert not weights[at].any() and not biases[at].any()
        backwards = _fit_nodes(tree, reversed(range(len(tree))), X, member, cfg)
        assert backwards[0].tobytes() == weights.tobytes()
        assert backwards[1].tobytes() == biases.tobytes()

    @pytest.mark.parametrize("form", [False, True])
    def test_sizes_of_the_row_count_fit_alike_and_inf_leaves_zeros(self, monkeypatch, form):
        monkeypatch.setattr(selftrain, "_in_row_space", lambda *shape: form)
        rng = np.random.default_rng(24)
        X = random_csr(rng, BLOCK_ROWS + 30, 20)
        rows = np.arange(0, X.n_rows, 2)
        Y = (rng.random((rows.size, 3)) < 0.5).astype(np.float64)
        cfg = PipelineConfig(classifier_epochs=6)
        plain = _fit_logistic(X, rows, Y, cfg)
        counted = _fit_logistic(X, rows, Y, cfg, sizes=np.full(Y.shape, float(rows.size)))
        for a, b in zip(plain, counted):
            assert a.tobytes() == b.tobytes()
        sizes = np.full(Y.shape, float(rows.size))
        sizes[:, 1] = np.inf
        W, b = _fit_logistic(X, rows, Y, cfg, sizes=sizes)
        assert not W[1].any() and b[1] == 0.0
        assert W[[0, 2]].tobytes() == plain[0][[0, 2]].tobytes()


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


def supplied_gram(X, rows, gram):
    """_fit_logistic's (K, at) for ``gram``: None, the Gram matrix of
    ``rows`` ("rows") or that of every row of X, ``rows`` at their positions
    ("superset")."""
    if gram is None:
        return None, None
    if gram == "rows":
        return _gram(X, rows), None
    return _gram(X, np.arange(X.n_rows)), rows


class TestMultiOutputFit:
    """_fit_logistic against one kernels.logistic_epochs call per output."""

    @pytest.mark.parametrize("gram", [None, "rows", "superset"])
    @pytest.mark.parametrize("n_rows, k, subset", [
        (2 * BLOCK_ROWS + 37, 5, True),  # several blocks, the last one partial
        (60, 1, False),
        (1, 3, False),
    ])
    def test_matches_per_label_kernel(self, n_rows, k, subset, gram):
        rng = np.random.default_rng(n_rows + k)
        X = random_csr(rng, n_rows, 40, empty_rows={0, n_rows // 2} if n_rows > 2 else ())
        rows = (np.sort(rng.choice(n_rows, size=2 * n_rows // 3, replace=False))
                if subset else np.arange(n_rows))
        Y = (rng.random((rows.size, k)) < 0.4).astype(np.float64)
        if k >= 3:
            Y[:, 1] = 0.0
            Y[:, 2] = 1.0
        cfg = PipelineConfig(classifier_epochs=20, classifier_lr=2.0, classifier_l2=1e-4)
        W, b = _fit_logistic(X, rows, Y, cfg, *supplied_gram(X, rows, gram))
        sub = csr_subset(X, rows)
        for j in range(k):
            w = np.zeros(X.n_cols)
            bj = kernels.logistic_epochs(sub.data, sub.indices, sub.indptr, Y[:, j].copy(),
                                         w, 0.0, cfg.classifier_epochs, cfg.classifier_lr,
                                         cfg.classifier_l2)
            np.testing.assert_allclose(W[j], w, rtol=0, atol=1e-12)
            assert abs(b[j] - bj) <= 1e-12

    def test_no_rows_leaves_zeros(self):
        X = random_csr(np.random.default_rng(0), 5, 10)
        W, b = _fit_logistic(X, np.empty(0, dtype=np.int64), np.zeros((0, 2)),
                             PipelineConfig())
        assert W.shape == (2, 10) and not W.any() and not b.any()


def kernel_fit(X, rows, Y, cfg):
    """One kernels.logistic_epochs call per column of Y: (weights, biases)."""
    sub = csr_subset(X, rows)
    W, b = np.zeros((Y.shape[1], X.n_cols)), np.zeros(Y.shape[1])
    for j in range(Y.shape[1]):
        b[j] = kernels.logistic_epochs(sub.data, sub.indices, sub.indptr, Y[:, j].copy(),
                                       W[j], 0.0, cfg.classifier_epochs, cfg.classifier_lr,
                                       cfg.classifier_l2)
    return W, b


class TestRowSpaceFit:
    """The row-space (Gram matrix) form of _fit_logistic."""

    @pytest.mark.parametrize("gram", [None, "rows", "superset"])
    @pytest.mark.parametrize("n_rows, k, subset", [
        (3 * BLOCK_ROWS + 37, 6, True),  # several blocks, the last one partial
        (3 * BLOCK_ROWS + 37, 1, True),
        (2 * BLOCK_ROWS, 4, False),  # whole blocks only
        (BLOCK_ROWS + 1, 1, False),
        (7, 3, False),
    ])
    def test_matches_per_label_kernel(self, monkeypatch, n_rows, k, subset, gram):
        monkeypatch.setattr(selftrain, "_in_row_space", lambda *shape: True)
        rng = np.random.default_rng(100 * n_rows + k)
        X = random_csr(rng, n_rows, 50, empty_rows={0, 3, n_rows // 2, n_rows - 1})
        rows = (np.sort(rng.choice(n_rows, size=2 * n_rows // 3, replace=False))
                if subset else np.arange(n_rows))
        Y = (rng.random((rows.size, k)) < 0.4).astype(np.float64)
        if k >= 3:
            Y[:, 1] = 0.0
            Y[:, 2] = 1.0
        cfg = PipelineConfig(classifier_epochs=20, classifier_lr=2.0, classifier_l2=1e-4)
        W, b = _fit_logistic(X, rows, Y, cfg, *supplied_gram(X, rows, gram))
        W_ref, b_ref = kernel_fit(X, rows, Y, cfg)
        np.testing.assert_allclose(W, W_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_rows", [1, BLOCK_ROWS, 3 * BLOCK_ROWS + 37])
    def test_gram_is_exactly_symmetric(self, n_rows):
        rng = np.random.default_rng(n_rows)
        X = random_csr(rng, n_rows + 10, 300, max_nnz=40, empty_rows={1})
        rows = np.sort(rng.choice(X.n_rows, size=n_rows, replace=False))
        K = _gram(X, rows)
        assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()
        dense = np.zeros((n_rows, X.n_cols))
        for i, r in enumerate(rows):
            sv = csr_row(X, r)
            dense[i, sv.indices] = sv.data
        np.testing.assert_allclose(K, dense @ dense.T, rtol=0, atol=1e-12)

    def test_supplied_gram_builds_none_and_its_sub_block_fits_alike(self, monkeypatch):
        rng = np.random.default_rng(12)
        X = random_csr(rng, 40, 30)
        rows = np.arange(3, 40, 3)
        Y = (rng.random((rows.size, 3)) < 0.5).astype(np.float64)
        full = _gram(X, np.arange(40))
        monkeypatch.setattr(selftrain, "_in_row_space", lambda *shape: True)
        monkeypatch.setattr(selftrain, "_gram", lambda *args: pytest.fail("a Gram was built"))
        cfg = PipelineConfig(classifier_epochs=9)
        by_rows = _fit_logistic(X, rows, Y, cfg, full[np.ix_(rows, rows)])
        by_positions = _fit_logistic(X, rows, Y, cfg, full, rows)
        for a, b in zip(by_rows, by_positions):
            assert a.tobytes() == b.tobytes()

    def test_chosen_without_forcing_on_a_wide_leaf(self):
        rng = np.random.default_rng(3)
        n_rows, n_cols, k = 2 * BLOCK_ROWS + 20, 600, 30
        assert _in_row_space(n_rows, n_cols, k, 20)
        X = random_csr(rng, n_rows, n_cols, max_nnz=30, empty_rows={5})
        rows = np.arange(n_rows)
        Y = (rng.random((n_rows, k)) < 0.2).astype(np.float64)
        Y[:, 0] = 0.0
        Y[:, 1] = 1.0
        cfg = PipelineConfig(classifier_epochs=20, classifier_lr=2.0, classifier_l2=1e-4)
        W, b = _fit_logistic(X, rows, Y, cfg)
        W_ref, b_ref = kernel_fit(X, rows, Y, cfg)
        np.testing.assert_allclose(W, W_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-12)

    def test_choice_follows_flop_rule_and_row_cap(self):
        assert GRAM_MAX_BYTES == 12 * 2 ** 20 and GRAM_ROWS == 1254
        assert 8 * GRAM_ROWS ** 2 <= GRAM_MAX_BYTES < 8 * (GRAM_ROWS + 1) ** 2
        for n in (1, 2, 60, 73, 74, 400, 1000, 1224, GRAM_ROWS, GRAM_ROWS + 1, 5000):
            for c in (40, 2080, 4400):
                for k in (1, 2, 55, 100):
                    for e in (1, 20):
                        for given in (False, True):
                            build = 0 if given else n * n * c
                            row_space = build + 2 * e * n * n * k + 2 * n * c * k
                            want = (8 * n * n <= GRAM_MAX_BYTES
                                    and row_space < 2 * e * n * c * k)
                            assert _in_row_space(n, c, k, e, given) == want, (n, c, k, e, given)
                        assert _in_row_space(n, c, k, e) == _in_row_space(n, c, k, e, False)
        assert _in_row_space(400, 2080, 55, 20)  # a leaf
        assert not _in_row_space(400, 2080, 2, 20)  # a routing node
        assert _in_row_space(400, 2080, 2, 20, given=True)  # ... unless its Gram is given
        assert not _in_row_space(1000, 40, 2, 20, given=True)  # more rows than columns
        assert _in_row_space(1224, 4400, 62, 20)  # the largest leaf at 5000 x 500
        assert _in_row_space(GRAM_ROWS, 4400, 100, 20)
        assert not _in_row_space(GRAM_ROWS + 1, 4400, 100, 20)  # fewer flops, too big
        assert not _in_row_space(GRAM_ROWS + 1, 4400, 100, 20, given=True)

    @pytest.mark.parametrize("given", [False, True])
    def test_fit_asks_the_rule_with_the_node_shape(self, monkeypatch, given):
        asked = []
        monkeypatch.setattr(selftrain, "_in_row_space",
                            lambda *shape: asked.append(shape) or False)
        X = random_csr(np.random.default_rng(4), 30, 12)
        K = _gram(X, np.arange(30)) if given else None
        _fit_logistic(X, np.arange(0, 30, 2), np.zeros((15, 4)),
                      PipelineConfig(classifier_epochs=7), K,
                      np.arange(0, 30, 2) if given else None)
        assert asked == [(15, 12, 4, 7, given)]

    def test_train_classifier_forms_agree(self, monkeypatch, tmp_path):
        write_synthetic(SyntheticSpec(n_papers=160, n_labels=24, seed=5),
                        tmp_path / "c.jsonl", tmp_path / "l.jsonl", tmp_path / "m.jsonl")
        corpus = load_corpus(tmp_path / "c.jsonl", 10)
        label_ids = [l.id for l in load_labels(tmp_path / "l.jsonl")]
        X = build_tfidf_matrix(corpus, build_vocabulary(corpus, 2))
        ids = [p.id for p in corpus]
        pseudo = {p.id: tuple(sorted(p.gold_labels)) for p in corpus}
        cfg = PipelineConfig(n_trees=2, max_leaf=6)
        fitted = {}
        for form in (False, True):
            monkeypatch.setattr(selftrain, "_in_row_space", lambda *shape, f=form: f)
            fitted[form] = train_classifier(X, ids, pseudo, label_ids, cfg, seed=8)
        primal, dual = fitted[False], fitted[True]
        assert (primal.roots, primal.nodes) == (dual.roots, dual.nodes)
        np.testing.assert_allclose(primal.weights, dual.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(primal.biases, dual.biases, rtol=0, atol=1e-12)
        pa, pb = stacked_probabilities(primal, X, 3), stacked_probabilities(dual, X, 3)
        np.testing.assert_array_equal(pa > 0, pb > 0)  # the same labels reached
        np.testing.assert_allclose(pa, pb, rtol=0, atol=1e-12)
        pinned = [[] for _ in ids]
        assert final_rankings(pinned, pa, primal.label_ids) == \
            final_rankings(pinned, pb, dual.label_ids)


class TestSharedGram:
    """train_classifier builds one Gram matrix for every node of every tree when the Gram
    matrix of the papers that carry a pseudo label takes at most GRAM_MAX_BYTES, and leaves
    each fit its own rule above."""

    @staticmethod
    def fit(monkeypatch, n_labelled):
        rng = np.random.default_rng(16)
        n_papers, ids = GRAM_ROWS + 40, [f"L{j}" for j in range(120)]
        X = random_csr(rng, n_papers, 2000, max_nnz=12)
        pseudo = {f"p{i}": tuple(rng.choice(ids, size=2, replace=False))
                  for i in range(n_labelled)}
        builds, asked = [], []
        gram, rule = selftrain._gram, selftrain._in_row_space
        monkeypatch.setattr(selftrain, "_gram", lambda X, rows: builds.append(rows.size)
                            or gram(X, rows))
        monkeypatch.setattr(selftrain, "_in_row_space", lambda *shape: asked.append(
            (shape, rule(*shape))) or asked[-1][1])
        train_classifier(X, [f"p{i}" for i in range(n_papers)], pseudo, ids,
                         PipelineConfig(n_trees=2, max_leaf=40, classifier_epochs=20))
        return builds, asked

    def test_one_build_at_the_budget(self, monkeypatch):
        builds, asked = self.fit(monkeypatch, GRAM_ROWS)
        assert builds == [GRAM_ROWS]
        assert asked and all(shape[4] for shape, _ in asked)  # every node is given it
        assert all(in_row_space for _, in_row_space in asked)

    def test_per_node_builds_above_the_budget(self, monkeypatch):
        builds, asked = self.fit(monkeypatch, GRAM_ROWS + 1)
        assert not any(shape[4] for shape, _ in asked)
        own = [shape[0] for shape, in_row_space in asked if in_row_space]
        assert own and builds == own  # one build per leaf fitted in row space
        # first the one routing fit: 2 trees of 3 routing nodes of 2 children each
        assert asked[0] == ((GRAM_ROWS + 1, 2000, 12, 20, False), False)


def scalar_beam(clf, x, beam):
    """Per-document beam search with scalar logits: the reference for
    predict_blocks."""
    def sigmoid(z):
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        ez = math.exp(z)
        return ez / (1.0 + ez)

    def logit(w, b):
        return float(w[xn.indices] @ xn.data) + b if xn.data.size else b

    norm = math.sqrt(float(x.data @ x.data)) if x.data.size else 0.0
    xn = dataclasses.replace(x, data=x.data / norm) if norm > 0 else x
    rows = node_rows(clf)
    acc = {}
    for root in clf.roots:
        position = {pos: i for i, pos in enumerate(subtree(clf.nodes, root))}  # preorder rank
        frontier = [(1.0, root)]
        while frontier:
            frontier.sort(key=lambda item: (-item[0], position[item[1]]))
            frontier = frontier[:beam]
            nxt = []
            for p, pos in frontier:
                weights, bias = rows[pos]
                for j, lid in enumerate(clf.nodes[pos].get("labels", [])):
                    s = p * sigmoid(logit(weights[j], bias[j]))
                    acc[lid] = acc.get(lid, 0.0) + s
                for j, child in enumerate(clf.nodes[pos].get("children", [])):
                    q = p * sigmoid(logit(weights[j], bias[j]))
                    nxt.append((q, child))
            frontier = nxt
    return {lid: v / len(clf.roots) for lid, v in acc.items()}


class TestBatchedBeam:
    """predict_blocks against the scalar per-document beam search."""

    @pytest.fixture(scope="class")
    def deep(self):
        rng = np.random.default_rng(11)
        n_labels, n_cols = 12, 36
        ids = [f"L{j:02d}" for j in range(n_labels)]
        topics = [rng.choice(n_cols, size=5, replace=False) for _ in range(n_labels)]
        rows, pseudo = [], {}
        for i in range(300):  # two full row blocks and a partial one
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
        cfg = PipelineConfig(n_trees=2, max_leaf=1)
        clf = train_classifier(X, [f"p{i}" for i in range(len(rows))], pseudo, ids, cfg, seed=4)
        return clf, X

    def test_trees_are_deep_and_tie(self, deep):
        clf, _ = deep
        assert len(clf.roots) == 2 and all(depth(clf.nodes, r) >= 3 for r in clf.roots)
        for root in clf.roots:
            twins = [p for p in subtree(clf.nodes, root) if {
                tuple(clf.nodes[c].get("labels", ())) for c in clf.nodes[p].get("children", [])
            } == {("L00",), ("L01",)}]
            assert twins, "L00 and L01 should be sibling leaves"
            weights, _ = node_rows(clf)[twins[0]]
            np.testing.assert_array_equal(weights[0], weights[1])

    @pytest.mark.parametrize("beam", [1, 2, 3, 64])
    def test_matches_scalar_reference(self, deep, beam):
        clf, X = deep
        blocks = list(predict_blocks(clf, X, beam))
        assert [(start, probs.shape) for start, probs in blocks] == \
            [(0, (128, 12)), (128, (128, 12)), (256, (44, 12))]
        for start, probs in blocks:
            for r, row in enumerate(probs):
                ref = scalar_beam(clf, csr_row(X, start + r), beam)
                got = {lid for j, lid in enumerate(clf.label_ids) if row[j] > 0}
                assert got == set(ref), start + r
                for j, lid in enumerate(clf.label_ids):
                    assert abs(row[j] - ref.get(lid, 0.0)) <= 1e-12

    def test_feature_width_mismatch_rejected(self, deep):
        clf, X = deep
        wider = CsrMatrix(X.data, X.indices, X.indptr, X.n_rows, X.n_cols + 1)
        with pytest.raises(ValueError, match=f"tf-idf features but the corpus vocabulary has "
                                             f"{X.n_cols + 1}$"):
            next(predict_blocks(clf, wider, 10))

    def test_holds_no_papers_by_labels_matrix(self):
        rng = np.random.default_rng(13)
        n_rows, n_labels = 4096, 512
        clf = random_classifier(rng, n_labels, 64, 2, max_leaf=64)
        X = random_csr(rng, n_rows, 64)
        whole = n_rows * n_labels * 8  # one float64 probability matrix: 16 MiB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in predict_blocks(clf, X, 10):
                pass
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < whole, (peak, whole)


class TestSearchPlan:
    @settings(max_examples=40, deadline=None)
    @given(n_labels=st.integers(1, 30), max_leaf=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_levels_list_nodes_in_preorder(self, n_labels, max_leaf, seed):
        clf = random_classifier(np.random.default_rng(seed), n_labels, 2, 2, max_leaf)
        root, nodes = clf.roots[1], clf.nodes  # the second tree, whose rows do not start at 0
        first = _first_rows(nodes)
        levels = _search_plan(nodes, root, {lid: j for j, lid in enumerate(clf.label_ids)}, first)
        position = {pos: i for i, pos in enumerate(subtree(nodes, root))}  # preorder rank
        level, seen = [root], []
        for d, lvl in enumerate(levels):
            if d:  # each node from its parent's column and its routing row
                level = [nodes[level[p]]["children"][r - first[level[p]]]
                         for p, r in zip(lvl.parent, lvl.row)]
            at = [position[pos] for pos in level]
            assert at == sorted(at)
            seen += at
        assert sorted(seen) == list(range(len(position)))


class TestOneRowNumbering:
    """The fit, the search and the file number the classifier rows alike:
    tree by tree, each tree's nodes in preorder."""

    @staticmethod
    def path_probabilities(clf):
        """Each label's mean over the trees of the product of sigmoid(bias)
        along its path, rows counted off in that order by a recursion."""
        rows = iter(range(clf.biases.size))
        acc = dict.fromkeys(clf.label_ids, 0.0)

        def walk(pos, p):
            outputs = clf.nodes[pos].get("labels", clf.nodes[pos].get("children"))
            s = [1.0 / (1.0 + math.exp(-clf.biases[next(rows)])) for _ in outputs]
            for lid, q in zip(clf.nodes[pos].get("labels", []), s):
                acc[lid] += p * q
            for child, q in zip(clf.nodes[pos].get("children", []), s):
                walk(child, p * q)

        for root in clf.roots:
            walk(root, 1.0)
        return np.array([acc[lid] / len(clf.roots) for lid in clf.label_ids])

    def test_zero_weights_give_the_biases_of_each_path(self, tmp_path):
        rng = np.random.default_rng(14)
        clf = random_classifier(rng, 11, 4, 3, max_leaf=2)
        clf.weights[:] = 0.0
        clf.biases[:] = rng.permutation(clf.biases.size) / clf.biases.size * 6.0 - 3.0
        want = self.path_probabilities(clf)
        save_classifier(clf, tmp_path / "clf.npz")
        X = random_csr(rng, 5, 4, max_nnz=3, empty_rows={2})
        for fitted in (clf, load_classifier(tmp_path / "clf.npz")):
            probs = stacked_probabilities(fitted, X, beam_width=64)
            for row in probs:
                np.testing.assert_allclose(row, want, rtol=1e-12, atol=0)

    def test_fit_writes_each_tree_at_its_offset(self):
        ids = [f"L{j}" for j in range(6)]
        assign = [j % 6 for j in range(30)]
        pseudo = {f"p{i}": (ids[j],) for i, j in enumerate(assign)}
        X = one_hot_matrix(assign, 6)
        cfg = PipelineConfig(n_trees=3, max_leaf=2)
        clf = train_classifier(X, list(pseudo), pseudo, ids, cfg)
        first = _first_rows(clf.nodes)
        assert clf.weights.shape == (first[-1], 6) and clf.biases.shape == (first[-1],)
        assert 0 < first[clf.roots[1]] < first[clf.roots[2]]
        member = np.eye(6, dtype=bool)[assign][
            :, [c for root in clf.roots for c in leaf_columns(clf.nodes, ids, root)]]
        for root, end in zip(clf.roots, clf.roots[1:] + [len(clf.nodes)]):
            weights, biases = _fit_nodes(clf.nodes, range(root, end), _normalize_rows(X), member,
                                         cfg)  # one tree's nodes only
            at = slice(first[root], first[end])
            others = biases.copy()
            others[at] = 0.0
            assert biases[at].any() and not others.any()  # the fit wrote its tree's rows only
            assert clf.weights[at].tobytes() == weights[at].tobytes()
            assert clf.biases[at].tobytes() == biases[at].tobytes()


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
                               PipelineConfig(n_trees=3, max_leaf=2), seed=1)
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
            with open(path, "rb") as a, open(again, "rb") as b:
                assert a.read() == b.read()
            with np.load(ref) as data:
                want = {name: data[name] for name in data.files}
            got = read_npz_members(path)
            assert list(got) == list(want)
            for name, array in want.items():
                assert got[name].dtype == array.dtype and got[name].shape == array.shape
                assert got[name].tobytes() == array.tobytes()
        assert loaded.label_ids == clf.label_ids
        assert (loaded.roots, loaded.nodes) == (clf.roots, clf.nodes)
        assert loaded.weights.shape == clf.weights.shape == (clf.biases.size, n_features)
        np.testing.assert_array_equal(loaded.weights, clf.weights)
        np.testing.assert_array_equal(loaded.biases, clf.biases)

    def test_single_leaf_root_roundtrip(self, tmp_path):
        clf = LabelTreeClassifier(("A", "B"), [0], [{"labels": ["B", "A"]}], np.eye(2, 3),
                                  np.array([0.5, -1.0]))
        save_classifier(clf, tmp_path / "clf.npz")
        loaded = load_classifier(tmp_path / "clf.npz")
        assert loaded.roots == [0] and loaded.nodes == [{"labels": ["B", "A"]}]
        np.testing.assert_array_equal(loaded.weights, clf.weights)
        np.testing.assert_array_equal(loaded.biases, clf.biases)

    def test_save_holds_no_second_copy_of_the_weights(self, tmp_path):
        clf = random_classifier(np.random.default_rng(5), 32, 20_000, 1, max_leaf=16)
        weight_bytes = clf.weights.nbytes
        assert weight_bytes >= 4 * 2**20
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_classifier(clf, tmp_path / "clf.npz")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < weight_bytes / 2, (peak, weight_bytes)

    def test_load_holds_no_second_copy_of_the_weights(self, tmp_path):
        clf = random_classifier(np.random.default_rng(5), 32, 20_000, 1, max_leaf=16)
        save_classifier(clf, tmp_path / "clf.npz")
        weight_bytes = clf.weights.nbytes
        assert weight_bytes >= 4 * 2**20
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_classifier(tmp_path / "clf.npz")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * weight_bytes, (peak, weight_bytes)  # the weights, and a chunk
        assert loaded.weights.tobytes() == clf.weights.tobytes()

    def test_plain_layout_loads_bitwise(self, tmp_path):
        clf = random_classifier(np.random.default_rng(15), 9, 7, 2, max_leaf=3)
        path = tmp_path / "clf.npz"
        reference_save_classifier(clf, path)  # np.savez_compressed: float64 members whole
        with np.load(path) as data:
            assert sorted(data.files) == ["biases", "meta", "weights"]
        loaded = load_classifier(path)
        assert (loaded.roots, loaded.nodes) == (clf.roots, clf.nodes)
        assert loaded.weights.tobytes() == clf.weights.tobytes()
        assert loaded.biases.tobytes() == clf.biases.tobytes()

    def rewrite(self, path, **changes):
        """Rewrite the classifier at ``path`` with ``changes`` as np.savez_compressed
        writes it: each float64 member whole."""
        arrays = read_npz_members(path)
        arrays.update(changes)
        np.savez_compressed(path, **arrays)

    def rewrite_meta(self, path, edit):
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        edit(meta)
        self.rewrite(path, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8))

    def test_older_node_keys_load_and_predict_alike(self, tmp_path):
        # files written before the one weight matrix also held each node's
        # rows as ``index`` and ``clf`` and the meta a ``beam_width``
        clf = random_classifier(np.random.default_rng(9), 13, 5, 2, max_leaf=3)
        path = tmp_path / "clf.npz"
        save_classifier(clf, path)
        first = _first_rows(clf.nodes)

        def older(meta):
            meta["beam_width"] = 10
            for pos, rec in enumerate(meta["nodes"]):
                rec.update(index=pos, clf={"rows": [int(first[pos]), int(first[pos + 1])]})

        self.rewrite_meta(path, older)
        loaded = load_classifier(path)
        assert (loaded.roots, loaded.nodes) == (clf.roots, clf.nodes)
        X = random_csr(np.random.default_rng(3), 20, 5, max_nnz=4, empty_rows={4})
        for beam in (1, 3, 10):
            assert stacked_probabilities(loaded, X, beam).tobytes() == \
                stacked_probabilities(clf, X, beam).tobytes()

    @pytest.mark.parametrize("edit, problem", [
        (lambda m: m["nodes"].__setitem__(1, 5),
         "malformed meta ('nodes' entry must be an object, got int)"),
        (lambda m: m["nodes"][0].update(labels=["L0"]),
         "node 0 holds not exactly one of labels and children"),
        (lambda m: m["nodes"][0].update(children=[1.0, 2]),
         "node 0: 'children' entry must be an int, got float"),
        (lambda m: next(r for r in m["nodes"] if "labels" in r)["labels"].append(3),
         ": 'labels' entry must be a string, got int"),
        (lambda m: next(r for r in m["nodes"] if "labels" in r).pop("labels"),
         "holds not exactly one of labels and children"),
        (lambda m: m.pop("nodes"), "malformed meta (missing field 'nodes')"),
        (lambda m: m.update(roots=0), "malformed meta ('roots' must be a list, got int)"),
        (lambda m: m.update(roots=[]), "roots is empty"),
        (lambda m: m.update(roots=[True]), "malformed meta ('roots' entry must be an int, got bool)"),
        (lambda m: m.update(label_ids=[1, 2]),
         "malformed meta ('label_ids' entry must be a string, got int)"),
        (lambda m: m.update(n_features="4"),
         "malformed meta ('n_features' must be an int, got str)"),
        (lambda m: m.pop("n_features"), "malformed meta (missing field 'n_features')"),
    ])
    def test_malformed_meta_named(self, tmp_path, edit, problem):
        path = tmp_path / "clf.npz"
        save_classifier(random_classifier(np.random.default_rng(7), 6, 3, 1, max_leaf=2), path)
        self.rewrite_meta(path, edit)
        with pytest.raises(ValueError) as err:
            load_classifier(path)
        assert str(err.value).startswith(f"{path}: ") and problem in str(err.value)
        assert "rerun" not in str(err.value)

    @pytest.mark.parametrize("raw, problem", [
        (b"{version: 1}", r"unreadable meta \(Expecting property name .*\)"),
        (b"\xff", r"unreadable meta \(.*utf-8.*\)"),
        (b"[1]", r"malformed meta \(expected an object, got list\)"),
    ])
    def test_meta_that_is_no_json_object_named(self, tmp_path, raw, problem):
        path = tmp_path / "clf.npz"
        save_classifier(random_classifier(np.random.default_rng(7), 6, 3, 1, max_leaf=2), path)
        self.rewrite(path, meta=np.frombuffer(raw, dtype=np.uint8))
        with pytest.raises(ValueError, match=f"clf.npz: {problem}$"):
            load_classifier(path)

    @pytest.mark.parametrize("change", ["short_weights", "float32_weights", "wide_weights",
                                        "short_biases"])
    def test_archive_disagreeing_with_its_meta_rejected(self, tmp_path, change):
        clf = random_classifier(np.random.default_rng(6), 30, 4, 2, max_leaf=3)
        path = tmp_path / "clf.npz"
        save_classifier(clf, path)
        members = read_npz_members(path)
        weights, biases = members["weights"], members["biases"]
        self.rewrite(path, **{
            "short_weights": {"weights": weights[:-10]},
            "float32_weights": {"weights": weights.astype(np.float32)},
            "wide_weights": {"weights": np.hstack([weights, weights[:, :1]])},
            "short_biases": {"biases": biases[:-1]},
        }[change])
        with pytest.raises(ValueError, match=r"clf.npz: weights is .*\)$"):
            load_classifier(path)

    @pytest.mark.parametrize("version", [0, 2, None])
    def test_other_version_names_self_train(self, tmp_path, version):
        path = tmp_path / "clf.npz"
        save_classifier(random_classifier(np.random.default_rng(7), 6, 3, 1, max_leaf=2), path)
        self.rewrite_meta(path, lambda meta: meta.update(version=version))
        with pytest.raises(ValueError) as err:
            load_classifier(path)
        assert str(err.value) == (f"{path}: classifier version {version!r} is not "
                                  f"{selftrain.CLASSIFIER_VERSION}")


def reference_save_classifier(clf, path):
    """The classifier writer before streaming: every node's weight rows
    stacked into one array in preorder, then np.savez_compressed."""
    nodes, weights, biases = [], [], []
    rows = node_rows(clf)

    def serialize(pos):
        slot = len(nodes)
        rec = {"labels": list(clf.nodes[pos]["labels"])} if "labels" in clf.nodes[pos] else {}
        nodes.append(rec)
        node_weights, node_bias = rows[pos]
        for j in range(len(node_bias)):
            weights.append(node_weights[j])
            biases.append(node_bias[j])
        if "children" in clf.nodes[pos]:
            rec["children"] = [serialize(c) for c in clf.nodes[pos]["children"]]
        return slot

    roots = [serialize(root) for root in clf.roots]
    meta = {"version": selftrain.CLASSIFIER_VERSION, "label_ids": list(clf.label_ids),
            "n_features": clf.weights.shape[1],
            "roots": roots, "nodes": nodes}
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh, weights=np.vstack(weights) if weights else np.zeros((0, clf.weights.shape[1])),
            biases=np.array(biases),
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8))


def random_classifier(rng, n_labels, n_features, n_trees, max_leaf):
    """Label trees from build_label_tree with random weights on every node.
    Some labels get all-zero features, so some trees pool them in a leaf."""
    ids = [f"L{j}" for j in range(n_labels)]
    roots, nodes, weights, biases = [], [], [], []
    for t in range(n_trees):
        feats = rng.normal(size=(n_labels, 3)) * (rng.random((n_labels, 1)) < 0.8)
        roots.append(len(nodes))
        for rec in build_label_tree(feats, ids, max_leaf, seed=t, start=len(nodes)):
            n_outputs = len(rec.get("labels", rec.get("children")))
            weights.append(rng.normal(size=(n_outputs, n_features)))
            biases.append(rng.normal(size=n_outputs))
            nodes.append(rec)
    return LabelTreeClassifier(tuple(ids), roots, nodes, np.concatenate(weights),
                               np.concatenate(biases))


def recursive_label_tree(features, label_ids, max_leaf, seed):
    """build_label_tree as a recursion: the reference for its split order."""
    norms = np.linalg.norm(features, axis=1)
    featured = [i for i in range(len(label_ids)) if norms[i] > 0]
    unfeatured = [i for i in range(len(label_ids)) if norms[i] == 0]
    rng = np.random.default_rng(seed)
    unit = features[featured] / norms[featured, None]

    def recurse(rows):
        if rows.size <= max_leaf:
            return RefNode(label_ids=tuple(label_ids[featured[i]] for i in rows))
        left = selftrain._balanced_split(unit[rows], rng)
        return RefNode(children=[recurse(rows[left]), recurse(rows[~left])])

    root = recurse(np.arange(len(featured)))
    if unfeatured:
        root = RefNode(children=[root, RefNode(label_ids=tuple(label_ids[i] for i in unfeatured))])
    return root


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
        assert build_label_tree(feats, ids, max_leaf, seed=4) == \
            flatten(recursive_label_tree(feats, ids, max_leaf, seed=4))

    def test_fit_nodes(self):
        ids = [f"L{j}" for j in range(6)]
        assign = [j % 6 for j in range(30)]
        tree = build_label_tree(np.eye(6), ids, max_leaf=2, seed=0)
        X = _normalize_rows(one_hot_matrix(assign, 6))
        member = np.eye(6, dtype=bool)[assign][:, leaf_columns(tree, ids)]
        assert garbage_after(_fit_nodes, tree, range(len(tree)), X, member, PipelineConfig()) == 0

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
