"""Self-training: tf-idf features, pseudo labels, label-tree classifier.

Confident candidate predictions (top-N by the combined reciprocal-rank
score) become pseudo labels for training an ensemble of balanced binary
label trees with logistic routing and one-vs-all leaf classifiers,
predicted via per-level beam search. The classifier reranks every label
outside the pinned top-N, so documents can receive labels that the
name-matching retrieval stage could never surface.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import TermCounts, Vocabulary, preorder, write_npz
from .kernels import _sigmoid
from .ranker import CandidateScore

CLASSIFIER_VERSION = 1
BLOCK_ROWS = 128  # rows per dense block in the fitting and prediction products
GRAM_MAX_ROWS = 1024  # largest node fitted in row space: its Gram matrix is at most 8 MiB


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


@dataclass
class CsrMatrix:
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    n_rows: int
    n_cols: int


def tfidf_from_terms(terms: TermCounts, vocab: Vocabulary) -> CsrMatrix:
    """tf(w, d) * ln(|D| / df(w)) over each paper's full-text term counts.

    Row i is paper i with its columns ascending. Words outside the
    vocabulary, and words present in every document (zero idf), contribute
    no entries.
    """
    # a word outside the vocabulary maps to one extra column of zero idf
    column = np.array([vocab.word_index.get(w, len(vocab)) for w in terms.words],
                      dtype=np.int64)
    idf = np.append(np.log(vocab.n_docs / vocab.doc_freq), 0.0)
    cols = column[terms.ids]
    vals = terms.counts * idf[cols]
    keep = np.flatnonzero(vals)
    rows = np.repeat(np.arange(terms.n_docs), np.diff(terms.indptr))[keep]
    cols, vals = cols[keep], vals[keep]
    order = np.argsort(rows * len(vocab) + cols)
    return CsrMatrix(
        data=vals[order], indices=cols[order],
        indptr=np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=terms.n_docs)))),
        n_rows=terms.n_docs, n_cols=len(vocab),
    )


def _normalize_rows(X: CsrMatrix) -> CsrMatrix:
    data = X.data.copy()
    for i in range(X.n_rows):
        lo, hi = X.indptr[i], X.indptr[i + 1]
        norm = math.sqrt(float(data[lo:hi] @ data[lo:hi]))
        if norm > 0.0:
            data[lo:hi] /= norm
    return CsrMatrix(data, X.indices, X.indptr, X.n_rows, X.n_cols)


def _nonzeros(X: CsrMatrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions in X.data and X.indices of the nonzeros of ``rows``,
    row after row, and each row's nonzero count."""
    lo = X.indptr[rows]
    lengths = X.indptr[rows + 1] - lo
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1])) + np.repeat(lo - (ends - lengths), lengths), lengths


def _row_blocks(X: CsrMatrix, rows: np.ndarray):
    """Cut ``rows`` of X into runs of at most BLOCK_ROWS rows.

    Yields (start, count, flat, values): writing ``values`` at ``flat``
    into a zeroed, raveled (count, n_cols) buffer gives rows
    ``rows[start:start + count]`` densely. Each row must hold a column at
    most once, as tfidf_from_terms makes them.
    """
    for start in range(0, rows.size, BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        take, lengths = _nonzeros(X, block)
        local = np.repeat(np.arange(block.size), lengths)
        yield start, block.size, local * X.n_cols + X.indices[take], X.data[take]


def _dense_blocks(blocks, buf: np.ndarray):
    """Yield (start, dense rows) for each of ``blocks``, reusing ``buf``.

    A yielded view is valid until the next one is requested; ``buf`` is
    left zeroed.
    """
    flat = buf.reshape(-1)
    for start, count, pos, values in blocks:
        flat[pos] = values
        yield start, buf[:count]
        flat[pos] = 0.0


# ---------------------------------------------------------------------------
# pseudo labels
# ---------------------------------------------------------------------------


def pseudo_labels(scored: dict[str, list[CandidateScore]], n: int) -> dict[str, tuple[str, ...]]:
    """Top-n candidates per document by combined rank score, all of them
    when fewer than n were retrieved; empty candidate sets yield ()."""
    if n < 1:
        raise ValueError("n must be positive")
    return {pid: tuple(r.label_id for r in rows[:n]) for pid, rows in scored.items()}


# ---------------------------------------------------------------------------
# label tree
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TreeNode:
    label_ids: tuple[str, ...] | None = None  # set on leaves only
    children: list["TreeNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.label_ids is not None

    @property
    def n_outputs(self) -> int:  # its classifier rows: per child, or per label on a leaf
        return len(self.label_ids) if self.is_leaf else len(self.children)


def _balanced_split(feats: np.ndarray, rng: np.random.Generator,
                    max_iter: int = 50) -> np.ndarray:
    """Two-way spherical clustering with split sizes differing by <= 1."""
    n = feats.shape[0]
    seeds = rng.choice(n, size=2, replace=False)
    centroids = feats[seeds].copy()
    left = np.zeros(n, dtype=bool)
    n_left = (n + 1) // 2
    for _ in range(max_iter):
        gap = feats @ centroids[0] - feats @ centroids[1]
        order = np.argsort(-gap, kind="stable")
        new_left = np.zeros(n, dtype=bool)
        new_left[order[:n_left]] = True
        if (new_left == left).all():
            break
        left = new_left
        for side, mask in ((0, left), (1, ~left)):
            c = feats[mask].mean(axis=0)
            norm = np.linalg.norm(c)
            centroids[side] = c / norm if norm > 0 else c
    return left


def build_label_tree(features: np.ndarray, label_ids: list[str], max_leaf: int,
                     seed: int) -> TreeNode:
    """Recursive balanced two-way clustering of labels down to leaf size.

    ``features`` rows align with ``label_ids``; all-zero rows (labels
    with no pseudo-positive documents) are pooled into one dedicated leaf.
    """
    if max_leaf < 1:
        raise ValueError("max_leaf must be positive")
    norms = np.linalg.norm(features, axis=1)
    featured = [i for i in range(len(label_ids)) if norms[i] > 0]
    unfeatured = [i for i in range(len(label_ids)) if norms[i] == 0]
    rng = np.random.default_rng(seed)

    if not featured:
        return TreeNode(label_ids=tuple(label_ids[i] for i in unfeatured))

    unit = features[featured] / norms[featured, None]
    # split in preorder, so the clustering draws from rng in a fixed order
    root = TreeNode()
    stack = [(root, np.arange(len(featured)))]
    while stack:
        node, rows = stack.pop()
        if rows.size <= max_leaf:
            node.label_ids = tuple(label_ids[featured[i]] for i in rows)
            continue
        left = _balanced_split(unit[rows], rng)
        node.children = [TreeNode(), TreeNode()]
        stack += [(node.children[1], rows[~left]), (node.children[0], rows[left])]
    if unfeatured:
        pooled = TreeNode(label_ids=tuple(label_ids[i] for i in unfeatured))
        root = TreeNode(children=[root, pooled])
    return root


def _first_rows(trees: list[TreeNode]) -> tuple[dict[int, int], int]:
    """Each node's first classifier row, keyed by ``id(node)``, and the
    total row count, when the rows are numbered tree by tree, each tree's
    nodes in preorder: the numbering of the fit, the search and the file."""
    first, n_rows = {}, 0
    for tree in trees:
        for node in preorder(tree):
            first[id(node)] = n_rows
            n_rows += node.n_outputs
    return first, n_rows


@dataclass
class ClassifierConfig:
    n_trees: int = 3
    max_leaf: int = 100
    epochs: int = 20
    learning_rate: float = 2.0
    l2: float = 1e-4
    seed: int = 0


def _in_row_space(n: int, n_cols: int, k: int, epochs: int) -> bool:
    """Whether _fit_logistic fits an n-row, k-output node in row space:
    when that needs fewer flops than the primal form and the node's Gram
    matrix has at most GRAM_MAX_ROWS rows."""
    primal = 2 * epochs * n * n_cols * k
    row_space = n * n * n_cols + 2 * epochs * n * n * k + 2 * n * n_cols * k
    return n <= GRAM_MAX_ROWS and row_space < primal


def _fit_logistic(X: CsrMatrix, rows: np.ndarray, Y: np.ndarray,
                  cfg: ClassifierConfig) -> tuple[np.ndarray, np.ndarray]:
    """Multi-output L2 logistic regression on ``rows`` of X, from zero.

    Column j of ``Y`` (rows x k) gets the full-batch gradient descent of
    kernels.logistic_epochs on its own: per epoch, ``D = (sigmoid(X W' +
    b) - Y) / n``, ``W <- s W - lr D'X`` and ``b <- b - lr sum(D)``, where
    ``s = 1 - lr l2``. Two exact forms of it run on dense row blocks:

    - primal: each epoch is one pass over the rows, a block product for
      the logits and a transposed one for the weight gradient
      (``2 E n C k`` flops for n rows, C columns, k outputs, E epochs);
    - row space: since W stays ``A'X`` for an n x k matrix A, build the
      Gram matrix ``K = X X'`` once from pairs of blocks, run each epoch
      as ``Z = K A + b``, ``A <- s A - lr D``, and form ``W = A'X`` at
      the end (``n^2 C + 2 E n^2 k + 2 n C k`` flops).

    A node is fitted in row space when that needs fewer flops and it has
    at most GRAM_MAX_ROWS rows (see _in_row_space). Returns the weights
    (k x n_cols) and biases (k,).
    """
    n, k = Y.shape
    W = np.zeros((k, X.n_cols))
    b = np.zeros(k)
    if n == 0:
        return W, b
    blocks = list(_row_blocks(X, rows))
    buf = np.zeros((min(n, BLOCK_ROWS), X.n_cols))
    part = np.empty_like(W)
    if _in_row_space(n, X.n_cols, k, cfg.epochs):
        K = np.empty((n, n))
        other = np.zeros_like(buf)
        for i, (top, left) in enumerate(_dense_blocks(blocks, buf)):
            here = slice(top, top + left.shape[0])
            for lo, right in _dense_blocks(blocks[:i + 1], other):
                there = slice(lo, lo + right.shape[0])
                K[here, there] = left @ right.T
                K[there, here] = K[here, there].T
        A = np.zeros((n, k))
        shrink = 1.0 - cfg.learning_rate * cfg.l2
        for _ in range(cfg.epochs):
            D = (_sigmoid(K @ A + b) - Y) / n
            A = shrink * A - cfg.learning_rate * D
            b -= cfg.learning_rate * D.sum(axis=0)
        for start, dense in _dense_blocks(blocks, buf):
            np.matmul(A[start:start + dense.shape[0]].T, dense, out=part)
            W += part
        return W, b
    D = np.empty((n, k))
    G = np.empty_like(W)
    for _ in range(cfg.epochs):
        G.fill(0.0)
        for start, dense in _dense_blocks(blocks, buf):
            stop = start + dense.shape[0]
            z = dense @ W.T
            z += b
            d = D[start:stop]
            np.subtract(_sigmoid(z), Y[start:stop], out=d)
            d /= n
            np.matmul(d.T, dense, out=part)
            G += part
        W -= cfg.learning_rate * (G + cfg.l2 * W)
        b -= cfg.learning_rate * D.sum(axis=0)
    return W, b


def train_tree(tree: TreeNode, X: CsrMatrix, member: np.ndarray, cfg: ClassifierConfig,
               weights: np.ndarray, biases: np.ndarray):
    """Fit routing and leaf classifiers on (normalized) document rows into
    the tree's rows of ``weights`` and ``biases``, numbered by _first_rows([tree]).

    ``member`` (rows x the tree's labels, its leaves' labels in preorder)
    is True where a row carries a label as a pseudo label, so the labels of
    every subtree are one contiguous column range. Documents descend toward
    every child whose subtree contains one of their labels; leaf
    classifiers are one-vs-all among the documents that reach the leaf.
    Each node fits all its classifiers as one multi-output regression.
    """
    if X.n_rows == 0:
        raise ValueError("no training documents")
    all_rows = np.flatnonzero(member.any(axis=1))
    if all_rows.size == 0:
        raise ValueError("no training documents carry pseudo labels")

    first, _ = _first_rows([tree])
    width = {}  # each subtree's label count
    for node in reversed(preorder(tree)):
        width[id(node)] = (node.n_outputs if node.is_leaf
                           else sum(width[id(c)] for c in node.children))

    stack = [(tree, all_rows, 0)]  # (node, its rows, its first membership column)
    while stack:
        node, rows, lo = stack.pop()
        # one output per label on a leaf, per child subtree on a routing node
        spans = [1] * node.n_outputs if node.is_leaf else [width[id(c)] for c in node.children]
        starts = np.cumsum([0] + spans[:-1])
        Y = np.logical_or.reduceat(member[rows, lo:lo + width[id(node)]], starts, axis=1)
        at = slice(first[id(node)], first[id(node)] + node.n_outputs)
        weights[at], biases[at] = _fit_logistic(X, rows, Y.astype(np.float64), cfg)
        stack += [(child, rows[Y[:, j]], lo + int(starts[j]))
                  for j, child in enumerate(node.children)]


@dataclass
class LabelTreeClassifier:
    """Label trees and their classifiers: row r of ``weights`` (rows x
    tf-idf features) and ``biases`` is the one that _first_rows numbers r."""
    label_ids: tuple[str, ...]
    trees: list[TreeNode]
    weights: np.ndarray
    biases: np.ndarray


def train_classifier(X: CsrMatrix, paper_ids: list[str],
                     pseudo: dict[str, tuple[str, ...]], label_ids: list[str],
                     cfg: ClassifierConfig) -> LabelTreeClassifier:
    """Build and fit the tree ensemble from pseudo-labeled documents.

    Tree topologies differ only by clustering seed. Label features for
    tree building are the mean raw tf-idf of each label's pseudo-positive
    documents. One papers x labels membership matrix gives both these
    features and every tree's training targets.
    """
    column = {lid: j for j, lid in enumerate(label_ids)}
    member = np.zeros((len(paper_ids), len(label_ids)), dtype=bool)
    for i, pid in enumerate(paper_ids):
        member[i, [column[lid] for lid in pseudo.get(pid, ())]] = True

    feats = np.zeros((len(label_ids), X.n_cols))
    for j in range(len(label_ids)):
        rows = np.flatnonzero(member[:, j])
        if rows.size:
            take, _ = _nonzeros(X, rows)
            feats[j] = np.bincount(X.indices[take], weights=X.data[take],
                                   minlength=X.n_cols) / rows.size

    trees = [build_label_tree(feats, label_ids, cfg.max_leaf, seed=cfg.seed + t)
             for t in range(cfg.n_trees)]
    del feats  # the fits need only the topologies; free the features before them
    first, n_rows = _first_rows(trees)
    weights, biases = np.zeros((n_rows, X.n_cols)), np.zeros(n_rows)
    Xn = _normalize_rows(X)
    for tree in trees:
        leaf_order = [column[lid] for node in preorder(tree) if node.is_leaf
                      for lid in node.label_ids]
        at = slice(first[id(tree)], None)  # train_tree writes the tree's rows from its first
        train_tree(tree, Xn, member[:, leaf_order], cfg, weights[at], biases[at])
    return LabelTreeClassifier(tuple(label_ids), trees, weights, biases)


@dataclass
class _Level:
    """One depth of a tree's beam search, nodes in preorder."""
    parent: np.ndarray  # each node's parent column in the level above
    row: np.ndarray  # each node's routing classifier row
    leaf_col: np.ndarray  # per leaf label: its leaf's column in this level
    leaf_row: np.ndarray  # per leaf label: its one-vs-all classifier row
    label_col: np.ndarray  # per leaf label: its position in label_ids


def _search_plan(tree: TreeNode, label_pos: dict[str, int], first: dict[int, int]):
    """Lay out a tree's beam search as one _Level per depth, with the
    classifier rows that ``first`` (from _first_rows) gives its nodes.
    Each level lists its nodes in preorder, since it takes its parents'
    children in order."""
    levels = []
    level = [(tree, 0, -1)]  # (node, parent column, routing classifier row)
    while level:
        nxt, leaf_col, leaf_row, label_col = [], [], [], []
        for c, (node, _, _) in enumerate(level):
            if node.is_leaf:
                for j, lid in enumerate(node.label_ids):
                    leaf_col.append(c)
                    leaf_row.append(first[id(node)] + j)
                    label_col.append(label_pos[lid])
            else:
                nxt.extend((child, c, first[id(node)] + j)
                           for j, child in enumerate(node.children))
        levels.append(_Level(*(np.array(v, dtype=np.int64) for v in (
            [p for _, p, _ in level], [r for _, _, r in level],
            leaf_col, leaf_row, label_col))))
        level = nxt
    return levels


def predict_blocks(clf: LabelTreeClassifier, X: CsrMatrix, beam_width: int):
    """Beam-search label probabilities for the rows of a tf-idf matrix,
    one dense block of at most BLOCK_ROWS rows at a time.

    Rows are L2-normalized to match training scaling. Per block, one
    product with ``clf.weights`` gives the logits of every classifier of
    every tree. The search then walks each tree level by level for all rows
    of the block at once, keeping per row the top ``beam_width`` nodes by
    path probability (ties go to the node earlier in preorder). Yields
    (first row, probabilities), the probabilities rows x labels in
    ``clf.label_ids`` order and averaged over the trees; a label whose leaf
    a row reaches in no tree gets 0.
    """
    if X.n_cols != clf.weights.shape[1]:
        raise ValueError(f"classifier was fitted on {clf.weights.shape[1]} tf-idf features but "
                         f"the corpus vocabulary has {X.n_cols}; rerun self-train")
    Xn = _normalize_rows(X)
    label_pos = {lid: j for j, lid in enumerate(clf.label_ids)}
    first, _ = _first_rows(clf.trees)
    plans = [_search_plan(tree, label_pos, first) for tree in clf.trees]
    buf = np.zeros((min(X.n_rows, BLOCK_ROWS), X.n_cols))
    for start, dense in _dense_blocks(_row_blocks(Xn, np.arange(X.n_rows)), buf):
        S = _sigmoid(dense @ clf.weights.T + clf.biases)
        probs = np.zeros((dense.shape[0], len(clf.label_ids)))
        for levels in plans:
            P = np.ones((dense.shape[0], 1))
            alive = np.ones(P.shape, dtype=bool)
            for depth, lvl in enumerate(levels):
                if depth:
                    P = P[:, lvl.parent] * S[:, lvl.row]
                    alive = alive[:, lvl.parent]
                if P.shape[1] > beam_width:
                    order = np.argsort(np.where(alive, -P, np.inf), axis=1, kind="stable")
                    keep = np.zeros_like(alive)
                    np.put_along_axis(keep, order[:, :beam_width], True, axis=1)
                    alive &= keep
                if lvl.leaf_col.size:
                    probs[:, lvl.label_col] += np.where(
                        alive[:, lvl.leaf_col], P[:, lvl.leaf_col] * S[:, lvl.leaf_row], 0.0)
        probs /= len(clf.trees)
        yield start, probs


# ---------------------------------------------------------------------------
# final merge
# ---------------------------------------------------------------------------


def final_rankings(pinned: list[list[str]], probs: np.ndarray, label_ids) -> list[list[str]]:
    """Final rankings of many papers: paper i keeps its pinned labels
    ``pinned[i]`` first, then every other label by probability ``probs[i]``
    (columns follow ``label_ids``), ties by label id. Each ranking is a
    permutation of the label space."""
    by_id = sorted(range(len(label_ids)), key=label_ids.__getitem__)
    ids = np.array([label_ids[j] for j in by_id], dtype=object)
    column = {lid: c for c, lid in enumerate(ids)}
    is_pinned = np.zeros((len(pinned), len(ids)), dtype=bool)
    for i, pins in enumerate(pinned):
        is_pinned[i, [column[lid] for lid in pins if lid in column]] = True
    order = np.argsort(-probs[:, by_id], axis=1, kind="stable")
    keep = ~np.take_along_axis(is_pinned, order, axis=1)
    return [list(pins) + ids[order[i, keep[i]]].tolist() for i, pins in enumerate(pinned)]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_classifier(clf: LabelTreeClassifier, path):
    """Write ``clf`` to ``path`` as a compressed npz: its classifier rows
    (``weights``, ``biases``) and the trees as JSON (``meta``), every
    tree's nodes in preorder, the order of the rows."""
    nodes = [node for tree in clf.trees for node in preorder(tree)]
    slot = {id(node): s for s, node in enumerate(nodes)}
    recs = [{"labels": list(node.label_ids)} if node.is_leaf else
            {"children": [slot[id(c)] for c in node.children]} for node in nodes]
    meta = {
        "version": CLASSIFIER_VERSION,
        "label_ids": list(clf.label_ids),
        "n_features": clf.weights.shape[1],
        "roots": [slot[id(tree)] for tree in clf.trees],
        "nodes": recs,
    }
    write_npz(path, {"weights": clf.weights, "biases": clf.biases,
                     "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)},
              compress=True)


def _tree_problem(recs: list[dict], roots: list, label_ids: list) -> str | None:
    """What keeps a classifier meta's ``nodes`` from being its trees, or
    None: a child that is not a later node, nodes that are not the trees'
    preorders one after another, or a tree whose leaf labels are not a
    permutation of the distinct ``label_ids``."""
    pos, want = 0, sorted(label_ids)  # pos: the node the preorder reaches next
    for t, root in enumerate(roots):
        labels, stack = [], [root]
        while stack:
            if stack.pop() != pos or pos == len(recs):
                return f"tree {t} does not continue the preorder at node {pos}"
            children = recs[pos].get("children", ())
            if not all(isinstance(c, int) and pos < c < len(recs) for c in children):
                return f"node {pos} lists children {children}, not all of them later nodes"
            labels += recs[pos].get("labels", ())
            stack.extend(reversed(children))
            pos += 1
        if sorted(labels) != want or len(set(want)) < len(want):
            return f"the leaves of tree {t} are not a permutation of the distinct label_ids"
    return f"the trees hold {pos} of {len(recs)} nodes" if pos < len(recs) else None


def load_classifier(path) -> LabelTreeClassifier:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("version") != CLASSIFIER_VERSION:
            raise ValueError(f"{path}: classifier version {meta.get('version')!r} is not "
                             f"{CLASSIFIER_VERSION}; rerun self-train")
        weights = data["weights"]
        biases = data["biases"]
    recs = meta["nodes"]
    problem = _tree_problem(recs, meta["roots"], meta["label_ids"])
    if problem:
        raise ValueError(f"{path}: {problem}; rerun self-train")
    nodes = [TreeNode(label_ids=tuple(rec["labels"]) if "labels" in rec else None)
             for rec in recs]
    for node, rec in zip(nodes, recs):
        node.children = [nodes[c] for c in rec.get("children", ())]
    n_rows = sum(node.n_outputs for node in nodes)  # the rows follow the nodes
    expected = (n_rows, meta["n_features"])
    if weights.dtype != np.float64 or weights.shape != expected or biases.shape != (n_rows,):
        raise ValueError(f"{path}: weights are {weights.dtype} {weights.shape} and biases "
                         f"{biases.shape}, but its meta names float64 {expected} and "
                         f"({n_rows},); rerun self-train")
    return LabelTreeClassifier(tuple(meta["label_ids"]), [nodes[r] for r in meta["roots"]],
                               weights, biases)
