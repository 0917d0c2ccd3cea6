"""Self-training: tf-idf features, pseudo labels, label-tree classifier.

Confident candidate predictions (top-N by the combined reciprocal-rank
score) become pseudo labels for training an ensemble of balanced binary
label trees with logistic routing and one-vs-all leaf classifiers,
predicted via per-level beam search. The classifier reranks every label
outside the pinned top-N, so documents can receive labels that the
name-matching retrieval stage could never surface.

The trees are one table of node records, tree after tree and each tree
in preorder (LabelTreeClassifier): the fit, the search and
``classifier.npz`` read and write that one form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .corpus import Vocabulary, _check, read_npz, write_npz
from .kernels import CsrMatrix, _dense_blocks, _nonzeros, _row_blocks, _sigmoid
from .ranker import CandidateScore

CLASSIFIER_VERSION = 1
BLOCK_ROWS = 128  # rows per dense block in the fitting and prediction products
# most bytes of a Gram matrix, a leaf's or the one every node shares: 1,254 rows
GRAM_MAX_BYTES = 12 * 2 ** 20
# a fitted weight of smaller magnitude becomes +0.0, as Parabel prunes its classifiers: it
# moves a unit-norm row's logit by under this much per feature
PRUNE_BELOW = 0.01


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def tfidf_from_terms(terms: tuple[list[str], CsrMatrix], vocab: Vocabulary) -> CsrMatrix:
    """tf(w, d) * ln(|D| / df(w)) over each paper's full-text term counts.

    Row i is paper i with its columns ascending. Words outside the
    vocabulary, and words present in every document (zero idf), contribute
    no entries.
    """
    words, counts = terms
    # a word outside the vocabulary maps to one extra column of zero idf
    column = np.array([vocab.word_index.get(w, len(vocab)) for w in words], dtype=np.int64)
    idf = np.append(np.log(vocab.n_docs / vocab.doc_freq), 0.0)
    cols = column[counts.indices]
    vals = counts.data * idf[cols]
    keep = np.flatnonzero(vals)
    rows = np.repeat(np.arange(counts.n_rows), np.diff(counts.indptr))[keep]
    cols, vals = cols[keep], vals[keep]
    order = np.argsort(rows * len(vocab) + cols)
    return CsrMatrix(
        data=vals[order], indices=cols[order],
        indptr=np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=counts.n_rows)))),
        n_rows=counts.n_rows, n_cols=len(vocab),
    )


def _normalize_rows(X: CsrMatrix) -> CsrMatrix:
    data = X.data.copy()
    for i in range(X.n_rows):
        lo, hi = X.indptr[i], X.indptr[i + 1]
        norm = math.sqrt(float(data[lo:hi] @ data[lo:hi]))
        if norm > 0.0:
            data[lo:hi] /= norm
    return CsrMatrix(data, X.indices, X.indptr, X.n_rows, X.n_cols)


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
                     seed: int, start: int = 0) -> list[dict]:
    """Recursive balanced two-way clustering of labels down to leaf size.

    ``features`` rows align with ``label_ids``; all-zero rows (labels
    with no pseudo-positive documents) are pooled into one dedicated leaf,
    last, under a new root. Returns the tree's nodes in preorder, root
    first: a leaf is ``{"labels": [label ids]}``, a routing node
    ``{"children": [positions]}``, positions counted from ``start``.
    """
    if max_leaf < 1:
        raise ValueError("max_leaf must be positive")
    norms = np.linalg.norm(features, axis=1)
    featured = [i for i in range(len(label_ids)) if norms[i] > 0]
    unfeatured = [i for i in range(len(label_ids)) if norms[i] == 0]
    rng = np.random.default_rng(seed)

    if not featured:
        return [{"labels": [label_ids[i] for i in unfeatured]}]

    unit = features[featured] / norms[featured, None]
    top = {"children": []}  # the new root over the pooled leaf, if there is one
    nodes = [top] if unfeatured else []
    # split in preorder, so the clustering draws from rng in a fixed order
    stack = [(top, np.arange(len(featured)))]  # (parent, rows)
    while stack:
        parent, rows = stack.pop()
        parent["children"].append(start + len(nodes))
        if rows.size <= max_leaf:
            nodes.append({"labels": [label_ids[featured[i]] for i in rows]})
            continue
        left = _balanced_split(unit[rows], rng)
        nodes.append({"children": []})
        stack += [(nodes[-1], rows[~left]), (nodes[-1], rows[left])]
    if unfeatured:
        top["children"].append(start + len(nodes))
        nodes.append({"labels": [label_ids[i] for i in unfeatured]})
    return nodes


def _first_rows(nodes: list[dict]) -> np.ndarray:
    """Node p's classifier rows are ``first[p]:first[p + 1]``, one per label
    on a leaf and one per child on a routing node: rows follow the nodes,
    tree by tree and each tree in preorder, in the fit, the search and the
    file. ``first[-1]`` is the row count."""
    return np.cumsum([0] + [len(rec["labels"]) if "labels" in rec else len(rec["children"])
                            for rec in nodes])


def _uses_gram(n: int, n_cols: int, k: int, epochs: int, given: bool = False) -> bool:
    """Whether _fit_logistic forms an n-row, k-output fit's logits from a
    Gram matrix: when that needs fewer flops than forming them from the
    weights, the cost of building the Gram matrix counted unless it is
    ``given``, and the n x n Gram matrix takes at most GRAM_MAX_BYTES."""
    from_weights = 2 * epochs * n * n_cols * k
    from_gram = (0 if given else n * n * n_cols) + 2 * epochs * n * n * k + 2 * n * n_cols * k
    return 8 * n * n <= GRAM_MAX_BYTES and from_gram < from_weights


def _gram(X: CsrMatrix, rows: np.ndarray) -> np.ndarray:
    """The Gram matrix ``K = X X'`` over ``rows`` of X, from pairs of dense
    row blocks. It is exactly symmetric: a block and its mirror are one
    product, and a diagonal block is ``B B'``, which numpy mirrors itself."""
    n = rows.size
    blocks = list(_row_blocks(X, rows, BLOCK_ROWS))
    buf = np.zeros((min(n, BLOCK_ROWS), X.n_cols))
    other = np.zeros_like(buf)
    K = np.empty((n, n))
    for i, (top, left) in enumerate(_dense_blocks(blocks, buf)):
        here = slice(top, top + left.shape[0])
        K[here, here] = left @ left.T
        for lo, right in _dense_blocks(blocks[:i], other):
            there = slice(lo, lo + right.shape[0])
            K[here, there] = left @ right.T
            K[there, here] = K[here, there].T
    return K


def _fit_logistic(X: CsrMatrix, rows: np.ndarray, Y: np.ndarray, cfg: PipelineConfig,
                  K: np.ndarray | None = None, at: np.ndarray | None = None,
                  sizes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Multi-output L2 logistic regression on ``rows`` of X, from zero.

    Column j of ``Y`` (rows x k) gets the full-batch gradient descent of
    kernels.logistic_epochs on its own, with ``cfg``'s classifier_lr,
    classifier_l2 and E = classifier_epochs epochs. The weights stay ``W =
    A'X`` for an n x k matrix A over the n rows, so the descent runs on
    ``A'``: per epoch, ``Z = W X' + b``, ``D = (sigmoid(Z) - Y') / sizes'``,
    ``A' <- s A' - lr D`` and ``b <- b - lr sum(D)``, where ``s = 1 - lr
    l2``, and ``W = A'X`` is formed once at the end from dense row blocks.
    ``sizes`` (rows x k) divides D cell by cell, every cell by n when it is
    None; D is exactly 0 in an ``inf`` cell, so one call can fit many nodes
    (_fit_nodes). An epoch's logits come one of two ways:

    - from the Gram matrix ``K = X X'`` of the rows, as ``A' K`` (``(K
      A)'``, as K is exactly symmetric, and the faster layout);
    - without one, as ``W = A'X`` and then ``W X'``, two passes over the
      dense row blocks.

    ``K``, if given, is the Gram matrix of a set of rows that holds
    ``rows`` at its positions ``at`` (all of them when ``at`` is None), and
    its sub-block is taken instead of building one. A Gram matrix is used
    when that needs fewer flops and it takes at most GRAM_MAX_BYTES (see
    _uses_gram). Returns the weights (k x n_cols) and biases (k,).
    """
    n, k = Y.shape
    W = np.zeros((k, X.n_cols))
    b = np.zeros(k)
    if n == 0:
        return W, b
    sizes = np.broadcast_to(float(n) if sizes is None else sizes, Y.shape)
    gram = _uses_gram(n, X.n_cols, k, cfg.classifier_epochs, K is not None)
    if gram and K is None:
        K = _gram(X, rows)
    elif gram and at is not None:
        K = K[np.ix_(at, at)]
    blocks = list(_row_blocks(X, rows, BLOCK_ROWS))
    buf = np.zeros((min(n, BLOCK_ROWS), X.n_cols))
    part = np.empty_like(W)
    At = np.zeros((k, n))  # A'
    Z = np.empty((k, n))
    shrink = 1.0 - cfg.classifier_lr * cfg.classifier_l2

    def weights() -> np.ndarray:  # W = A'X
        W.fill(0.0)
        for start, dense in _dense_blocks(blocks, buf):
            np.matmul(At[:, start:start + dense.shape[0]], dense, out=part)
            np.add(W, part, out=W)
        return W

    for _ in range(cfg.classifier_epochs):
        if gram:
            np.matmul(At, K, out=Z)
        else:
            weights()
            for start, dense in _dense_blocks(blocks, buf):
                np.matmul(W, dense.T, out=Z[:, start:start + dense.shape[0]])
        Z += b[:, None]
        D = (_sigmoid(Z) - Y.T) / sizes.T
        At = shrink * At - cfg.classifier_lr * D
        b -= cfg.classifier_lr * D.sum(axis=1)
    return weights(), b


def _fit_nodes(nodes: list[dict], positions, X: CsrMatrix, member: np.ndarray,
               cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """The weights and biases of every row _first_rows(nodes) numbers: those
    of ``positions`` of ``nodes`` fitted on (normalized) rows of X, the rest 0.

    ``member`` (rows x every leaf's labels, in table order) is True where a
    row carries a pseudo label. A subtree's leaves are consecutive in
    preorder, so node p's labels are the columns ``lo[p]:hi[p]``, its rows
    those with a label there and its targets, one per label on a leaf and
    one per child on a routing node, whether a row has a label in that part
    of the span. No node reads another's fit, so any order fits them alike.

    The routing nodes of ``positions`` fit in one _fit_logistic call over
    the rows that carry a label: their targets stand side by side in table
    order (whatever the order of ``positions``), 0 off each node's rows,
    and ``sizes`` holds each node's row count on its rows and columns and
    ``inf`` elsewhere. Each leaf fits in a call of its own, on its rows.
    When the Gram matrix of the labelled rows takes at most GRAM_MAX_BYTES,
    it is built once and every call takes it or its sub-block.
    """
    labelled = np.flatnonzero(member.any(axis=1))
    if labelled.size == 0:
        raise ValueError("no training documents carry pseudo labels")
    K = _gram(X, labelled) if 8 * labelled.size ** 2 <= GRAM_MAX_BYTES else None
    lo = np.cumsum([0] + [len(rec.get("labels", ())) for rec in nodes])
    hi = lo[1:].copy()  # a routing node's span ends where its last child's does
    for pos in reversed(range(len(nodes))):
        if "children" in nodes[pos]:
            hi[pos] = hi[nodes[pos]["children"][-1]]
    first = _first_rows(nodes)
    weights, biases = np.zeros((first[-1], X.n_cols)), np.zeros(first[-1])
    positions = sorted(positions)
    routing = [pos for pos in positions if "children" in nodes[pos]]
    if routing:
        Y, sizes = [], []
        for pos in routing:
            y = np.logical_or.reduceat(member[labelled, lo[pos]:hi[pos]],
                                       lo[nodes[pos]["children"]] - lo[pos], axis=1)
            on = y.any(axis=1)
            Y.append(y)
            sizes.append(np.broadcast_to(np.where(on, on.sum(), np.inf)[:, None], y.shape))
        out = np.concatenate([np.arange(first[pos], first[pos + 1]) for pos in routing])
        weights[out], biases[out] = _fit_logistic(X, labelled, np.hstack(Y).astype(np.float64),
                                                  cfg, K, sizes=np.hstack(sizes))
    for pos in positions:
        if "labels" in nodes[pos]:
            span = member[:, lo[pos]:hi[pos]]
            rows = np.flatnonzero(span.any(axis=1))
            at = None if rows.size == labelled.size else np.searchsorted(labelled, rows)
            out = slice(first[pos], first[pos + 1])
            weights[out], biases[out] = _fit_logistic(X, rows, span[rows].astype(np.float64),
                                                      cfg, K, at)
    return weights, biases


@dataclass
class LabelTreeClassifier:
    """Label trees and their classifiers, as ``classifier.npz`` stores them.

    ``nodes`` lists every tree's nodes, tree after tree, each tree in
    preorder; ``roots`` gives each tree's root position. A leaf is
    ``{"labels": [label ids]}``, a routing node ``{"children":
    [positions]}``. Row r of ``weights`` (rows x tf-idf features) and
    ``biases`` is the one that _first_rows(nodes) numbers r.
    """
    label_ids: tuple[str, ...]
    roots: list[int]
    nodes: list[dict]
    weights: np.ndarray
    biases: np.ndarray


def train_classifier(X: CsrMatrix, paper_ids: list[str],
                     pseudo: dict[str, tuple[str, ...]], label_ids: list[str],
                     cfg: PipelineConfig, seed: int = 0) -> LabelTreeClassifier:
    """Build and fit the tree ensemble from pseudo-labeled documents.

    Reads ``cfg``'s n_trees and max_leaf (and _fit_logistic's fields). Tree
    topologies differ only by clustering seed, ``seed + t`` for tree t.
    Label features for tree building are the mean raw tf-idf of each
    label's pseudo-positive documents. One papers x labels membership
    matrix gives these features; reordered once to the table's leaf order,
    it gives every node of every tree its rows and targets from the node's
    label span, and one pass over the table fits them (_fit_nodes). Last,
    every weight under PRUNE_BELOW in magnitude is cut to +0.0 (prune).
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

    roots, nodes = [], []
    for t in range(cfg.n_trees):
        roots.append(len(nodes))
        nodes += build_label_tree(feats, label_ids, cfg.max_leaf, seed=seed + t,
                                  start=len(nodes))
    del feats  # the fits need only the topologies; free the features before them
    member = member[:, [column[lid] for rec in nodes for lid in rec.get("labels", ())]]
    weights, biases = _fit_nodes(nodes, range(len(nodes)), _normalize_rows(X), member, cfg)
    return LabelTreeClassifier(tuple(label_ids), roots, nodes, prune(weights), biases)


def prune(weights: np.ndarray) -> np.ndarray:
    """``weights`` with every value of magnitude under PRUNE_BELOW set to
    +0.0 in place, BLOCK_ROWS rows at a time, so the mask is one block's."""
    for lo in range(0, len(weights), BLOCK_ROWS):
        block = weights[lo:lo + BLOCK_ROWS]
        block[np.abs(block) < PRUNE_BELOW] = 0.0
    return weights


@dataclass
class _Level:
    """One depth of a tree's beam search, nodes in preorder."""
    parent: np.ndarray  # each node's parent column in the level above
    row: np.ndarray  # each node's routing classifier row
    leaf_col: np.ndarray  # per leaf label: its leaf's column in this level
    leaf_row: np.ndarray  # per leaf label: its one-vs-all classifier row
    label_col: np.ndarray  # per leaf label: its position in label_ids


def _search_plan(nodes: list[dict], root: int, label_pos: dict[str, int], first: np.ndarray):
    """Lay out the beam search of the tree at position ``root`` of
    ``nodes`` as one _Level per depth, with the classifier rows that
    ``first`` (from _first_rows) gives its nodes. Each level lists its
    nodes in preorder, since it takes its parents' children in order."""
    levels = []
    level = [(root, 0, -1)]  # (node, parent column, routing classifier row)
    while level:
        nxt, leaf_col, leaf_row, label_col = [], [], [], []
        for c, (pos, _, _) in enumerate(level):
            rec, row = nodes[pos], int(first[pos])
            for j, lid in enumerate(rec.get("labels", ())):
                leaf_col.append(c)
                leaf_row.append(row + j)
                label_col.append(label_pos[lid])
            nxt.extend((child, c, row + j) for j, child in enumerate(rec.get("children", ())))
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
    if X.n_cols != clf.weights.shape[1]:  # raised at the call, not at the first block
        raise ValueError(f"classifier was fitted on {clf.weights.shape[1]} tf-idf features but "
                         f"the corpus vocabulary has {X.n_cols}")
    return _beam_blocks(clf, _normalize_rows(X), beam_width)


def _beam_blocks(clf: LabelTreeClassifier, Xn: CsrMatrix, beam_width: int):
    label_pos = {lid: j for j, lid in enumerate(clf.label_ids)}
    first = _first_rows(clf.nodes)
    plans = [_search_plan(clf.nodes, root, label_pos, first) for root in clf.roots]
    buf = np.zeros((min(Xn.n_rows, BLOCK_ROWS), Xn.n_cols))
    for start, dense in _dense_blocks(_row_blocks(Xn, np.arange(Xn.n_rows), BLOCK_ROWS), buf):
        logits = dense @ clf.weights.T
        logits += clf.biases
        S = _sigmoid(logits)
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
        probs /= len(clf.roots)
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
    (``weights``, ``biases``) and, as JSON (``meta``), its ``label_ids``,
    ``roots`` and ``nodes`` as they are."""
    meta = {
        "version": CLASSIFIER_VERSION,
        "label_ids": list(clf.label_ids),
        "n_features": clf.weights.shape[1],
        "roots": clf.roots,
        "nodes": clf.nodes,
    }
    write_npz(path, {"weights": clf.weights, "biases": clf.biases}, meta)


META_FIELDS = {"version": "int", "label_ids": "list[str]", "n_features": "int",
               "roots": "list[int]", "nodes": "list[object]"}  # classifier.npz's meta
NODE_FIELDS = {"labels?": "list[str]", "children?": "list[int]"}  # each of its nodes


def _member_shapes(meta: dict) -> dict:
    """The shapes of a classifier's ``weights`` and ``biases`` under its meta (of
    META_FIELDS); ValueError if the meta holds no classifier's trees: no ``roots``, a node
    not of NODE_FIELDS or holding not exactly one of ``labels`` and ``children``, a child
    that is not a later node, nodes that are not the trees' preorders in turn, or a tree
    whose leaves are not a permutation of ``label_ids``."""
    roots, recs, label_ids = meta["roots"], meta["nodes"], meta["label_ids"]
    if not roots:
        raise ValueError("roots is empty")
    for pos, rec in enumerate(recs):
        try:
            _check(rec, NODE_FIELDS)
        except TypeError as exc:
            raise ValueError(f"node {pos}: {exc}") from None
        if ("labels" in rec) == ("children" in rec):
            raise ValueError(f"node {pos} holds not exactly one of labels and children")
    pos, want = 0, sorted(label_ids)  # pos: the node the preorder reaches next
    for t, root in enumerate(roots):
        labels, stack = [], [root]
        while stack:
            if stack.pop() != pos or pos == len(recs):
                raise ValueError(f"tree {t} does not continue the preorder at node {pos}")
            children = recs[pos].get("children", [])
            if not all(pos < c < len(recs) for c in children):
                raise ValueError(f"node {pos} lists children {children}, "
                                 "not all of them later nodes")
            labels += recs[pos].get("labels", [])
            stack.extend(reversed(children))
            pos += 1
        if sorted(labels) != want or len(set(want)) < len(want):
            raise ValueError(f"the leaves of tree {t} are not a permutation "
                             "of the distinct label_ids")
    if pos < len(recs):
        raise ValueError(f"the trees hold {pos} of {len(recs)} nodes")
    n_rows = int(_first_rows(recs)[-1])  # the rows follow the nodes
    return {"weights": (n_rows, meta["n_features"]), "biases": (n_rows,)}


def load_classifier(path) -> LabelTreeClassifier:
    meta, members = read_npz(path, "classifier", CLASSIFIER_VERSION, META_FIELDS, _member_shapes)
    nodes = [{key: rec[key]} for rec in meta["nodes"] for key in ("labels", "children")
             if key in rec]  # the known key of each node only
    return LabelTreeClassifier(tuple(meta["label_ids"]), meta["roots"], nodes,
                               members["weights"], members["biases"])
