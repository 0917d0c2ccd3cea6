"""Hierarchy aggregation, candidate scoring and reciprocal-rank ensembling.

Each internal tree node's embedding is the plain mean of its children's
embeddings, bottom-up; the root embedding represents the whole document.
Candidates are scored two ways (cosine against the root embedding, and a
joint score over title+abstract and label text) and the two rankings are
combined by summing reciprocal ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import HierarchyNode, Paper, preorder, read_by_paper, write_jsonl
from . import encoder


@dataclass
class AggregatedEmbeddings:
    by_node: dict[HierarchyNode, np.ndarray]
    root: np.ndarray  # the document embedding


def aggregate_hierarchy(paper: Paper, leaf_embeddings,
                        fallback: np.ndarray | None = None) -> AggregatedEmbeddings:
    """Bottom-up mean aggregation over the document tree.

    ``leaf_embeddings`` align with ``paper.paragraphs`` order. Documents
    with no paragraphs take ``fallback`` (their title+abstract embedding)
    as the root.
    """
    leaves = paper.paragraphs
    if len(leaves) != len(leaf_embeddings):
        raise ValueError("leaf embedding count does not match paragraph count")
    if not leaves:
        if fallback is None:
            raise ValueError(f"paper {paper.id!r} is empty and no fallback was given")
        return AggregatedEmbeddings(by_node={}, root=np.asarray(fallback, dtype=np.float64))

    by_node = {node: np.asarray(e, dtype=np.float64) for node, e in zip(leaves, leaf_embeddings)}
    for node in reversed(preorder(paper.hierarchy)):  # children before their parent
        if node.kind != "paragraph":
            by_node[node] = sum(by_node[c] for c in node.children) / len(node.children)
    return AggregatedEmbeddings(by_node=by_node, root=by_node[paper.hierarchy])


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def score_bi(root_embedding: np.ndarray, label_embeddings: dict[str, np.ndarray],
             candidate_ids) -> dict[str, float]:
    """Cosine between the aggregated document embedding and each candidate."""
    return {lid: cosine(root_embedding, label_embeddings[lid]) for lid in candidate_ids}


def score_cross(model: encoder.ScorerModel, u: np.ndarray,
                label_embeddings: dict[str, np.ndarray], candidate_ids) -> dict[str, float]:
    """Joint score of the title+abstract embedding ``u`` and each
    candidate's label embedding."""
    return {lid: encoder.cross_score_pair(model, u, label_embeddings[lid])
            for lid in candidate_ids}


@dataclass(frozen=True)
class CandidateScore:
    label_id: str
    score_b: float
    score_x: float
    rank_b: int
    rank_x: int
    mrr: float


def _ranks(scores: dict[str, float]) -> dict[str, int]:
    # descending score, ties broken by ascending label id; 1-based positions
    ordered = sorted(scores, key=lambda lid: (-scores[lid], lid))
    return {lid: i + 1 for i, lid in enumerate(ordered)}


def mrr_combine(score_b: dict[str, float], score_x: dict[str, float]) -> list[CandidateScore]:
    """Sum of reciprocal ranks under the two scorers, sorted descending."""
    if set(score_b) != set(score_x):
        raise ValueError("the two score maps must cover the same candidates")
    if not score_b:
        return []
    r_b = _ranks(score_b)
    r_x = _ranks(score_x)
    rows = [CandidateScore(label_id=lid, score_b=score_b[lid], score_x=score_x[lid],
                           rank_b=r_b[lid], rank_x=r_x[lid],
                           mrr=1.0 / r_b[lid] + 1.0 / r_x[lid])
            for lid in score_b]
    rows.sort(key=lambda r: (-r.mrr, r.label_id))
    return rows


def write_scores(scored: dict[str, list[CandidateScore]], path):
    write_jsonl(({"paper_id": pid, "candidates": [vars(r) for r in rows]}
                 for pid, rows in scored.items()), path)


def read_scores(path) -> dict[str, list[CandidateScore]]:
    return read_by_paper(path, lambda rec: [CandidateScore(**c) for c in rec["candidates"]])
