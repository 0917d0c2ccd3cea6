"""Hierarchy aggregation, candidate scoring and reciprocal-rank ensembling.

A section's embedding is the plain mean of its children's, bottom-up, and
the document's (the root embedding) is the mean of its top-level children.
Candidates are scored two ways (cosine against the root embedding, and a
joint score over title+abstract and label text) and the two rankings are
combined by summing reciprocal ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .corpus import Paper, _check, read_by_paper, write_jsonl
from . import encoder


def aggregate_hierarchy(paper: Paper, leaf_embeddings,
                        fallback: np.ndarray | None = None) -> np.ndarray:
    """The document embedding: bottom-up mean aggregation over the hierarchy.

    ``leaf_embeddings`` align with ``paper.paragraphs``. A document with
    no paragraphs takes ``fallback`` (its title+abstract embedding).
    """
    if len(paper.paragraphs) != len(leaf_embeddings):
        raise ValueError("leaf embedding count does not match paragraph count")
    if not paper.paragraphs:
        if fallback is None:
            raise ValueError(f"paper {paper.id!r} is empty and no fallback was given")
        return np.asarray(fallback, dtype=np.float64)

    return _mean(paper.hierarchy, iter(leaf_embeddings), paper.id)


def _mean(node: list, leaves, pid: str) -> np.ndarray:
    """The mean of the values of ``node``'s children, a paragraph's value the
    next of ``leaves`` and a section's its own ``_mean``."""
    if not node:
        raise ValueError(f"paper {pid!r} has a section with no paragraphs")
    values = [np.asarray(next(leaves), dtype=np.float64) if isinstance(child, str)
              else _mean(child, leaves, pid) for child in node]
    return sum(values) / len(values)


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


SCORES_FIELDS = {"paper_id": "str", "candidates": "list[object]"}  # a scores.jsonl line
CANDIDATE_FIELDS = {f.name: f.type for f in fields(CandidateScore)}  # each of its candidates


def read_scores(path) -> dict[str, list[CandidateScore]]:
    return read_by_paper(path, SCORES_FIELDS, lambda rec: [
        CandidateScore(*map(_check(c, CANDIDATE_FIELDS).__getitem__, CANDIDATE_FIELDS))
        for c in rec["candidates"]])
