"""Candidate retrieval: exact label-name matching over title+abstract.

A label is a candidate for a document when any of its names occurs as a
contiguous subsequence of the document's normalized token stream. Token
boundaries are respected: "art" never matches inside "particle".
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .corpus import Label, Paper, read_by_paper, tokenize, write_jsonl

log = logging.getLogger(__name__)

CANDIDATES_FIELDS = {"paper_id": "str", "candidates": "list[str]"}  # a candidates.jsonl line


@dataclass
class NameIndex:
    entries: dict[tuple[str, ...], frozenset[str]]
    max_len: int


def build_name_index(labels: list[Label]) -> NameIndex:
    """Index every normalized name of every label."""
    entries: dict[tuple[str, ...], set[str]] = {}
    max_len = 0
    for label in labels:
        for key in label.name_token_sequences():
            entries.setdefault(key, set()).add(label.id)
            max_len = max(max_len, len(key))
    return NameIndex(entries={k: frozenset(v) for k, v in entries.items()},
                     max_len=max_len)


def retrieve_candidates(paper: Paper, index: NameIndex,
                        full_text: bool = False) -> list[str]:
    """Label ids whose name occurs in the paper, sorted ascending.

    Matching runs over the title+abstract token sequence; ``full_text``
    extends it with every body paragraph (ablation use only).
    """
    tokens = paper.full_text_tokens() if full_text else tokenize(paper.title_abstract)
    found: set[str] = set()
    n = len(tokens)
    for i in range(n):
        limit = min(index.max_len, n - i)
        for length in range(1, limit + 1):
            ids = index.entries.get(tuple(tokens[i:i + length]))
            if ids:
                found |= ids
    return sorted(found)


@dataclass
class CandidateStats:
    n_papers: int
    mean_candidates: float  # lambda in the retrieval cost model
    n_empty: int


def candidate_stats(candidates: dict[str, list[str]]) -> CandidateStats:
    n = len(candidates)
    total = sum(len(c) for c in candidates.values())
    empty = sum(1 for c in candidates.values() if not c)
    if n and empty == n:
        log.warning("every candidate set is empty")
    return CandidateStats(n_papers=n, mean_candidates=total / n if n else 0.0,
                          n_empty=empty)


def write_candidates(candidates: dict[str, list[str]], path):
    write_jsonl(({"paper_id": pid, "candidates": c} for pid, c in candidates.items()), path)


def read_candidates(path) -> dict[str, list[str]]:
    return read_by_paper(path, CANDIDATES_FIELDS, lambda rec: rec["candidates"])
