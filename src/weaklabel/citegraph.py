"""Cross-document citation graph, meta-path neighborhoods, tuple sampling."""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .corpus import _check, read_jsonl, write_jsonl

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MetaPath:
    """A typed edge-direction sequence walked from a source document.

    ``("out",)`` reaches the documents a source cites; ``("out", "in")``
    reaches documents sharing at least one cited document with the source.
    """

    steps: tuple[str, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("meta-path needs at least one step")
        for s in self.steps:
            if s not in ("out", "in"):
                raise ValueError(f"unknown edge direction {s!r}")

    @classmethod
    def parse(cls, text: str) -> "MetaPath":
        """Parse forms like ``P->P`` or ``P->P<-P``."""
        steps = []
        rest = text.strip()
        if not rest.startswith("P"):
            raise ValueError(f"cannot parse meta-path {text!r}")
        rest = rest[1:]
        while rest:
            if rest.startswith("->P"):
                steps.append("out")
                rest = rest[3:]
            elif rest.startswith("<-P"):
                steps.append("in")
                rest = rest[3:]
            else:
                raise ValueError(f"cannot parse meta-path {text!r}")
        return cls(tuple(steps))

    def __str__(self) -> str:
        return "P" + "".join("->P" if s == "out" else "<-P" for s in self.steps)


CITES = MetaPath(("out",))          # P->P
CO_REFERENCE = MetaPath(("out", "in"))  # P->P<-P


@dataclass
class CitationGraph:
    nodes: tuple[str, ...]
    out_edges: dict[str, frozenset[str]]
    in_edges: dict[str, frozenset[str]]
    dangling_refs: int


def build_graph(corpus) -> CitationGraph:
    """Directed edges d_i -> d_j for every in-corpus reference.

    References pointing outside the corpus are dropped (counted), as are
    self-citations.
    """
    ids = [p.id for p in corpus]
    known = set(ids)
    out: dict[str, set[str]] = {pid: set() for pid in ids}
    inc: dict[str, set[str]] = {pid: set() for pid in ids}
    dangling = 0
    for paper in corpus:
        for ref in paper.bib_refs:
            if ref == paper.id:
                continue
            if ref not in known:
                dangling += 1
                continue
            out[paper.id].add(ref)
            inc[ref].add(paper.id)
    if dangling:
        log.info("dropped %d dangling references", dangling)
    return CitationGraph(
        nodes=tuple(ids),
        out_edges={k: frozenset(v) for k, v in out.items()},
        in_edges={k: frozenset(v) for k, v in inc.items()},
        dangling_refs=dangling,
    )


def neighborhood(graph: CitationGraph, paper_id: str, path: MetaPath) -> frozenset[str]:
    """Documents reachable from ``paper_id`` along the meta-path, minus itself."""
    if paper_id not in graph.out_edges:
        raise KeyError(f"unknown paper id {paper_id!r}")
    frontier = {paper_id}
    for step in path.steps:
        adj = graph.out_edges if step == "out" else graph.in_edges
        nxt: set[str] = set()
        for node in frontier:
            nxt |= adj[node]
        frontier = nxt
    frontier.discard(paper_id)
    return frozenset(frontier)


@dataclass(frozen=True)
class ContrastiveTuple:
    """(paper id, paragraph index) references for anchor/positive/negative."""

    anchor: tuple[str, int]
    positive: tuple[str, int]
    negative: tuple[str, int]


def sample_tuples(graph: CitationGraph, corpus, path: MetaPath, count: int,
                  seed: int) -> list[ContrastiveTuple]:
    """Seeded sampling of training tuples, with replacement.

    Anchors are uniform over documents that have at least one paragraph,
    a nonempty neighborhood containing a paragraph-bearing document, and
    at least one paragraph-bearing non-neighbor. Positives are uniform
    over the neighborhood, negatives uniform over the complement, and
    paragraphs uniform within each document.
    """
    if count < 1:
        raise ValueError("count must be positive")
    papers = {p.id: p for p in corpus}
    eligible = [pid for pid in graph.nodes if papers[pid].paragraphs]
    eligible_set = set(eligible)

    anchors = []
    pos_pool: dict[str, list[str]] = {}
    hood: dict[str, frozenset[str]] = {}
    for pid in eligible:
        nb = neighborhood(graph, pid, path)
        positives = sorted(n for n in nb if n in eligible_set)
        n_negatives = len(eligible) - len(positives) - 1
        if positives and n_negatives > 0:
            anchors.append(pid)
            pos_pool[pid] = positives
            hood[pid] = nb
    if not anchors:
        raise ValueError(f"graph too sparse for meta-path {path}")

    rng = np.random.default_rng(seed)
    out: list[ContrastiveTuple] = []
    n_eligible = len(eligible)
    for _ in range(count):
        a = anchors[rng.integers(len(anchors))]
        pos = pos_pool[a][rng.integers(len(pos_pool[a]))]
        excluded = hood[a]
        while True:  # rejection keeps negatives uniform over the complement
            neg = eligible[rng.integers(n_eligible)]
            if neg != a and neg not in excluded:
                break
        out.append(ContrastiveTuple(
            anchor=(a, int(rng.integers(len(papers[a].paragraphs)))),
            positive=(pos, int(rng.integers(len(papers[pos].paragraphs)))),
            negative=(neg, int(rng.integers(len(papers[neg].paragraphs)))),
        ))
    return out


TUPLE_FIELDS = {f.name: f.type for f in fields(ContrastiveTuple)}  # a tuples.jsonl line


def write_tuples(tuples, path):
    write_jsonl(({k: list(getattr(t, k)) for k in TUPLE_FIELDS} for t in tuples), path)


def read_tuples(path) -> list[ContrastiveTuple]:
    """The tuples of a ``write_tuples`` file; a reference that is not a
    [string, int] pair fails like any malformed line."""
    return [ContrastiveTuple(*[tuple(rec[k]) for k in TUPLE_FIELDS])
            for rec in read_jsonl(path, lambda rec: _check(rec, TUPLE_FIELDS))]
