import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklabel.citegraph import (
    CITES, CO_REFERENCE, ContrastiveTuple, MetaPath, build_graph, neighborhood, read_tuples,
    sample_tuples, write_tuples,
)
from weaklabel.corpus import CorpusError

from conftest import load_corpus_records, paper_record


def corpus_with_refs(tmp_path, edges, n=None, paragraphs=1):
    """edges: dict paper -> list of cited papers; nodes inferred."""
    ids = sorted(set(edges) | {r for refs in edges.values() for r in refs})
    if n is not None:
        ids = sorted(set(ids) | {f"p{i}" for i in range(n)})
    recs = [paper_record(pid, sections=[{"name": "s", "paragraphs": [
        f"{pid} body paragraph with enough words to survive filtering {i}"
        for i in range(paragraphs)]}], bib_refs=edges.get(pid, []))
            for pid in ids]
    return load_corpus_records(tmp_path, recs)


class TestMetaPath:
    def test_parse_roundtrip(self):
        assert MetaPath.parse("P->P") == CITES
        assert MetaPath.parse("P->P<-P") == CO_REFERENCE
        assert str(MetaPath.parse("P->P<-P")) == "P->P<-P"

    def test_extensible(self):
        long = MetaPath.parse("P->P->P")
        assert long.steps == ("out", "out")

    def test_invalid(self):
        with pytest.raises(ValueError):
            MetaPath.parse("X->P")
        with pytest.raises(ValueError):
            MetaPath(())


class TestBuildGraph:
    def test_single_edge(self, tmp_path):
        corpus = corpus_with_refs(tmp_path, {"A": ["B"]})
        graph = build_graph(corpus)
        assert graph.out_edges["A"] == frozenset({"B"})
        assert graph.in_edges["B"] == frozenset({"A"})
        assert graph.dangling_refs == 0

    def test_dangling_reference_dropped(self, tmp_path):
        corpus = corpus_with_refs(tmp_path, {"A": ["X"]})
        corpus = [p for p in corpus if p.id == "A"]
        graph = build_graph(corpus)
        assert graph.out_edges["A"] == frozenset()
        assert graph.dangling_refs == 1

    def test_self_loop_dropped(self, tmp_path):
        corpus = corpus_with_refs(tmp_path, {"A": ["A"]})
        graph = build_graph(corpus)
        assert graph.out_edges["A"] == frozenset()

    def test_order_independent(self, tmp_path):
        edges = {"A": ["B", "C"], "B": ["C"], "D": ["A"]}
        corpus = corpus_with_refs(tmp_path, edges)
        g1 = build_graph(corpus)
        g2 = build_graph(list(reversed(corpus)))
        assert g1.out_edges == g2.out_edges
        assert g1.in_edges == g2.in_edges


class TestNeighborhood:
    def test_cites(self, tmp_path):
        graph = build_graph(corpus_with_refs(tmp_path, {"A": ["B"]}))
        assert neighborhood(graph, "A", CITES) == frozenset({"B"})
        assert neighborhood(graph, "B", CITES) == frozenset()

    def test_co_reference(self, tmp_path):
        graph = build_graph(corpus_with_refs(tmp_path, {"A": ["C"], "B": ["C"]}))
        assert neighborhood(graph, "A", CO_REFERENCE) == frozenset({"B"})
        assert neighborhood(graph, "B", CO_REFERENCE) == frozenset({"A"})

    def test_isolated_node(self, tmp_path):
        graph = build_graph(corpus_with_refs(tmp_path, {"A": []}))
        assert neighborhood(graph, "A", CITES) == frozenset()
        assert neighborhood(graph, "A", CO_REFERENCE) == frozenset()

    def test_unknown_id(self, tmp_path):
        graph = build_graph(corpus_with_refs(tmp_path, {"A": []}))
        with pytest.raises(KeyError):
            neighborhood(graph, "nope", CITES)

    def test_co_reference_symmetry_on_random_graphs(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n = 12
            edges = {f"p{i}": [f"p{j}" for j in range(n)
                               if j != i and rng.random() < 0.2]
                     for i in range(n)}
            graph = build_graph(corpus_with_refs(tmp_path, edges, n=n))
            for i in range(n):
                for j in range(n):
                    a, b = f"p{i}", f"p{j}"
                    assert (b in neighborhood(graph, a, CO_REFERENCE)) == \
                        (a in neighborhood(graph, b, CO_REFERENCE))


def brute_force_neighborhood(corpus, pid, path):
    """Independent oracle straight from the reference sets."""
    refs = {p.id: set(r for r in p.bib_refs if r != p.id and
                      r in {q.id for q in corpus}) for p in corpus}
    if path == CITES:
        return refs[pid]
    if path == CO_REFERENCE:
        return {q.id for q in corpus if q.id != pid and refs[pid] & refs[q.id]}
    raise AssertionError


class TestSampleTuples:
    def two_cluster(self, tmp_path):
        rng = np.random.default_rng(1)
        edges = {}
        for i in range(20):
            cluster = range(0, 10) if i < 10 else range(10, 20)
            edges[f"p{i}"] = [f"p{j}" for j in cluster
                              if j != i and rng.random() < 0.5]
        return corpus_with_refs(tmp_path, edges, n=20, paragraphs=3)

    def test_invariants_hold_exhaustively(self, tmp_path):
        corpus = self.two_cluster(tmp_path)
        graph = build_graph(corpus)
        tuples = sample_tuples(graph, corpus, CO_REFERENCE, 100, seed=7)
        assert len(tuples) == 100
        papers = {p.id: p for p in corpus}
        for t in tuples:
            hood = brute_force_neighborhood(corpus, t.anchor[0], CO_REFERENCE)
            assert t.positive[0] in hood
            assert t.negative[0] not in hood
            assert len({t.anchor[0], t.positive[0], t.negative[0]}) == 3
            for pid, leaf in (t.anchor, t.positive, t.negative):
                assert 0 <= leaf < len(papers[pid].paragraphs)

    def test_same_seed_identical(self, tmp_path):
        corpus = self.two_cluster(tmp_path)
        graph = build_graph(corpus)
        a = sample_tuples(graph, corpus, CO_REFERENCE, 50, seed=3)
        b = sample_tuples(graph, corpus, CO_REFERENCE, 50, seed=3)
        assert a == b

    def test_few_anchors_reused(self, tmp_path):
        edges = {"A": ["D"], "B": ["D"], "C": ["D"]}
        corpus = corpus_with_refs(tmp_path, edges, n=0)
        corpus += corpus_with_refs(tmp_path, {"E": [], "F": []})
        graph = build_graph(corpus)
        tuples = sample_tuples(graph, corpus, CO_REFERENCE, 10, seed=1)
        assert len(tuples) == 10
        anchors = {t.anchor[0] for t in tuples}
        assert anchors <= {"A", "B", "C"}

    def test_sparse_graph_errors(self, tmp_path):
        corpus = corpus_with_refs(tmp_path, {"A": [], "B": []})
        graph = build_graph(corpus)
        with pytest.raises(ValueError, match="too sparse"):
            sample_tuples(graph, corpus, CITES, 5, seed=0)

    def test_empty_papers_excluded(self, tmp_path):
        # C has no surviving paragraphs, so it can fill no tuple role
        recs = [
            paper_record("A", sections=[{"name": "s", "paragraphs": ["x " * 15]}],
                         bib_refs=["B", "C"]),
            paper_record("B", sections=[{"name": "s", "paragraphs": ["y " * 15]}],
                         bib_refs=["A"]),
            paper_record("C", sections=[{"name": "s", "paragraphs": ["too short"]}],
                         bib_refs=["A"]),
            paper_record("D", sections=[{"name": "s", "paragraphs": ["z " * 15]}]),
        ]
        corpus = load_corpus_records(tmp_path, recs)
        graph = build_graph(corpus)
        tuples = sample_tuples(graph, corpus, CITES, 30, seed=2)
        used = {pid for t in tuples for pid, _ in (t.anchor, t.positive, t.negative)}
        assert "C" not in used

    def test_count_validation(self, tmp_path):
        corpus = corpus_with_refs(tmp_path, {"A": ["B"], "B": ["A"], "C": []})
        graph = build_graph(corpus)
        with pytest.raises(ValueError):
            sample_tuples(graph, corpus, CITES, 0, seed=0)


class TestTupleIO:
    def test_roundtrip(self, tmp_path):
        corpus = corpus_with_refs(tmp_path, {"A": ["B"], "B": ["A"], "C": []},
                                  paragraphs=2)
        graph = build_graph(corpus)
        tuples = sample_tuples(graph, corpus, CITES, 20, seed=5)
        path = tmp_path / "tuples.jsonl"
        write_tuples(tuples, path)
        assert read_tuples(path) == tuples

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.builds(ContrastiveTuple, *[st.tuples(st.text(max_size=6),
                                                           st.integers(0, 2**40))] * 3),
                    max_size=8))
    def test_roundtrip_of_any_references(self, tuples):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "tuples.jsonl")
            write_tuples(tuples, path)
            assert read_tuples(path) == tuples


class TestTupleReferences:
    """A reference in tuples.jsonl is a [string, int] pair; any other shape
    fails with the file and the line named."""

    @pytest.mark.parametrize("anchor", [[["A"], 0], ["A", 3.9], ["A", True], ["A", "0"],
                                        [7, 0], ["A", 0, 1], {"A": 0}],
                             ids=["list id", "float index", "bool index", "string index",
                                  "int id", "three items", "object"])
    def test_rejected(self, tmp_path, anchor):
        path = tmp_path / "tuples.jsonl"
        good = {"anchor": ["A", 0], "positive": ["B", 0], "negative": ["C", 0]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(good | {"anchor": anchor}) + "\n")
        with pytest.raises(CorpusError, match=r"tuples\.jsonl: line 2: malformed record "
                                              r"\('anchor' must be a \[str, int\] pair, "
                                              r"got "):
            read_tuples(path)
