import logging
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from weaklabel.candidates import (
    build_name_index, candidate_stats, read_candidates, retrieve_candidates,
    write_candidates,
)

from conftest import load_corpus_records, load_label_records, paper_record


def labels(tmp_path, specs):
    return load_label_records(
        tmp_path, [{"id": lid, "names": names, "description": desc}
                   for lid, names, desc in specs])


def paper(tmp_path, title="", abstract="", body=()):
    sections = [{"name": "s", "paragraphs": list(body)}] if body else []
    rec = paper_record("d1", title=title, abstract=abstract, sections=sections)
    return load_corpus_records(tmp_path, [rec])[0]


class TestNameIndex:
    def test_synonyms_share_id(self, tmp_path):
        space = labels(tmp_path, [
            ("D039841", ["calprotectin", "leukocyte l1 antigen complex"], "")])
        index = build_name_index(space)
        assert index.entries[("calprotectin",)] == frozenset({"D039841"})
        assert index.entries[("leukocyte", "l1", "antigen", "complex")] == \
            frozenset({"D039841"})
        assert index.max_len == 4

    def test_shared_name_maps_to_both(self, tmp_path):
        space = labels(tmp_path, [("L1", ["transformer"], ""),
                                  ("L2", ["transformer"], "")])
        index = build_name_index(space)
        assert index.entries[("transformer",)] == frozenset({"L1", "L2"})

    def test_empty_space(self, tmp_path):
        index = build_name_index([])
        assert index.entries == {}
        assert index.max_len == 0


class TestRetrieve:
    def test_multiword_name_in_abstract(self, tmp_path):
        space = labels(tmp_path, [("L1", ["voronoi diagram"], "")])
        index = build_name_index(space)
        d = paper(tmp_path, abstract="a model based on a voronoi diagram technique")
        assert retrieve_candidates(d, index) == ["L1"]

    def test_exact_matching_misses_related_phrases(self, tmp_path):
        space = labels(tmp_path, [("L1", ["motion planning"], "")])
        index = build_name_index(space)
        d = paper(tmp_path, abstract="path planning in large outdoor environments")
        assert retrieve_candidates(d, index) == []

    def test_empty_title_abstract(self, tmp_path):
        space = labels(tmp_path, [("L1", ["anything"], "")])
        index = build_name_index(space)
        assert retrieve_candidates(paper(tmp_path), index) == []

    def test_token_boundaries_not_substrings(self, tmp_path):
        space = labels(tmp_path, [("L1", ["art"], "")])
        index = build_name_index(space)
        assert retrieve_candidates(
            paper(tmp_path, abstract="a particle filter study"), index) == []
        assert retrieve_candidates(
            paper(tmp_path, abstract="a study of art history"), index) == ["L1"]

    def test_title_vs_abstract_equivalent(self, tmp_path):
        space = labels(tmp_path, [("L1", ["graph mining"], "")])
        index = build_name_index(space)
        a = retrieve_candidates(paper(tmp_path, title="graph mining advances"), index)
        b = retrieve_candidates(paper(tmp_path, abstract="advances in graph mining"), index)
        assert a == b == ["L1"]

    def test_case_insensitive(self, tmp_path):
        space = labels(tmp_path, [("L1", ["Voronoi Diagram"], "")])
        index = build_name_index(space)
        d = paper(tmp_path, abstract="THE VORONOI DIAGRAM APPROACH")
        assert retrieve_candidates(d, index) == ["L1"]

    def test_body_ignored_unless_full_text(self, tmp_path):
        space = labels(tmp_path, [("L1", ["hidden topic"], "")])
        index = build_name_index(space)
        d = paper(tmp_path, abstract="nothing relevant here at all",
                  body=["this long body paragraph mentions the hidden topic "
                        "explicitly and survives the word filter"])
        assert retrieve_candidates(d, index) == []
        assert retrieve_candidates(d, index, full_text=True) == ["L1"]

    def test_deterministic_ordering(self, tmp_path):
        space = labels(tmp_path, [("L2", ["beta"], ""), ("L1", ["alpha"], "")])
        index = build_name_index(space)
        d = paper(tmp_path, abstract="beta then alpha appear")
        assert retrieve_candidates(d, index) == ["L1", "L2"]


class TestStats:
    def test_arithmetic(self):
        stats = candidate_stats({"a": ["x", "y", "z"], "b": [], "c": ["x", "y", "z"]})
        assert stats.mean_candidates == pytest.approx(2.0)
        assert stats.n_empty == 1

    def test_all_empty_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            stats = candidate_stats({"a": [], "b": []})
        assert stats.mean_candidates == 0.0
        assert "empty" in caplog.text

    def test_planted_counts(self, tmp_path):
        # inject a known number of names per paper; lambda must equal it
        space = labels(tmp_path, [(f"L{i}", [f"planted name{i}"], "") for i in range(4)])
        index = build_name_index(space)
        recs = [paper_record(f"d{i}", abstract=" filler text " + " ".join(
            f"planted name{j}" for j in range(i)) + " more filler")
            for i in range(1, 4)]
        corpus = load_corpus_records(tmp_path, recs)
        cands = {p.id: retrieve_candidates(p, index) for p in corpus}
        assert [len(cands[f"d{i}"]) for i in range(1, 4)] == [1, 2, 3]
        assert candidate_stats(cands).mean_candidates == pytest.approx(2.0)


class TestIO:
    def test_roundtrip(self, tmp_path):
        cands = {"a": ["L1", "L2"], "b": []}
        path = tmp_path / "cands.jsonl"
        write_candidates(cands, path)
        assert read_candidates(path) == cands

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.text(max_size=8), st.lists(st.text(max_size=6), max_size=6),
                           max_size=8))
    def test_roundtrip_of_any_ids(self, cands):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "candidates.jsonl")
            write_candidates(cands, path)
            got = read_candidates(path)
        assert got == cands and list(got) == list(cands)
