import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklabel.corpus import Paper
from weaklabel.ranker import (
    CandidateScore, aggregate_hierarchy, cosine, mrr_combine, read_scores,
    score_bi, write_scores,
)

from conftest import garbage_after


def make_paper(root, pid="d1", title="t", abstract="a"):
    return Paper(id=pid, title=title, abstract=abstract, hierarchy=root)


def random_tree(rng, max_depth=5, max_fanout=6):
    """A document hierarchy (nested lists of paragraph texts) with at least one list."""
    def build(depth):
        if depth >= max_depth or (depth > 0 and rng.random() < 0.35):
            return f"leaf {rng.integers(1e6)}"
        return [build(depth + 1) for _ in range(int(rng.integers(1, max_fanout + 1)))]

    return build(0)


def oracle_aggregate(node, leaves):
    """Reference recursion: a list is the mean of its children; ``leaves``
    yields the leaf embeddings in document order."""
    if isinstance(node, str):
        return next(leaves)
    child = [oracle_aggregate(c, leaves) for c in node]
    return sum(child) / len(child)


def subtrees(root, embs):
    """Each list in ``root``, ``root`` first, with its leaves' embeddings
    (leaves matched to ``embs`` by position, as two may share a text)."""
    out, seen = [], 0

    def walk(node):
        nonlocal seen
        if isinstance(node, str):
            seen += 1
            return
        at, first = len(out), seen
        out.append(None)
        for child in node:
            walk(child)
        out[at] = (node, embs[first:seen])

    walk(root)
    return out


class TestAggregateHierarchy:
    def test_constant_field(self):
        root = ["p1", ["p2", "p3"]]
        v = np.array([0.3, -0.7, 0.2])
        for tree, embs in subtrees(root, [v] * 3):
            np.testing.assert_allclose(aggregate_hierarchy(make_paper(tree), embs), v)

    def test_two_level_mean(self):
        # leaf (1,0) and a section holding (0,1) and (0,3) under the root
        section = ["a", "b"]
        paper = make_paper(["c", section])
        embs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 3.0])]
        np.testing.assert_allclose(aggregate_hierarchy(paper, embs), [0.5, 1.0])
        np.testing.assert_allclose(aggregate_hierarchy(make_paper(section), embs[1:]),
                                   [0.0, 2.0])

    def test_matches_recursion_oracle_on_random_trees(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            paper = make_paper(random_tree(rng))
            embs = [rng.normal(size=4) for _ in paper.paragraphs]
            for tree, leaf_embs in subtrees(paper.hierarchy, embs):
                np.testing.assert_array_equal(
                    aggregate_hierarchy(make_paper(tree), leaf_embs),
                    oracle_aggregate(tree, iter(leaf_embs)))

    def test_leaves_no_reference_cycle(self):
        rng = np.random.default_rng(2)
        paper = make_paper(random_tree(rng))
        embs = [rng.normal(size=4) for _ in paper.paragraphs]
        assert garbage_after(aggregate_hierarchy, paper, embs) == 0

    def test_linear_in_leaf_scale(self):
        rng = np.random.default_rng(1)
        paper = make_paper(random_tree(rng))
        embs = [rng.normal(size=3) for _ in paper.paragraphs]
        for tree, leaf_embs in subtrees(paper.hierarchy, embs):
            a = aggregate_hierarchy(make_paper(tree), leaf_embs)
            b = aggregate_hierarchy(make_paper(tree), [5.0 * e for e in leaf_embs])
            np.testing.assert_allclose(b, 5.0 * a, rtol=1e-12, atol=1e-12)

    def test_empty_paper_uses_fallback(self):
        fb = np.array([0.1, 0.2])
        for root in ([], [[]], [[], [[]]]):
            paper = make_paper(root)
            np.testing.assert_array_equal(aggregate_hierarchy(paper, [], fallback=fb), fb)
            with pytest.raises(ValueError, match="empty"):
                aggregate_hierarchy(paper, [])

    @pytest.mark.parametrize("root", [["x", []], [["x"], [[]]], [[[], "x"]]])
    def test_empty_section_rejected(self, root):
        with pytest.raises(ValueError, match="paper 'd1' has a section with no paragraphs"):
            aggregate_hierarchy(make_paper(root), [np.ones(2)], fallback=np.ones(2))

    def test_count_mismatch_rejected(self):
        paper = make_paper(["x"])
        with pytest.raises(ValueError, match="count"):
            aggregate_hierarchy(paper, [])


class TestScoreBi:
    def test_identical_vectors(self):
        h = np.array([0.2, 0.5, -0.1])
        assert score_bi(h, {"L": h.copy()}, ["L"])["L"] == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        out = score_bi(np.array([1.0, 0.0]), {"L": np.array([0.0, 1.0])}, ["L"])
        assert out["L"] == pytest.approx(0.0, abs=1e-15)

    def test_zero_vector_scores_zero(self):
        out = score_bi(np.zeros(3), {"L": np.ones(3)}, ["L"])
        assert out["L"] == 0.0

    def test_matches_dot_norm_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u, v = rng.normal(size=6), rng.normal(size=6)
            expected = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
            got = cosine(u, v)
            assert got == pytest.approx(expected, abs=1e-12)
            assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12


class TestMrrCombine:
    def test_golden_three_candidates(self):
        score_b = {"A": 3.0, "B": 2.0, "C": 1.0}
        score_x = {"A": 0.9, "B": 0.5, "C": 0.1}
        rows = mrr_combine(score_b, score_x)
        assert [r.label_id for r in rows] == ["A", "B", "C"]
        assert [r.mrr for r in rows] == pytest.approx([2.0, 1.0, 2.0 / 3.0])
        assert [(r.rank_b, r.rank_x) for r in rows] == [(1, 1), (2, 2), (3, 3)]

    def test_single_candidate(self):
        rows = mrr_combine({"A": 0.0}, {"A": -1.0})
        assert rows[0].mrr == pytest.approx(2.0)

    def test_first_and_last(self):
        k = 6
        score_b = {f"L{i}": float(k - i) for i in range(k)}  # L0 first
        score_x = {f"L{i}": float(i) for i in range(k)}      # L0 last
        rows = mrr_combine(score_b, score_x)
        l0 = next(r for r in rows if r.label_id == "L0")
        assert l0.mrr == pytest.approx(1.0 + 1.0 / k)

    def test_empty(self):
        assert mrr_combine({}, {}) == []

    def test_mismatched_candidates_rejected(self):
        with pytest.raises(ValueError):
            mrr_combine({"A": 1.0}, {"B": 1.0})

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        ids = [f"L{i}" for i in range(8)]
        for _ in range(20):
            score_b = {lid: float(rng.normal()) for lid in ids}
            score_x = {lid: float(rng.normal()) for lid in ids}
            base = mrr_combine(score_b, score_x)
            warped = mrr_combine({k: np.exp(v) + 5 for k, v in score_b.items()},
                                 {k: 3 * v - 1 for k, v in score_x.items()})
            assert [r.label_id for r in base] == [r.label_id for r in warped]
            for x, y in zip(base, warped):
                assert (x.rank_b, x.rank_x, x.mrr) == (y.rank_b, y.rank_x, y.mrr)

    def test_mrr_range_and_top_condition(self):
        rng = np.random.default_rng(4)
        ids = [f"L{i}" for i in range(6)]
        for _ in range(30):
            score_b = {lid: float(rng.integers(3)) for lid in ids}
            score_x = {lid: float(rng.integers(3)) for lid in ids}
            for r in mrr_combine(score_b, score_x):
                assert 0.0 < r.mrr <= 2.0
                assert (r.mrr == 2.0) == (r.rank_b == 1 and r.rank_x == 1)

    def test_deterministic_tie_break(self):
        rows = mrr_combine({"B": 1.0, "A": 1.0}, {"B": 1.0, "A": 1.0})
        assert [r.label_id for r in rows] == ["A", "B"]
        assert [(r.rank_b, r.rank_x) for r in rows] == [(1, 1), (2, 2)]


class TestScoreDump:
    def test_roundtrip(self, tmp_path):
        rows = [CandidateScore("L1", 0.5, 0.25, 1, 2, 1.5),
                CandidateScore("L2", 0.1, 0.75, 2, 1, 1.5)]
        path = tmp_path / "scores.jsonl"
        write_scores({"d1": rows, "d2": []}, path)
        assert read_scores(path) == {"d1": rows, "d2": []}

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.text(max_size=8), st.lists(st.builds(
        CandidateScore, st.text(max_size=6),
        *[st.floats(allow_nan=False, allow_infinity=False)] * 2,
        *[st.integers(1, 2**40)] * 2, st.floats(0, 2)), max_size=5), max_size=6))
    def test_roundtrip_of_any_scores(self, scored):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scores.jsonl")
            write_scores(scored, path)
            got = read_scores(path)
        assert got == scored and list(got) == list(scored)
