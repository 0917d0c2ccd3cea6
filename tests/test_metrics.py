import itertools
import json
import math

import numpy as np
import pytest

from weaklabel.metrics import (
    evaluate, ndcg_at_k, precision_at_k, propensity, propensity_rewards,
    psn_at_k, psp_at_k,
)


class TestPrecision:
    def test_counting(self):
        ranking = ["A", "x", "B", "y", "z"]
        assert precision_at_k(ranking, {"A", "B"}, 5) == pytest.approx(0.4)

    def test_none_relevant(self):
        assert precision_at_k(["x", "y"], {"A"}, 2) == 0.0

    def test_all_relevant(self):
        assert precision_at_k(["A", "B"], {"A", "B"}, 2) == 1.0

    def test_short_ranking_pads_as_misses(self):
        assert precision_at_k(["A"], {"A"}, 5) == pytest.approx(0.2)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            precision_at_k(["A"], {"A"}, 0)

    def test_depends_only_on_prefix(self):
        rng = np.random.default_rng(0)
        labels = [f"L{i}" for i in range(10)]
        for _ in range(20):
            rel = set(rng.choice(labels, size=3, replace=False))
            ranking = list(rng.permutation(labels))
            k = 4
            shuffled_tail = ranking[:k] + list(rng.permutation(ranking[k:]))
            assert precision_at_k(ranking, rel, k) == \
                precision_at_k(shuffled_tail, rel, k)


def oracle_ndcg(ranking, relevant, k):
    """Brute force: DCG from the definition, ideal prefix enumerated over
    all permutations of the label set."""
    def dcg(seq):
        return sum((1.0 if lid in relevant else 0.0) / math.log(i + 2)
                   for i, lid in enumerate(seq[:k]))
    universe = sorted(set(ranking) | relevant)
    best = max(dcg(list(p)) for p in itertools.permutations(universe))
    return dcg(ranking) / best


class TestNdcg:
    def test_perfect_ranking(self):
        assert ndcg_at_k(["A", "B", "x"], {"A", "B"}, 3) == pytest.approx(1.0)

    def test_derived_value(self):
        # 2 relevant labels at ranks 1 and 3, k = 3
        got = ndcg_at_k(["A", "x", "B"], {"A", "B"}, 3)
        expected = (1 / math.log(2) + 1 / math.log(4)) / \
                   (1 / math.log(2) + 1 / math.log(3))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.9197, abs=5e-5)

    def test_nothing_relevant_in_top_k(self):
        assert ndcg_at_k(["x", "y", "z"], {"A"}, 3) == 0.0

    def test_no_relevant_labels_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["x"], set(), 1)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        labels = [f"L{i}" for i in range(6)]
        for _ in range(200):
            n_rel = int(rng.integers(1, 5))
            rel = set(rng.choice(labels, size=n_rel, replace=False))
            ranking = list(rng.permutation(labels))[:int(rng.integers(1, 7))]
            k = int(rng.integers(1, 7))
            assert ndcg_at_k(ranking, rel, k) == \
                pytest.approx(oracle_ndcg(ranking, rel, k), abs=1e-9)

    def test_log_base_invariance(self):
        # same computation in base 2 must agree exactly after cancellation
        def ndcg_base2(ranking, rel, k):
            dcg = sum(1.0 / math.log2(i + 2) for i, lid in enumerate(ranking[:k])
                      if lid in rel)
            ideal = sum(1.0 / math.log2(i + 2) for i in range(min(k, len(rel))))
            return dcg / ideal
        ranking = ["A", "x", "B", "y"]
        rel = {"A", "B"}
        assert ndcg_at_k(ranking, rel, 4) == pytest.approx(
            ndcg_base2(ranking, rel, 4), abs=1e-12)


class TestPropensity:
    def test_strictly_decreasing(self):
        values = [propensity(n, 1000) for n in [0, 1, 2, 5, 10, 100, 10 ** 4, 10 ** 6]]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert all(v > 1.0 for v in values)

    def test_limit_approaches_one(self):
        assert propensity(10 ** 6, 1000) - 1 < propensity(10, 1000) - 1

    def test_high_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for n_l, n_docs in [(5, 1000), (0, 1000), (37, 96718), (123, 251573)]:
            a, b = mp.mpf("0.55"), mp.mpf("1.5")
            c = (mp.log(n_docs) - 1) * (b + 1) ** a
            expected = float(1 + c * (n_l + b) ** (-a))
            assert propensity(n_l, n_docs) == pytest.approx(expected, abs=1e-12)

    def test_small_corpus_rejected(self):
        with pytest.raises(ValueError):
            propensity(5, 2)  # ln 2 < 1 makes the constant negative

    def test_rewards_from_gold(self):
        gold = {"d1": {"A", "B"}, "d2": {"A"}, "d3": {"A"}}
        rewards = propensity_rewards(gold, n_docs=100)
        assert rewards["B"] > rewards["A"] > 1.0


def oracle_psp(ranking, relevant, rewards, k):
    total = 0.0
    for i in range(k):
        if i < len(ranking) and ranking[i] in relevant:
            total += rewards.get(ranking[i], 1.0)
    return total / k


def oracle_psn(ranking, relevant, rewards, k):
    num = 0.0
    for i in range(k):
        if i < len(ranking) and ranking[i] in relevant:
            num += rewards.get(ranking[i], 1.0) / math.log(i + 2)
    den = sum(1.0 / math.log(i + 2) for i in range(min(k, len(relevant))))
    return num / den


class TestPropensityScored:
    def test_uniform_rewards_degenerate_to_precision(self):
        rng = np.random.default_rng(2)
        labels = [f"L{i}" for i in range(8)]
        ones = {lid: 1.0 for lid in labels}
        for _ in range(30):
            rel = set(rng.choice(labels, size=3, replace=False))
            ranking = list(rng.permutation(labels))
            for k in (1, 3, 5):
                assert psp_at_k(ranking, rel, ones, k) == \
                    pytest.approx(precision_at_k(ranking, rel, k), abs=1e-15)

    def test_psp1_equals_psn1(self):
        rng = np.random.default_rng(3)
        labels = [f"L{i}" for i in range(8)]
        gold = {f"d{i}": set(rng.choice(labels, size=int(rng.integers(1, 4)),
                                        replace=False)) for i in range(40)}
        rewards = propensity_rewards(gold, n_docs=40)
        for pid, rel in gold.items():
            ranking = list(rng.permutation(labels))
            assert psp_at_k(ranking, rel, rewards, 1) == \
                pytest.approx(psn_at_k(ranking, rel, rewards, 1), abs=1e-12)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(4)
        labels = [f"L{i}" for i in range(10)]
        for _ in range(100):
            rel = set(rng.choice(labels, size=int(rng.integers(1, 5)), replace=False))
            rewards = {lid: 1.0 + float(rng.random()) * 3 for lid in labels}
            ranking = list(rng.permutation(labels))[:int(rng.integers(1, 11))]
            k = int(rng.integers(1, 8))
            assert psp_at_k(ranking, rel, rewards, k) == \
                pytest.approx(oracle_psp(ranking, rel, rewards, k), abs=1e-12)
            assert psn_at_k(ranking, rel, rewards, k) == \
                pytest.approx(oracle_psn(ranking, rel, rewards, k), abs=1e-12)

    def test_rare_label_beats_frequent_swap(self):
        # swapping a correctly ranked frequent label for an equally placed
        # rare one strictly increases reward-weighted precision
        gold = {f"d{i}": {"freq"} for i in range(50)}
        gold["d50"] = {"rare"}
        rewards = propensity_rewards(gold, n_docs=51)
        base = ["freq", "x", "y"]
        swapped = ["rare", "x", "y"]
        assert psp_at_k(swapped, {"rare", "freq"}, rewards, 3) > \
            psp_at_k(base, {"rare", "freq"}, rewards, 3)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            psp_at_k(["A"], {"A"}, {}, 0)
        with pytest.raises(ValueError):
            psn_at_k(["A"], {"A"}, {}, 0)


class TestEvaluate:
    def test_macro_average_and_skips(self):
        rankings = {"d1": ["A", "B"], "d2": ["B", "A"], "d3": ["A", "B"]}
        gold = {"d1": {"A"}, "d2": {"A"}, "d3": set()}
        report = evaluate(rankings, gold, precision_ks=(1,), ndcg_ks=(1,))
        assert report.n_evaluated == 2
        assert report.n_skipped == 1
        assert report.precision[1] == pytest.approx(0.5)

    def test_report_serialization(self):
        rankings = {f"d{i}": ["A"] for i in range(4)}
        gold = {f"d{i}": {"A"} for i in range(4)}
        report = evaluate(rankings, gold, precision_ks=(1,), ndcg_ks=(1,))
        d = report.to_dict()
        assert d["P@1"] == 1.0
        assert "PSP@1" in d
        assert json.loads(report.to_json()) == d

    def test_tiny_corpus_omits_propensity_metrics(self):
        report = evaluate({"d1": ["A"]}, {"d1": {"A"}},
                          precision_ks=(1,), ndcg_ks=(1,))
        assert report.psp == {}
        assert report.precision[1] == 1.0
