"""Ranking metrics: P@k, NDCG@k and their propensity-scored variants.

Propensity scoring rewards correct predictions of rare labels: a label
relevant to N_l documents earns reward 1/p_l = 1 + C (N_l + B)^(-A) with
C = (ln|D| - 1)(B + 1)^A, so the reward decreases toward 1 as the label
gets more frequent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

DEFAULT_A = 0.55
DEFAULT_B = 1.5
DEFAULT_PRECISION_KS = (1, 3, 5)
DEFAULT_NDCG_KS = (3, 5)


def precision_at_k(ranking, relevant: set[str], k: int) -> float:
    """Fraction of the top-k that is relevant; short rankings pad as misses."""
    if k < 1:
        raise ValueError("k must be positive")
    hits = sum(1 for lid in ranking[:k] if lid in relevant)
    return hits / k


def ndcg_at_k(ranking, relevant: set[str], k: int) -> float:
    """DCG of the top-k over the ideal prefix; 0 when nothing relevant is
    ranked. The log base cancels (natural log here)."""
    if k < 1:
        raise ValueError("k must be positive")
    if not relevant:
        raise ValueError("ndcg is undefined without relevant labels")
    dcg = sum(1.0 / math.log(i + 2) for i, lid in enumerate(ranking[:k])
              if lid in relevant)
    ideal = sum(1.0 / math.log(i + 2) for i in range(min(k, len(relevant))))
    return dcg / ideal


def propensity(n_l: int, n_docs: int, a: float = DEFAULT_A,
               b: float = DEFAULT_B) -> float:
    """Reward 1/p_l for a label relevant to ``n_l`` of ``n_docs`` documents."""
    if n_l < 0:
        raise ValueError("n_l must be nonnegative")
    c = (math.log(n_docs) - 1.0) * (b + 1.0) ** a
    if c <= 0:
        raise ValueError(f"corpus of {n_docs} documents gives a nonpositive constant")
    return 1.0 + c * (n_l + b) ** (-a)


def propensity_rewards(gold: dict[str, set[str]], n_docs: int,
                       a: float = DEFAULT_A, b: float = DEFAULT_B) -> dict[str, float]:
    """Per-label rewards from ground-truth counts over the whole corpus."""
    counts: dict[str, int] = {}
    for labels in gold.values():
        for lid in labels:
            counts[lid] = counts.get(lid, 0) + 1
    return {lid: propensity(n, n_docs, a, b) for lid, n in counts.items()}


def psp_at_k(ranking, relevant: set[str], rewards: dict[str, float], k: int) -> float:
    """Reward-weighted precision: (1/k) sum of 1/p over relevant top-k hits."""
    if k < 1:
        raise ValueError("k must be positive")
    total = sum(rewards.get(lid, 1.0) for lid in ranking[:k] if lid in relevant)
    return total / k


def psn_at_k(ranking, relevant: set[str], rewards: dict[str, float], k: int) -> float:
    """Reward-weighted DCG over the unweighted ideal prefix."""
    if k < 1:
        raise ValueError("k must be positive")
    if not relevant:
        raise ValueError("psn is undefined without relevant labels")
    dcg = sum(rewards.get(lid, 1.0) / math.log(i + 2)
              for i, lid in enumerate(ranking[:k]) if lid in relevant)
    ideal = sum(1.0 / math.log(i + 2) for i in range(min(k, len(relevant))))
    return dcg / ideal


@dataclass
class MetricsReport:
    precision: dict[int, float]
    ndcg: dict[int, float]
    psp: dict[int, float]
    psn: dict[int, float]
    n_papers: int
    n_evaluated: int
    n_skipped: int  # papers without ground-truth labels
    mean_candidates: float | None = None

    def to_dict(self) -> dict:
        out = {f"P@{k}": v for k, v in self.precision.items()}
        out.update({f"NDCG@{k}": v for k, v in self.ndcg.items()})
        out.update({f"PSP@{k}": v for k, v in self.psp.items()})
        out.update({f"PSN@{k}": v for k, v in self.psn.items()})
        out["papers"] = self.n_papers
        out["evaluated"] = self.n_evaluated
        out["skipped"] = self.n_skipped
        if self.mean_candidates is not None:
            out["mean_candidates"] = self.mean_candidates
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def evaluate(rankings: dict[str, list[str]], gold: dict[str, set[str]],
             precision_ks=DEFAULT_PRECISION_KS, ndcg_ks=DEFAULT_NDCG_KS,
             a: float = DEFAULT_A, b: float = DEFAULT_B,
             mean_candidates: float | None = None) -> MetricsReport:
    """Macro-average every metric over documents with ground truth.

    Propensity-scored metrics need ln|D| > 1; on smaller corpora they are
    omitted from the report.
    """
    if math.log(max(len(rankings), 1)) > 1.0:
        rewards = propensity_rewards(gold, n_docs=len(rankings), a=a, b=b)
    else:
        rewards = None
    evaluated = [pid for pid in rankings if gold.get(pid)]
    skipped = len(rankings) - len(evaluated)

    def mean(fn, k) -> float:
        if not evaluated:
            return 0.0
        return sum(fn(rankings[pid], gold[pid], k) for pid in evaluated) / len(evaluated)

    return MetricsReport(
        precision={k: mean(precision_at_k, k) for k in precision_ks},
        ndcg={k: mean(ndcg_at_k, k) for k in ndcg_ks},
        psp={} if rewards is None else
            {k: mean(lambda r, z, kk: psp_at_k(r, z, rewards, kk), k)
             for k in precision_ks},
        psn={} if rewards is None else
            {k: mean(lambda r, z, kk: psn_at_k(r, z, rewards, kk), k)
             for k in ndcg_ks},
        n_papers=len(rankings),
        n_evaluated=len(evaluated),
        n_skipped=skipped,
        mean_candidates=mean_candidates,
    )
