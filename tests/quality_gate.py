"""The quality gate: when a model change keeps a run's ranking quality.

A change that alters a model itself, not only the order of a floating-point
sum (that is ``numerics_rule.py``), ships when, on the same inputs and
config, no ranking metric in its ``metrics.json`` falls below its parent's
by more than the relative bound that ``BENCHMARK.json`` sets for the
matching end-to-end metric of the benchmark:

    P@1 (p_at_1), P@5 (p_at_5), PSP@5 (psp_at_5), NDCG@5 (ndcg_at_5)

A rise is never a breach. Compare pairs of output directories with

    python tests/quality_gate.py PARENT_OUT CHANGE_OUT [PARENT_OUT CHANGE_OUT ...]

which prints each breach and exits 1 if there is one, 0 if there is none,
and 2 on an odd or zero argument count or a path that is not an output
directory with a ``metrics.json``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
METRICS = {"P@1": "p_at_1", "P@5": "p_at_5", "PSP@5": "psp_at_5", "NDCG@5": "ndcg_at_5"}


def bounds() -> dict[str, float]:
    """Each gated ``metrics.json`` key with its largest relative drop."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    by_name = {m["name"]: m for m in spec["end_to_end"]}
    return {key: float(by_name[name]["bound"]) for key, name in METRICS.items()}


def compare_metrics(ref_dir, new_dir, limits: dict[str, float] | None = None) -> list[str]:
    """Every gated metric of ``new_dir`` that falls below ``ref_dir``'s by
    more than its bound; an empty list means the gate holds."""
    limits = bounds() if limits is None else limits
    a, b = (json.loads((Path(d) / "metrics.json").read_text(encoding="utf-8"))
            for d in (ref_dir, new_dir))
    out = []
    for key, bound in limits.items():
        old, new = float(a[key]), float(b[key])
        if old == 0.0:
            drop = 0.0 if new >= 0.0 else math.inf
        else:
            drop = (old - new) / abs(old)
        if not drop <= bound:  # also catches NaN
            out.append(f"{new_dir}: {key} {old:.6g} -> {new:.6g}, "
                       f"a drop of {drop:.3g} relative (gate: {bound:g})")
    return out


def main(argv: list[str]) -> int:
    """The script's exit status for ``argv`` (pairs of directories)."""
    if not argv or len(argv) % 2:
        print("usage: python tests/quality_gate.py PARENT_OUT CHANGE_OUT "
              "[PARENT_OUT CHANGE_OUT ...]", file=sys.stderr)
        return 2
    missing = [path for path in argv if not (Path(path) / "metrics.json").is_file()]
    if missing:
        print(f"not an output directory: {missing[0]}", file=sys.stderr)
        return 2
    breaches = [line for ref, new in zip(argv[::2], argv[1::2])
                for line in compare_metrics(ref, new)]
    print("\n".join(breaches) or f"the quality gate holds on {len(argv) // 2} pair(s)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
