"""The numerics rule: when two output directories count as the same run.

A change may sum floating-point numbers in another order when, on the
same inputs and config, its output directory and its parent's differ
only within these bounds (README, "Numerics rule"):

- ``predictions.jsonl``: rankings identical, ``top_k_scores`` within
  1e-12 relative;
- ``scores.jsonl``: label order, ranks and ``mrr`` identical, ``score_b``
  and ``score_x`` within 1e-8 absolute;
- ``metrics.json``: within 1e-12 relative;
- ``loss_trace.json``: within 1e-9 relative;
- ``encoder.npz``: within 1e-9 absolute;
- ``classifier.npz``: within 1e-12 absolute;
- every other file: byte-identical.

An npz's members are compared as ``weaklabel.corpus.read_npz_members``
decodes them, so a float64 member compares by value whether it is stored
whole or split into its low bytes and high byte planes. A differing
``meta`` member is a breach; the message names the places where the two
JSON documents differ (``nodes[].index`` for a key of every entry of the
``nodes`` list).

Compare two output directories from the command line with

    python tests/numerics_rule.py PARENT_OUT CHANGE_OUT

which prints each breach and exits 1 if there is one, 0 if there is none,
and 2 on a wrong argument count or a path that is not a directory.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # run as a script
from weaklabel.corpus import read_npz_members  # noqa: E402

REL, ABS = "relative", "absolute"


def _breach(name: str, a, b, tol: float, kind: str) -> list[str]:
    """A one-line breach if the float arrays ``a`` and ``b`` differ beyond ``tol``."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return [f"{name}: shape {a.shape} != {b.shape}"]
    diff = np.abs(np.atleast_1d(a - b))
    if kind == REL:
        diff = np.divide(diff, np.maximum(np.abs(a), np.abs(b)), out=diff, where=diff > 0)
    worst = float(diff.max(initial=0.0))
    if not worst <= tol:  # also catches NaN
        return [f"{name}: differs by up to {worst:.3g} {kind} (rule: {tol:g})"]
    return []


def _lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _jsonl(ref: Path, new: Path, exact: tuple[str, ...], close: tuple[str, ...],
           tol: float, kind: str) -> list[str]:
    """The same papers in the same order; in each record (in ``scores.jsonl``,
    each of its ``candidates``) the ``exact`` fields equal and the ``close``
    ones within ``tol``."""
    a, b = _lines(ref), _lines(new)
    if [r["paper_id"] for r in a] != [r["paper_id"] for r in b]:
        return [f"{new.name}: the papers or their order differ"]
    out = []
    for ra, rb in zip(a, b):
        rows_a, rows_b = ra.get("candidates", [ra]), rb.get("candidates", [rb])
        where = f"{new.name}: paper {ra['paper_id']!r}"
        if len(rows_a) != len(rows_b) or any(x[f] != y[f] for x, y in zip(rows_a, rows_b)
                                             for f in exact):
            out.append(f"{where}: {'/'.join(exact)} not identical")
            continue
        for f in close:
            out += _breach(f"{where}: {f}", [x[f] for x in rows_a], [y[f] for y in rows_b],
                           tol, kind)
    return out


def _json_diff(a, b, path: str = "") -> set[str]:
    """Each place where the JSON values ``a`` and ``b`` differ, as "missing
    <path>" (only in ``a``), "added <path>" or "changed <path>"; list
    entries are compared pairwise and written ``[]``."""
    if isinstance(a, dict) and isinstance(b, dict):
        at = {k: f"{path}.{k}" if path else k for k in a.keys() | b.keys()}
        return ({f"missing {at[k]}" for k in a.keys() - b.keys()}
                | {f"added {at[k]}" for k in b.keys() - a.keys()}
                | set().union(*(_json_diff(a[k], b[k], at[k]) for k in a.keys() & b.keys())))
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return set().union(*(_json_diff(x, y, f"{path}[]") for x, y in zip(a, b)))
    return set() if a == b else {f"changed {path}"}


def _npz(ref: Path, new: Path, tol: float) -> list[str]:
    fa, fb = read_npz_members(ref), read_npz_members(new)
    if sorted(fa) != sorted(fb):
        return [f"{new.name}: members {sorted(fb)} != {sorted(fa)}"]
    out = []
    for key, a in fa.items():
        b = fb[key]
        if a.dtype.kind == "f" and a.dtype == b.dtype:
            out += _breach(f"{new.name}: {key}", a, b, tol, ABS)
        elif key == "meta" and not np.array_equal(a, b):
            places = _json_diff(*(json.loads(bytes(m).decode("utf-8")) for m in (a, b)))
            out.append(f"{new.name}: meta differs "
                       f"({', '.join(sorted(places)) or 'same JSON, other bytes'})")
        elif a.dtype != b.dtype or not np.array_equal(a, b):
            out.append(f"{new.name}: {key} differs")
    return out


def _json_numbers(ref: Path, new: Path, tol: float) -> list[str]:
    """The same keys, each value (a number or a list of numbers) within ``tol`` relative."""
    a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (ref, new))
    if a.keys() != b.keys():
        return [f"{new.name}: keys {sorted(b)} != {sorted(a)}"]
    return [line for key in a
            for line in _breach(f"{new.name}: {key}", a[key], b[key], tol, REL)]


CHECKS = {
    "predictions.jsonl": lambda a, b: _jsonl(a, b, ("ranking",), ("top_k_scores",),
                                             1e-12, REL),
    "scores.jsonl": lambda a, b: _jsonl(a, b, ("label_id", "rank_b", "rank_x", "mrr"),
                                        ("score_b", "score_x"), 1e-8, ABS),
    "metrics.json": lambda a, b: _json_numbers(a, b, 1e-12),
    "loss_trace.json": lambda a, b: _json_numbers(a, b, 1e-9),
    "encoder.npz": lambda a, b: _npz(a, b, 1e-9),
    "classifier.npz": lambda a, b: _npz(a, b, 1e-12),
}


def compare_outputs(ref_dir, new_dir) -> list[str]:
    """Every breach of the numerics rule by ``new_dir`` against ``ref_dir``;
    an empty list means the rule holds."""
    ref_dir, new_dir = Path(ref_dir), Path(new_dir)
    names = sorted(p.name for p in ref_dir.iterdir() if p.is_file())
    new_names = sorted(p.name for p in new_dir.iterdir() if p.is_file())
    if names != new_names:
        return [f"files {new_names} != {names}"]
    out = []
    for name in names:
        a, b = ref_dir / name, new_dir / name
        check = CHECKS.get(name)
        if check is not None:
            out += check(a, b)
        elif a.read_bytes() != b.read_bytes():
            out.append(f"{name}: bytes differ")
    return out


def main(argv: list[str]) -> int:
    """The script's exit status for ``argv`` (the two directories)."""
    if len(argv) != 2:
        print("usage: python tests/numerics_rule.py PARENT_OUT CHANGE_OUT", file=sys.stderr)
        return 2
    missing = [path for path in argv if not Path(path).is_dir()]
    if missing:
        print(f"not an output directory: {missing[0]}", file=sys.stderr)
        return 2
    breaches = compare_outputs(*argv)
    print("\n".join(breaches) or "the numerics rule holds")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
