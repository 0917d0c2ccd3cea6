"""The byte-identity protocol: two source trees run on the same inputs.

A change that should leave every output as it was is checked on the
README's eleven inputs (see "Numerics rule"): synth seeds 1-5 at
500 x 50 (default config), seeds 1-5 at 1000 x 220 (``--train-steps
50``) and seed 1 at 5000 x 500 (``--train-steps 50``). Run

    python tests/protocol.py PARENT_TREE CHANGE_TREE

where each tree is a checkout of this repository (``git archive`` of a
commit, say). For each input the parent tree's ``weaklabel synth`` writes
the corpus, and the change tree's, run with the same arguments into a
second directory, must write the same ``corpus.jsonl``, ``labels.jsonl``
and ``synth_manifest.jsonl`` byte for byte. Then ``weaklabel run-all
--seed 7`` runs from each tree's ``src/`` in a fresh process with
``OPENBLAS_NUM_THREADS=1``, and the
change tree's ``weaklabel score``, ``predict`` and ``evaluate`` rerun,
each on its own, over the change's output, where they must rewrite
``scores.jsonl`` and ``score_stats.json``, ``predictions.jsonl`` and
``metrics.json`` byte for byte (a stage run alone builds its own inputs,
as the retag-1000 benchmark workload's ops do; evaluate then reads the
gold labels through ``load_paper_labels``). Last, each tree's ``weaklabel
predict`` runs alone over its own copy of the parent's output in each of
predict's other branches (PREDICT_MODES: ``--no-selftrain``, and
``--config`` holding ``{"ranking_limit": 3}``), and the two must write the
same ``predictions.jsonl``. One line per input says
``cmp-identical`` (every output file byte for byte), ``within the
numerics rule`` (naming the files that differ) or each breach that
``numerics_rule.compare_outputs`` finds, then the bytes of each tree's
output directory. Once both run-alls have finished, a second line gives
each tree's ``run-all`` wall time (the parent's runs first, so the trees
alternate) and the change's relative to the parent's. A last line gives
each tree's ``src/`` line count, as ``wc -l src/weaklabel/*.py`` counts.

The exit status is 0 when every input holds the rule, 1 on a breach, a
failed run, or a synth or stand-alone stage whose bytes differ, and 2 on a
wrong argument count or a path that is not a source tree. The eleven
inputs took 3 min 6 s on 2 vCPU.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # numerics_rule, run as a script
from numerics_rule import compare_outputs  # noqa: E402

# (synth seed, papers, labels, run-all flags besides the seed)
INPUTS = ([(seed, 500, 50, ()) for seed in range(1, 6)]
          + [(seed, 1000, 220, ("--train-steps", "50")) for seed in range(1, 6)]
          + [(1, 5000, 500, ("--train-steps", "50"))])
RUN_SEED = "7"
SYNTH_FILES = ("corpus.jsonl", "labels.jsonl", "synth_manifest.jsonl")
# the stages rerun on their own over the change's run-all output, in turn, and what each rewrites
RERUNS = (("score", ("scores.jsonl", "score_stats.json")), ("predict", ("predictions.jsonl",)),
          ("evaluate", ("metrics.json",)))
# predict's other branches, each run by both trees' stand-alone predict over a copy of the
# parent's run-all output: (mode, its flags), a relative path resolved in the input's directory
PREDICT_MODES = (("--no-selftrain", ("--no-selftrain",)),
                 ("ranking_limit 3", ("--config", "ranking_limit.json")))

# the CLI of the tree whose src/ is the first argument, imported from nowhere else
_LAUNCH = ("import sys; src = sys.argv.pop(1); sys.path.insert(0, src)\n"
           "import weaklabel.cli as cli\n"
           "if not cli.__file__.startswith(src): sys.exit(f'imported {cli.__file__}')\n"
           "sys.exit(cli.main(sys.argv[1:]))")


def weaklabel(tree, work, *args) -> subprocess.CompletedProcess:
    """``weaklabel *args`` from ``tree``'s ``src/``, in a fresh process in ``work``."""
    src = os.path.join(os.path.realpath(tree), "src") + os.sep
    return subprocess.run([sys.executable, "-c", _LAUNCH, src, *args], cwd=work,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True)


def compare_input(parent, change, spec, work) -> tuple[int, list[str]]:
    """The exit status and report lines of one input ``spec`` (an entry of
    INPUTS), its files written under the new directory ``work``: the verdict,
    then, once both run-alls have finished, their wall times."""
    seed, papers, labels, flags = spec
    name = " ".join([f"synth seed {seed}, {papers} x {labels}", *flags])
    work = Path(work)
    work.mkdir(parents=True)
    ref, new = work / "parent", work / "change"
    data = ["--corpus", str(work / "corpus.jsonl"), "--labels", str(work / "labels.jsonl")]

    def failure(tree, what, *args) -> str | None:
        proc = weaklabel(tree, work, *args)
        if proc.returncode:
            why = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return f"{name}: {what} failed with exit {proc.returncode}: {why}"

    # the parent's synth writes the inputs; the change's, run alike, must write the same bytes
    synth = ("synth", "--papers", str(papers), "--label-count", str(labels), "--seed", str(seed))
    for tree, what, out in ((parent, "synth", work),
                            (change, "the change's synth", work / "synth")):
        if why := failure(tree, what, *synth, "--out-dir", str(out)):
            return 1, [why]
    moved = [file for file in SYNTH_FILES
             if (work / "synth" / file).read_bytes() != (work / file).read_bytes()]
    if moved:
        return 1, [f"{name}: the change's synth wrote other {', '.join(moved)}"]
    wall = []
    for tree, out in ((parent, ref), (change, new)):
        start = time.perf_counter()
        if why := failure(tree, f"the {out.name} run-all", "run-all", *data,
                          "--output-dir", str(out), "--seed", RUN_SEED, *flags):
            return 1, [why]
        wall.append(time.perf_counter() - start)
    times = (f"{name}: run-all wall time: parent {wall[0]:.2f} s, change {wall[1]:.2f} s "
             f"({wall[1] / wall[0] - 1:+.1%})")
    # each stage of RERUNS, run alone over the change's run-all output, rewrites the same bytes
    for stage, files in RERUNS:
        ran = {file: (new / file).read_bytes() for file in files}
        if why := failure(change, f"the change's stand-alone {stage}", stage, *data,
                          "--output-dir", str(new), "--seed", RUN_SEED, *flags):
            return 1, [why, times]
        moved = [file for file in files if (new / file).read_bytes() != ran[file]]
        if moved:
            return 1, [f"{name}: the change's stand-alone {stage} rewrote {', '.join(moved)}",
                       times]
    (work / "ranking_limit.json").write_text('{"ranking_limit": 3}')
    for mode, extra in PREDICT_MODES:
        wrote = []
        for tree, side in ((parent, "parent"), (change, "change")):
            out = work / f"predict-{side}"
            shutil.copytree(ref, out)
            if why := failure(tree, f"the {side}'s stand-alone predict ({mode})", "predict",
                              *data, "--output-dir", str(out), "--seed", RUN_SEED, *flags,
                              *extra):
                return 1, [why, times]
            wrote.append((out / "predictions.jsonl").read_bytes())
            shutil.rmtree(out)
        if wrote[0] != wrote[1]:
            return 1, [f"{name}: the change's stand-alone predict ({mode}) wrote other bytes",
                       times]

    code, verdict = _verdict(ref, new)
    n, m = output_bytes(ref), output_bytes(new)
    return code, [f"{name}: {verdict}; output bytes: parent {n}, change {m} ({m - n:+d})", times]


def _verdict(ref: Path, new: Path) -> tuple[int, str]:
    """The exit status and verdict of the output directories ``ref`` and ``new``."""
    files = sorted(p.name for p in ref.iterdir())
    differ = [f for f in files if not (new / f).is_file()
              or (new / f).read_bytes() != (ref / f).read_bytes()]
    if not differ and files == sorted(p.name for p in new.iterdir()):
        return 0, "cmp-identical"
    breaches = compare_outputs(ref, new)
    if breaches:
        return 1, "; ".join(breaches)
    return 0, f"within the numerics rule ({', '.join(differ)} differ)"


def output_bytes(directory: Path) -> int:
    """The bytes of the files in ``directory``."""
    return sum(path.stat().st_size for path in directory.iterdir() if path.is_file())


def src_lines(parent, change) -> str:
    """The report line of both trees' ``src/weaklabel/*.py`` newline counts."""
    n, m = (sum(path.read_bytes().count(b"\n")
                for path in (Path(tree) / "src" / "weaklabel").glob("*.py"))
            for tree in (parent, change))
    return f"src/ lines: parent {n}, change {m} ({m - n:+d})"


def main(argv: list[str]) -> int:
    """The script's exit status for ``argv`` (the two trees)."""
    if len(argv) != 2:
        print("usage: python tests/protocol.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    missing = [tree for tree in argv if not (Path(tree) / "src" / "weaklabel").is_dir()]
    if missing:
        print(f"not a source tree (no src/weaklabel): {missing[0]}", file=sys.stderr)
        return 2
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, spec in enumerate(INPUTS):
            code, lines = compare_input(*argv, spec, Path(tmp) / str(i))
            print(*lines, sep="\n", flush=True)
            status = max(status, code)
            shutil.rmtree(Path(tmp) / str(i))  # the 5000 x 500 run writes tens of MB
    print(src_lines(*argv))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
