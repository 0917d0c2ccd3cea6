"""tests/protocol.py, run on one tiny input."""

import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import protocol
from numerics_rule import compare_outputs
from weaklabel.corpus import write_npz

REPO = Path(__file__).resolve().parent.parent
TINY = (3, 40, 6, ("--train-steps", "5"))
NAME = "synth seed 3, 40 x 6 --train-steps 5"
TIMES = re.compile(re.escape(NAME) + r": run-all wall time: parent \d+\.\d\d s, "
                   r"change \d+\.\d\d s \([+-]\d+\.\d%\)")


def changed_tree(tmp_path, module, old, new):
    """A copy of this repository's ``src/`` with ``old`` replaced by ``new`` in ``module``."""
    tree = tmp_path / "change"
    shutil.copytree(REPO / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tree / "src" / "weaklabel" / module
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1
    path.write_text(source.replace(old, new), encoding="utf-8")
    return tree


def compare(tree, tmp_path):
    """compare_input of this repository and ``tree`` on TINY: (exit status,
    verdict line), once its second line, the two run-alls' wall times, is checked."""
    code, lines = protocol.compare_input(REPO, tree, TINY, tmp_path / "w")
    assert len(lines) == 2 and TIMES.fullmatch(lines[1]), lines
    return code, lines[0]


def sizes(work):
    """The report's output-bytes clause for the two run directories under ``work``."""
    n, m = (sum(path.stat().st_size for path in (work / side).iterdir())
            for side in ("parent", "change"))
    return f"; output bytes: parent {n}, change {m} ({m - n:+d})"


def test_same_tree_is_cmp_identical(tmp_path):
    code, line = compare(REPO, tmp_path)
    assert sizes(tmp_path / "w").endswith(" (+0)")
    assert (code, line) == (0, f"{NAME}: cmp-identical" + sizes(tmp_path / "w"))


def test_reordered_sum_holds_the_numerics_rule(tmp_path):
    # a division turned into a product by the reciprocal moves score_b by rounding only
    tree = changed_tree(tmp_path, "ranker.py", "return sum(values) / len(values)",
                        "return sum(values) * (1.0 / len(values))")
    assert compare(tree, tmp_path) == (
        0, f"{NAME}: within the numerics rule (scores.jsonl differ)" + sizes(tmp_path / "w"))


def test_changed_output_is_a_breach(tmp_path):
    tree = changed_tree(tmp_path, "config.py", "top_k: int = 5", "top_k: int = 4")
    code, line = compare(tree, tmp_path)
    assert code == 1
    assert line.startswith(f"{NAME}: predictions.jsonl: paper ")
    assert "top_k_scores: shape (1, 5) != (1, 4)" in line
    # one score fewer a paper: the change's outputs are smaller
    assert line.endswith(sizes(tmp_path / "w")) and "(-" in sizes(tmp_path / "w")


def test_synth_that_writes_other_bytes_fails(tmp_path):
    tree = changed_tree(tmp_path, "synth.py", "TITLE_INJECT_PROB = 0.25", "TITLE_INJECT_PROB = 0.5")
    # no run-all ran, so there are no wall times to report
    assert protocol.compare_input(REPO, tree, TINY, tmp_path / "w") == (
        1, [f"{NAME}: the change's synth wrote other corpus.jsonl"])


def test_stand_alone_score_that_differs_from_run_all_fails(tmp_path):
    # by score, run-all's shared context still holds ingest's term counts
    tree = changed_tree(tmp_path, "pipeline.py", '"n_labels": len(labels),',
                        '"n_labels": len(labels) + ("terms" in ctx.__dict__),')
    assert compare(tree, tmp_path) == (
        1, f"{NAME}: the change's stand-alone score rewrote score_stats.json")


def test_stand_alone_evaluate_that_differs_from_run_all_fails(tmp_path):
    # only evaluate run alone reads the gold labels through load_paper_labels
    # the mutation: a load_paper_labels that keeps one gold label per paper
    read = '    return read_keyed(path, lambda rec: _read_paper(rec, _KEEP_NONE)[:2], "paper id")\n'
    tree = changed_tree(tmp_path, "corpus.py", read,
                        read.replace("return", "gold =") + "    return {pid: labels and "
                        "frozenset(sorted(labels)[:1]) for pid, labels in gold.items()}\n")
    assert compare(tree, tmp_path) == (
        1, f"{NAME}: the change's stand-alone evaluate rewrote metrics.json")


def test_stand_alone_predict_branch_that_differs_fails(tmp_path):
    # run-all takes the self-train branch; only the predict modes run the other one
    tree = changed_tree(tmp_path, "pipeline.py", "[r.mrr for r in rows[:top_k]]",
                        "[r.mrr for r in rows[:top_k]][::-1]")
    assert compare(tree, tmp_path) == (
        1, f"{NAME}: the change's stand-alone predict (--no-selftrain) wrote other bytes")


def test_reports_net_src_lines_last(tmp_path, monkeypatch, capsys):
    tree = changed_tree(tmp_path, "config.py", "class ConfigError(ValueError):\n",
                        "class ConfigError(ValueError):\n    \"\"\"A config fault.\"\"\"\n")
    n = sum(len(path.read_text(encoding="utf-8").splitlines())
            for path in (REPO / "src" / "weaklabel").glob("*.py"))
    monkeypatch.setattr(protocol, "INPUTS", [])
    assert protocol.main([str(REPO), str(tree)]) == 0
    assert capsys.readouterr().out == f"src/ lines: parent {n}, change {n + 1} (+1)\n"


def test_prints_each_input_s_verdict_then_its_wall_times(monkeypatch, capsys):
    n = sum(len(path.read_text(encoding="utf-8").splitlines())
            for path in (REPO / "src" / "weaklabel").glob("*.py"))
    monkeypatch.setattr(protocol, "INPUTS", [TINY])
    assert protocol.main([str(REPO), str(REPO)]) == 0
    verdict, times, lines = capsys.readouterr().out.splitlines()
    assert verdict.startswith(f"{NAME}: cmp-identical; output bytes: parent ")
    assert TIMES.fullmatch(times)
    assert lines == f"src/ lines: parent {n}, change {n} (+0)"


@pytest.mark.parametrize("argv", [[], ["a"], ["a", "b", "c"]])
def test_wrong_argument_count_exits_2(argv, capsys):
    assert protocol.main(argv) == 2
    assert "usage: python tests/protocol.py PARENT_TREE CHANGE_TREE" in capsys.readouterr().err


def test_path_that_is_not_a_tree_exits_2(tmp_path, capsys):
    assert protocol.main([str(REPO), str(tmp_path)]) == 2
    assert f"not a source tree (no src/weaklabel): {tmp_path}" in capsys.readouterr().err


def classifier_dirs(tmp_path, weights, change):
    """Two output directories holding only a classifier.npz of ``weights``: the
    parent's as np.savez_compressed writes it (each float64 member whole), the
    change's through write_npz (split into low bytes and high byte planes), its
    weights first passed through ``change``."""
    ref, new = tmp_path / "ref", tmp_path / "new"
    ref.mkdir()
    new.mkdir()
    meta = b'{"version": 1}'
    biases = np.linspace(-1.0, 1.0, weights.shape[0])
    np.savez_compressed(ref / "classifier.npz", weights=weights, biases=biases,
                        meta=np.frombuffer(meta, dtype=np.uint8))
    write_npz(new / "classifier.npz", {"weights": change(weights.copy()), "biases": biases},
              {"version": 1})
    return ref, new


def test_split_layout_of_the_same_weights_holds_the_numerics_rule(tmp_path):
    weights = np.random.default_rng(1).normal(size=(40, 30))
    assert compare_outputs(*classifier_dirs(tmp_path, weights, lambda w: w)) == []


def test_perturbed_split_weights_are_a_breach(tmp_path):
    weights = np.random.default_rng(1).normal(size=(40, 30))

    def perturb(w):
        w[7, 3] += 1e-10
        return w

    breaches = compare_outputs(*classifier_dirs(tmp_path, weights, perturb))
    assert len(breaches) == 1
    assert breaches[0].startswith("classifier.npz: weights: differs by up to 1e-10 absolute")
