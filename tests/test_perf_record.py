"""tests/perf_record.py, run at 40 x 6 with one run per tree."""

import json
from pathlib import Path

import perf_record
from weaklabel import pipeline

REPO = Path(__file__).resolve().parent.parent
TINY = (("40x6", 40, 6, {"seed": 7, "train_steps": 5}),)
STAGES = [name for name, _ in pipeline.STAGES]


def test_appends_one_entry_per_tree(tmp_path):
    path = tmp_path / "BENCH_pipeline.json"
    path.write_text('[{"tree": "earlier"}]\n')
    perf_record.record([REPO, REPO], path, scales=TINY, runs=1)
    entries = json.loads(path.read_text())
    assert entries[0] == {"tree": "earlier"} and len(entries) == 3
    for entry in entries[1:]:
        assert entry.keys() == {"tree", "recorded", "runs", "machine", "scales"}
        assert (entry["tree"], entry["runs"]) == (REPO.name, 1)
        assert entry["recorded"] == entries[1]["recorded"]
        assert entry["machine"].keys() == {"cpus", "python", "numpy", "blas", "blas_threads"}
        assert entry["machine"]["blas_threads"] in (1, "unknown")
        rec = entry["scales"]["40x6"]
        assert rec.keys() == {"config", "run_all_s", "stage_s", "peak_rss_mb",
                              "artifact_bytes", "score_stats"}
        assert rec["config"] == TINY[0][3]
        assert rec["run_all_s"].keys() == {"min", "median", "max"}
        assert list(rec["stage_s"]) == STAGES
        assert sorted(rec["artifact_bytes"]) == sorted(f for f, _ in pipeline.ARTIFACTS.values())
        assert rec["score_stats"]["n_labels"] == 6 and rec["peak_rss_mb"] > 0


def test_script_exits_2_without_a_source_tree(tmp_path, capsys):
    assert perf_record.main([]) == 2
    assert perf_record.main([str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage:")
