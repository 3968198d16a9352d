"""Smoke test of the benchmark harness on the README walkthrough shape.

    python3 -m pytest perfbench -q

Runs the `smoke` workload (5 identities x 50 frames, 3 epochs) untraced and
traced, and checks that every metric BENCHMARK.json names is printed with
its unit and passes its output checks, so the harness cannot rot unnoticed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, section):
    proc = run_bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith("#")}
    assert printed == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace == "1":
        spans_file = ROOT / ".perfbench_runs" / "spans-smoke-seed3.jsonl"
        spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
        for span in spans:
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
                assert parent["run"] == span["run"]
        metrics = result["metrics"]
        assert metrics["evaluation.assign_predictions_calls"]["value"] == 0
        assert metrics["training.steps"]["value"] > 0
        assert 0 < metrics["association.match_rate"]["value"] <= 1


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "crowd", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children_of_a_later_pass():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracing

    # The second pass of a run: its spans start at index 3 in the tracer.
    spans = [
        ["cli.track", 10.0, 20.0, -1, "pass1", None],
        ["datasets.load_frames", 11.0, 13.0, 3, "pass1", 6],
        ["datasets.load_frames", 14.0, 15.0, 3, "pass1", 6],
    ]
    metrics = tracing.layer_metrics(spans, first=3)
    assert metrics["cli.track_self_s"] == 7.0
    assert metrics["datasets.load_frames_s"] == 3.0
    assert metrics["datasets.load_frames_det_per_s"] == 4.0


def test_normalize_scales_times_and_rates_but_not_counts():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracing

    metrics = {"training.epoch_ms": 10.0, "datasets.load_frames_det_per_s": 100.0,
               "training.steps": 7, "association.match_rate": 0.5}
    scaled = tracing.normalize(metrics, 0.5)
    assert scaled == {"training.epoch_ms": 5.0, "datasets.load_frames_det_per_s": 200.0,
                      "training.steps": 7, "association.match_rate": 0.5}
