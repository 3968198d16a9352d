"""Smoke runs of the example scripts: each exits 0 on small arguments."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_noise_sweep_runs():
    result = _run_script(
        "noise_sweep.py", "--sigmas", "0.5", "--epochs", 2, "--frames", 10, "--holdout-frames", 5
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0].split()[0] == "sigma"
    assert len(result.stdout.splitlines()) == 2


def test_run_pipeline_runs(tmp_path):
    result = _run_script("run_pipeline.py", "--out", tmp_path / "run", "--epochs", 2,
                         "--frames", 10, "--holdout-frames", 5)
    assert result.returncode == 0, result.stderr
    assert "MOTA" in result.stdout
    assert (tmp_path / "run/report/report.json").exists()
    steps = [line for line in result.stdout.splitlines() if line.startswith("$ embedtrack ")]
    assert [line.split()[2] for line in steps] == [
        "simulate", "train", "calibrate", "simulate", "track", "eval",
    ]
    for line in steps:
        assert re.search(r"\S  # peak RSS \+\d+\.\d MB$", line), line
