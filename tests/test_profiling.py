"""Every stage runs under a profiler or a line tracer and writes what it
writes without one: profilers and debuggers hold extra references to the
objects they see, which no loader check may count on."""

import cProfile
import json
import sys
from pathlib import Path

import pytest

from embedtrack import load_frames, load_track_records
from embedtrack.cli import main

SIM = ["--identity-count", "5", "--frame-count", "200", "--feature-dim", "8", "--seed", "3"]


def _pipeline(root: Path, run) -> dict[str, bytes]:
    """simulate, train, calibrate, track and eval in `root`, each `cli.main`
    call made through `run`; every output file's bytes by relative path.
    Paths are relative, so that two roots write the same manifests."""

    def stage(*argv):
        assert run(main, [str(a) for a in argv]) == 0

    stage("simulate", "--out", "sim", *SIM)
    stage("train", "--frames", "sim/frames.jsonl", "--out", "head",
          "--epochs", 2, "--hidden-dim", 8, "--embed-dim", 4)
    stage("calibrate", "--frames", "sim/frames.jsonl", "--params", "head/params.json",
          "--out", "calib")
    threshold = json.loads((root / "calib/threshold.json").read_text())["threshold"]
    stage("track", "--frames", "sim/frames.jsonl", "--params", "head/params.json",
          "--threshold", repr(threshold), "--out", "tracks")
    stage("eval", "--tracks", "tracks/tracks.jsonl", "--frames", "sim/frames.jsonl",
          "--out", "report")
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _in(root: Path, monkeypatch, run) -> dict[str, bytes]:
    root.mkdir()
    monkeypatch.chdir(root)
    return _pipeline(root, run)


def test_pipeline_under_cprofile(tmp_path, monkeypatch):
    plain = _in(tmp_path / "plain", monkeypatch, lambda f, argv: f(argv))
    profiled = _in(tmp_path / "profiled", monkeypatch, cProfile.Profile().runcall)
    assert len(plain) >= 10
    assert profiled == plain


def test_loaders_under_a_line_tracer(tmp_path, monkeypatch):
    """A tracer that reads every frame's locals on every line, as a
    debugger stepping through the loaders does."""
    root = tmp_path / "run"
    _in(root, monkeypatch, lambda f, argv: f(argv))
    frames_path, tracks_path = root / "sim/frames.jsonl", root / "tracks/tracks.jsonl"

    def tracer(frame, event, arg):
        frame.f_locals  # a debugger reads them at every step
        return tracer

    def traced(load, path):
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            return load(path)
        finally:
            sys.settrace(previous)

    frames, tracks = load_frames(frames_path), load_track_records(tracks_path)
    traced_frames = traced(load_frames, frames_path)
    for name in ("frame_index", "camera_id", "detections", "gt_boxes", "det_offsets", "gt_offsets"):
        want, got = getattr(frames, name), getattr(traced_frames, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    got = traced(load_track_records, tracks_path)
    assert got.dtype == tracks.dtype and got.tobytes() == tracks.tobytes()
    assert len(frames) == 200 and len(tracks) > 0
