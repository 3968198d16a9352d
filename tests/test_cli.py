import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from embedtrack import (
    LossConfig,
    SimConfig,
    TrainConfig,
    load_frames,
    load_params,
    load_track_records,
)
from embedtrack import cli
from embedtrack.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

SIM_ARGS = [
    "--identity-count", "3",
    "--frame-count", "10",
    "--feature-dim", "4",
    "--archetype-separation", "8.0",
    "--seed", "5",
]

TRAIN_ARGS = ["--epochs", "3", "--hidden-dim", "8", "--embed-dim", "4"]


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out)] + SIM_ARGS) == 0
    return out


@pytest.fixture
def trained_dir(tmp_path, sim_dir):
    out = tmp_path / "train"
    args = ["train", "--frames", str(sim_dir / "frames.jsonl"), "--out", str(out)]
    assert main(args + TRAIN_ARGS) == 0
    return out


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestSimulate:
    def test_writes_frames_and_manifest(self, sim_dir):
        frames = load_frames(sim_dir / "frames.jsonl")
        assert len(frames) == 10
        assert all(len(f.gt_boxes) == 3 for f in frames)
        manifest = _manifest(sim_dir)
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 5
        assert manifest["outputs"] == {"frames": "frames.jsonl"}
        assert manifest["config"]["identity_count"] == 3

    def test_deterministic_output_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--out", str(out)] + SIM_ARGS) == 0
            outs.append(out)
        for fname in ("frames.jsonl", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"identity_count": 2, "frame_count": 4, "feature_dim": 3}))
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(cfg_path), "--out", str(out), "--frame-count", "6"]
        )
        assert code == 0
        frames = load_frames(out / "frames.jsonl")
        assert len(frames) == 6  # flag beats file
        assert all(len(f.gt_boxes) == 2 for f in frames)  # file beats default

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"identity_cnt": 2}))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "identity_cnt" in capsys.readouterr().err

    def test_invalid_value_reports_and_fails(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path / "out"), "--noise-sigma", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "noise_sigma" in err


# One non-default value per config field exposed as a flag, against the
# SIM_ARGS and FIELD_TRAIN_ARGS runs.
SIM_CHANGES = {
    "identity_count": "2", "frame_count": "5", "feature_dim": "5",
    "archetype_separation": "4.0", "noise_sigma": "0.5", "dropout": "0.3",
    "image_width": "1000.0", "image_height": "1000.0", "min_box_size": "100.0",
    "max_box_size": "120.0", "max_speed": "2.0", "camera_id": "1", "seed": "6",
}
TRAIN_CHANGES = {
    "margin": "2.0", "pull_margin": "0.5", "w_triplet": "0.5", "w_pull": "0.5",
    "score_threshold": "0.8", "initial_lr": "0.01", "epochs": "3", "hidden_dim": "6",
    "embed_dim": "3", "seed": "1",
}
FIELD_TRAIN_ARGS = ["--epochs", "2", "--hidden-dim", "8", "--embed-dim", "4"]


def _outputs(out_dir):
    """Every output but manifest.json, with params.json's copy of the loss
    config left out, so that a field counts only by what it changes."""
    outputs = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "params.json":
            doc = json.loads(path.read_text())
            del doc["loss_config"]
            outputs[path.name] = doc
        elif path.name != "manifest.json":
            outputs[path.name] = path.read_bytes()
    return outputs


class TestEveryConfigFieldMatters:
    """No config field that changes nothing: a non-default value of each
    SimConfig, TrainConfig and LossConfig flag changes an output of its
    stage."""

    def test_every_field_has_a_case(self):
        assert set(SIM_CHANGES) == {f.name for f in fields(SimConfig)}
        assert set(TRAIN_CHANGES) == {f.name for f in fields(LossConfig) + fields(TrainConfig)}

    def test_simulate_fields_change_the_frames(self, tmp_path):
        def run(name, extra):
            out = tmp_path / name
            assert main(["simulate", "--out", str(out)] + SIM_ARGS + extra) == 0
            return _outputs(out)

        base = run("base", [])
        for name, value in SIM_CHANGES.items():
            assert run(name, ["--" + name.replace("_", "-"), value]) != base, name

    def test_train_fields_change_the_head(self, tmp_path, sim_dir):
        def run(name, extra):
            out = tmp_path / name
            argv = ["train", "--frames", str(sim_dir / "frames.jsonl"), "--out", str(out)]
            return main(argv + FIELD_TRAIN_ARGS + extra), out

        code, out = run("base", [])
        assert code == 0
        base = _outputs(out)
        for name, value in TRAIN_CHANGES.items():
            code, out = run(name, ["--" + name.replace("_", "-"), value])
            assert code == 0 and _outputs(out) != base, name


class TestTrain:
    def test_writes_params_and_trace(self, sim_dir, trained_dir):
        params, seed, loss_cfg = load_params(trained_dir / "params.json")
        assert (params.hidden_dim, params.embed_dim) == (8, 4)
        assert params.feature_dim == 4
        assert seed == 0
        assert loss_cfg is not None

        with (trained_dir / "loss_trace.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [int(r["epoch"]) for r in rows] == [0, 1, 2]
        assert all(float(r["mean_loss"]) >= 0 for r in rows)

        manifest = _manifest(trained_dir)
        assert manifest["config"]["train"]["epochs"] == 3
        assert manifest["config"]["batch_count"] == 9

    def test_config_file_covers_both_configs(self, tmp_path, sim_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 2, "hidden_dim": 6, "margin": 2.5}))
        out = tmp_path / "out"
        code = main(
            [
                "train",
                "--frames", str(sim_dir / "frames.jsonl"),
                "--config", str(cfg_path),
                "--out", str(out),
                "--embed-dim", "3",
            ]
        )
        assert code == 0
        params, _, loss_cfg = load_params(out / "params.json")
        assert (params.hidden_dim, params.embed_dim) == (6, 3)
        assert loss_cfg.margin == 2.5

    def test_refuses_single_identity_data(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(
            ["simulate", "--out", str(sim), "--identity-count", "1", "--feature-dim", "4",
             "--frame-count", "6"]
        ) == 0
        code = main(
            ["train", "--frames", str(sim / "frames.jsonl"), "--out", str(tmp_path / "out")]
            + TRAIN_ARGS
        )
        assert code == 1
        assert "two distinct identities" in capsys.readouterr().err

    def test_rejects_detector_weights_from_flags_and_file(self, tmp_path, sim_dir, capsys):
        # no detector loss is computed, so there are no weights for it, not even 1.0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"w_reg": 1.0}))
        base = ["train", "--frames", str(sim_dir / "frames.jsonl"), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(base + ["--w-cls", "1"] + TRAIN_ARGS)
        assert exc.value.code == 2
        assert "--w-cls" in capsys.readouterr().err
        assert main(base + ["--config", str(cfg_path)] + TRAIN_ARGS) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_boxes_left_of_zero(self, tmp_path, sim_dir, trained_dir):
        # every box moved left of x = 0; the labels and features, and so the
        # trained head, stay the same
        lines = []
        for line in (sim_dir / "frames.jsonl").read_text().splitlines():
            doc = json.loads(line)
            for rec in doc["detections"] + doc["gt_boxes"]:
                rec["box"] = [rec["box"][0] - 2000.0, rec["box"][1], rec["box"][2] - 2000.0,
                              rec["box"][3]]
            lines.append(json.dumps(doc))
        shifted = tmp_path / "shifted.jsonl"
        shifted.write_text("\n".join(lines) + "\n")
        out = tmp_path / "shifted"
        assert main(["train", "--frames", str(shifted), "--out", str(out)] + TRAIN_ARGS) == 0
        for fname in ("params.json", "loss_trace.csv"):
            assert (out / fname).read_bytes() == (trained_dir / fname).read_bytes()

    def test_missing_frames_file_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["train", "--frames", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCalibrate:
    def test_outputs(self, tmp_path, sim_dir, trained_dir):
        out = tmp_path / "calib"
        code = main(
            [
                "calibrate",
                "--frames", str(sim_dir / "frames.jsonl"),
                "--params", str(trained_dir / "params.json"),
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "threshold.json").read_text())
        assert doc["threshold"] > 0
        assert doc["objective"] >= 0
        assert doc["pair_count"] == doc["same_count"] + doc["diff_count"]
        # 3 identities over 9 consecutive pairs, no dropout: 9 * 3 * 3 pairs
        assert doc["pair_count"] == 81

        with (out / "sweep.csv").open() as fh:
            sweep_rows = list(csv.DictReader(fh))
        assert any(float(r["h"]) == doc["threshold"] for r in sweep_rows)
        objectives = [float(r["objective"]) for r in sweep_rows]
        assert min(objectives) == doc["objective"]

        with (out / "histogram.csv").open() as fh:
            hist_rows = list(csv.DictReader(fh))
        same = sum(int(r["same_count"]) for r in hist_rows)
        diff = sum(int(r["diff_count"]) for r in hist_rows)
        assert (same, diff) == (doc["same_count"], doc["diff_count"])

    def test_pairs_only_consecutive_frames(self, tmp_path, sim_dir, trained_dir):
        lines = (sim_dir / "frames.jsonl").read_text().splitlines()
        gapped = tmp_path / "frames.jsonl"
        gapped.write_text("\n".join([lines[0], lines[1], lines[3]]) + "\n")  # frames 0, 1, 3
        out = tmp_path / "calib"
        code = main(
            ["calibrate", "--frames", str(gapped), "--params", str(trained_dir / "params.json"),
             "--out", str(out)]
        )
        assert code == 0
        # only the 0 -> 1 neighbours pair up: 3 x 3 detections
        assert json.loads((out / "threshold.json").read_text())["pair_count"] == 9

    def test_rejects_repeated_gt_identity(self, tmp_path, sim_dir, trained_dir, capsys):
        lines = (sim_dir / "frames.jsonl").read_text().splitlines()
        doc = json.loads(lines[2])
        doc["gt_boxes"][1]["id"] = doc["gt_boxes"][0]["id"]
        lines[2] = json.dumps(doc)
        repeated = tmp_path / "frames.jsonl"
        repeated.write_text("\n".join(lines) + "\n")
        code = main(
            ["calibrate", "--frames", str(repeated), "--params", str(trained_dir / "params.json"),
             "--out", str(tmp_path / "calib")]
        )
        assert code == 1
        assert "line 3, field 'gt_boxes.id'" in capsys.readouterr().err

    def test_single_identity_dev_set_fails(self, tmp_path, trained_dir, capsys):
        sim = tmp_path / "sim1"
        assert main(
            ["simulate", "--out", str(sim), "--identity-count", "1", "--feature-dim", "4",
             "--frame-count", "6"]
        ) == 0
        code = main(
            [
                "calibrate",
                "--frames", str(sim / "frames.jsonl"),
                "--params", str(trained_dir / "params.json"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestTrackAndEval:
    def _run_track(self, tmp_path, sim_dir, trained_dir, threshold):
        out = tmp_path / "tracks"
        code = main(
            [
                "track",
                "--frames", str(sim_dir / "frames.jsonl"),
                "--params", str(trained_dir / "params.json"),
                "--threshold", str(threshold),
                "--out", str(out),
            ]
        )
        assert code == 0
        return out

    def test_track_writes_records(self, tmp_path, sim_dir, trained_dir):
        out = self._run_track(tmp_path, sim_dir, trained_dir, threshold=1e9)
        records = load_track_records(out / "tracks.jsonl")
        frames = load_frames(sim_dir / "frames.jsonl")
        kept = sum(int((f.detections["confidence"] >= 0.5).sum()) for f in frames)
        assert len(records) == kept
        assert (records["track_id"] >= 0).all()

    def test_eval_report_structure(self, tmp_path, sim_dir, trained_dir):
        tracks = self._run_track(tmp_path, sim_dir, trained_dir, threshold=1e9)
        out = tmp_path / "report"
        code = main(
            [
                "eval",
                "--tracks", str(tracks / "tracks.jsonl"),
                "--frames", str(sim_dir / "frames.jsonl"),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mota"] <= 1.0
        assert 0.0 <= report["pair_accuracy"] <= 1.0
        assert 0.0 <= report["mean_ap"] <= 1.0
        counts = report["mot_counts"]
        assert counts["gt_total"] == 30
        assert counts["miss"] == 0  # every gt box has an exact detection

    def test_eval_pairs_only_consecutive_frames(self, tmp_path, sim_dir, trained_dir):
        lines = (sim_dir / "frames.jsonl").read_text().splitlines()
        gapped = tmp_path / "gapped"
        gapped.mkdir()
        (gapped / "frames.jsonl").write_text("\n".join([lines[0], lines[1], lines[3]]) + "\n")
        tracks = self._run_track(tmp_path, gapped, trained_dir, threshold=1e9)
        out = tmp_path / "report"
        assert main(["eval", "--tracks", str(tracks / "tracks.jsonl"),
                     "--frames", str(gapped / "frames.jsonl"), "--out", str(out)]) == 0
        # only the 0 -> 1 neighbours pair up: 3 x 3 detections
        counts = json.loads((out / "report.json").read_text())["pair_counts"]
        assert counts["tp"] + counts["tn"] + counts["fp"] + counts["fn"] == 9

    def test_eval_counts_fixture(self, tmp_path):
        fixture = tmp_path / "counts.json"
        fixture.write_text(
            json.dumps(
                {
                    "mot": {"fp": 1, "miss": 2, "mismatch": 1, "gt_total": 10},
                    "pair": {"tp": 3, "tn": 4, "fp": 1, "fn": 2},
                }
            )
        )
        out = tmp_path / "out"
        assert main(["eval", "--counts", str(fixture), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mota"] == pytest.approx(0.6)
        assert report["pair_accuracy"] == pytest.approx(0.7)

    def test_eval_needs_inputs(self, tmp_path, capsys):
        code = main(["eval", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "--counts" in capsys.readouterr().err

    def test_eval_rejects_stray_track_frames(self, tmp_path, sim_dir, trained_dir, capsys):
        tracks_dir = self._run_track(tmp_path, sim_dir, trained_dir, threshold=1e9)
        tracks = tracks_dir / "tracks.jsonl"
        doc = json.loads(tracks.read_text().splitlines()[0])
        doc["frame_index"] = 99
        tracks.write_text(json.dumps(doc) + "\n")
        code = main(
            [
                "eval",
                "--tracks", str(tracks),
                "--frames", str(sim_dir / "frames.jsonl"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "unknown frames" in capsys.readouterr().err

    def test_eval_rejects_repeated_track_in_frame(self, tmp_path, sim_dir, trained_dir, capsys):
        tracks_dir = self._run_track(tmp_path, sim_dir, trained_dir, threshold=1e9)
        tracks = tracks_dir / "tracks.jsonl"
        lines = tracks.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["track_id"] = json.loads(lines[0])["track_id"]
        tracks.write_text("\n".join([lines[0], json.dumps(doc)] + lines[2:]) + "\n")
        code = main(
            [
                "eval",
                "--tracks", str(tracks),
                "--frames", str(sim_dir / "frames.jsonl"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_eval_rejects_multiple_cameras(self, tmp_path, sim_dir, trained_dir, capsys):
        frames = sim_dir / "frames.jsonl"
        lines = frames.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["camera_id"] = 7
        merged = tmp_path / "frames.jsonl"
        merged.write_text("\n".join(lines + [json.dumps(doc)]) + "\n")
        tracks_dir = self._run_track(tmp_path, sim_dir, trained_dir, threshold=1e9)
        code = main(
            [
                "eval",
                "--tracks", str(tracks_dir / "tracks.jsonl"),
                "--frames", str(merged),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "single camera" in capsys.readouterr().err


class TestThresholdFlags:
    @pytest.mark.parametrize(
        "stage,flag,value",
        [
            ("calibrate", "--iou-min", "5"),
            ("calibrate", "--score-threshold", "1.5"),
            ("track", "--score-threshold", "nan"),
            ("eval", "--score-threshold", "-3"),
            ("eval", "--iou-min", "1.0"),
            ("eval", "--iou-min", "nan"),
            ("calibrate", "--bins", "0"),
            ("calibrate", "--bins", "-3"),
            ("track", "--threshold", "-1"),
            ("track", "--threshold", "0"),
            ("track", "--threshold", "nan"),
            ("track", "--threshold", "inf"),
        ],
    )
    def test_out_of_range_value_fails(
        self, tmp_path, sim_dir, trained_dir, capsys, stage, flag, value
    ):
        frames, params = str(sim_dir / "frames.jsonl"), str(trained_dir / "params.json")
        tracks = tmp_path / "tracks"
        assert main(
            ["track", "--frames", frames, "--params", params, "--threshold", "1e9",
             "--out", str(tracks)]
        ) == 0
        inputs = {
            "calibrate": ["--frames", frames, "--params", params],
            "track": ["--frames", frames, "--params", params, "--threshold", "1e9"],
            "eval": ["--tracks", str(tracks / "tracks.jsonl"), "--frames", frames],
        }[stage]
        out = tmp_path / "out"
        assert main([stage, *inputs, flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_score_threshold_ends_are_legal(self, tmp_path, sim_dir, trained_dir, value):
        out = tmp_path / "out"
        code = main(
            ["track", "--frames", str(sim_dir / "frames.jsonl"),
             "--params", str(trained_dir / "params.json"), "--threshold", "1e9",
             "--score-threshold", value, "--out", str(out)]
        )
        assert code == 0
        assert _manifest(out)["config"]["score_threshold"] == float(value)


    @pytest.mark.parametrize(
        "stage, flags",
        [("calibrate", ["--bins", "0"]), ("track", ["--threshold", "-1"])],
    )
    def test_checked_before_reading_inputs(self, tmp_path, trained_dir, capsys, stage, flags):
        # an empty frames file has nothing to fail on later
        frames = tmp_path / "empty.jsonl"
        frames.write_text("")
        out = tmp_path / "out"
        argv = [stage, "--frames", str(frames), "--params", str(trained_dir / "params.json")]
        if stage == "calibrate":
            argv += ["--params", str(tmp_path / "missing.json")]
        assert main(argv + flags + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flags[0]} ")
        assert not out.exists()


def _fails_cleanly(argv, capsys, *words):
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    for word in words:
        assert word in err


def _calibrate_and_track(root, frames, params, *flags):
    """Outputs of calibrate and track on `frames`, by path under `root`."""
    assert main(["calibrate", "--frames", frames, "--params", params, *flags,
                 "--out", str(root / "calib")]) == 0
    assert main(["track", "--frames", frames, "--params", params, "--threshold", "1e9",
                 *flags, "--out", str(root / "track")]) == 0
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.glob("*/*"))}


class TestHeadScoreThreshold:
    """calibrate and track default --score-threshold to the value the head
    was trained at, and to 0.5 for a head file without a loss config."""

    def test_trained_value_travels_with_the_head(self, tmp_path, sim_dir):
        frames = str(sim_dir / "frames.jsonl")
        head = tmp_path / "head"
        assert main(["train", "--frames", frames, "--score-threshold", "0.8",
                     "--out", str(head)] + TRAIN_ARGS) == 0
        params = str(head / "params.json")
        unset = _calibrate_and_track(tmp_path / "unset", frames, params)
        given = _calibrate_and_track(tmp_path / "given", frames, params, "--score-threshold", "0.8")
        assert unset == given
        for stage in ("calib", "track"):
            assert _manifest(tmp_path / "unset" / stage)["config"]["score_threshold"] == 0.8
        # a flag that is given still wins
        low = _calibrate_and_track(tmp_path / "low", frames, params, "--score-threshold", "0.5")
        assert _manifest(tmp_path / "low/track")["config"]["score_threshold"] == 0.5
        assert low[Path("track/tracks.jsonl")] != unset[Path("track/tracks.jsonl")]

    def test_head_without_loss_config_uses_the_default(self, tmp_path, sim_dir, trained_dir):
        doc = json.loads((trained_dir / "params.json").read_text())
        doc["loss_config"] = None
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        frames = str(sim_dir / "frames.jsonl")
        unset = _calibrate_and_track(tmp_path / "unset", frames, str(params))
        given = _calibrate_and_track(
            tmp_path / "given", frames, str(params), "--score-threshold", "0.5"
        )
        assert unset == given


class TestOutsideValues:
    """Values from config files, count fixtures and parameter files are
    checked where they are loaded: each bad one prints `error:` and exits 1."""

    @pytest.mark.parametrize(
        "values",
        [{"epochs": "2"}, {"epochs": 2.5}, {"epochs": True}, {"margin": "5"},
         {"initial_lr": None}, {"seed": [1]}, {"margin": 10**400}],
    )
    def test_train_config_value_of_wrong_type(self, tmp_path, sim_dir, capsys, values):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        _fails_cleanly(
            ["train", "--frames", sim_dir / "frames.jsonl", "--config", config,
             "--out", tmp_path / "out"],
            capsys,
            next(iter(values)),
        )

    def test_simulate_config_value_of_wrong_type(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"frame_count": 3.0}))
        _fails_cleanly(["simulate", "--config", config, "--out", tmp_path / "out"], capsys,
                       "frame_count")

    @pytest.mark.parametrize(
        "flag, value",
        [("--noise-sigma", "nan"), ("--archetype-separation", "inf"), ("--image-width", "nan"),
         ("--image-height", "inf"), ("--max-speed", "inf"), ("--min-box-size", "nan")],
    )
    def test_simulate_non_finite_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        _fails_cleanly(["simulate", flag, value, "--out", out], capsys,
                       flag[2:].replace("-", "_"), "finite")
        assert not out.exists()

    @pytest.mark.parametrize(
        "stage, text, field",
        [("simulate", '{"noise_sigma": NaN}', "noise_sigma"),
         ("simulate", '{"image_height": -Infinity}', "image_height"),
         ("train", '{"margin": Infinity}', "margin"),
         ("train", '{"initial_lr": NaN}', "initial_lr")],
    )
    def test_non_finite_config_value(self, tmp_path, sim_dir, capsys, stage, text, field):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        inputs = ["--frames", sim_dir / "frames.jsonl"] if stage == "train" else []
        out = tmp_path / "out"
        _fails_cleanly([stage, *inputs, "--config", config, "--out", out], capsys, field, "finite")
        assert not out.exists()

    def test_simulate_features_overflow(self, tmp_path, capsys):
        """A finite noise level so large that features overflow to inf: the
        frames writer refuses to put Infinity into JSON."""
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            _fails_cleanly(["simulate", "--noise-sigma", "1e308", "--frame-count", "2",
                            "--out", out], capsys, "JSON")
        assert "Infinity" not in (out / "frames.jsonl").read_text()

    def test_simulate_speed_range_overflow(self, tmp_path, capsys):
        """A finite speed whose range (twice the speed) overflows a float."""
        _fails_cleanly(["simulate", "--max-speed", "1e308", "--frame-count", "2",
                        "--out", tmp_path / "out"], capsys, "range")

    def test_infinite_calibrated_threshold(self, tmp_path, sim_dir, trained_dir, capsys,
                                           monkeypatch):
        """One different-identity pair at 0 and one same-identity pair at the
        largest float: the sweep can only place the threshold at infinity."""
        pairs = (np.array([0.0, 1.7976931348623157e308]), np.array([False, True]))
        monkeypatch.setattr(cli, "neighbor_pair_distances", lambda *args: pairs)
        out = tmp_path / "out"
        _fails_cleanly(
            ["calibrate", "--frames", sim_dir / "frames.jsonl",
             "--params", trained_dir / "params.json", "--out", out],
            capsys,
            "threshold inf",
        )
        assert not out.exists()

    def test_integer_accepted_for_float_field(self, tmp_path, sim_dir):
        """A float field given as a JSON integer writes the bytes its flag
        writes."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"margin": 4, "initial_lr": 0.01, "epochs": 2}))
        train = ["train", "--frames", str(sim_dir / "frames.jsonl"), "--hidden-dim", "8"]
        from_file, from_flags = tmp_path / "file", tmp_path / "flags"
        assert main(train + ["--config", str(config), "--out", str(from_file)]) == 0
        assert main(train + ["--margin", "4", "--initial-lr", "0.01", "--epochs", "2",
                             "--out", str(from_flags)]) == 0
        assert _manifest(from_file)["config"]["loss"]["margin"] == 4
        for name in ("params.json", "manifest.json"):
            assert (from_file / name).read_bytes() == (from_flags / name).read_bytes()

    @pytest.mark.parametrize(
        "counts, words",
        [
            ({"mot": {"fp": 1}}, ["miss", "gt_total"]),
            ({"mot": {"fp": "a", "miss": 0, "mismatch": 0, "gt_total": 5}}, ["fp"]),
            ({"mot": {"fp": 0.5, "miss": 0, "mismatch": 0, "gt_total": 5}}, ["fp"]),
            ({"mot": {"fp": -1, "miss": 0, "mismatch": 0, "gt_total": 5}}, ["fp"]),
            ({"mot": {"fp": 0, "miss": 0, "mismatch": 0, "gt_total": True}}, ["gt_total"]),
            ({"mot": {"fp": 0, "miss": 0, "mismatch": 0, "gt_total": 5, "ids": 1}}, ["ids"]),
            ({"mot": [1, 2]}, ["mot"]),
            ({"pair": {"tp": 1, "tn": 1, "fp": 0}}, ["fn"]),
            ({"pair": {"tp": 1, "tn": 1, "fp": 0, "fn": 0, "gp": 2.0}}, ["gp"]),
            ({"mot": {"fp": 10**400, "miss": 0, "mismatch": 0, "gt_total": 1}}, ["too large"]),
        ],
    )
    def test_bad_counts_fixture(self, tmp_path, capsys, counts, words):
        fixture = tmp_path / "counts.json"
        fixture.write_text(json.dumps(counts))
        _fails_cleanly(["eval", "--counts", fixture, "--out", tmp_path / "out"], capsys, *words)

    def test_counts_fixture_keeps_explicit_totals(self, tmp_path):
        fixture = tmp_path / "counts.json"
        fixture.write_text(json.dumps({"pair": {"tp": 1, "tn": 1, "fp": 0, "fn": 0, "gp": 3}}))
        out = tmp_path / "out"
        assert main(["eval", "--counts", str(fixture), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pair_counts"]["gp"] == 3 and report["pair_counts"]["gn"] == 1

    def test_params_file_must_hold_an_object(self, tmp_path, sim_dir, capsys):
        params = tmp_path / "params.json"
        params.write_text("[1]\n")
        _fails_cleanly(
            ["track", "--frames", sim_dir / "frames.jsonl", "--params", params,
             "--threshold", "1.0", "--out", tmp_path / "out"],
            capsys,
            "JSON object",
        )

    @pytest.mark.parametrize("loss_config", [{"margin": 5.0, "w_extra": 1.0}, {"margin": "5"}, [1]])
    def test_params_loss_config_checked(self, tmp_path, sim_dir, trained_dir, capsys, loss_config):
        doc = json.loads((trained_dir / "params.json").read_text())
        doc["loss_config"] = loss_config
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        _fails_cleanly(
            ["track", "--frames", sim_dir / "frames.jsonl", "--params", params,
             "--threshold", "1.0", "--out", tmp_path / "out"],
            capsys,
            "loss_config",
        )

    @pytest.mark.parametrize(
        "edits, field",
        [({"hidden_dim": -1}, "hidden_dim"), ({"hidden_dim": 8.9}, "hidden_dim"),
         ({"hidden_dim": "8"}, "hidden_dim"), ({"format_version": True}, "format_version"),
         ({"format_version": 1.0}, "format_version"), ({"seed": 2.7}, "seed"),
         ({"seed": "5"}, "seed"), ({"seed": True}, "seed"), ({"w1": [[0.5] * 4] * 8}, "w1"),
         ({"feature_dim": 0, "w1": []}, "feature_dim"), ({"b2": [0.0, 0.0, 0.0, 10**400]}, "b2"),
         ({"loss_config": {"w_pull": float("nan")}}, "w_pull")],
    )
    def test_params_fields_checked(self, tmp_path, sim_dir, trained_dir, capsys, edits, field):
        """Each edit of the trained file (hidden 8, feature 4) would load, or
        fail naming no field, if the dims were read with `int`, the weights
        reshaped and the loss weights only compared with 0."""
        doc = json.loads((trained_dir / "params.json").read_text())
        params = tmp_path / "params.json"
        params.write_text(json.dumps({**doc, **edits}))
        out = tmp_path / "out"
        argv = ["calibrate", "--frames", str(sim_dir / "frames.jsonl"), "--params", str(params)]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.replace(str(params), "PATH")
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("number", ["Infinity", "1e309"])
    @pytest.mark.parametrize("field", ["margin", "pull_margin", "w_triplet", "w_pull"])
    def test_params_loss_config_not_finite(
        self, tmp_path, sim_dir, trained_dir, capsys, field, number
    ):
        """JSON reads both numbers as inf, which the head's loss config
        refuses by name."""
        doc = json.loads((trained_dir / "params.json").read_text())
        doc["loss_config"][field] = "NUMBER"
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc).replace('"NUMBER"', number))
        out = tmp_path / "out"
        _fails_cleanly(
            ["calibrate", "--frames", sim_dir / "frames.jsonl", "--params", params,
             "--out", out],
            capsys,
            field,
            "finite",
        )
        assert not out.exists()

    def test_params_integer_loss_config(self, tmp_path, sim_dir, trained_dir):
        """A head whose loss_config holds JSON integers makes calibrate and
        track write the bytes, manifests included, that the same head with
        floats makes them write."""
        doc = json.loads((trained_dir / "params.json").read_text())
        whole = {"margin": 5, "pull_margin": 1, "w_triplet": 1, "w_pull": 0, "score_threshold": 0}
        params = tmp_path / "params.json"  # one path, so the manifests' inputs agree
        outputs = {}
        for cast in (int, float):
            loss_config = {name: cast(value) for name, value in whole.items()}
            params.write_text(json.dumps({**doc, "loss_config": loss_config}))
            outputs[cast] = _calibrate_and_track(
                tmp_path / cast.__name__, str(sim_dir / "frames.jsonl"), str(params)
            )
        assert _manifest(tmp_path / "int/calib")["config"]["score_threshold"] == 0.0
        assert outputs[int] == outputs[float]

    def test_params_loss_config_too_large(self, tmp_path, sim_dir, trained_dir, capsys):
        doc = json.loads((trained_dir / "params.json").read_text())
        doc["loss_config"]["margin"] = 10**400
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        out = tmp_path / "out"
        _fails_cleanly(
            ["track", "--frames", sim_dir / "frames.jsonl", "--params", params,
             "--threshold", "1.0", "--out", out],
            capsys,
            "margin",
            "too large",
        )
        assert not out.exists()

    def test_params_written_with_detector_weights(self, tmp_path, sim_dir, trained_dir, capsys):
        """A params.json from before `w_cls` and `w_reg` left `LossConfig`
        holds both at 1.0: it loads, and calibrate and track write what they
        write on the current file. Any other value is refused by name."""
        current = trained_dir / "params.json"
        text = current.read_text()
        assert text.count('"pull_margin": 1.0, ') == 1

        def older(name, w_cls):
            path = tmp_path / name
            weights = f'"pull_margin": 1.0, "w_cls": {w_cls}, "w_reg": 1.0, '
            path.write_text(text.replace('"pull_margin": 1.0, ', weights))
            return path

        frames = str(sim_dir / "frames.jsonl")
        outputs = {}
        for name, params in (("current", current), ("older", older("older.json", 1.0))):
            root = tmp_path / name
            assert main(["calibrate", "--frames", frames, "--params", str(params),
                         "--out", str(root / "calib")]) == 0
            threshold = json.loads((root / "calib/threshold.json").read_text())["threshold"]
            assert main(["track", "--frames", frames, "--params", str(params),
                         "--threshold", repr(threshold), "--out", str(root / "tracks")]) == 0
            outputs[name] = {
                path.relative_to(root): path.read_bytes()
                for path in root.glob("*/*") if path.name != "manifest.json"
            }
        assert outputs["older"] == outputs["current"]
        _fails_cleanly(
            ["track", "--frames", frames, "--params", older("refused.json", 2.0),
             "--threshold", "1.0", "--out", tmp_path / "out"],
            capsys,
            "w_cls",
        )

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--seed", "-1"], ["simulate", "--config", "{config}"],
         ["train", "--frames", "{frames}", "--seed", "-1"],
         ["train", "--frames", "{frames}", "--config", "{config}"]],
    )
    def test_negative_seed(self, tmp_path, sim_dir, capsys, argv):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": -1}))
        out = tmp_path / "out"
        argv = [a.format(frames=sim_dir / "frames.jsonl", config=config) for a in argv]
        _fails_cleanly([*argv, "--out", out], capsys, "seed must be non-negative")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--max-speed", "1e308", "--frame-count", "2"],
         ["train", "--frames", "{tmp}/missing.jsonl"],
         ["track", "--frames", "{frames}", "--params", "{tmp}/versionless.json",
          "--threshold", "1.0"],
         ["eval", "--tracks", "{tmp}/missing.jsonl", "--frames", "{frames}"],
         ["eval", "--counts", "{tmp}/missing.json"]],
    )
    def test_failed_run_leaves_no_out(self, tmp_path, sim_dir, trained_dir, capsys, argv):
        """The output directory is made only once a subcommand's inputs have
        loaded and its results are computed."""
        doc = json.loads((trained_dir / "params.json").read_text())
        del doc["format_version"]
        (tmp_path / "versionless.json").write_text(json.dumps(doc))
        argv = [a.format(tmp=tmp_path, frames=sim_dir / "frames.jsonl") for a in argv]
        out = tmp_path / "out"
        _fails_cleanly([*argv, "--out", out], capsys)
        assert not out.exists()


class TestEntryPoints:
    def test_missing_subcommand_exits_with_usage(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "out"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "embedtrack", "simulate", "--out", str(out)] + SIM_ARGS,
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert (out / "frames.jsonl").exists()
