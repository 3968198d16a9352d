"""Command-line entry point.

Five subcommands wire the library into file-based workflows:

    simulate  config -> frames.jsonl
    train     frames.jsonl -> params.json + loss_trace.csv
    calibrate frames.jsonl + params.json -> threshold.json + sweep.npy (every
              candidate) + sweep.csv (the descent to the threshold) + histogram.csv
    track     frames.jsonl + params.json + threshold -> tracks.jsonl
    eval      tracks.jsonl + frames.jsonl (or a counts fixture) -> report.json

Every subcommand writes its outputs under --out (a directory, created on
demand) plus a manifest.json recording the exact configuration, so a run
can be reproduced byte for byte from its manifest. Config values resolve as
dataclass defaults, then --config file entries, then explicit flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .association import track_sequence
from .calibration import (
    _write_csv, distance_histogram, sweep_threshold, write_histogram_csv, write_sweep_csv
)
from .core import neighbor_frames
from .datasets import (
    SimConfig,
    cross_camera_frames,
    load_frames,
    load_track_records,
    neighbor_pair_distances,
    save_frames,
    save_track_records,
    simulate,
    training_batches,
)
from .embedding import LossConfig, _check_config_keys, load_params, save_params
from .evaluation import (
    MotCounts, PairCounts, ground_truth_records, mean_ap, mota, pair_accuracy, track_counts
)
from .training import TrainConfig, train

__all__ = ["main"]


def _add_config_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One flag per dataclass field, typed from the field default.

    Flags default to None so that only explicitly passed values override the
    config file.
    """
    for f in dataclasses.fields(cls):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(
            flag,
            dest=f.name,
            type=type(f.default),
            default=None,
            help=f"{cls.__name__}.{f.name} (default {f.default})",
        )


def _resolve_config(cls, file_values: dict, args: argparse.Namespace):
    """defaults < config file < flags, validated by the dataclass itself; an
    error whose message starts with a field the file set names the file."""
    names = [f.name for f in dataclasses.fields(cls)]
    values = {name: file_values[name] for name in names if name in file_values}
    values.update((name, getattr(args, name)) for name in names if getattr(args, name) is not None)
    try:
        return cls(**values)
    except ValueError as exc:
        field = str(exc).split(" ", 1)[0]
        if field in file_values and getattr(args, field) is None:
            raise ValueError(f"config file {args.config}: {exc}") from None
        raise


def _load_config_file(path: Optional[str], *classes) -> dict:
    if path is None:
        return {}
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    _check_config_keys(doc, classes, f"config file {path}")
    return doc


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict, indent: Optional[int] = None) -> None:
    """`doc` as one JSON document and a newline; a non-finite float raises
    ValueError, as JSON has no NaN or Infinity."""
    path.write_text(json.dumps(doc, indent=indent, allow_nan=False) + "\n", encoding="utf-8")


def _write_manifest(
    out: Path,
    subcommand: str,
    seed: Optional[int],
    inputs: dict[str, str],
    outputs: dict[str, str],
    config: dict,
) -> None:
    doc = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "config": config,
    }
    _write_json(out / "manifest.json", doc, indent=2)


def cmd_simulate(args: argparse.Namespace) -> int:
    file_values = _load_config_file(args.config, SimConfig)
    cfg = _resolve_config(SimConfig, file_values, args)
    frames = simulate(cfg)
    out = _out_dir(args)
    save_frames(out / "frames.jsonl", frames)
    _write_manifest(
        out,
        "simulate",
        cfg.seed,
        inputs={},
        outputs={"frames": "frames.jsonl"},
        config=dataclasses.asdict(cfg),
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    file_values = _load_config_file(args.config, LossConfig, TrainConfig)
    loss_cfg = _resolve_config(LossConfig, file_values, args)
    train_cfg = _resolve_config(TrainConfig, file_values, args)
    frames = load_frames(args.frames)
    if not frames:
        raise ValueError(f"{args.frames} contains no frames")
    pairs = neighbor_frames(frames)
    if args.mtmc:
        pairs += cross_camera_frames(frames)
    batches = training_batches(frames, pairs, score_threshold=loss_cfg.score_threshold)
    _, identities, counts = batches
    if not counts.size:
        raise ValueError("no usable training batches (need frames with labeled detections)")
    distinct = np.unique(identities).tolist()
    if len(distinct) < 2:
        raise ValueError(f"training needs at least two distinct identities, found {distinct}")

    params, trace = train(batches, loss_cfg, train_cfg)
    out = _out_dir(args)
    save_params(out / "params.json", params, seed=train_cfg.seed, loss_config=loss_cfg)
    _write_csv(
        out / "loss_trace.csv",
        np.rec.fromarrays([np.arange(len(trace)), trace], names="epoch,mean_loss"),
    )
    _write_manifest(
        out,
        "train",
        train_cfg.seed,
        inputs={"frames": args.frames},
        outputs={"params": "params.json", "loss_trace": "loss_trace.csv"},
        config={
            "loss": dataclasses.asdict(loss_cfg),
            "train": dataclasses.asdict(train_cfg),
            "mtmc": bool(args.mtmc),
            "batch_count": counts.size,
        },
    )
    return 0


def _load_head_and_frames(args: argparse.Namespace):
    """The --params head and --frames; --score-threshold defaults to the head's."""
    params, _, loss_cfg = load_params(args.params)
    if args.score_threshold is None:
        args.score_threshold = (loss_cfg or LossConfig()).score_threshold
    return params, load_frames(args.frames)


def cmd_calibrate(args: argparse.Namespace) -> int:
    params, frames = _load_head_and_frames(args)
    distances, is_same = neighbor_pair_distances(
        frames, params, args.score_threshold, args.iou_min
    )
    # Positional pair arrays: the benchmark's traced run reads len(args[0]).
    sweep = sweep_threshold(distances, is_same)
    if not math.isfinite(sweep.threshold):
        # inf when the best cut lies above a pair at the largest float
        raise ValueError(f"calibrated threshold {sweep.threshold} is not finite")
    out = _out_dir(args)
    np.save(out / "sweep.npy", sweep.rows)
    write_sweep_csv(out / "sweep.csv", sweep)
    write_histogram_csv(out / "histogram.csv", distance_histogram(distances, is_same, args.bins))
    same = int(is_same.sum())
    _write_json(
        out / "threshold.json",
        {
            "threshold": sweep.threshold,
            "objective": sweep.objective,
            "pair_count": distances.size,
            "same_count": same,
            "diff_count": distances.size - same,
        },
    )
    _write_manifest(
        out,
        "calibrate",
        None,
        inputs={"frames": args.frames, "params": args.params},
        outputs={
            "threshold": "threshold.json",
            "sweep": "sweep.csv",
            "sweep_rows": "sweep.npy",
            "histogram": "histogram.csv",
        },
        config={
            "score_threshold": args.score_threshold,
            "iou_min": args.iou_min,
            "bins": args.bins,
        },
    )
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    params, frames = _load_head_and_frames(args)
    tracks = track_sequence(
        frames, params, threshold=args.threshold, score_threshold=args.score_threshold
    )
    out = _out_dir(args)
    save_track_records(out / "tracks.jsonl", tracks)
    _write_manifest(
        out,
        "track",
        None,
        inputs={"frames": args.frames, "params": args.params},
        outputs={"tracks": "tracks.jsonl"},
        config={"threshold": args.threshold, "score_threshold": args.score_threshold},
    )
    return 0


def _fixture_counts(cls, doc, where: str):
    """`cls(**doc)` for a fixture's counts, which must be JSON integers."""
    if not isinstance(doc, dict) or not all(type(v) is int for v in doc.values()):
        raise ValueError(f"{where} must map count names to JSON integers, got {doc!r}")
    try:
        return cls(**doc)
    except TypeError as exc:  # a missing or unknown count name
        raise ValueError(f"{where}: {exc}") from exc


def _counts_from_fixture(path: str) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or not ({"mot", "pair"} & set(doc)):
        raise ValueError(f"counts fixture {path} must hold a 'mot' and/or 'pair' object")
    return _counts_report(
        _fixture_counts(MotCounts, doc["mot"], f"{path} 'mot'") if "mot" in doc else None,
        _fixture_counts(PairCounts, doc["pair"], f"{path} 'pair'") if "pair" in doc else None,
    )


def _counts_report(mot: Optional[MotCounts], pair: Optional[PairCounts]) -> dict:
    """report.json's entries for the given counts, each rate before its
    counts; a rate is null when its counts hold no object or no pair."""
    report: dict = {}
    if mot is not None:
        report["mota"] = mota(mot) if mot.gt_total > 0 else None
        report["mot_counts"] = dataclasses.asdict(mot)
    if pair is not None:
        total = pair.tp + pair.tn + pair.fp + pair.fn
        report["pair_accuracy"] = pair_accuracy(pair) if total > 0 else None
        report["pair_counts"] = dataclasses.asdict(pair)
    return report


def cmd_eval(args: argparse.Namespace) -> int:
    if args.counts is not None:
        report = _counts_from_fixture(args.counts)
        inputs = {"counts": args.counts}
        config: dict = {}
    else:
        if args.tracks is None or args.frames is None:
            raise ValueError("eval needs either --counts or both --tracks and --frames")
        frames = load_frames(args.frames, features=False)  # scoring reads no feature
        tracks = load_track_records(args.tracks)
        mc, pc = track_counts(
            tracks, frames, score_threshold=args.score_threshold, iou_min=args.iou_min
        )
        ap_preds = tracks[["frame_index", "box", "confidence"]]
        ap_gts = ground_truth_records(frames)
        report = _counts_report(mc, pc)
        report["mean_ap"] = mean_ap(ap_preds, ap_gts) if len(ap_gts) else None
        inputs = {"tracks": args.tracks, "frames": args.frames}
        config = {"iou_min": args.iou_min, "score_threshold": args.score_threshold}
    report["config"] = config
    out = _out_dir(args)
    _write_json(out / "report.json", report, indent=2)
    _write_manifest(out, "eval", None, inputs=inputs, outputs={"report": "report.json"}, config=config)
    return 0


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with config values")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p, SimConfig)


def _train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frames", required=True, help="training frames (JSONL)")
    p.add_argument("--config", help="JSON file with config values")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--mtmc",
        action="store_true",
        help="also pair the earliest frames of every two cameras that saw one identity",
    )
    _add_config_flags(p, LossConfig)
    _add_config_flags(p, TrainConfig)


def _calibrate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frames", required=True, help="labeled dev frames (JSONL)")
    p.add_argument("--params", required=True, help="trained head parameters (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--score-threshold", type=float, help="default: the head's value, or 0.5")
    p.add_argument("--iou-min", type=float, default=0.5)
    p.add_argument("--bins", type=int, default=50, help="histogram bin count")


def _track_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frames", required=True, help="input frames (JSONL)")
    p.add_argument("--params", required=True, help="trained head parameters (JSON)")
    p.add_argument("--threshold", type=float, required=True, help="association gate")
    p.add_argument("--score-threshold", type=float, help="default: the head's value, or 0.5")
    p.add_argument("--out", required=True, help="output directory")


def _eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tracks", help="tracker output (JSONL)")
    p.add_argument(
        "--frames",
        help="ground-truth frames (JSONL); each detection's feature must be a list, "
        "whose values eval does not read",
    )
    p.add_argument("--counts", help="JSON fixture with precomputed mot/pair counts")
    p.add_argument("--score-threshold", type=float, default=0.5)
    p.add_argument("--iou-min", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output directory")


# name: (help, flag-adding function, handler), in help order
_SUBCOMMANDS = {
    "simulate": ("generate a synthetic labeled sequence", _simulate_flags, cmd_simulate),
    "train": ("train the embedding head on labeled frames", _train_flags, cmd_train),
    "calibrate": ("sweep the association distance threshold", _calibrate_flags, cmd_calibrate),
    "track": ("run the tracker over one camera's frames", _track_flags, cmd_track),
    "eval": ("score a track output against ground truth", _eval_flags, cmd_eval),
}


def build_parser(subcommand: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser with every subcommand and its help; flags only for
    `subcommand`, or for every subcommand when it names none of them."""
    parser = argparse.ArgumentParser(
        prog="embedtrack",
        description="Train, calibrate, run, and evaluate an embedding-based tracker.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    every = subcommand not in _SUBCOMMANDS
    for name, (help_text, add_flags, handler) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if every or name == subcommand:
            add_flags(p)
        p.set_defaults(func=handler)
    return parser


def _check_thresholds(args: argparse.Namespace) -> None:
    """--score-threshold must lie in [0, 1], --iou-min in (0, 1), --bins be
    at least 1 and --threshold positive and finite; NaN fails every check."""
    score = getattr(args, "score_threshold", None)
    if score is not None and not 0.0 <= score <= 1.0:
        raise ValueError(f"--score-threshold must lie in [0, 1], got {score}")
    iou_min = getattr(args, "iou_min", None)
    if iou_min is not None and not 0.0 < iou_min < 1.0:
        raise ValueError(f"--iou-min must lie in (0, 1), got {iou_min}")
    bins = getattr(args, "bins", None)
    if bins is not None and not bins >= 1:
        raise ValueError(f"--bins must be at least 1, got {bins}")
    threshold = getattr(args, "threshold", None)
    if threshold is not None and not 0 < threshold < math.inf:
        raise ValueError(f"--threshold must be positive and finite, got {threshold}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _check_thresholds(args)
        return args.func(args)
    except (ValueError, OSError, RuntimeError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
