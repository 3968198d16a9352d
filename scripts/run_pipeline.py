"""End-to-end pipeline on synthetic data, driven through the CLI.

Simulates a labeled training sequence, trains the embedding head, calibrates
the association threshold, then tracks a held-out sequence generated with a
different seed. Archetypes depend only on the identity layout, not the seed,
so the two sequences share an identity space like two recordings of the same
scene. Each step is printed as its `$ embedtrack ...` line once it has run,
with how much it raised the process's peak resident memory (`ru_maxrss`),
so that the stage that sets the peak stands out.

    python3 scripts/run_pipeline.py --out runs/demo --epochs 50
"""

import argparse
import json
import resource
import sys
from pathlib import Path

from embedtrack.cli import main as cli

# ru_maxrss counts bytes on macOS and kilobytes elsewhere.
RSS_UNIT = 1 if sys.platform == "darwin" else 1024


def run_step(step: list[str]) -> int:
    """Run one CLI step, then print it with its growth of the peak RSS."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    code = cli(step)
    grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * RSS_UNIT / 2**20
    print(f"$ embedtrack {' '.join(step)}  # peak RSS +{grown:.1f} MB")
    return code


def run(args: argparse.Namespace) -> int:
    out = Path(args.out)
    sim_flags = [
        "--identity-count", str(args.identities),
        "--feature-dim", str(max(8, args.identities)),
        "--archetype-separation", str(args.separation),
        "--noise-sigma", str(args.noise_sigma),
    ]

    steps = [
        ["simulate", "--out", str(out / "train_data"), "--frame-count", str(args.frames),
         "--dropout", "0.05", "--seed", str(args.seed)] + sim_flags,
        ["train", "--frames", str(out / "train_data" / "frames.jsonl"),
         "--out", str(out / "head"), "--epochs", str(args.epochs)],
        ["calibrate", "--frames", str(out / "train_data" / "frames.jsonl"),
         "--params", str(out / "head" / "params.json"), "--out", str(out / "calib")],
        ["simulate", "--out", str(out / "holdout"), "--frame-count", str(args.holdout_frames),
         "--seed", str(args.holdout_seed)] + sim_flags,
    ]
    for step in steps:
        code = run_step(step)
        if code != 0:
            return code

    calib = json.loads((out / "calib" / "threshold.json").read_text())
    print(
        f"calibrated threshold {calib['threshold']:.4f} "
        f"(objective {calib['objective']:.4f} on {calib['pair_count']} pairs)"
    )

    for step in [
        ["track", "--frames", str(out / "holdout" / "frames.jsonl"),
         "--params", str(out / "head" / "params.json"),
         "--threshold", str(calib["threshold"]), "--out", str(out / "tracks")],
        ["eval", "--tracks", str(out / "tracks" / "tracks.jsonl"),
         "--frames", str(out / "holdout" / "frames.jsonl"), "--out", str(out / "report")],
    ]:
        code = run_step(step)
        if code != 0:
            return code

    report = json.loads((out / "report" / "report.json").read_text())
    print()
    print(f"MOTA            {report['mota']:.4f}")
    print(f"mot counts      {report['mot_counts']}")
    print(f"pair accuracy   {report['pair_accuracy']:.4f}")
    print(f"mean AP         {report['mean_ap']:.4f}")
    return 0


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for all pipeline outputs")
    parser.add_argument("--identities", type=int, default=5)
    parser.add_argument("--frames", type=int, default=50, help="training sequence length")
    parser.add_argument("--holdout-frames", type=int, default=20)
    parser.add_argument("--separation", type=float, default=8.0)
    parser.add_argument("--noise-sigma", type=float, default=0.25)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--holdout-seed", type=int, default=77)
    return parser.parse_args()


if __name__ == "__main__":
    raise SystemExit(run(parse_args()))
