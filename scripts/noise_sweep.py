"""Study tracker robustness as feature noise approaches the identity spacing.

For each noise level, trains a head on a synthetic sequence, calibrates the
association threshold on the same sequence, and scores tracking on a held-out
sequence with shared archetypes. With separation 8, same-identity squared
distances grow like 16*sigma^2, so association should collapse around
sigma ~ 2; the printed table shows where it actually does.

    python3 scripts/noise_sweep.py
    python3 scripts/noise_sweep.py --sigmas 0.25,1.0,2.0 --csv sweep.csv
"""

import argparse
import csv

from embedtrack import (
    LossConfig,
    SimConfig,
    TrainConfig,
    mota,
    neighbor_frames,
    neighbor_pair_distances,
    pair_accuracy,
    simulate,
    sweep_threshold,
    track_counts,
    track_sequence,
    tracks_by_frame,
    train,
    training_batches,
)


def run_once(sigma: float, args: argparse.Namespace) -> dict:
    sim_cfg = SimConfig(
        identity_count=args.identities,
        frame_count=args.frames,
        feature_dim=max(8, args.identities),
        archetype_separation=args.separation,
        noise_sigma=sigma,
        dropout=0.05,
        seed=args.seed,
    )
    frames = simulate(sim_cfg)

    batches = training_batches(frames, neighbor_frames(frames))
    params, trace = train(batches, LossConfig(), TrainConfig(epochs=args.epochs))

    sweep = sweep_threshold(*neighbor_pair_distances(frames, params))

    holdout_cfg = SimConfig(
        identity_count=sim_cfg.identity_count,
        frame_count=args.holdout_frames,
        feature_dim=sim_cfg.feature_dim,
        archetype_separation=sim_cfg.archetype_separation,
        noise_sigma=sigma,
        dropout=0.0,
        seed=args.holdout_seed,
    )
    holdout = simulate(holdout_cfg)
    tracks = track_sequence(holdout, params, threshold=sweep.threshold)

    counts, pairs = track_counts(
        tracks_by_frame(tracks, holdout), [f.gt_boxes for f in holdout], neighbor_frames(holdout)
    )
    return {
        "sigma": sigma,
        "final_loss": trace[-1],
        "threshold": sweep.threshold,
        "objective": sweep.objective,
        "pair_accuracy": pair_accuracy(pairs),
        "mota": mota(counts),
        "mismatches": counts.mismatch,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sigmas", default="0.1,0.25,0.5,1.0,1.5,2.0,2.5",
        help="comma-separated noise levels",
    )
    parser.add_argument("--identities", type=int, default=5)
    parser.add_argument("--frames", type=int, default=40)
    parser.add_argument("--holdout-frames", type=int, default=20)
    parser.add_argument("--separation", type=float, default=8.0)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--holdout-seed", type=int, default=77)
    parser.add_argument("--csv", help="also write rows to this CSV file")
    args = parser.parse_args()

    sigmas = [float(s) for s in args.sigmas.split(",")]
    header = f"{'sigma':>6} {'loss':>8} {'thresh':>8} {'object':>7} {'pairacc':>8} {'mota':>7} {'mm':>4}"
    print(header)
    rows = []
    for sigma in sigmas:
        row = run_once(sigma, args)
        rows.append(row)
        print(
            f"{row['sigma']:6.2f} {row['final_loss']:8.4f} {row['threshold']:8.3f} "
            f"{row['objective']:7.4f} {row['pair_accuracy']:8.4f} {row['mota']:7.3f} "
            f"{row['mismatches']:4d}"
        )

    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
