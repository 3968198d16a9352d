"""Workload definitions and input generation for the embedtrack benchmark.

Each workload is one synthetic scenario shape, chosen so that a different
layer of the pipeline dominates (see README.md in this directory). A seed
fixes both generated sequences: the training sequence and a held-out
sequence with the same identity layout (archetypes depend only on the
layout, never on the seed).

This module imports only the standard library at load time, so the
orchestrator can read the workload table without loading NumPy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    identity_count: int
    frame_count: int
    feature_dim: int
    noise_sigma: float
    dropout: float
    epochs: int
    strip_labels: bool = False
    archetype_separation: float = 8.0


WORKLOADS = {
    # About 38 rows per frame: calibration pairs, AP overlaps and the
    # per-identity loss loops grow with rows squared.
    "crowd": Workload(40, 40, 40, noise_sigma=0.25, dropout=0.05, epochs=5),
    # About 5 rows per frame over many frames: per-step, per-frame and
    # per-record costs dominate.
    "long": Workload(5, 500, 8, noise_sigma=0.25, dropout=0.05, epochs=5),
    # No gt_id on any detection: train and calibrate label rows through IoU
    # assignment, and the high noise makes the gate reject and mismatch.
    "unlabeled": Workload(20, 80, 20, noise_sigma=1.0, dropout=0.1, epochs=5, strip_labels=True),
    # The README walkthrough shape, for the benchmark's own smoke test.
    "smoke": Workload(5, 50, 8, noise_sigma=0.25, dropout=0.05, epochs=3),
}

# Default score threshold of the track, calibrate and eval subcommands,
# passed explicitly so the output checks use the same value.
SCORE_THRESHOLD = 0.5


def sequence_seeds(seed: int) -> dict[str, int]:
    """Simulator seeds of the two sequences a benchmark seed stands for."""
    return {"train": 2 * seed, "holdout": 2 * seed + 1}


def simulate_args(workload: Workload, seed: int, out: Path) -> list[str]:
    return [
        "simulate",
        "--out", str(out),
        "--identity-count", str(workload.identity_count),
        "--frame-count", str(workload.frame_count),
        "--feature-dim", str(workload.feature_dim),
        "--archetype-separation", repr(workload.archetype_separation),
        "--noise-sigma", repr(workload.noise_sigma),
        "--dropout", repr(workload.dropout),
        "--seed", str(seed),
    ]


def strip_labels(path: Path) -> None:
    """Remove gt_id from every detection of a frames file, keeping gt_boxes."""
    lines = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            for det in doc["detections"]:
                det.pop("gt_id", None)
            lines.append(json.dumps(doc) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
