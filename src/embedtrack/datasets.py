"""Training batches, a synthetic scenario generator, and file I/O.

A training batch stacks the labeled rows of two frames, so the batch-hard
losses see the same identity twice: neighbouring frames of one camera give
same-camera batches, and the earliest frames of two cameras that saw one
identity give cross-camera batches.

The simulator stands in for a real detection dataset: identities carry
fixed feature archetypes, observed features add Gaussian noise, boxes move
linearly with clamping at the image border.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import BoundingBox, DetectionRecord, FrameRecord
from .embedding import EmbeddingHeadParams, distance_matrix, embed_batch
from .evaluation import assign_predictions
from .training import LabeledBatch

__all__ = [
    "SimConfig",
    "TrackRecord",
    "FrameParseError",
    "neighbor_frames",
    "cross_camera_frames",
    "labeled_rows",
    "training_batches",
    "neighbor_pair_distances",
    "default_archetypes",
    "simulate",
    "save_frames",
    "load_frames",
    "save_track_records",
    "load_track_records",
]


def neighbor_frames(frames: Sequence[FrameRecord]) -> list[tuple[int, int]]:
    """Index pairs (i, j) where frames[j] directly follows frames[i]
    (`FrameRecord.follows`): cameras in increasing id, input order within
    a camera."""
    by_camera: dict[int, list[int]] = {}
    for k, frame in enumerate(frames):
        by_camera.setdefault(frame.camera_id, []).append(k)
    return [
        (i, j)
        for camera in sorted(by_camera)
        for i, j in zip(by_camera[camera], by_camera[camera][1:])
        if frames[j].follows(frames[i])
    ]


def cross_camera_frames(frames: Sequence[FrameRecord]) -> list[tuple[int, int]]:
    """Index pairs (i, j) of frames from two cameras that saw one identity.

    For every identity in increasing order and every pair of cameras whose
    ground truth contains it (lower camera id first), the pair of that
    identity's earliest frame in each camera. Identities confined to one
    camera contribute nothing; a frame pair shared by several identities
    appears once, where its first identity puts it.
    """
    earliest: dict[int, dict[int, int]] = {}
    for k, frame in enumerate(frames):
        for _, ident in frame.gt_boxes:
            cams = earliest.setdefault(ident, {})
            prev = cams.get(frame.camera_id)
            if prev is None or frame.frame_index < frames[prev].frame_index:
                cams[frame.camera_id] = k
    pairs = (
        (earliest[ident][a], earliest[ident][b])
        for ident in sorted(earliest)
        for a, b in combinations(sorted(earliest[ident]), 2)
    )
    return list(dict.fromkeys(pairs))


def labeled_rows(
    detections: Sequence[DetectionRecord],
    gt_boxes: Sequence[tuple[BoundingBox, int]],
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """(features, identities) of one frame's detections that survive labeling.

    Detections below `score_threshold` are dropped. When every kept
    detection already carries a ground-truth identity the labels pass
    through; otherwise identities come from IoU assignment against the
    (box, identity) `gt_boxes` and unassigned detections are dropped.
    Features are (n, F), identities (n,) int64; n may be 0.
    """
    kept = [d for d in detections if d.confidence >= score_threshold]
    if all(d.gt_identity is not None for d in kept):
        labeled = [(d.feature, d.gt_identity) for d in kept]
    else:
        result = assign_predictions(
            [(d.box, d.confidence) for d in kept],
            gt_boxes,
            score_threshold=score_threshold,
            iou_min=iou_min,
        )
        labeled = [
            (d.feature, ident)
            for d, ident in zip(kept, result.assignments)
            if ident is not None
        ]
    dim = detections[0].feature.shape[0] if detections else 0
    features = np.array([f for f, _ in labeled], dtype=np.float64).reshape(len(labeled), dim)
    return features, np.array([ident for _, ident in labeled], dtype=np.int64)


def training_batches(
    frames: Sequence[FrameRecord],
    pairs: Sequence[tuple[int, int]],
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> list[LabeledBatch]:
    """One batch per frame pair: frames[i]'s `labeled_rows` stacked above
    frames[j]'s, for every (i, j) of `pairs` in order (`neighbor_frames`,
    optionally followed by `cross_camera_frames`). Each frame is labeled
    once, by itself; pairs with fewer than two rows (no pair to learn
    from) give no batch.
    """
    rows = [labeled_rows(f.detections, f.gt_boxes, score_threshold, iou_min) for f in frames]
    batches = []
    for i, j in pairs:
        identities = np.concatenate([rows[i][1], rows[j][1]])
        if identities.size < 2:
            continue
        features = np.vstack([feats for feats, ids in (rows[i], rows[j]) if ids.size])
        batches.append(LabeledBatch(features=features, identities=identities))
    return batches


def neighbor_pair_distances(
    frames: Sequence[FrameRecord],
    params: EmbeddingHeadParams,
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """(distances, is_same) over all labeled detection pairs of neighbouring
    frames: for every (a, b) of `neighbor_frames`, every `labeled_rows` row
    of a against every row of b, row-major. Distances are squared Euclidean
    between head embeddings; is_same says the two identities are equal.
    """
    rows = []
    for frame in frames:
        features, ids = labeled_rows(frame.detections, frame.gt_boxes, score_threshold, iou_min)
        emb = embed_batch(params, features) if ids.size else np.zeros((0, params.embed_dim))
        rows.append((emb, ids))
    distances = [np.zeros(0)]
    is_same = [np.zeros(0, dtype=bool)]
    for i, j in neighbor_frames(frames):
        (emb_a, ids_a), (emb_b, ids_b) = rows[i], rows[j]
        distances.append(distance_matrix(emb_a, emb_b).ravel())
        is_same.append((ids_a[:, None] == ids_b[None, :]).ravel())
    return np.concatenate(distances), np.concatenate(is_same)


@dataclass(frozen=True)
class SimConfig:
    """Synthetic scenario parameters.

    `archetype_separation` is the Euclidean distance between any two
    identity archetypes; observation noise is isotropic Gaussian with
    standard deviation `noise_sigma` per feature coordinate. Boxes move at a
    constant per-identity velocity and clamp at the image border.
    """

    identity_count: int = 5
    frame_count: int = 50
    feature_dim: int = 8
    archetype_separation: float = 6.0
    noise_sigma: float = 0.25
    dropout: float = 0.0
    image_width: float = 1920.0
    image_height: float = 1080.0
    min_box_size: float = 80.0
    max_box_size: float = 160.0
    max_speed: float = 8.0
    camera_id: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.identity_count < 1:
            raise ValueError(f"identity_count must be positive, got {self.identity_count}")
        if self.frame_count < 1:
            raise ValueError(f"frame_count must be positive, got {self.frame_count}")
        if self.feature_dim < self.identity_count:
            raise ValueError(
                f"feature_dim {self.feature_dim} must be at least identity_count "
                f"{self.identity_count} (one archetype axis per identity)"
            )
        if not self.archetype_separation > 0:
            raise ValueError(
                f"archetype_separation must be positive, got {self.archetype_separation}"
            )
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not 0 < self.min_box_size <= self.max_box_size:
            raise ValueError("box sizes must satisfy 0 < min_box_size <= max_box_size")
        if self.max_box_size >= min(self.image_width, self.image_height):
            raise ValueError("max_box_size must fit inside the image")
        if self.max_speed < 0:
            raise ValueError(f"max_speed must be non-negative, got {self.max_speed}")


def default_archetypes(cfg: SimConfig) -> np.ndarray:
    """One archetype per identity on scaled coordinate axes.

    archetype[k] = (separation / sqrt(2)) * e_k, so every pair of archetypes
    sits at exactly `archetype_separation` Euclidean distance. Depends only
    on identity_count, feature_dim, and the separation, never on the seed:
    sequences simulated with different seeds share the same identity space.
    """
    arch = np.zeros((cfg.identity_count, cfg.feature_dim))
    scale = cfg.archetype_separation / math.sqrt(2.0)
    for k in range(cfg.identity_count):
        arch[k, k] = scale
    arch.flags.writeable = False
    return arch


def simulate(
    cfg: SimConfig, archetypes: Optional[np.ndarray] = None
) -> tuple[list[FrameRecord], np.ndarray]:
    """Generate one camera's sequence of frames with full ground truth.

    Every frame lists all identities as ground truth; each identity
    additionally yields a detection unless dropped (independently, at the
    dropout rate) whose feature is its archetype plus Gaussian noise and
    whose confidence is uniform on [0.6, 1.0). Deterministic per seed.
    """
    if archetypes is None:
        archetypes = default_archetypes(cfg)
    archetypes = np.asarray(archetypes, dtype=np.float64)
    if archetypes.shape != (cfg.identity_count, cfg.feature_dim):
        raise ValueError(
            f"archetypes must have shape {(cfg.identity_count, cfg.feature_dim)}, "
            f"got {archetypes.shape}"
        )

    rng = np.random.default_rng(cfg.seed)
    widths = rng.uniform(cfg.min_box_size, cfg.max_box_size, size=cfg.identity_count)
    heights = rng.uniform(cfg.min_box_size, cfg.max_box_size, size=cfg.identity_count)
    xs = rng.uniform(0.0, cfg.image_width - widths)
    ys = rng.uniform(0.0, cfg.image_height - heights)
    vel = rng.uniform(-cfg.max_speed, cfg.max_speed, size=(cfg.identity_count, 2))

    frames = []
    for t in range(cfg.frame_count):
        gt_boxes = []
        detections = []
        for k in range(cfg.identity_count):
            box = BoundingBox(xs[k], ys[k], xs[k] + widths[k], ys[k] + heights[k])
            gt_boxes.append((box, k))
            dropped = cfg.dropout > 0 and rng.random() < cfg.dropout
            if not dropped:
                feature = archetypes[k] + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim)
                detections.append(
                    DetectionRecord(
                        box=box,
                        confidence=float(rng.uniform(0.6, 1.0)),
                        feature=feature,
                        gt_identity=k,
                    )
                )
        frames.append(
            FrameRecord(
                frame_index=t,
                camera_id=cfg.camera_id,
                detections=tuple(detections),
                gt_boxes=tuple(gt_boxes),
            )
        )
        xs = np.clip(xs + vel[:, 0], 0.0, cfg.image_width - widths)
        ys = np.clip(ys + vel[:, 1], 0.0, cfg.image_height - heights)
    return frames, archetypes


class FrameParseError(ValueError):
    """A malformed record in a frame or track file; carries the 1-based line
    number and the offending field."""

    def __init__(self, line_number: int, field: str, reason: str):
        super().__init__(f"line {line_number}, field {field!r}: {reason}")
        self.line_number = line_number
        self.field = field


def save_frames(path: Union[str, Path], frames: Sequence[FrameRecord]) -> None:
    """Write frames as JSON lines. Field set is fixed; floats round-trip."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for frame in frames:
            detections = []
            for d in frame.detections:
                rec = {
                    "box": d.box.as_list(),
                    "confidence": d.confidence,
                    "feature": d.feature.tolist(),
                }
                if d.gt_identity is not None:
                    rec["gt_id"] = d.gt_identity
                detections.append(rec)
            doc = {
                "frame_index": frame.frame_index,
                "camera_id": frame.camera_id,
                "detections": detections,
                "gt_boxes": [{"box": box.as_list(), "id": ident} for box, ident in frame.gt_boxes],
            }
            fh.write(json.dumps(doc) + "\n")


def _parse_box(raw, line_number: int, field: str) -> BoundingBox:
    if not isinstance(raw, list) or len(raw) != 4:
        raise FrameParseError(line_number, field, f"expected [x1, y1, x2, y2], got {raw!r}")
    try:
        return BoundingBox(*(float(v) for v in raw))
    except (TypeError, ValueError) as exc:
        raise FrameParseError(line_number, field, str(exc)) from exc


def _parse_int(value, line_number: int, field: str) -> int:
    """Integer fields take JSON integers only: no floats, bools or strings."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FrameParseError(line_number, field, f"expected an integer, got {value!r}")
    return value


def load_frames(path: Union[str, Path]) -> list[FrameRecord]:
    """Read frames written by `save_frames`.

    Enforces integer frame_index, camera_id and identities, at most one
    ground-truth box per identity in a frame, one feature dimension across
    the whole file and strictly increasing frame_index per camera. An empty
    file is an empty sequence.
    """
    frames: list[FrameRecord] = []
    feature_dim: Optional[int] = None
    last_index: dict[int, int] = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FrameParseError(line_number, "<line>", f"invalid JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise FrameParseError(line_number, "<line>", "expected a JSON object")
            for key in ("frame_index", "camera_id", "detections", "gt_boxes"):
                if key not in doc:
                    raise FrameParseError(line_number, key, "missing")
            detections = []
            for d in doc["detections"]:
                box = _parse_box(d.get("box"), line_number, "detections.box")
                feature = d.get("feature")
                if not isinstance(feature, list):
                    raise FrameParseError(
                        line_number, "detections.feature", f"expected a list, got {feature!r}"
                    )
                if feature_dim is None:
                    feature_dim = len(feature)
                elif len(feature) != feature_dim:
                    raise FrameParseError(
                        line_number,
                        "detections.feature",
                        f"dimension {len(feature)} differs from {feature_dim} seen earlier",
                    )
                gt_id = d.get("gt_id")
                if gt_id is not None:
                    _parse_int(gt_id, line_number, "detections.gt_id")
                try:
                    detections.append(
                        DetectionRecord(
                            box=box,
                            confidence=float(d["confidence"]),
                            feature=np.asarray(feature, dtype=np.float64),
                            gt_identity=gt_id,
                        )
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise FrameParseError(line_number, "detections", str(exc)) from exc
            gt_boxes = []
            gt_ids: set[int] = set()
            for g in doc["gt_boxes"]:
                box = _parse_box(g.get("box"), line_number, "gt_boxes.box")
                ident = _parse_int(g.get("id"), line_number, "gt_boxes.id")
                if ident in gt_ids:
                    raise FrameParseError(
                        line_number, "gt_boxes.id", f"identity {ident} occurs twice in one frame"
                    )
                gt_ids.add(ident)
                gt_boxes.append((box, ident))
            frame_index = _parse_int(doc["frame_index"], line_number, "frame_index")
            camera_id = _parse_int(doc["camera_id"], line_number, "camera_id")
            try:
                frame = FrameRecord(
                    frame_index=frame_index,
                    camera_id=camera_id,
                    detections=tuple(detections),
                    gt_boxes=tuple(gt_boxes),
                )
            except (TypeError, ValueError) as exc:
                raise FrameParseError(line_number, "frame", str(exc)) from exc
            prev = last_index.get(frame.camera_id)
            if prev is not None and frame.frame_index <= prev:
                raise FrameParseError(
                    line_number,
                    "frame_index",
                    f"{frame.frame_index} does not increase over {prev} for camera {frame.camera_id}",
                )
            last_index[frame.camera_id] = frame.frame_index
            frames.append(frame)
    return frames


@dataclass(frozen=True)
class TrackRecord:
    """One tracked detection: where, when, which track, how confident."""

    frame_index: int
    track_id: int
    box: BoundingBox
    confidence: float

    def __post_init__(self) -> None:
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be non-negative, got {self.frame_index}")
        if self.track_id < 0:
            raise ValueError(f"track_id must be non-negative, got {self.track_id}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")


def save_track_records(path: Union[str, Path], records: Sequence[TrackRecord]) -> None:
    """Write tracker output as JSON lines."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for r in records:
            doc = {
                "frame_index": r.frame_index,
                "track_id": r.track_id,
                "box": r.box.as_list(),
                "confidence": r.confidence,
            }
            fh.write(json.dumps(doc) + "\n")


def load_track_records(path: Union[str, Path]) -> list[TrackRecord]:
    """Read tracker output written by `save_track_records`.

    frame_index and track_id must be JSON integers, and a track id may
    occur only once per frame.
    """
    records: list[TrackRecord] = []
    seen: set[tuple[int, int]] = set()
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FrameParseError(line_number, "<line>", f"invalid JSON: {exc}") from exc
            box = _parse_box(doc.get("box"), line_number, "box")
            key = (
                _parse_int(doc.get("frame_index"), line_number, "frame_index"),
                _parse_int(doc.get("track_id"), line_number, "track_id"),
            )
            if key in seen:
                raise FrameParseError(
                    line_number, "track_id", f"track {key[1]} occurs twice in frame {key[0]}"
                )
            seen.add(key)
            try:
                records.append(
                    TrackRecord(
                        frame_index=key[0],
                        track_id=key[1],
                        box=box,
                        confidence=float(doc["confidence"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise FrameParseError(line_number, "record", str(exc)) from exc
    return records
