"""Training sample construction, a synthetic scenario generator, and file I/O.

Training pairs are built by concatenating two frames side by side into one
coordinate space: slot 0 keeps its coordinates, slot 1 is shifted right by
the first image's width. A pair of neighbouring frames from one camera
yields same-camera samples; pairing frames from two cameras that saw the
same identity yields cross-camera samples with the identical layout.

The simulator stands in for a real detection dataset: identities carry
fixed feature archetypes, observed features add Gaussian noise, boxes move
linearly with clamping at the image border.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import BoundingBox, DetectionRecord, FrameRecord
from .embedding import EmbeddingHeadParams, distance_matrix, embed_batch
from .evaluation import assign_predictions
from .training import LabeledBatch

__all__ = [
    "ConcatSample",
    "SimConfig",
    "TrackRecord",
    "FrameParseError",
    "concat_neighbor_frames",
    "neighbor_frames",
    "identity_index",
    "build_mtmc_pairs",
    "labeled_rows",
    "labeled_batch_from_sample",
    "neighbor_pair_distances",
    "default_archetypes",
    "simulate",
    "save_frames",
    "load_frames",
    "save_track_records",
    "load_track_records",
]


@dataclass(frozen=True, eq=False)
class ConcatSample:
    """Two frames fused into one coordinate space.

    Detections and ground-truth boxes carry image_slot 0 or 1; slot-1
    coordinates are already offset, so x1 >= first_width there. A sample
    contains a positive pair exactly when some identity has ground truth in
    both slots; samples without one still train the detector but contribute
    nothing to the embedding losses.
    """

    detections: tuple[DetectionRecord, ...]
    gt_boxes: tuple[tuple[BoundingBox, int, int], ...]
    first_width: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "detections", tuple(self.detections))
        object.__setattr__(self, "gt_boxes", tuple(self.gt_boxes))
        if not self.first_width > 0:
            raise ValueError(f"first_width must be positive, got {self.first_width}")
        for det in self.detections:
            if det.image_slot == 1 and det.box.x1 < self.first_width:
                raise ValueError(
                    f"slot-1 detection box starts at x1={det.box.x1}, "
                    f"left of the slot boundary {self.first_width}"
                )
        seen: set[tuple[int, int]] = set()
        for box, ident, slot in self.gt_boxes:
            if slot not in (0, 1):
                raise ValueError(f"image_slot must be 0 or 1, got {slot}")
            if slot == 1 and box.x1 < self.first_width:
                raise ValueError(
                    f"slot-1 ground-truth box starts at x1={box.x1}, "
                    f"left of the slot boundary {self.first_width}"
                )
            if (ident, slot) in seen:
                raise ValueError(f"identity {ident} appears twice in slot {slot}")
            seen.add((ident, slot))

    @property
    def has_positive_pair(self) -> bool:
        slot0 = {ident for _, ident, slot in self.gt_boxes if slot == 0}
        slot1 = {ident for _, ident, slot in self.gt_boxes if slot == 1}
        return bool(slot0 & slot1)


def _fuse_frames(a: FrameRecord, b: FrameRecord, width_a: float) -> ConcatSample:
    detections = [dataclasses.replace(d, image_slot=0) for d in a.detections]
    detections += [
        dataclasses.replace(d, box=d.box.translate(width_a, 0.0), image_slot=1)
        for d in b.detections
    ]
    gt = [(box, ident, 0) for box, ident in a.gt_boxes]
    gt += [(box.translate(width_a, 0.0), ident, 1) for box, ident in b.gt_boxes]
    return ConcatSample(detections=tuple(detections), gt_boxes=tuple(gt), first_width=width_a)


def concat_neighbor_frames(a: FrameRecord, b: FrameRecord, width_a: float) -> ConcatSample:
    """Fuse two neighbouring frames of one camera into one sample.

    Frame b must directly follow frame a (`FrameRecord.follows`). Slot 0 is
    a unchanged; slot 1 is b with every x-coordinate shifted by width_a.
    """
    if not b.follows(a):
        raise ValueError(
            f"frame {b.frame_index} of camera {b.camera_id} does not directly follow "
            f"frame {a.frame_index} of camera {a.camera_id}"
        )
    return _fuse_frames(a, b, width_a)


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


def identity_index(
    frames: Sequence[FrameRecord],
) -> dict[int, dict[int, FrameRecord]]:
    """Map identity -> camera -> earliest frame whose ground truth contains it."""
    index: dict[int, dict[int, FrameRecord]] = {}
    for frame in frames:
        for _, ident in frame.gt_boxes:
            cams = index.setdefault(ident, {})
            prev = cams.get(frame.camera_id)
            if prev is None or frame.frame_index < prev.frame_index:
                cams[frame.camera_id] = frame
    return index


def build_mtmc_pairs(
    frames: Sequence[FrameRecord],
    width_a: float,
    index: Optional[dict[int, dict[int, FrameRecord]]] = None,
) -> list[ConcatSample]:
    """Cross-camera samples: same identity seen by two different cameras.

    For every identity and every unordered pair of cameras that both saw it,
    one sample fuses that identity's earliest frame from each camera (lower
    camera id in slot 0). Identities confined to one camera contribute
    nothing. The slot/offset layout matches `concat_neighbor_frames`.
    """
    if index is None:
        index = identity_index(frames)
    samples = []
    for ident in sorted(index):
        cameras = sorted(index[ident])
        for i, cam_a in enumerate(cameras):
            for cam_b in cameras[i + 1 :]:
                samples.append(_fuse_frames(index[ident][cam_a], index[ident][cam_b], width_a))
    return samples


def labeled_rows(
    detections: Sequence[DetectionRecord],
    gt_boxes: Sequence[tuple],
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """(features, identities) of the detections that survive labeling.

    Detections below `score_threshold` are dropped. When every kept
    detection already carries a ground-truth identity the labels pass
    through; otherwise identities come from IoU assignment against
    `gt_boxes` (box, identity, ...) and unassigned detections are dropped.
    Features are (n, F), identities (n,) int64; n may be 0.
    """
    kept = [d for d in detections if d.confidence >= score_threshold]
    if all(d.gt_identity is not None for d in kept):
        labeled = [(d.feature, d.gt_identity) for d in kept]
    else:
        result = assign_predictions(
            [(d.box, d.confidence) for d in kept],
            [(box, ident, 0) for box, ident, *_ in gt_boxes],
            score_threshold=score_threshold,
            iou_min=iou_min,
        )
        labeled = [
            (d.feature, assigned[0])
            for d, assigned in zip(kept, result.assignments)
            if assigned is not None
        ]
    dim = detections[0].feature.shape[0] if detections else 0
    features = np.array([f for f, _ in labeled], dtype=np.float64).reshape(len(labeled), dim)
    return features, np.array([ident for _, ident in labeled], dtype=np.int64)


def labeled_batch_from_sample(
    sample: ConcatSample,
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> Optional[LabeledBatch]:
    """Turn one sample's `labeled_rows` into a batch for the losses; None
    when fewer than two rows remain (no pair to learn from)."""
    features, identities = labeled_rows(
        sample.detections, sample.gt_boxes, score_threshold, iou_min
    )
    if identities.size < 2:
        return None
    return LabeledBatch(features=features, identities=identities)


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

    Enforces integer frame_index, camera_id and identities, one feature
    dimension across the whole file and strictly increasing frame_index per
    camera. An empty file is an empty sequence.
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
            for g in doc["gt_boxes"]:
                box = _parse_box(g.get("box"), line_number, "gt_boxes.box")
                gt_boxes.append((box, _parse_int(g.get("id"), line_number, "gt_boxes.id")))
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
