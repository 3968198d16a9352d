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
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import GT_DTYPE, TRACK_DTYPE, FrameRecord, detection_dtype
from .embedding import EmbeddingHeadParams, _check_finite, distance_matrix, embed_batch
from .evaluation import assign_predictions
from .training import LabeledBatch

__all__ = [
    "SimConfig",
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
    "tracks_by_frame",
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
        for ident in frame.gt_boxes["id"].tolist():
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
    detections: np.ndarray,
    gt_boxes: np.ndarray,
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """(features, identities) of one frame's detections that survive labeling.

    Detections below `score_threshold` are dropped. When every kept
    detection already carries a ground-truth identity (`gt_id` >= 0) the
    labels pass through; otherwise identities come from IoU assignment
    against `gt_boxes` and unassigned detections are dropped. Features are
    (n, F), identities (n,) int64; n may be 0.
    """
    kept = detections[detections["confidence"] >= score_threshold]
    identities = kept["gt_id"]
    if (identities < 0).any():
        identities = assign_predictions(kept, gt_boxes, score_threshold, iou_min)
        kept = kept[identities >= 0]
        identities = identities[identities >= 0]
    return np.ascontiguousarray(kept["feature"]), np.ascontiguousarray(identities)


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
        _check_finite(self)
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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


def simulate(cfg: SimConfig) -> list[FrameRecord]:
    """Generate one camera's sequence of frames with full ground truth.

    Every frame lists all identities as ground truth; each identity
    additionally yields a detection unless dropped (independently, at the
    dropout rate) whose feature is its `default_archetypes` row plus
    Gaussian noise and whose confidence is uniform on [0.6, 1.0).
    Deterministic per seed.
    """
    archetypes = default_archetypes(cfg)
    rng = np.random.default_rng(cfg.seed)
    widths = rng.uniform(cfg.min_box_size, cfg.max_box_size, size=cfg.identity_count)
    heights = rng.uniform(cfg.min_box_size, cfg.max_box_size, size=cfg.identity_count)
    xs = rng.uniform(0.0, cfg.image_width - widths)
    ys = rng.uniform(0.0, cfg.image_height - heights)
    vel = rng.uniform(-cfg.max_speed, cfg.max_speed, size=(cfg.identity_count, 2))

    heads, gt_boxes, detections = [], [], []
    for t in range(cfg.frame_count):
        boxes = np.stack([xs, ys, xs + widths, ys + heights], axis=1)
        gt_boxes.append(boxes)
        count = len(detections)
        for k in range(cfg.identity_count):
            dropped = cfg.dropout > 0 and rng.random() < cfg.dropout
            if not dropped:
                feature = archetypes[k] + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim)
                detections.append((boxes[k], rng.uniform(0.6, 1.0), feature, k))
        heads.append((t, cfg.camera_id, len(detections) - count, cfg.identity_count))
        xs = np.clip(xs + vel[:, 0], 0.0, cfg.image_width - widths)
        ys = np.clip(ys + vel[:, 1], 0.0, cfg.image_height - heights)

    gt = np.empty(cfg.frame_count * cfg.identity_count, dtype=GT_DTYPE)
    gt["box"] = np.concatenate(gt_boxes)
    gt["id"] = np.tile(np.arange(cfg.identity_count), cfg.frame_count)
    detections = np.array(detections, dtype=detection_dtype(cfg.feature_dim))
    return _frames(heads, detections, gt)


def _frames(heads: list[tuple], detections: np.ndarray, gt_boxes: np.ndarray) -> list[FrameRecord]:
    """One frame per (frame_index, camera_id, detection count, gt count) of
    `heads`, holding consecutive read-only slices of the file's arrays."""
    detections.flags.writeable = False
    gt_boxes.flags.writeable = False
    frames = []
    d = g = 0
    for frame_index, camera_id, n, m in heads:
        frames.append(
            FrameRecord(frame_index, camera_id, detections[d : d + n], gt_boxes[g : g + m])
        )
        d += n
        g += m
    return frames


class FrameParseError(ValueError):
    """A malformed record in a frame or track file; carries the 1-based line
    number and the offending field."""

    def __init__(self, line_number: int, field: str, reason: str):
        super().__init__(f"line {line_number}, field {field!r}: {reason}")
        self.line_number = line_number
        self.field = field


def save_frames(path: Union[str, Path], frames: Sequence[FrameRecord]) -> None:
    """Write frames as JSON lines. Field set is fixed; floats round-trip; a
    detection's gt_id is omitted when it is -1 (unlabeled). A non-finite
    float raises ValueError: JSON has no NaN or Infinity."""
    encode = json.JSONEncoder(allow_nan=False).encode
    with Path(path).open("w", encoding="utf-8") as fh:
        for frame in frames:
            det, gt = frame.detections, frame.gt_boxes
            columns = (det[name].tolist() for name in ("box", "confidence", "feature", "gt_id"))
            doc = {
                "frame_index": frame.frame_index,
                "camera_id": frame.camera_id,
                "detections": [
                    {"box": b, "confidence": c, "feature": f, **({"gt_id": g} if g >= 0 else {})}
                    for b, c, f, g in zip(*columns)
                ],
                "gt_boxes": [
                    {"box": box, "id": ident}
                    for box, ident in zip(gt["box"].tolist(), gt["id"].tolist())
                ],
            }
            fh.write(encode(doc) + "\n")


def _json_lines(path: Union[str, Path]):
    """(line number, JSON object) of every non-blank line of a file."""
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
            yield line_number, doc


def _parse_int(value, line_number: int, field: str) -> int:
    """Integer fields take JSON integers in the int64 range only: no floats,
    bools or strings."""
    if type(value) is not int or not -(2**63) <= value < 2**63:
        raise FrameParseError(line_number, field, f"expected an int64 integer, got {value!r}")
    return value


def _holds_text_or_bool(values) -> bool:
    if isinstance(values, list):
        return any(map(_holds_text_or_bool, values))
    return isinstance(values, (str, bool))


def _check_floats(values, shape: tuple, line_number: int, field: str) -> None:
    """One line's values must convert to a float64 array of `shape` and be
    JSON numbers: NumPy would also convert strings and bools."""
    try:
        column = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FrameParseError(line_number, field, f"expected numbers: {exc}") from exc
    if column.shape != shape:
        raise FrameParseError(line_number, field, f"expected shape {shape}, got {values!r}")
    if _holds_text_or_bool(values):
        raise FrameParseError(
            line_number, field, f"expected numbers, not strings or bools, got {values!r}"
        )


def _hides_bool(values: list, column: np.ndarray) -> bool:
    """Whether a JSON true or false sits among `values`, which NumPy read as
    the 1-D or 2-D numeric `column`: a bool reads as 1 or 0, so only the
    cells holding 0 or 1 need a look."""
    cells = np.nonzero((column == 0) | (column == 1))
    if column.ndim == 1:
        return any(type(values[i]) is bool for i in cells[0].tolist())
    return any(type(values[i][j]) is bool for i, j in zip(*(c.tolist() for c in cells)))


def _float_array(values: list, tail: tuple) -> np.ndarray:
    return np.array(values, dtype=np.float64).reshape(len(values), *tail)


def _float_column(values: list, tail: tuple, field: str, line_values) -> tuple:
    """(column, error) for a file's raw values, one row per value, as a
    float64 array of shape (len(values), *tail).

    One NumPy call builds the whole column. Only when that call fails, gives
    a dtype that is not a number's (a string, a null, an integer past 64
    bits) or hides a bool are the lines checked one by one: `line_values`
    yields each line's (line number, row count, values, shape). Then the
    error is the first line's that `_check_floats` rejects, and the column
    holds the rows before it.
    """
    try:
        column = np.array(values)
    except (TypeError, ValueError, OverflowError):
        column = None
    if (
        column is not None
        and column.dtype.kind in "fiu"
        and column.shape == (len(values), *tail)
        and not _hides_bool(values, column)
    ):
        return column.astype(np.float64, copy=False), None
    start = 0
    for line_number, count, line, shape in line_values:
        try:
            _check_floats(line, shape, line_number, field)
        except FrameParseError as exc:
            return _float_array(values[:start], tail), exc
        start += count
    return _float_array(values, tail), None  # a null reads as NaN, for the value checks


def _line_slices(values: list, lines: list[int], counts: list[int], tail: tuple):
    """(line number, row count, values, shape) of every line with rows."""
    start = 0
    for line_number, count in zip(lines, counts):
        if count:
            yield line_number, count, values[start : start + count], (count, *tail)
        start += count


def _objects(items, line_number: int, field: str) -> list[dict]:
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise FrameParseError(line_number, field, "expected a list of objects")
    return items


def _bad_boxes(boxes: np.ndarray) -> np.ndarray:
    ordered = (boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3])
    return ~(ordered & np.isfinite(boxes).all(axis=1))


def _check_values(*checks: tuple) -> None:
    """Raise at the earliest line that a check (bad rows, line of each row,
    field, rule, row values) flags; on one line the earlier check wins."""
    found = [(lines[bad][0], k) for k, (bad, lines, *_) in enumerate(checks) if bad.any()]
    if found:
        line, k = min(found)
        bad, _, field, rule, values = checks[k]
        raise FrameParseError(int(line), field, f"{rule}, got {values[bad][0].tolist()}")


def _first_error(*errors: Optional[FrameParseError]) -> Optional[FrameParseError]:
    """The error on the earliest line; on one line the earlier argument."""
    return min((e for e in errors if e is not None), key=lambda e: e.line_number, default=None)


BOX_RULE = "box must be finite with x1 < x2 and y1 < y2"


def load_frames(path: Union[str, Path]) -> list[FrameRecord]:
    """Read frames written by `save_frames` into read-only slices of one
    detection and one gt record array per file.

    Types and structure are checked line by line as the file streams in.
    The numbers of all lines become arrays once per file, where their values
    (boxes, confidences, features) are checked; README.md lists the checks.
    A rejected file raises FrameParseError at its earliest bad line. An
    empty file gives [].
    """
    heads: list[tuple[int, int, int, int]] = []
    lines: list[int] = []
    boxes: list = []
    confidences: list = []
    features: list = []
    gt_ids: list[int] = []
    gt_box_values: list = []
    ids: list[int] = []
    feature_dim: Optional[int] = None
    last_index: dict[int, int] = {}
    error: Optional[FrameParseError] = None
    try:
        for line_number, doc in _json_lines(path):
            floats: list[tuple] = []  # the line's number fields, in the order they are checked
            try:
                for key in ("frame_index", "camera_id", "detections", "gt_boxes"):
                    if key not in doc:
                        raise FrameParseError(line_number, key, "missing")
                dets = _objects(doc["detections"], line_number, "detections")
                gts = _objects(doc["gt_boxes"], line_number, "gt_boxes")
                n, m = len(dets), len(gts)
                box = [d.get("box") for d in dets]
                feature = [d.get("feature") for d in dets]
                confidence = [d.get("confidence") for d in dets]
                gt_id = [d.get("gt_id") for d in dets]
                gt_box = [g.get("box") for g in gts]
                if dets:
                    if feature_dim is None and isinstance(feature[0], list):
                        feature_dim = len(feature[0])
                    floats.append((box, (n, 4), "detections.box"))
                    bad = [
                        f for f in feature if not (isinstance(f, list) and len(f) == feature_dim)
                    ]
                    if bad:
                        raise FrameParseError(
                            line_number,
                            "detections.feature",
                            f"expected a list as long as the file's first, got {bad[0]!r}",
                        )
                    for g in gt_id:
                        if g is not None and _parse_int(g, line_number, "detections.gt_id") < 0:
                            raise FrameParseError(
                                line_number, "detections", f"gt_id must be non-negative, got {g}"
                            )
                    floats.append((confidence, (n,), "detections"))
                    floats.append((feature, (n, feature_dim), "detections"))
                if gts:
                    floats.append((gt_box, (m, 4), "gt_boxes.box"))
                line_ids = [_parse_int(g.get("id"), line_number, "gt_boxes.id") for g in gts]
                if len(set(line_ids)) < len(line_ids):
                    raise FrameParseError(
                        line_number, "gt_boxes.id", f"an identity repeats: {line_ids}"
                    )
                frame_index = _parse_int(doc["frame_index"], line_number, "frame_index")
                camera_id = _parse_int(doc["camera_id"], line_number, "camera_id")
                if frame_index < 0 or min(line_ids, default=0) < 0:
                    raise FrameParseError(
                        line_number,
                        "frame",
                        f"negative frame_index {frame_index} or identity in {line_ids}",
                    )
                prev = last_index.get(camera_id)
                if prev is not None and frame_index <= prev:
                    raise FrameParseError(
                        line_number,
                        "frame_index",
                        f"{frame_index} does not increase over {prev} for camera {camera_id}",
                    )
            except FrameParseError:
                for values, shape, field in floats:  # a number field checked earlier wins
                    _check_floats(values, shape, line_number, field)
                raise
            last_index[camera_id] = frame_index
            boxes += box
            confidences += confidence
            features += feature
            gt_ids += [-1 if g is None else g for g in gt_id]
            gt_box_values += gt_box
            ids += line_ids
            heads.append((frame_index, camera_id, n, m))
            lines.append(line_number)
    except FrameParseError as exc:
        error = exc  # raised after any bad number or value on an earlier line

    det_counts = [h[2] for h in heads]
    gt_counts = [h[3] for h in heads]
    feature_tail = (feature_dim or 0,)
    (box, box_error), (conf, conf_error), (feature, feature_error), (gt_box, gt_box_error) = (
        _float_column(values, tail, field, _line_slices(values, lines, counts, tail))
        for values, tail, field, counts in (
            (boxes, (4,), "detections.box", det_counts),
            (confidences, (), "detections", det_counts),
            (features, feature_tail, "detections", det_counts),
            (gt_box_values, (4,), "gt_boxes.box", gt_counts),
        )
    )
    error = _first_error(box_error, conf_error, feature_error, gt_box_error, error)
    kept = len(lines) if error is None else bisect_left(lines, error.line_number)
    det_lines = np.repeat(lines[:kept], det_counts[:kept])
    gt_lines = np.repeat(lines[:kept], gt_counts[:kept])
    det = np.empty(det_lines.size, detection_dtype(feature_tail[0]))
    det["box"], det["confidence"] = box[: det.size], conf[: det.size]
    det["feature"], det["gt_id"] = feature[: det.size], gt_ids[: det.size]
    gt = np.empty(gt_lines.size, GT_DTYPE)
    gt["box"], gt["id"] = gt_box[: gt.size], ids[: gt.size]
    conf, feature = det["confidence"], det["feature"]
    _check_values(
        (_bad_boxes(det["box"]), det_lines, "detections.box", BOX_RULE, det["box"]),
        (~((conf >= 0) & (conf <= 1)), det_lines, "detections", "confidence not in [0, 1]", conf),
        (~np.isfinite(feature).all(axis=1), det_lines, "detections", "feature not finite", feature),
        (_bad_boxes(gt["box"]), gt_lines, "gt_boxes.box", BOX_RULE, gt["box"]),
    )
    if error is not None:
        raise error
    return _frames(heads, det, gt)


def tracks_by_frame(tracks: np.ndarray, frames: Sequence[FrameRecord]) -> list[np.ndarray]:
    """The rows of `tracks` in each of `frames`, which must hold increasing
    frame indices (one camera); rows keep their order within a frame.
    Raises ValueError when a row names no frame."""
    index = np.array([frame.frame_index for frame in frames], dtype=np.int64)
    if (np.diff(index) <= 0).any():
        raise ValueError(f"frame indices must increase, got {index.tolist()}")
    known = np.isin(tracks["frame_index"], index)
    if not known.all():
        unknown = np.unique(tracks["frame_index"][~known])[:5].tolist()
        raise ValueError(f"track records reference unknown frames {unknown}")
    position = np.searchsorted(index, tracks["frame_index"])
    ends = np.cumsum(np.bincount(position, minlength=index.size))[:-1]
    return np.split(tracks[np.argsort(position, kind="stable")], ends) if frames else []


# One tracks.jsonl line: `json.dumps` of the row's dict, whose floats are
# written as their repr.
_TRACK_LINE = '{"frame_index": %d, "track_id": %d, "box": [%r, %r, %r, %r], "confidence": %r}\n'


def save_track_records(path: Union[str, Path], tracks: np.ndarray) -> None:
    """Write a tracks array (`TRACK_DTYPE`) as JSON lines, one row per line.
    A non-finite box or confidence raises ValueError before anything is
    written: JSON has no NaN or Infinity."""
    box, confidence = tracks["box"], tracks["confidence"]
    if not (np.isfinite(box).all() and np.isfinite(confidence).all()):
        raise ValueError("track boxes and confidences must be finite to be written as JSON")
    rows = zip(
        tracks["frame_index"].tolist(), tracks["track_id"].tolist(), *box.T.tolist(),
        confidence.tolist(),
    )
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(_TRACK_LINE % row for row in rows)


def load_track_records(path: Union[str, Path]) -> np.ndarray:
    """Read tracker output written by `save_track_records` into one tracks
    array (`TRACK_DTYPE`), checked as `load_frames` checks frames; a track
    id may occur only once per frame."""
    keys: list[tuple[int, int]] = []
    boxes: list = []
    confidences: list = []
    lines: list[int] = []
    seen: set[tuple[int, int]] = set()
    error: Optional[FrameParseError] = None
    try:
        for line_number, doc in _json_lines(path):
            box = doc.get("box")
            try:
                key = (
                    _parse_int(doc.get("frame_index"), line_number, "frame_index"),
                    _parse_int(doc.get("track_id"), line_number, "track_id"),
                )
                if key in seen:
                    raise FrameParseError(
                        line_number, "track_id", f"track {key[1]} occurs twice in frame {key[0]}"
                    )
            except FrameParseError:
                _check_floats(box, (4,), line_number, "box")  # the box is checked first
                raise
            seen.add(key)
            keys.append(key)
            boxes.append(box)
            confidences.append(doc.get("confidence"))
            lines.append(line_number)
    except FrameParseError as exc:
        error = exc  # raised after any bad number or value on an earlier line

    (box, box_error), (conf, conf_error) = (
        _float_column(values, tail, field, ((n, 1, v, tail) for n, v in zip(lines, values)))
        for values, tail, field in ((boxes, (4,), "box"), (confidences, (), "record"))
    )
    error = _first_error(box_error, conf_error, error)
    kept = len(lines) if error is None else bisect_left(lines, error.line_number)
    tracks = np.empty(kept, TRACK_DTYPE)
    tracks["frame_index"] = [k[0] for k in keys[:kept]]
    tracks["track_id"] = [k[1] for k in keys[:kept]]
    tracks["box"], tracks["confidence"] = box[:kept], conf[:kept]
    lines = np.array(lines[:kept], dtype=np.int64)
    conf = tracks["confidence"]
    _check_values(
        (_bad_boxes(tracks["box"]), lines, "box", BOX_RULE, tracks["box"]),
        (
            (tracks["frame_index"] < 0) | (tracks["track_id"] < 0) | ~((conf >= 0) & (conf <= 1)),
            lines,
            "record",
            "frame_index and track_id must be non-negative, confidence in [0, 1]",
            tracks,
        ),
    )
    if error is not None:
        raise error
    return tracks
