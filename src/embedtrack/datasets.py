"""Training batches, a synthetic scenario generator, and file I/O.

A training batch stacks the labeled rows of two frames, so the batch-hard
losses see the same identity twice: neighbouring frames of one camera give
same-camera batches, and the earliest frames of two cameras that saw one
identity give cross-camera batches.

The simulator stands in for a real detection dataset: identities carry
fixed feature archetypes, observed features add Gaussian noise, boxes move
linearly with clamping at the image border.

A frames file is one `Frames` table and a tracks file one `TRACK_DTYPE`
array. Both readers check each line's structure as it streams in and build
the number columns one chunk of lines at a time, each chunk in one stage
that picks its earliest bad line, so that only one chunk's Python floats
are alive at a time. Each chunk's rows are appended to one growing buffer
per table, so a load holds one copy of the table.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import pairwise, repeat
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    GT_DTYPE, TRACK_DTYPE, Frames, _check_iou_min, _check_score_threshold, _checked_array,
    _frames_table, _row_frames, detection_dtype, neighbor_frames,
)
from .embedding import (
    EmbeddingHeadParams, _check_fields, _gathered_squared_distances, embed_batch,
)
from .evaluation import _within_group, assign_predictions

__all__ = [
    "SimConfig",
    "FrameParseError",
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


def cross_camera_frames(frames: Frames) -> list[tuple[int, int]]:
    """Index pairs (i, j) of frames from two cameras that saw one identity.

    For every identity in increasing order and every pair of cameras whose
    ground truth contains it (lower camera id first), the pair of that
    identity's earliest frame in each camera. Identities confined to one
    camera contribute nothing; a frame pair shared by several identities
    appears once, where its first identity puts it.
    """
    frame = _row_frames(frames.gt_offsets)
    ident, camera = frames.gt_boxes["id"], frames.camera_id[frame]
    order = np.lexsort((frames.frame_index[frame], camera, ident))
    ident, camera, frame = ident[order], camera[order], frame[order]
    # lexsort is stable, so the first row of each (identity, camera) run is
    # that camera's earliest, ties to the earlier frame of the table.
    first = np.ones(order.size, dtype=bool)
    first[1:] = (ident[1:] != ident[:-1]) | (camera[1:] != camera[:-1])
    ident, frame = ident[first], frame[first]
    # Each earliest frame pairs with every later one of its identity.
    later = np.searchsorted(ident, ident, side="right") - np.arange(ident.size) - 1
    a = np.repeat(np.arange(ident.size), later)
    pairs = np.stack([frame[a], frame[a + 1 + _within_group(later)]], axis=1)
    first = np.sort(np.unique(pairs, axis=0, return_index=True)[1])
    return list(map(tuple, pairs[first].tolist()))


def labeled_rows(
    frames: Frames, score_threshold: float = 0.5, iou_min: float = 0.5
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, identities, counts) of the detections of `frames` that
    survive labeling, frames in order.

    Detections below `score_threshold` are dropped. The rule is per frame:
    when every kept detection of a frame carries a `gt_id` >= 0 its labels
    pass through; the other frames take the labels of one
    `assign_predictions` call over the table, and their unassigned
    detections are dropped. Features are (N, F), identities (N,) int64, and
    counts[k] is the row count of frame k.
    """
    _check_score_threshold(score_threshold)
    _check_iou_min(iou_min)
    frame = _row_frames(frames.det_offsets)
    identities = frames.detections["gt_id"].copy()
    kept = frames.detections["confidence"] >= score_threshold
    to_label = np.isin(frame, frame[kept & (identities < 0)])
    if to_label.any():
        identities[to_label] = assign_predictions(frames, score_threshold, iou_min)[to_label]
    kept &= identities >= 0
    features = frames.detections["feature"][kept]
    return features, identities[kept], np.bincount(frame[kept], minlength=len(frames))


def training_batches(
    frames: Frames,
    pairs: Sequence[tuple[int, int]],
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batches `training.train` takes, as (features, identities, counts).

    One batch per frame pair: frame i's `labeled_rows` stacked above
    frame j's, for every (i, j) of `pairs` in order (`neighbor_frames`,
    optionally followed by `cross_camera_frames`). Each frame is labeled
    once, by itself; pairs with fewer than two rows (no pair to learn from)
    give no batch. Features are every batch's rows in batch order, (N, F),
    identities (N,) int64, and counts[b] is the row count of batch b; all
    three are empty when no pair has two rows. `pairs` must be integer
    (i, j) pairs, and an index outside [0, len(frames)) raises ValueError.
    """
    pairs = _checked_array(pairs, "pairs", "i")
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must be (i, j) pairs, of shape (P, 2), got shape {pairs.shape}")
    outside = ((pairs < 0) | (pairs >= len(frames))).any(axis=1)
    if outside.any():
        i, j = pairs[outside][0].tolist()
        raise ValueError(f"frame pair ({i}, {j}) lies outside the {len(frames)} frames")
    features, identities, counts = labeled_rows(frames, score_threshold, iou_min)
    pairs = pairs[counts[pairs].sum(axis=1) >= 2]
    # Every batch's rows in one gather: frame i's rows, then frame j's, per pair.
    lengths = counts[pairs].ravel()
    take = np.repeat((np.cumsum(counts) - counts)[pairs].ravel(), lengths) + _within_group(lengths)
    return features[take], identities[take], lengths[::2] + lengths[1::2]


# Cells per call of the gather kernel: its scratch buffer holds two (cells,
# E) operands, 512 KB at E = 32.
_PAIR_CHUNK = 1024


def neighbor_pair_distances(
    frames: Frames,
    params: EmbeddingHeadParams,
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """(distances, is_same) over all labeled detection pairs of neighbouring
    frames: for every (a, b) of `neighbor_frames`, every `labeled_rows` row
    of a against every row of b, row-major. Distances are squared Euclidean
    between head embeddings; is_same says the two identities are equal.

    Each frame's rows are embedded in one head pass, as the tracker embeds
    them. The cells are then computed `_PAIR_CHUNK` at a time by the gather
    kernel the training step uses, with the bits of `distance_matrix`.
    """
    features, identities, counts = labeled_rows(frames, score_threshold, iou_min)
    starts = np.cumsum(counts) - counts
    embedded = np.empty((features.shape[0], params.embed_dim))
    for a, n in zip(starts.tolist(), counts.tolist()):
        if n:
            embedded[a : a + n] = embed_batch(params, features[a : a + n])
    del features  # not needed while the cells are computed
    # One block per row of a pair's first frame: row block_row[k] against
    # the width[k] consecutive rows of the second frame, in cells
    # [ends[k] - width[k], ends[k]), where cell c has column c - shift[k].
    pairs = np.array(neighbor_frames(frames), dtype=np.intp).reshape(-1, 2)
    height = counts[pairs[:, 0]]
    block_row = np.repeat(starts[pairs[:, 0]], height) + _within_group(height)
    width = np.repeat(counts[pairs[:, 1]], height)
    ends = np.cumsum(width)
    shift = ends - width - np.repeat(starts[pairs[:, 1]], height)
    total = int(ends[-1]) if ends.size else 0
    distances = np.empty(total)
    is_same = np.empty(total, dtype=bool)
    diff, other = np.empty((2, min(total, _PAIR_CHUNK), params.embed_dim))
    # The first and last block of each chunk of cells [lo, hi).
    los = np.arange(0, total, _PAIR_CHUNK)
    his = np.minimum(los + _PAIR_CHUNK, total)
    firsts = np.searchsorted(ends, los, side="right").tolist()
    lasts = np.searchsorted(ends, his - 1, side="right").tolist()
    for lo, hi, a, b in zip(los.tolist(), his.tolist(), firsts, lasts):
        reps = width[a : b + 1].copy()
        reps[-1] = hi - ends[b] + width[b]
        reps[0] -= lo - ends[a] + width[a]
        row = block_row[a : b + 1].repeat(reps)
        col = np.arange(lo, hi) - shift[a : b + 1].repeat(reps)
        m = hi - lo
        _gathered_squared_distances(embedded, row, col, diff[:m], other[:m], distances[lo:hi])
        np.equal(identities.take(row), identities.take(col), out=is_same[lo:hi])
    return distances, is_same


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
        _check_fields(self)
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


def simulate(cfg: SimConfig) -> Frames:
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
    return _frames_table(heads, detections, gt)


class FrameParseError(ValueError):
    """A malformed record in a frame or track file; carries the 1-based line
    number and the offending field."""

    def __init__(self, line_number: int, field: str, reason: str):
        super().__init__(f"line {line_number}, field {field!r}: {reason}")
        self.line_number = line_number
        self.field = field


def save_frames(path: Union[str, Path], frames: Frames) -> None:
    """Write frames as JSON lines, each from its frame's slices of the
    columns, so that one frame's Python values are alive at a time. Field
    set is fixed; floats round-trip; a detection's gt_id is omitted when it
    is -1 (unlabeled). A non-finite float raises ValueError: JSON has no NaN
    or Infinity."""
    encode = json.JSONEncoder(allow_nan=False).encode
    heads = zip(
        frames.frame_index.tolist(), frames.camera_id.tolist(),
        pairwise(frames.det_offsets.tolist()), pairwise(frames.gt_offsets.tolist()),
    )
    with Path(path).open("w", encoding="utf-8") as fh:
        for frame_index, camera_id, (d, e), (g, h) in heads:
            det, gt = frames.detections[d:e], frames.gt_boxes[g:h]
            columns = (det[name].tolist() for name in ("box", "confidence", "feature", "gt_id"))
            doc = {
                "frame_index": frame_index,
                "camera_id": camera_id,
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


_raw_decode = json.JSONDecoder().raw_decode

# A detection's feature list, cut unread by `_json_lines(path, features=False)`.
_FEATURE_LIST = re.compile(r'"feature"[ \t\r]*:[ \t\r]*\[[^\[\]{}"\n]*\]')
# The same cut on an ASCII line: the list body is the ASCII characters of
# `[^\[\]{}"\n]`, written as a positive class.
_ASCII_FEATURE_LIST = re.compile(
    r'"feature"[ \t\r]*:[ \t\r]*\['
    r'[\x00-\x09\x0b-\x21\x23-\x5a\x5c\x5e-\x7a\x7c\x7e-\x7f]*\]'
)


def _json_lines(path: Union[str, Path], features: bool = True):
    """(line number, JSON object) of every non-blank line of a file.

    A line is one `raw_decode` of the line stripped of JSON whitespace,
    accepted when the document ends where the stripped line does; that is
    the set of lines `json.loads` takes. Any other line is handed to
    `json.loads` only for its error message.

    With `features` False, every `"feature": [...]` whose list holds no
    bracket, brace or quote is first replaced by `"feature":[]`, so its
    numbers are never decoded. The cut never changes what a line means
    outside such a list:
    - The cut text holds no `"`, `[`, `]`, `{`, `}` or newline, so it never
      crosses a string or a structural bracket.
    - A `"` directly after `feature` cannot be escaped, so it closes a string
      (after a closing quote, the bare `feature` fails the line before the
      cut). The matched `[` therefore lies outside any string, and the list
      ends at the first `]`.
    - A line that is broken anywhere else still fails, with the message of
      the uncut line. An unbalanced or nested feature list, or one that
      holds a string, is not cut, so it is decoded as before.

    Both patterns cut the same spans of an ASCII line, which is every line
    `save_frames` and `json.dumps` write: they escape non-ASCII characters.
    An ASCII line (`str.isascii` reads a flag of the string) is cut with
    `_ASCII_FEATURE_LIST`, in about half the time: `re` compiles either list
    body to one 256-bit bitmap, but the negated class walks to the end of its
    set for every character it accepts, while the positive one returns on
    the first hit. Other lines keep `_FEATURE_LIST`, which also cuts a list
    holding a raw non-ASCII character. The positive class stops at `\x7f`:
    a range up to `\U0010ffff` would fill a 65 536-entry map when the
    module is imported."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            text = line.strip(" \t\n\r")
            if not text or text.isspace():
                continue
            if not features:
                cut = _ASCII_FEATURE_LIST if text.isascii() else _FEATURE_LIST
                text = cut.sub('"feature":[]', text)
            try:
                doc, end = _raw_decode(text)
            except json.JSONDecodeError:
                end = -1
            if end != len(text):
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


def _number_columns(lines: list[int], columns: list[tuple]):
    """(arrays, kept line count, error) of one chunk of a file's number
    columns.

    `lines` are the line numbers of the chunk's lines. A column is (values,
    tail, field, counts): the chunk's raw values, one row each, become one
    float64 array of shape (rows, *tail), where line i holds counts[i] rows;
    counts None means one row per line, whose values keep the line's own
    shape `tail`.

    One NumPy call builds a column. Only when that call fails, gives a dtype
    that is not a number's (a string, a null, an integer past 64 bits) or
    hides a bool are its lines checked one by one; the column then stops
    before the first line that `_check_floats` rejects. The error is the one
    on the earliest line, on one line the earlier column's, and the kept
    lines are those before it.
    """
    arrays, errors = [], []
    for values, tail, field, counts in columns:
        try:
            column = np.array(values)
        except (TypeError, ValueError, OverflowError):
            column = None
        if (
            column is None
            or column.dtype.kind not in "fiu"
            or column.shape != (len(values), *tail)
            or _hides_bool(values, column)
        ):
            per_line = counts is None
            start = 0
            for line_number, count in zip(lines, repeat(1) if per_line else counts):
                line = values[start] if per_line else values[start : start + count]
                try:
                    if count:
                        _check_floats(line, tail if per_line else (count, *tail), line_number, field)
                except FrameParseError as exc:
                    errors.append(exc)
                    break
                start += count
            # a null reads as NaN, for the value checks
            column = np.array(values[:start], dtype=np.float64).reshape(start, *tail)
        arrays.append(column.astype(np.float64, copy=False))
    error = min(errors, key=lambda e: e.line_number, default=None)
    return arrays, len(lines) if error is None else bisect_left(lines, error.line_number), error


# Raw numbers a loader holds before it builds them into arrays, so that only
# about one chunk's Python floats (some 32 bytes each) are alive at a time.
_NUMBER_CHUNK = 8192


class _NumberChunks:
    """A file's number columns, built by `_number_columns` one chunk of
    lines at a time and appended to one growing buffer per table.

    `dtypes` are the record dtypes of the tables. A column is (table
    position, field name, error field, counts), and its rows have the shape
    of the table's field. A reader appends each line's number to `lines` and
    its raw values to `values`, one pending list per column. A column with a
    list in `counts` takes a list of rows per line, the list holding every
    line's row count; the others take one row per line. When the pending
    lines hold `_NUMBER_CHUNK` numbers, the reader calls `build`, which
    writes the rows of the lines before the chunk's first bad number
    (`_number_columns`) into one record array per table, appends its bytes
    to the table's `bytearray` in `buffers`, and returns that error; the
    reader stops at the first one. `finish` builds the last lines and reads
    the tables, the rows of `lines[:kept]`, from the buffers without a copy.
    So a load holds one copy of the table, with the spare capacity that a
    growing bytearray keeps (at most an eighth), beside one chunk.

    A bytearray refuses to grow while a view of it is alive (BufferError),
    so a view held across a build raises instead of reading freed memory.
    """

    def __init__(self, dtypes: list[np.dtype], columns: list[tuple]):
        self.dtypes, self.columns = dtypes, columns
        self.buffers = [bytearray() for _ in dtypes]
        self.lines: list[int] = []
        self.built = 0  # lines handed to `build`
        self.kept = 0
        self.values: list[list] = [[] for _ in columns]

    def build(self) -> Optional[FrameParseError]:
        """Append the pending lines' rows to the tables; the error of their numbers."""
        lines = self.lines[self.built :]
        if not lines:
            return None
        counts = [None if c is None else c[self.built :] for *_, c in self.columns]
        specs = [
            (values, self.dtypes[t][name].shape, field, c)
            for values, (t, name, field, _), c in zip(self.values, self.columns, counts)
        ]
        arrays, kept, error = _number_columns(lines, specs)
        for values in self.values:  # the chunk's Python floats go before the tables grow
            values.clear()
        chunks: dict[int, np.ndarray] = {}
        for (t, name, *_), array, column_counts in zip(self.columns, arrays, counts):
            if t not in chunks:  # the table's first column: every column has its rows
                rows = kept if column_counts is None else sum(column_counts[:kept])
                chunks[t] = np.empty(rows, self.dtypes[t])
            chunks[t][name] = array[: len(chunks[t])]
        for t, chunk in chunks.items():
            self.buffers[t] += chunk.data
        self.kept = self.built + kept
        self.built = len(self.lines)
        return error

    def finish(self) -> tuple[list[np.ndarray], Optional[FrameParseError]]:
        """The tables after a `build` of the last lines, and its error."""
        error = self.build()
        return [np.frombuffer(b, dtype) for b, dtype in zip(self.buffers, self.dtypes)], error


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


BOX_RULE = "box must be finite with x1 < x2 and y1 < y2"


def load_frames(path: Union[str, Path], features: bool = True) -> Frames:
    """Read frames written by `save_frames` into one `Frames` table.

    Types and structure are checked line by line as the file streams in.
    The numbers of the lines become arrays per chunk of lines
    (`_NUMBER_CHUNK` numbers), appended to the table, and their values
    (boxes, confidences, features) are checked on the table; README.md
    lists the checks. A rejected file raises FrameParseError at its
    earliest bad line; on one line, the structure is checked first, then
    the numbers, then their values. An empty file gives a table of no
    frames.

    With `features` False the feature values are never decoded
    (`_json_lines`), and the table's features are zero-wide. Each
    detection's `feature` must still be a list, but neither its length nor
    its contents are checked. Eval reads frames so: it scores boxes alone,
    and every stage that reads features refuses a file whose feature
    values are bad.
    """
    heads: list[tuple[int, int, int, int]] = []
    det_counts: list[int] = []
    gt_counts: list[int] = []
    det_columns = [("box", "detections.box"), ("confidence", "detections")]
    if features:
        det_columns.append(("feature", "detections"))
    numbers = _NumberChunks(
        [detection_dtype(0), GT_DTYPE],
        [(0, name, field, det_counts) for name, field in det_columns]
        + [(1, "box", "gt_boxes.box", gt_counts)],
    )
    lines, values = numbers.lines, numbers.values
    boxes, confidences, gt_box_values = values[0], values[1], values[-1]
    pending = 0  # numbers not yet built
    gt_ids: list[int] = []
    ids: list[int] = []
    feature_dim: Optional[int] = None if features else 0
    last_index: dict[int, int] = {}
    error: Optional[FrameParseError] = None
    try:
        for line_number, doc in _json_lines(path, features):
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
            if feature_dim is None and dets and isinstance(feature[0], list):
                feature_dim = len(feature[0])
                numbers.dtypes[0] = detection_dtype(feature_dim)
            bad = [
                f for f in feature if not isinstance(f, list) or features and len(f) != feature_dim
            ]
            if bad:
                rule = "a list as long as the file's first" if features else "a list"
                raise FrameParseError(
                    line_number, "detections.feature", f"expected {rule}, got {bad[0]!r}"
                )
            for g in gt_id:
                if g is not None and _parse_int(g, line_number, "detections.gt_id") < 0:
                    raise FrameParseError(
                        line_number, "detections", f"gt_id must be non-negative, got {g}"
                    )
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
            last_index[camera_id] = frame_index
            gt_ids += [-1 if g is None else g for g in gt_id]
            ids += line_ids
            heads.append((frame_index, camera_id, n, m))
            lines.append(line_number)
            boxes += box
            confidences += confidence
            if features:
                values[2] += feature
            gt_box_values += gt_box
            det_counts.append(n)
            gt_counts.append(m)
            pending += n * (5 + (feature_dim or 0)) + 4 * m
            if pending >= _NUMBER_CHUNK:
                pending, error = 0, numbers.build()
                if error is not None:
                    break
    except FrameParseError as exc:
        error = exc  # any bad number lies on an earlier line, which was appended

    (det, gt), number_error = numbers.finish()
    error = number_error or error
    kept = numbers.kept
    det_lines = np.repeat(lines[:kept], det_counts[:kept])
    gt_lines = np.repeat(lines[:kept], gt_counts[:kept])
    det["gt_id"], gt["id"] = gt_ids[: det.size], ids[: gt.size]
    conf, feature = det["confidence"], det["feature"]
    _check_values(
        (_bad_boxes(det["box"]), det_lines, "detections.box", BOX_RULE, det["box"]),
        (~((conf >= 0) & (conf <= 1)), det_lines, "detections", "confidence not in [0, 1]", conf),
        (~np.isfinite(feature).all(axis=1), det_lines, "detections", "feature not finite", feature),
        (_bad_boxes(gt["box"]), gt_lines, "gt_boxes.box", BOX_RULE, gt["box"]),
    )
    if error is not None:
        raise error
    return _frames_table(heads, det, gt)


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
    numbers = _NumberChunks(
        [TRACK_DTYPE], [(0, "box", "box", None), (0, "confidence", "record", None)]
    )
    lines = numbers.lines
    boxes, confidences = numbers.values
    seen: set[tuple[int, int]] = set()
    error: Optional[FrameParseError] = None
    try:
        for line_number, doc in _json_lines(path):
            key = (
                _parse_int(doc.get("frame_index"), line_number, "frame_index"),
                _parse_int(doc.get("track_id"), line_number, "track_id"),
            )
            if key in seen:
                raise FrameParseError(
                    line_number, "track_id", f"track {key[1]} occurs twice in frame {key[0]}"
                )
            seen.add(key)
            keys.append(key)
            lines.append(line_number)
            boxes.append(doc.get("box"))
            confidences.append(doc.get("confidence"))
            if len(boxes) * 5 >= _NUMBER_CHUNK:  # five numbers a line
                error = numbers.build()
                if error is not None:
                    break
    except FrameParseError as exc:
        error = exc  # any bad number lies on an earlier line, which was appended

    (tracks,), number_error = numbers.finish()
    error = number_error or error
    kept = numbers.kept
    tracks["frame_index"] = [k[0] for k in keys[:kept]]
    tracks["track_id"] = [k[1] for k in keys[:kept]]
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
