"""Frame-to-frame data association by mutual nearest neighbours.

Tracking keeps one frame of memory: each frame's embeddings are matched
against the previous frame's only, matched detections inherit the old track
id, everything else (new detections, tracks that missed a frame) starts a
fresh id. Ids are never reused.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .core import (
    TRACK_DTYPE, Frames, _check_score_threshold, _check_sequence, _checked_array, _follows,
)
from .embedding import EmbeddingHeadParams, distance_matrix, embed_batch

__all__ = [
    "match_frames",
    "update_tracks",
    "track_sequence",
]


def match_frames(distances: np.ndarray, threshold: float) -> list[Optional[int]]:
    """Mutual-minimum assignment under a hard distance gate.

    Row i is matched to column j only when j is the argmin of row i, i is the
    argmin of column j, and d[i, j] < threshold. Ties resolve to the first
    occurrence (argmin semantics), which keeps the result deterministic.
    Returns one entry per row: the matched column index or None. The
    distances are a 2-D array of integers or floats.
    """
    d = _checked_array(distances, "distances", "f", ndim=2)
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    n_cur, n_fmr = d.shape
    if n_cur == 0 or n_fmr == 0:
        return [None] * n_cur
    rows = np.arange(n_cur)
    row_arg = d.argmin(axis=1)
    mutual = (d.argmin(axis=0)[row_arg] == rows) & (d[rows, row_arg] < threshold)
    return [j if m else None for j, m in zip(row_arg.tolist(), mutual.tolist())]


def update_tracks(
    former_ids: np.ndarray, matches: Sequence[Optional[int]], next_id: int
) -> tuple[np.ndarray, int]:
    """Track ids of one frame's rows, and the next unused id.

    `matches[i]` is the previous-frame column matched to current row i (or
    None). Matched rows keep the column's id in `former_ids`; unmatched rows
    get fresh ids from `next_id` on, in row order. `former_ids` must be a
    1-D integer array, each entry of `matches` an integer or None, and
    `next_id` an integer.
    """
    former_ids = _checked_array(former_ids, "former_ids", "i", ndim=1)
    if type(next_id) is not int and not isinstance(next_id, np.integer):  # bool is refused
        raise ValueError(f"next_id must be an integer, got {next_id!r}")
    n_former = len(former_ids)
    cols = [j for j in matches if j is not None]
    odd = [j for j in cols if type(j) is not int and not isinstance(j, np.integer)]
    if odd:  # `type`, as a bool is an int
        raise ValueError(f"matches must hold integers or None, got {odd[0]!r}")
    outside = [j for j in cols if not 0 <= j < n_former]
    if outside:
        raise ValueError(f"match column {outside[0]} outside previous frame of {n_former}")
    if len(set(cols)) < len(cols):
        twice = next(j for k, j in enumerate(cols) if j in cols[:k])
        raise ValueError(f"column {twice} matched twice")
    matched = np.array([j is not None for j in matches], dtype=bool)
    ids = np.empty(matched.size, dtype=np.int64)
    ids[matched] = former_ids[cols]
    births = matched.size - len(cols)
    ids[~matched] = np.arange(next_id, next_id + births)
    return ids, next_id + births


def track_sequence(
    frames: Frames,
    params: EmbeddingHeadParams,
    threshold: float,
    score_threshold: float = 0.5,
) -> np.ndarray:
    """Run the tracker over one single-camera sequence.

    Detections below `score_threshold` are ignored. A frame that does not
    directly follow the previous one (`core.neighbor_frames`' rule) has
    nothing to match against, so after an index gap every detection gets a
    fresh id. Returns the tracks array (`TRACK_DTYPE`): one row per kept
    detection, in frame order, then detection order.
    """
    _check_score_threshold(score_threshold)
    _check_sequence(frames)

    det = frames.detections
    kept = det["confidence"] >= score_threshold
    # Each frame's kept rows are one slice of the kept features.
    features = det["feature"][kept]
    offsets = np.concatenate(([0], np.cumsum(kept)))[frames.det_offsets].tolist()
    follows = [False] + _follows(frames.frame_index, frames.camera_id).tolist()
    former_emb = np.zeros((0, params.embed_dim))
    former_ids = np.zeros(0, dtype=np.int64)
    next_id = 0
    track_ids = []
    for a, b, step in zip(offsets, offsets[1:], follows):
        emb = embed_batch(params, features[a:b]) if b > a else np.zeros((0, params.embed_dim))
        if not step:
            former_emb, former_ids = former_emb[:0], former_ids[:0]
        matches = match_frames(distance_matrix(emb, former_emb), threshold)
        former_ids, next_id = update_tracks(former_ids, matches, next_id)
        former_emb = emb
        track_ids.append(former_ids)

    tracks = np.empty(np.count_nonzero(kept), dtype=TRACK_DTYPE)
    tracks["frame_index"] = np.repeat(frames.frame_index, [ids.size for ids in track_ids])
    tracks["track_id"] = np.concatenate([np.zeros(0, dtype=np.int64)] + track_ids)
    tracks["box"], tracks["confidence"] = det["box"][kept], det["confidence"][kept]
    return tracks
