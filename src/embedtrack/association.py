"""Frame-to-frame data association by mutual nearest neighbours.

Tracking keeps one frame of memory: each frame's embeddings are matched
against the previous frame's only, matched detections inherit the old track
id, everything else (new detections, tracks that missed a frame) starts a
fresh id. Ids are never reused.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .core import TRACK_DTYPE, FrameRecord
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
    Returns one entry per row: the matched column index or None.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2:
        raise ValueError(f"distance matrix must be 2-D, got shape {d.shape}")
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
    get fresh ids from `next_id` on, in row order.
    """
    n_former = len(former_ids)
    cols = [j for j in matches if j is not None]
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
    frames: Sequence[FrameRecord],
    params: EmbeddingHeadParams,
    threshold: float,
    score_threshold: float = 0.5,
) -> np.ndarray:
    """Run the tracker over one single-camera sequence.

    Detections below `score_threshold` are ignored. A frame that does not
    directly follow the previous one (`FrameRecord.follows`) has nothing to
    match against, so after an index gap every detection gets a fresh id.
    Returns the tracks array (`TRACK_DTYPE`): one row per kept detection, in
    frame order, then detection order.
    """
    cameras = {f.camera_id for f in frames}
    if len(cameras) > 1:
        raise ValueError(f"expected a single camera, got {sorted(cameras)}")
    for prev, cur in zip(frames, frames[1:]):
        if cur.frame_index <= prev.frame_index:
            raise ValueError(
                f"frame indices must increase: {prev.frame_index} then {cur.frame_index}"
            )

    former_emb = np.zeros((0, params.embed_dim))
    former_ids = np.zeros(0, dtype=np.int64)
    next_id = 0
    kept_masks, track_ids = [], []
    for k, frame in enumerate(frames):
        kept = frame.detections["confidence"] >= score_threshold
        if kept.any():
            emb = embed_batch(params, frame.detections["feature"][kept])
        else:
            emb = np.zeros((0, params.embed_dim))
        if k > 0 and not frame.follows(frames[k - 1]):
            former_emb, former_ids = former_emb[:0], former_ids[:0]
        matches = match_frames(distance_matrix(emb, former_emb), threshold)
        former_ids, next_id = update_tracks(former_ids, matches, next_id)
        former_emb = emb
        kept_masks.append(kept)
        track_ids.append(former_ids)

    # Whole-file columns: concatenating per-frame record arrays costs a
    # dtype promotion per frame.
    counts = [ids.size for ids in track_ids]
    tracks = np.empty(sum(counts), dtype=TRACK_DTYPE)
    if frames:
        kept = np.concatenate(kept_masks)
        tracks["frame_index"] = np.repeat([f.frame_index for f in frames], counts)
        tracks["track_id"] = np.concatenate(track_ids)
        for name in ("box", "confidence"):
            tracks[name] = np.concatenate([f.detections[name] for f in frames])[kept]
    return tracks
