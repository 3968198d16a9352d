"""Frame-to-frame data association by mutual nearest neighbours.

Tracking keeps one frame of memory: each frame's embeddings are matched
against the previous frame's only, matched detections inherit the old track
id, everything else (new detections, tracks that missed a frame) starts a
fresh id. Ids are never reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import FrameRecord
from .embedding import EmbeddingHeadParams, distance_matrix, embed_batch

__all__ = [
    "match_frames",
    "TrackState",
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
    row_arg = d.argmin(axis=1)
    col_arg = d.argmin(axis=0)
    out: list[Optional[int]] = []
    for i in range(n_cur):
        j = row_arg[i]
        if col_arg[j] == i and d[i, j] < threshold:
            out.append(int(j))
        else:
            out.append(None)
    return out


@dataclass(frozen=True)
class TrackState:
    """What survives from one frame to the next: embeddings, their track ids,
    and the next unused id."""

    former_embeddings: np.ndarray
    former_track_ids: tuple[int, ...]
    next_track_id: int

    def __post_init__(self) -> None:
        emb = np.array(self.former_embeddings, dtype=np.float64, copy=True)
        if emb.ndim != 2:
            raise ValueError(f"former_embeddings must be 2-D, got shape {emb.shape}")
        ids = tuple(int(t) for t in self.former_track_ids)
        if emb.shape[0] != len(ids):
            raise ValueError(
                f"{emb.shape[0]} embeddings but {len(ids)} track ids"
            )
        if any(t < 0 for t in ids):
            raise ValueError("track ids must be non-negative")
        if self.next_track_id < 0:
            raise ValueError("next_track_id must be non-negative")
        emb.flags.writeable = False
        object.__setattr__(self, "former_embeddings", emb)
        object.__setattr__(self, "former_track_ids", ids)

    @classmethod
    def empty(cls, embed_dim: int) -> "TrackState":
        return cls(
            former_embeddings=np.zeros((0, embed_dim)),
            former_track_ids=(),
            next_track_id=0,
        )


def update_tracks(
    state: TrackState, embeddings: np.ndarray, matches: Sequence[Optional[int]]
) -> tuple[TrackState, list[int]]:
    """Advance the tracker one frame.

    `matches[i]` is the previous-frame column matched to current row i (or
    None). Matched rows keep the column's track id; unmatched rows get fresh
    ids in row order. The new state remembers only the current frame.
    """
    emb = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if emb.size == 0:
        emb = emb.reshape(0, state.former_embeddings.shape[1])
    if len(matches) != emb.shape[0]:
        raise ValueError(f"{len(matches)} matches for {emb.shape[0]} embeddings")
    n_former = len(state.former_track_ids)
    taken: set[int] = set()
    for j in matches:
        if j is None:
            continue
        if not 0 <= j < n_former:
            raise ValueError(f"match column {j} outside previous frame of {n_former}")
        if j in taken:
            raise ValueError(f"column {j} matched twice")
        taken.add(j)

    next_id = state.next_track_id
    ids: list[int] = []
    for j in matches:
        if j is None:
            ids.append(next_id)
            next_id += 1
        else:
            ids.append(state.former_track_ids[j])
    new_state = TrackState(
        former_embeddings=emb, former_track_ids=tuple(ids), next_track_id=next_id
    )
    return new_state, ids


def track_sequence(
    frames: Sequence[FrameRecord],
    params: EmbeddingHeadParams,
    threshold: float,
    score_threshold: float = 0.5,
) -> list[np.ndarray]:
    """Run the tracker over one single-camera sequence.

    Detections below `score_threshold` are ignored. A frame that does not
    directly follow the previous one (`FrameRecord.follows`) has nothing to
    match against, so after an index gap every detection gets a fresh id.
    Returns, per frame, the int64 track id of each detection, -1 for the
    detections that were not tracked (`datasets.track_records` turns this
    into a tracks array).
    """
    cameras = {f.camera_id for f in frames}
    if len(cameras) > 1:
        raise ValueError(f"expected a single camera, got {sorted(cameras)}")
    for prev, cur in zip(frames, frames[1:]):
        if cur.frame_index <= prev.frame_index:
            raise ValueError(
                f"frame indices must increase: {prev.frame_index} then {cur.frame_index}"
            )

    state = TrackState.empty(params.embed_dim)
    out: list[np.ndarray] = []
    for k, frame in enumerate(frames):
        kept = frame.detections["confidence"] >= score_threshold
        if kept.any():
            emb = embed_batch(params, frame.detections["feature"][kept])
        else:
            emb = np.zeros((0, params.embed_dim))
        former = state.former_embeddings
        if k > 0 and not frame.follows(frames[k - 1]):
            former = former[:0]
        matches = match_frames(distance_matrix(emb, former), threshold)
        state, ids = update_tracks(state, emb, matches)
        track_ids = np.full(kept.size, -1, dtype=np.int64)
        track_ids[kept] = ids
        out.append(track_ids)
    return out
