"""Tracking-by-detection on detector ROI features.

A small metric-learning head turns per-detection feature vectors into
embeddings in which the same physical object stays close across frames.
Tracking is then mutual-nearest-neighbour matching under a calibrated
distance threshold, and evaluation covers detection AP, MOTA, and
cross-frame pair accuracy.
"""

__version__ = "0.1.0"

from .association import match_frames, track_sequence, update_tracks
from .calibration import (
    DegenerateDevSetError,
    ThresholdSweep,
    distance_histogram,
    sweep_threshold,
)
from .core import (
    GT_DTYPE,
    TRACK_DTYPE,
    Frames,
    detection_dtype,
    iou,
    neighbor_frames,
)
from .datasets import (
    FrameParseError,
    SimConfig,
    cross_camera_frames,
    default_archetypes,
    labeled_rows,
    load_frames,
    load_track_records,
    neighbor_pair_distances,
    save_frames,
    save_track_records,
    simulate,
    training_batches,
)
from .embedding import (
    EmbeddingHeadParams,
    LossConfig,
    distance_matrix,
    embed_batch,
    init_params,
    load_params,
    save_params,
)
from .evaluation import (
    AP_IOU_THRESHOLDS,
    MotCounts,
    PairCounts,
    assign_predictions,
    ground_truth_records,
    mean_ap,
    mota,
    pair_accuracy,
    track_counts,
)
from .training import (
    TrainConfig,
    TrainingDivergedError,
    batch_loss,
    cosine_lr,
    gradient,
    train,
)

__all__ = [
    "__version__",
    "AP_IOU_THRESHOLDS",
    "DegenerateDevSetError",
    "EmbeddingHeadParams",
    "FrameParseError",
    "Frames",
    "GT_DTYPE",
    "LossConfig",
    "MotCounts",
    "PairCounts",
    "SimConfig",
    "TRACK_DTYPE",
    "ThresholdSweep",
    "TrainConfig",
    "TrainingDivergedError",
    "assign_predictions",
    "batch_loss",
    "cosine_lr",
    "cross_camera_frames",
    "default_archetypes",
    "detection_dtype",
    "distance_histogram",
    "distance_matrix",
    "embed_batch",
    "gradient",
    "ground_truth_records",
    "init_params",
    "iou",
    "labeled_rows",
    "load_frames",
    "load_params",
    "load_track_records",
    "match_frames",
    "mean_ap",
    "mota",
    "neighbor_frames",
    "neighbor_pair_distances",
    "pair_accuracy",
    "save_frames",
    "save_params",
    "save_track_records",
    "simulate",
    "sweep_threshold",
    "track_counts",
    "track_sequence",
    "train",
    "training_batches",
    "update_tracks",
]
