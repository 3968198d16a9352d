"""Gradient descent for the embedding head.

The head is small enough that plain gradient descent, one step per labeled
batch under a cosine learning-rate schedule, converges in seconds, so there
is no optimizer machinery here: just an analytic gradient of the triplet +
pull objective and a training loop over labeled batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding import (
    EmbeddingHeadParams,
    LossConfig,
    distance_matrix,
    embed_batch,
    init_params,
    pull_loss,
    triplet_loss,
)

__all__ = [
    "LabeledBatch",
    "TrainConfig",
    "TrainingDivergedError",
    "cosine_lr",
    "batch_loss",
    "gradient",
    "train",
]


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True, eq=False)
class LabeledBatch:
    """Feature rows with parallel integer identity labels.

    One batch is typically the labeled detections of one concatenated frame
    pair; losses need at least two rows to form any pair.
    """

    features: np.ndarray
    identities: np.ndarray

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64, copy=True)
        ids = np.array(self.identities, dtype=np.int64, copy=True)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if feats.shape[0] < 2:
            raise ValueError("a batch needs at least two rows")
        if ids.shape != (feats.shape[0],):
            raise ValueError(
                f"identities shape {ids.shape} does not match {feats.shape[0]} feature rows"
            )
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite entries")
        feats.flags.writeable = False
        ids.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "identities", ids)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledBatch):
            return NotImplemented
        return np.array_equal(self.features, other.features) and np.array_equal(
            self.identities, other.identities
        )


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters. The schedule length is epochs * len(batches)."""

    initial_lr: float = 1e-3
    epochs: int = 40
    hidden_dim: int = 64
    embed_dim: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.initial_lr > 0:
            raise ValueError(f"initial_lr must be positive, got {self.initial_lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ValueError("hidden_dim and embed_dim must be positive")


def cosine_lr(step: int, total_steps: int, initial_lr: float) -> float:
    """Cosine decay from initial_lr at step 0 towards 0 at step == total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside schedule of {total_steps} steps")
    if total_steps < 1:
        raise ValueError("total_steps must be at least 1")
    return 0.5 * initial_lr * (1.0 + np.cos(np.pi * step / total_steps))


def batch_loss(params: EmbeddingHeadParams, batch: LabeledBatch, cfg: LossConfig) -> float:
    """Weighted triplet + pull loss of one batch under the current head."""
    e = embed_batch(params, batch.features)
    d = distance_matrix(e, e)
    return cfg.w_triplet * triplet_loss(d, batch.identities, cfg.margin) + cfg.w_pull * pull_loss(
        d, batch.identities, cfg.pull_margin
    )


def _distance_grad(
    d: np.ndarray, ids: np.ndarray, cfg: LossConfig
) -> np.ndarray:
    """d(loss)/d(distance matrix) for the weighted triplet + pull objective.

    Both losses touch only a handful of matrix entries (the per-anchor
    hardest pairs), so the result is a sparse fill. At hinge and absolute
    value kinks the subgradient 0 is used; argmax/argmin ties resolve to the
    first occurrence, matching the loss evaluation.
    """
    n = ids.shape[0]
    dd = np.zeros((n, n))

    same = ids[:, None] == ids[None, :]
    pos = same & ~np.eye(n, dtype=bool)
    neg = ~same
    valid = pos.any(axis=1) & neg.any(axis=1)
    if valid.any() and cfg.w_triplet > 0:
        masked_pos = np.where(pos, d, -np.inf)
        masked_neg = np.where(neg, d, np.inf)
        jp = masked_pos.argmax(axis=1)
        jn = masked_neg.argmin(axis=1)
        slack = masked_pos.max(axis=1) - masked_neg.min(axis=1) + cfg.margin
        active = valid & (slack > 0)
        w = cfg.w_triplet / valid.sum()
        for i in np.nonzero(active)[0]:
            dd[i, jp[i]] += w
            dd[i, jn[i]] -= w

    if cfg.w_pull > 0:
        multi = [ident for ident in np.unique(ids) if (ids == ident).sum() >= 2]
        if multi:
            w = cfg.w_pull / len(multi)
            for ident in multi:
                members = np.nonzero(ids == ident)[0]
                sub = d[np.ix_(members, members)].copy()
                np.fill_diagonal(sub, -np.inf)
                flat = sub.argmax()
                i, j = np.unravel_index(flat, sub.shape)
                largest = sub[i, j]
                sign = np.sign(largest - cfg.pull_margin)
                dd[members[i], members[j]] += w * sign

    return dd


def gradient(
    params: EmbeddingHeadParams, batch: LabeledBatch, cfg: LossConfig
) -> EmbeddingHeadParams:
    """Analytic gradient of `batch_loss` with respect to every parameter.

    Chains d(loss)/d(distances) through the squared Euclidean distance map
    and the two layers. With S the symmetrised distance gradient,

        d(loss)/d(e_i) = 2 * (sum_j S_ij * (e_i - e_j))

    which vectorises to 2 * (rowsum(S) * E - S @ E).
    """
    feats = batch.features
    ids = batch.identities
    z = feats @ params.w1.T + params.b1
    a = np.maximum(z, 0.0)
    e = a @ params.w2.T + params.b2
    d = distance_matrix(e, e)

    dd = _distance_grad(d, ids, cfg)
    s = dd + dd.T
    g_e = 2.0 * (s.sum(axis=1, keepdims=True) * e - s @ e)

    dw2 = g_e.T @ a
    db2 = g_e.sum(axis=0)
    g_a = g_e @ params.w2
    g_z = g_a * (z > 0)
    dw1 = g_z.T @ feats
    db1 = g_z.sum(axis=0)
    return EmbeddingHeadParams(w1=dw1, b1=db1, w2=dw2, b2=db2)


def train(
    batches: Sequence[LabeledBatch],
    loss_config: LossConfig,
    train_config: TrainConfig,
) -> tuple[EmbeddingHeadParams, list[float]]:
    """Gradient descent with one step per batch, over all batches in order,
    for the configured epochs.

    Returns the final parameters and the per-epoch mean loss, where each
    batch's loss is recorded before its update is applied. Fully
    deterministic for a fixed seed and batch order. The detector weights
    w_cls and w_reg must keep their defaults: this head-only trainer
    computes no detector loss for them to weight.
    """
    if not batches:
        raise ValueError("at least one batch is required")
    for name in ("w_cls", "w_reg"):
        value, default = getattr(loss_config, name), getattr(LossConfig, name)
        if value != default:
            raise ValueError(
                f"{name}={value} would be ignored: the head-only trainer computes no "
                f"detector loss (keep the default {default})"
            )
    feature_dim = batches[0].feature_dim
    for b in batches:
        if b.feature_dim != feature_dim:
            raise ValueError(
                f"batches disagree on feature dim: {b.feature_dim} vs {feature_dim}"
            )

    rng = np.random.default_rng(train_config.seed)
    params = init_params(
        feature_dim, train_config.hidden_dim, train_config.embed_dim, rng
    )
    total_steps = train_config.epochs * len(batches)
    trace: list[float] = []
    step = 0
    # Divergence shows up as overflow in the forward pass before the loss
    # check catches it; keep numpy quiet about the transient non-finite
    # values and raise one diagnostic error instead.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(train_config.epochs):
            epoch_losses = []
            for batch in batches:
                loss = batch_loss(params, batch, loss_config)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"loss became non-finite at step {step}")
                epoch_losses.append(loss)
                lr = cosine_lr(step, total_steps, train_config.initial_lr)
                try:
                    params = params.add_scaled(gradient(params, batch, loss_config), -lr)
                except ValueError as exc:
                    raise TrainingDivergedError(
                        f"parameters became non-finite at step {step}"
                    ) from exc
                step += 1
            trace.append(float(np.mean(epoch_losses)))
    return params, trace
