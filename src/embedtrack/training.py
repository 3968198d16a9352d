"""Gradient descent for the embedding head.

The head is small enough that plain gradient descent, one step per labeled
batch under a cosine learning-rate schedule, converges in seconds, so there
is no optimizer machinery here: just an analytic gradient of the triplet +
pull objective and a training loop over labeled batches. Each step runs one
forward pass for both the loss and the gradient, reads label-only masks
computed once per batch, writes the gradient into one preallocated buffer
and updates one flat parameter vector in place.

The loss is computed only inside that step. `batch_loss` and `gradient`
run it once on a fresh buffer and return its loss or its gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .embedding import (
    EmbeddingHeadParams,
    _check_finite,
    _flat_views,
    _squared_distances,
    LossConfig,
    init_params,
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
    """Raised when the training loss or the parameters stop being finite."""


@dataclass(frozen=True, eq=False)
class LabeledBatch:
    """Feature rows with parallel integer identity labels.

    One batch is typically two frames' labeled rows stacked
    (`datasets.training_batches`); losses need at least two rows to form any
    pair.
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
        _check_finite(self)
        if not self.initial_lr > 0:
            raise ValueError(f"initial_lr must be positive, got {self.initial_lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ValueError("hidden_dim and embed_dim must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def cosine_lr(step: int, total_steps: int, initial_lr: float) -> float:
    """Cosine decay from initial_lr at step 0 towards 0 at step == total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside schedule of {total_steps} steps")
    if total_steps < 1:
        raise ValueError("total_steps must be at least 1")
    return 0.5 * initial_lr * (1.0 + np.cos(np.pi * step / total_steps))


class _BatchIndex(NamedTuple):
    """A batch's label-only constants: the positive (same identity, off the
    diagonal) and negative masks, the valid anchors (rows with both), one row
    mask per identity of two or more rows (ascending), and the row numbers."""

    pos: np.ndarray
    neg: np.ndarray
    anchors: np.ndarray
    groups: np.ndarray
    rows: np.ndarray


def _batch_index(identities: np.ndarray) -> _BatchIndex:
    ids = np.sort(identities)
    run = ids[1:] == ids[:-1]  # ids[k] and ids[k + 1] share a run
    multi = ids[:-1][run & np.concatenate(([True], ~run[:-1]))]  # each run of two or more
    same = identities[:, None] == identities[None, :]
    pos = same & ~np.eye(identities.size, dtype=bool)
    neg = ~same
    anchors = np.flatnonzero(pos.any(axis=1) & neg.any(axis=1))
    groups = multi[:, None] == identities[None, :]
    return _BatchIndex(pos, neg, anchors, groups, np.arange(identities.size))


def _loss_and_gradient(
    params: Sequence[np.ndarray],
    features: np.ndarray,
    index: _BatchIndex,
    cfg: LossConfig,
    grad: Sequence[np.ndarray],
) -> float:
    """The loss of one batch from one forward pass of the head `params`
    (w1, b1, w2, b2), with its analytic gradient written into the
    same-shaped `grad`.

    With d the squared distances between the batch's embeddings, the loss is
    w_triplet * triplet + w_pull * pull, where

        triplet = mean over anchors i of max(max_p d[i, p] - min_n d[i, n] + margin, 0)
        pull    = mean over identities k of |max of d within k - pull_margin|

    An anchor is a row with at least one other row p of its identity and one
    row n of another (batch-hard triplet loss); the pull mean runs over
    identities of two or more rows. An empty mean is 0.

    Both losses touch only the per-anchor hardest pairs, so d(loss)/d(distances)
    is a sparse fill. An identity's largest intra-identity distance is the
    largest hardest-positive distance among its rows; the first such row and
    its first hardest column reproduce the row-major first-occurrence tie
    rule of the loop reference. At hinge and absolute-value kinks the
    subgradient 0 is used. With S the symmetrised distance gradient,

        d(loss)/d(e_i) = 2 * (sum_j S_ij * (e_i - e_j))

    which vectorises to 2 * (rowsum(S) * E - S @ E); the two layers follow
    by the chain rule.
    """
    w1, b1, w2, b2 = params
    dw1, db1, dw2, db2 = grad
    z = features @ w1.T + b1
    a = np.maximum(z, 0.0)
    e = a @ w2.T + b2
    d = _squared_distances(e, e)

    masked_pos = np.where(index.pos, d, -np.inf)
    masked_neg = np.where(index.neg, d, np.inf)
    jp = masked_pos.argmax(axis=1)
    jn = masked_neg.argmin(axis=1)
    hardest_pos = masked_pos[index.rows, jp]

    anchors = index.anchors
    slack = hardest_pos[anchors] - masked_neg[anchors, jn[anchors]] + cfg.margin
    triplet = float(np.add.reduce(np.maximum(slack, 0.0))) / anchors.size if anchors.size else 0.0

    n_groups = index.groups.shape[0]
    top = np.where(index.groups, hardest_pos, -np.inf).argmax(axis=1)
    excess = hardest_pos[top] - cfg.pull_margin
    pull = float(np.add.reduce(np.abs(excess))) / n_groups if n_groups else 0.0
    loss = cfg.w_triplet * triplet + cfg.w_pull * pull

    dd = np.zeros(d.shape)
    if anchors.size and cfg.w_triplet > 0:
        active = anchors[slack > 0]
        w = cfg.w_triplet / anchors.size
        dd[active, jp[active]] = w
        dd[active, jn[active]] = -w
    if n_groups and cfg.w_pull > 0:
        dd[top, jp[top]] += (cfg.w_pull / n_groups) * np.sign(excess)
    s = dd + dd.T
    g_e = 2.0 * (np.add.reduce(s, axis=1, keepdims=True) * e - s @ e)

    np.matmul(g_e.T, a, out=dw2)
    np.add.reduce(g_e, axis=0, out=db2)
    g_z = (g_e @ w2) * (z > 0)
    np.matmul(g_z.T, features, out=dw1)
    np.add.reduce(g_z, axis=0, out=db1)
    return loss


def _step(
    params: EmbeddingHeadParams, batch: LabeledBatch, cfg: LossConfig
) -> tuple[float, list[np.ndarray]]:
    """The training step's loss and gradient arrays at `params`."""
    head = (params.w1, params.b1, params.w2, params.b2)
    grad = [np.empty_like(p) for p in head]
    return _loss_and_gradient(head, batch.features, _batch_index(batch.identities), cfg, grad), grad


def batch_loss(params: EmbeddingHeadParams, batch: LabeledBatch, cfg: LossConfig) -> float:
    """Weighted triplet + pull loss of one batch under the head `params`, as
    the training step computes it."""
    return _step(params, batch, cfg)[0]


def gradient(
    params: EmbeddingHeadParams, batch: LabeledBatch, cfg: LossConfig
) -> EmbeddingHeadParams:
    """Analytic gradient of `batch_loss` with respect to every parameter,
    computed by the same step `train` takes."""
    return EmbeddingHeadParams(*_step(params, batch, cfg)[1])


def train(
    batches: Sequence[LabeledBatch],
    loss_config: LossConfig,
    train_config: TrainConfig,
) -> tuple[EmbeddingHeadParams, list[float]]:
    """Gradient descent with one step per batch, over all batches in order,
    for the configured epochs.

    Returns the final parameters and the per-epoch mean loss, where each
    batch's loss is recorded before its update is applied. Fully
    deterministic for a fixed seed and batch order.
    """
    if not batches:
        raise ValueError("at least one batch is required")
    feature_dim = batches[0].feature_dim
    for b in batches:
        if b.feature_dim != feature_dim:
            raise ValueError(f"batches disagree on feature dim: {b.feature_dim} vs {feature_dim}")

    dims = (feature_dim, train_config.hidden_dim, train_config.embed_dim)
    flat = init_params(*dims, np.random.default_rng(train_config.seed)).to_flat()
    grad, update = np.empty(flat.size), np.empty(flat.size)
    params, grads = _flat_views(flat, dims), _flat_views(grad, dims)
    prepared = [(b.features, _batch_index(b.identities)) for b in batches]
    total_steps = train_config.epochs * len(batches)
    trace: list[float] = []
    # Divergence shows up as overflow in the forward pass before the loss
    # check catches it; keep numpy quiet about the transient non-finite
    # values and raise one diagnostic error instead.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_config.epochs):
            epoch_losses = []
            for step, (features, index) in enumerate(prepared, epoch * len(prepared)):
                loss = _loss_and_gradient(params, features, index, loss_config, grads)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(f"loss became non-finite at step {step}")
                epoch_losses.append(loss)
                lr = cosine_lr(step, total_steps, train_config.initial_lr)
                np.multiply(-lr, grad, out=update)
                flat += update
                if not np.isfinite(flat).all():
                    raise TrainingDivergedError(f"parameters became non-finite at step {step}")
            trace.append(float(np.mean(epoch_losses)))
    return EmbeddingHeadParams.from_flat(flat, *dims), trace
