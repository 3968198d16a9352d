"""Gradient descent for the embedding head.

The head is small enough that plain gradient descent, one step per labeled
batch under a cosine learning-rate schedule, converges in seconds, so there
is no optimizer machinery here: just an analytic gradient of the triplet +
pull objective and a training loop over labeled batches. The batches come
as one array triple, as `datasets.training_batches` builds it: every
batch's feature rows stacked into one (N, F) array, their identities in one
(N,) array, and the row count of each batch. Each step runs one forward
pass for both the loss and the gradient, reads label-only masks computed
once per batch, writes the gradient into one preallocated buffer and
updates one flat parameter vector in place.

The step's distance matrix is exactly symmetric, so it reduces each row
pair i < j once (`embedding._pair_squared_distances`) and reads the (n, n)
matrix through a slot table, with the same bits as the full difference
tensor. Everything a step reads besides the parameters is made once per
`train` call: one pair layout and one set of kernel buffers, both sized for
the largest batch and cut once per batch size (a smaller batch uses a
prefix of each); one read-only label index per distinct identity pattern,
shared by the batches that have it; and the learning rate of every step,
from one `cosine_lr` call.

The loss is computed only inside that step. `batch_loss` and `gradient`
check their rows as `train` does, run the step once on fresh buffers and
return its loss or its gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import _checked_array
from .embedding import (
    EmbeddingHeadParams,
    _check_fields,
    _flat_views,
    _PairBuffers,
    _pair_buffers,
    _pair_layout,
    _pair_squared_distances,
    LossConfig,
    init_params,
)

__all__ = [
    "TrainConfig",
    "TrainingDivergedError",
    "cosine_lr",
    "batch_loss",
    "gradient",
    "train",
]


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss or the parameters stop being finite."""


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters. The schedule length is epochs * batch count."""

    initial_lr: float = 1e-3
    epochs: int = 40
    hidden_dim: int = 64
    embed_dim: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.initial_lr > 0:
            raise ValueError(f"initial_lr must be positive, got {self.initial_lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ValueError("hidden_dim and embed_dim must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def cosine_lr(
    step: Union[int, np.ndarray], total_steps: int, initial_lr: float
) -> Union[float, np.ndarray]:
    """Cosine decay from initial_lr at step 0 towards 0 at step == total_steps,
    for an integer step or elementwise for a 1-D integer array of steps."""
    steps = _checked_array(step, "step", "i")
    if steps.ndim > 1:
        raise ValueError(f"step must be an integer or a 1-D array, got shape {steps.shape}")
    outside = np.flatnonzero((steps < 0) | (steps > total_steps))
    if outside.size:
        raise ValueError(f"step {steps.flat[outside[0]]} outside schedule of {total_steps} steps")
    if total_steps < 1:
        raise ValueError("total_steps must be at least 1")
    return 0.5 * initial_lr * (1.0 + np.cos(np.pi * steps / total_steps))


class _BatchIndex(NamedTuple):
    """A batch's label-only constants: the positive (same identity, off the
    diagonal) and negative masks, the valid anchors (rows with both), one row
    mask per identity of two or more rows (ascending), and the row numbers;
    then the pair layout of the batch's rows (`embedding._pair_layout`),
    views into one layout that all batches of a `train` call share. Every
    array is read-only, since batches of one identity pattern share one
    index."""

    pos: np.ndarray
    neg: np.ndarray
    anchors: np.ndarray
    groups: np.ndarray
    rows: np.ndarray
    pair_first: np.ndarray
    pair_second: np.ndarray
    pair_slots: np.ndarray


def _batch_index(identities: np.ndarray, pairs: Optional[tuple] = None) -> _BatchIndex:
    """The `_BatchIndex` of int64 `identities`, its pair layout cut from
    `pairs`, the layout of at least as many rows, or from a new one."""
    ids = np.sort(identities)
    run = ids[1:] == ids[:-1]  # ids[k] and ids[k + 1] share a run
    multi = ids[:-1][run & np.concatenate(([True], ~run[:-1]))]  # each run of two or more
    same = identities[:, None] == identities[None, :]
    pos = same & ~np.eye(identities.size, dtype=bool)
    neg = ~same
    anchors = np.flatnonzero(pos.any(axis=1) & neg.any(axis=1))
    groups = multi[:, None] == identities[None, :]
    n = identities.size
    first, second, slots = _pair_layout(n) if pairs is None else pairs
    cut = n * (n - 1) // 2
    rows = np.arange(n)
    index = _BatchIndex(pos, neg, anchors, groups, rows, first[:cut], second[:cut], slots[:n, :n])
    for array in index:
        array.flags.writeable = False
    return index


def _loss_and_gradient(
    params: Sequence[np.ndarray],
    features: np.ndarray,
    index: _BatchIndex,
    cfg: LossConfig,
    grad: Sequence[np.ndarray],
    buffers: _PairBuffers,
) -> float:
    """The loss of one batch from one forward pass of the head `params`
    (w1, b1, w2, b2), with its analytic gradient written into the
    same-shaped `grad`. `buffers` are the `_PairBuffers` of the batch's row
    count, where `_pair_squared_distances` works.

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
    d = _pair_squared_distances(e, index.pair_first, index.pair_second, index.pair_slots, buffers)

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


def _checked_rows(
    features, identities, width: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray]:
    """`features` as float64 and `identities` as int64, once the features
    are a 2-D array of at least one row, finite and, given `width`, that
    wide, and the identities an integer array of one entry per row."""
    features = _checked_array(features, "features", "f", ndim=2, finite=True)
    if features.shape[0] == 0:
        raise ValueError("features must hold at least one row")
    if width is not None and features.shape[1] != width:
        raise ValueError(
            f"features must have {width} columns, as the head, not {features.shape[1]}"
        )
    identities = _checked_array(identities, "identities", "i")
    if identities.shape != (features.shape[0],):
        raise ValueError(
            f"identities shape {identities.shape} does not match {features.shape[0]} feature rows"
        )
    return features, identities


def _step(
    params: EmbeddingHeadParams, features: np.ndarray, identities: np.ndarray, cfg: LossConfig
) -> tuple[float, list[np.ndarray]]:
    """The training step's loss and gradient arrays at `params`, on checked
    rows."""
    features, identities = _checked_rows(features, identities, params.feature_dim)
    head = (params.w1, params.b1, params.w2, params.b2)
    grad = [np.empty_like(p) for p in head]
    n = identities.size
    buffers = _pair_buffers([n], params.embed_dim)[n]
    return _loss_and_gradient(head, features, _batch_index(identities), cfg, grad, buffers), grad


def batch_loss(
    params: EmbeddingHeadParams, features: np.ndarray, identities: np.ndarray, cfg: LossConfig
) -> float:
    """Weighted triplet + pull loss of one batch, (N, F) finite features as
    wide as the head with (N,) integer identities, N >= 1, under the head
    `params`, as the training step computes it."""
    return _step(params, features, identities, cfg)[0]


def gradient(
    params: EmbeddingHeadParams, features: np.ndarray, identities: np.ndarray, cfg: LossConfig
) -> EmbeddingHeadParams:
    """Analytic gradient of `batch_loss` with respect to every parameter,
    computed by the same step `train` takes."""
    return EmbeddingHeadParams(*_step(params, features, identities, cfg)[1])


def train(
    batches: tuple[np.ndarray, np.ndarray, np.ndarray],
    loss_config: LossConfig,
    train_config: TrainConfig,
) -> tuple[EmbeddingHeadParams, list[float]]:
    """Gradient descent with one step per batch, over all batches in order,
    for the configured epochs.

    `batches` is (features, identities, counts) as `training_batches` gives
    it: (N, F) finite features, (N,) integer identities, and the 1-D
    integer array of each batch's row count, batches stacked in order; every
    batch needs at least two rows.
    Returns the final parameters and the per-epoch mean loss, where each
    batch's loss is recorded before its update is applied. Fully
    deterministic for a fixed seed and batch order.
    """
    features, identities, counts = batches
    counts = _checked_array(counts, "counts", "i", ndim=1)
    if counts.size == 0:
        raise ValueError("at least one batch is required")
    features, identities = _checked_rows(features, identities)
    if counts.sum() != features.shape[0]:
        raise ValueError(f"batch counts sum to {counts.sum()}, not {features.shape[0]} rows")
    if counts.min() < 2:
        raise ValueError("every batch needs at least two rows")

    dims = (features.shape[1], train_config.hidden_dim, train_config.embed_dim)
    flat = init_params(*dims, np.random.default_rng(train_config.seed)).to_flat()
    grad, update = np.empty(flat.size), np.empty(flat.size)
    finite = np.empty(flat.size, dtype=bool)
    params, grads = _flat_views(flat, dims), _flat_views(grad, dims)
    # One index per identity pattern, shared by the batches that have it,
    # and one set of pair buffers per row count, all made before the first
    # step.
    sizes = counts.tolist()
    pairs = _pair_layout(max(sizes))
    buffers = _pair_buffers(sizes, train_config.embed_dim)
    indexes: dict[bytes, _BatchIndex] = {}
    prepared = []
    ends = np.cumsum(counts).tolist()
    for a, b in zip([0] + ends, ends):
        key = identities[a:b].tobytes()
        if key not in indexes:
            indexes[key] = _batch_index(identities[a:b], pairs)
        prepared.append((features[a:b], indexes[key], buffers[b - a]))
    total_steps = train_config.epochs * len(prepared)
    # The update of each step is flat += (-lr) * grad.
    descent = (-cosine_lr(np.arange(total_steps), total_steps, train_config.initial_lr)).tolist()
    trace: list[float] = []
    # Divergence shows up as overflow in the forward pass before the loss
    # check catches it; keep numpy quiet about the transient non-finite
    # values and raise one diagnostic error instead.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_config.epochs):
            epoch_losses = []
            for step, (rows, index, work) in enumerate(prepared, epoch * len(prepared)):
                loss = _loss_and_gradient(params, rows, index, loss_config, grads, work)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(f"loss became non-finite at step {step}")
                epoch_losses.append(loss)
                np.multiply(descent[step], grad, out=update)
                flat += update
                if not np.logical_and.reduce(np.isfinite(flat, out=finite)):
                    raise TrainingDivergedError(f"parameters became non-finite at step {step}")
            trace.append(float(np.mean(epoch_losses)))
    return EmbeddingHeadParams.from_flat(flat, *dims), trace
