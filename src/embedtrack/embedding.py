"""Two-layer embedding head over ROI feature vectors.

The head maps an F-dimensional detector feature to an E-dimensional metric
embedding through one hidden rectified layer:

    embedding = w2 @ relu(w1 @ feature + b1) + b2

Distances between embeddings are squared Euclidean throughout the package;
margins and thresholds are expressed in those units.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import _checked_array

__all__ = [
    "EmbeddingHeadParams",
    "LossConfig",
    "init_params",
    "embed_batch",
    "distance_matrix",
    "save_params",
    "load_params",
]

PARAMS_FORMAT_VERSION = 1


def _check_fields(cfg) -> None:
    """The one rule for the values of the config dataclass instance `cfg`:
    an int field takes an integer, a float field an integer or a float,
    stored as a finite float; neither takes a bool. Anything else raises
    ValueError naming the field."""
    for f in fields(cfg):
        value, kind = getattr(cfg, f.name), type(f.default)
        if kind not in (int, float):
            continue
        numbers = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
        if isinstance(value, bool) or not isinstance(value, numbers):
            article = "an integer" if kind is int else "a number"
            raise ValueError(f"{f.name} must be {article}, got {value!r}")
        if kind is float:
            try:
                value = float(value)
            except OverflowError:
                raise ValueError(f"{f.name} is too large for a float") from None
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            object.__setattr__(cfg, f.name, value)


@dataclass(frozen=True)
class LossConfig:
    """Loss margins and weights.

    `margin` separates hardest-positive from hardest-negative distances,
    `pull_margin` anchors the absolute scale of intra-identity distances,
    and the two weights blend the triplet and pull losses. `score_threshold`
    filters detections by confidence before identities are assigned.
    """

    margin: float = 5.0
    pull_margin: float = 1.0
    w_triplet: float = 0.2
    w_pull: float = 0.2
    score_threshold: float = 0.5

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        for name in ("pull_margin", "w_triplet", "w_pull"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError(f"score_threshold must lie in [0, 1], got {self.score_threshold}")


def _check_config_keys(values: dict, classes: Sequence[type], source: str) -> None:
    """Every key of `values` must name a field of one of the config
    dataclasses `classes`; the dataclasses check the values."""
    unknown = sorted(set(values) - {f.name for cls in classes for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown config keys in {source}: {unknown}")


def _flat_views(vec: np.ndarray, dims: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """Views (w1, b1, w2, b2) into a flat vector laid out as `to_flat`, for
    dims (feature, hidden, embed)."""
    f, h, e = dims
    o1 = h * f
    o2 = o1 + h
    o3 = o2 + e * h
    return vec[:o1].reshape(h, f), vec[o1:o2], vec[o2:o3].reshape(e, h), vec[o3:]


@dataclass(frozen=True, eq=False)
class EmbeddingHeadParams:
    """Weights of the two fully connected layers.

    Shapes: w1 (hidden, feature), b1 (hidden,), w2 (embed, hidden), b2 (embed,).
    Instances are immutable.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        names = ("w1", "b1", "w2", "b2")
        arrays = [
            _checked_array(getattr(self, name), name, "f", ndim, finite=True)
            for name, ndim in zip(names, (2, 1, 2, 1))
        ]
        (hidden, feature), embed_dim = arrays[0].shape, arrays[2].shape[0]
        shapes = ((hidden, feature), (hidden,), (embed_dim, hidden), (embed_dim,))
        for name, arr, shape in zip(names, arrays, shapes):
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            arr = arr.copy()  # the caller's array may change; the head may not
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[0]

    def to_flat(self) -> np.ndarray:
        """Concatenate all parameters into one vector (w1, b1, w2, b2; row-major)."""
        return np.concatenate([self.w1.ravel(), self.b1, self.w2.ravel(), self.b2])

    @classmethod
    def from_flat(cls, vec: np.ndarray, feature_dim: int, hidden_dim: int, embed_dim: int) -> "EmbeddingHeadParams":
        vec = _checked_array(vec, "vec", "f", ndim=1, finite=True)
        size = hidden_dim * feature_dim + hidden_dim + embed_dim * hidden_dim + embed_dim
        if vec.size != size:
            raise ValueError(f"vec must hold {size} values, got {vec.size}")
        return cls(*_flat_views(vec, (feature_dim, hidden_dim, embed_dim)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingHeadParams):
            return NotImplemented
        return (
            np.array_equal(self.w1, other.w1)
            and np.array_equal(self.b1, other.b1)
            and np.array_equal(self.w2, other.w2)
            and np.array_equal(self.b2, other.b2)
        )


def init_params(
    feature_dim: int, hidden_dim: int, embed_dim: int, rng: np.random.Generator
) -> EmbeddingHeadParams:
    """Uniform initialisation in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer.

    Draw order is fixed (w1, b1, w2, b2) so a seeded generator reproduces the
    same parameters.
    """
    if min(feature_dim, hidden_dim, embed_dim) < 1:
        raise ValueError("all head dimensions must be positive")
    bound1 = 1.0 / np.sqrt(feature_dim)
    bound2 = 1.0 / np.sqrt(hidden_dim)
    return EmbeddingHeadParams(
        w1=rng.uniform(-bound1, bound1, size=(hidden_dim, feature_dim)),
        b1=rng.uniform(-bound1, bound1, size=hidden_dim),
        w2=rng.uniform(-bound2, bound2, size=(embed_dim, hidden_dim)),
        b2=rng.uniform(-bound2, bound2, size=embed_dim),
    )


def embed_batch(params: EmbeddingHeadParams, features: np.ndarray) -> np.ndarray:
    """Map an (n, F) feature matrix of integers or floats to (n, E)
    embeddings."""
    feats = _checked_array(features, "features", "f", ndim=2)
    if feats.shape[1] != params.feature_dim:
        raise ValueError(
            f"features must have shape (n, {params.feature_dim}), got {feats.shape}"
        )
    hidden = np.maximum(feats @ params.w1.T + params.b1, 0.0)
    return hidden @ params.w2.T + params.b2


def distance_matrix(current: np.ndarray, former: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, rows = current embeddings, cols = former.

    Computed from coordinate differences, not the dot-product identity, to
    avoid cancellation: `distance_matrix(e, e)` is exactly symmetric with a
    zero diagonal. Both inputs are 2-D arrays of integers or floats.
    """
    cur = _checked_array(current, "current", "f", ndim=2)
    fmr = _checked_array(former, "former", "f", ndim=2)
    if cur.size == 0:
        cur = cur.reshape(0, fmr.shape[1] if fmr.size else 0)
    if fmr.size == 0:
        fmr = fmr.reshape(0, cur.shape[1])
    if cur.shape[1] != fmr.shape[1]:
        raise ValueError(
            f"embedding dims differ: current {cur.shape[1]}, former {fmr.shape[1]}"
        )
    return _squared_distances(cur, fmr)


def _squared_distances(cur: np.ndarray, fmr: np.ndarray) -> np.ndarray:
    """`distance_matrix` of two checked float64 (n, E) and (m, E) arrays.

    The C-contiguous (n, m, E) difference tensor is built from n rows of
    m * E values, `cur` rows repeated minus all of `fmr`, so that each
    subtraction loop runs m * E elements, not E. einsum then reduces over
    the contiguous last axis whatever the inputs' layout.
    """
    n, e = cur.shape
    m = fmr.shape[0]
    diff = cur.repeat(m, axis=0).reshape(n, m * e)
    diff -= fmr.reshape(1, m * e)
    diff = diff.reshape(n, m, e)
    return np.einsum("ijk,ijk->ij", diff, diff)


def _pair_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, second, slots) for n rows: the rows i < j of each pair,
    ordered by j and then i, and the (n, n) table of where
    `_pair_squared_distances` keeps each cell, slot 1 + p for the p-th pair
    and slot 0 on the diagonal. In that order the layout of m <= n rows is
    the first m(m-1)/2 pairs and `slots[:m, :m]`."""
    second, first = np.tril_indices(n, -1)
    slots = np.zeros((n, n), dtype=np.intp)
    slots[first, second] = slots[second, first] = np.arange(1, first.size + 1)
    return first, second, slots


def _gathered_squared_distances(
    emb: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    diff: np.ndarray,
    other: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write |emb[first[p]] - emb[second[p]]|^2 into out[p] for every p, for
    a float64 (n, E) array and in-range row indices.

    Each cell is the row difference reduced by einsum over the contiguous
    last axis, as `distance_matrix` reduces it, so a cell has the bits of
    `distance_matrix`'s cell of the same two rows. The two gathered
    operands are written into `diff` and `other`, C-contiguous float64
    (P, E) arrays for the P pairs.
    """
    # mode="clip" gathers straight into `diff`; "raise" would gather into a copy.
    emb.take(first, axis=0, out=diff, mode="clip")
    emb.take(second, axis=0, out=other, mode="clip")
    diff -= other
    np.einsum("ij,ij->i", diff, diff, out=out)


class _PairBuffers(NamedTuple):
    """Where `_pair_squared_distances` works for the P pairs of n rows:
    the two gathered (P, E) operands, and the cells it reads the (n, n)
    matrix from, whose slot 0 holds the diagonal's 0 and whose view `pairs`
    is slots 1 to P."""

    diff: np.ndarray
    other: np.ndarray
    cells: np.ndarray
    pairs: np.ndarray


def _pair_buffers(sizes: Iterable[int], embed_dim: int) -> dict[int, _PairBuffers]:
    """The `_PairBuffers` of E = `embed_dim` wide rows for each row count of
    `sizes`, all views into one set of buffers sized for the largest. A
    caller that reuses one set over many calls keeps the allocator from
    returning those pages to the system and faulting them in again on every
    call."""
    pair_counts = {n: n * (n - 1) // 2 for n in sizes}
    most = max(pair_counts.values())
    work = np.empty((2, most, embed_dim))
    cells = np.zeros(most + 1)
    return {
        n: _PairBuffers(work[0, :p], work[1, :p], cells, cells[1 : p + 1])
        for n, p in pair_counts.items()
    }


def _pair_squared_distances(
    emb: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    slots: np.ndarray,
    buffers: _PairBuffers,
) -> np.ndarray:
    """`distance_matrix(emb, emb)` of a float64 (n, E) array, with each pair
    of its rows reduced once by `_gathered_squared_distances`; (first,
    second, slots) is `_pair_layout(n)` or the layout of n rows cut from a
    larger one, and `buffers` the `_PairBuffers` of n rows.

    e_j - e_i is exactly -(e_i - e_j), so both triangles square the same
    values, in the same order. The diagonal is the 0 of slot 0.
    """
    diff, other, cells, pairs = buffers
    _gathered_squared_distances(emb, first, second, diff, other, pairs)
    return cells.take(slots)


def save_params(
    path: Union[str, Path],
    params: EmbeddingHeadParams,
    *,
    seed: Optional[int] = None,
    loss_config: Optional[LossConfig] = None,
) -> None:
    """Write parameters as a versioned JSON document.

    Weight arrays are stored flat in row-major order; dims allow reshaping.
    """
    doc = {
        "format_version": PARAMS_FORMAT_VERSION,
        "feature_dim": params.feature_dim,
        "hidden_dim": params.hidden_dim,
        "embed_dim": params.embed_dim,
        "w1": params.w1.ravel().tolist(),
        "b1": params.b1.tolist(),
        "w2": params.w2.ravel().tolist(),
        "b2": params.b2.tolist(),
        "seed": seed,
        "loss_config": asdict(loss_config) if loss_config is not None else None,
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_params(
    path: Union[str, Path],
) -> tuple[EmbeddingHeadParams, Optional[int], Optional[LossConfig]]:
    """Read a parameter document written by `save_params`.

    Returns (params, seed, loss_config); the latter two may be None. The
    version, dims (>= 1) and seed (>= 0 or null) must be JSON integers, and
    each weight a flat list of JSON numbers of the length the dims give.
    `w_cls` and `w_reg`, which older files hold in `loss_config`, must be 1.0.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"parameter file {path} must hold a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != PARAMS_FORMAT_VERSION:
        raise ValueError(f"unsupported format_version in {path}: {version!r}")
    names = ("feature_dim", "hidden_dim", "embed_dim")
    f, h, e = dims = [doc.get(name) for name in names]
    for name, value in zip(names, dims):
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} in {path} must be a JSON integer >= 1, got {value!r}")
    flat = {}
    for name, size in (("w1", h * f), ("b1", h), ("w2", e * h), ("b2", e)):
        values = doc.get(name)
        numbers = type(values) is list and set(map(type, values)) <= {int, float}
        if not numbers or len(values) != size:
            raise ValueError(f"{name} in {path} must be a flat list of {size} JSON numbers")
        try:
            flat[name] = np.array(values, dtype=np.float64)
        except OverflowError:
            raise ValueError(f"{name} in {path} holds a number too large for a float") from None
    params = EmbeddingHeadParams(
        flat["w1"].reshape(h, f), flat["b1"], flat["w2"].reshape(e, h), flat["b2"]
    )
    seed = doc.get("seed")
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ValueError(f"seed in {path} must be a JSON integer >= 0 or null, got {seed!r}")
    loss_cfg = doc.get("loss_config")
    if loss_cfg is not None:
        if not isinstance(loss_cfg, dict):
            raise ValueError(f"loss_config in {path} must be a JSON object")
        for name in ("w_cls", "w_reg"):
            value = loss_cfg.pop(name, 1.0)
            if type(value) not in (int, float) or value != 1.0:
                raise ValueError(
                    f"loss_config in {path}: {name} must be 1.0, as no detector loss is "
                    f"computed, got {value!r}"
                )
        _check_config_keys(loss_cfg, (LossConfig,), f"loss_config in {path}")
        try:
            loss_cfg = LossConfig(**loss_cfg)
        except ValueError as exc:
            raise ValueError(f"loss_config in {path}: {exc}") from None
    return params, seed, loss_cfg
