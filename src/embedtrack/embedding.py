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
from typing import Optional, Sequence, Union

import numpy as np

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
        if not 0 < self.margin < math.inf:
            raise ValueError(f"margin must be positive and finite, got {self.margin}")
        for name in ("pull_margin", "w_triplet", "w_pull"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError(f"score_threshold must lie in [0, 1], got {self.score_threshold}")


def _check_finite(cfg) -> None:
    """Every float field of the config dataclass instance `cfg` must be finite."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if type(f.default) is float and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def _check_config_values(values: dict, classes: Sequence[type], source: str) -> dict:
    """Every key of `values` must name a field of one of the config
    dataclasses `classes`, and every value must be a JSON integer for int
    fields, an integer or float for float fields, never a bool.

    Returns the values with each integer given for a float field made the
    float its flag would parse to, so that a file value and the same flag
    write the same bytes.
    """
    kinds = {f.name: type(f.default) for cls in classes for f in fields(cls)}
    unknown = sorted(set(values) - set(kinds))
    if unknown:
        raise ValueError(f"unknown config keys in {source}: {unknown}")
    coerced = {}
    for name, value in values.items():
        if type(value) not in ((int,) if kinds[name] is int else (int, float)):
            raise ValueError(f"{source}: {name} must be {kinds[name].__name__}, got {value!r}")
        try:
            coerced[name] = kinds[name](value)
        except OverflowError:
            raise ValueError(f"{source}: {name} is too large for a float") from None
    return coerced


def _as_param_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    arr = np.array(value, dtype=np.float64, copy=True)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


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
        w1 = np.array(self.w1, dtype=np.float64, copy=True)
        if w1.ndim != 2:
            raise ValueError(f"w1 must be 2-D, got shape {w1.shape}")
        hidden, feature = w1.shape
        w2 = np.array(self.w2, dtype=np.float64, copy=True)
        if w2.ndim != 2:
            raise ValueError(f"w2 must be 2-D, got shape {w2.shape}")
        embed_dim = w2.shape[0]
        object.__setattr__(self, "w1", _as_param_array(w1, (hidden, feature), "w1"))
        object.__setattr__(self, "b1", _as_param_array(self.b1, (hidden,), "b1"))
        object.__setattr__(self, "w2", _as_param_array(w2, (embed_dim, hidden), "w2"))
        object.__setattr__(self, "b2", _as_param_array(self.b2, (embed_dim,), "b2"))

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
        vec = np.asarray(vec, dtype=np.float64)
        size = hidden_dim * feature_dim + hidden_dim + embed_dim * hidden_dim + embed_dim
        if vec.shape != (size,):
            raise ValueError(f"expected flat vector of length {size}, got shape {vec.shape}")
        return cls(*_flat_views(vec, (feature_dim, hidden_dim, embed_dim)))

    @classmethod
    def zeros(cls, feature_dim: int, hidden_dim: int, embed_dim: int) -> "EmbeddingHeadParams":
        return cls(
            w1=np.zeros((hidden_dim, feature_dim)),
            b1=np.zeros(hidden_dim),
            w2=np.zeros((embed_dim, hidden_dim)),
            b2=np.zeros(embed_dim),
        )

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
    """Map an (n, F) feature matrix to (n, E) embeddings."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != params.feature_dim:
        raise ValueError(
            f"features must have shape (n, {params.feature_dim}), got {feats.shape}"
        )
    hidden = np.maximum(feats @ params.w1.T + params.b1, 0.0)
    return hidden @ params.w2.T + params.b2


def distance_matrix(current: np.ndarray, former: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, rows = current embeddings, cols = former.

    Computed from coordinate differences, not the dot-product identity, to
    avoid cancellation: `distance_matrix(e, e)` is exactly symmetric with a
    zero diagonal.
    """
    cur = np.atleast_2d(np.asarray(current, dtype=np.float64))
    fmr = np.atleast_2d(np.asarray(former, dtype=np.float64))
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
        loss_cfg = _check_config_values(loss_cfg, (LossConfig,), f"loss_config in {path}")
    return params, seed, LossConfig(**loss_cfg) if loss_cfg is not None else None
