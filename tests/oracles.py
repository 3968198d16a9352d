"""Independent test oracles shared by the unit and acceptance suites."""

import numpy as np

from embedtrack import EmbeddingHeadParams, batch_loss


def finite_diff_gradient(params, batch, cfg, eps=1e-5):
    """Central-difference gradient of `batch_loss`, one coordinate at a time."""
    flat = params.to_flat()
    grad = np.zeros_like(flat)
    f, h, e = params.feature_dim, params.hidden_dim, params.embed_dim
    for k in range(flat.size):
        bumped = flat.copy()
        bumped[k] += eps
        hi = batch_loss(EmbeddingHeadParams.from_flat(bumped, f, h, e), batch, cfg)
        bumped[k] = flat[k] - eps
        lo = batch_loss(EmbeddingHeadParams.from_flat(bumped, f, h, e), batch, cfg)
        grad[k] = (hi - lo) / (2.0 * eps)
    return EmbeddingHeadParams.from_flat(grad, f, h, e)
