import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedtrack import (
    EmbeddingHeadParams,
    LossConfig,
    TrainConfig,
    TrainingDivergedError,
    batch_loss,
    cosine_lr,
    gradient,
    init_params,
    train,
)
from embedtrack.embedding import _flat_views
from embedtrack.training import _batch_index, _loss_and_gradient
import oracles
from oracles import finite_diff_gradient, loop_gradient, loop_train, unique_batch_index


def _two_cluster_batch(rng, n_per=3, sep=4.0, noise=0.05, dim=3):
    f0 = np.zeros(dim)
    f0[0] = sep
    f1 = np.zeros(dim)
    f1[1] = sep
    feats = np.vstack(
        [f0 + noise * rng.normal(size=dim) for _ in range(n_per)]
        + [f1 + noise * rng.normal(size=dim) for _ in range(n_per)]
    )
    ids = np.array([0] * n_per + [1] * n_per)
    return feats, ids


def _stacked(*batches):
    """The (features, identities, counts) triple that `train` takes, from
    (features, identities) batches in order."""
    return (
        np.vstack([features for features, _ in batches]),
        np.concatenate([ids for _, ids in batches]),
        np.array([len(ids) for _, ids in batches]),
    )


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 10, 1e-3) == 1e-3
        assert cosine_lr(10, 10, 1e-3) == pytest.approx(0.0, abs=1e-19)
        assert cosine_lr(5, 10, 1e-3) == pytest.approx(5e-4)

    def test_non_increasing(self):
        values = [cosine_lr(s, 100, 1.0) for s in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range_step(self):
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 1e-3)
        with pytest.raises(ValueError):
            cosine_lr(-1, 10, 1e-3)


class TestGradient:
    def test_zero_loss_batch_has_zero_gradient(self):
        # all identities distinct: no valid triplet anchor, no multi-member identity
        rng = np.random.default_rng(0)
        params = init_params(3, 4, 2, rng)
        batch = rng.normal(size=(4, 3)), np.array([0, 1, 2, 3])
        cfg = LossConfig()
        assert batch_loss(params, *batch, cfg) == 0.0
        g = gradient(params, *batch, cfg)
        assert np.array_equal(g.to_flat(), np.zeros(g.to_flat().size))
        fd = finite_diff_gradient(params, *batch, cfg)
        assert np.array_equal(fd.to_flat(), np.zeros(fd.to_flat().size))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        cfg = LossConfig()
        params = init_params(4, 6, 3, rng)
        batch = rng.normal(size=(6, 4)), np.array([0, 0, 1, 1, 2, 2])
        g = gradient(params, *batch, cfg).to_flat()
        fd = finite_diff_gradient(params, *batch, cfg).to_flat()
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)

    def test_duplicating_batch_preserves_direction(self):
        """Mean-based losses: stacking two copies of the batch leaves the
        gradient direction unchanged (hard pairs and anchor ratios survive)."""
        rng = np.random.default_rng(7)
        cfg = LossConfig()
        params = init_params(4, 6, 3, rng)
        feats = rng.normal(size=(6, 4))
        ids = np.array([0, 0, 1, 1, 2, 2])
        g = gradient(params, feats, ids, cfg).to_flat()
        gd = gradient(
            params, np.vstack([feats, feats]), np.concatenate([ids, ids]), cfg
        ).to_flat()
        n = g / np.linalg.norm(g)
        nd = gd / np.linalg.norm(gd)
        np.testing.assert_allclose(n, nd, atol=1e-6)

    def test_fd_estimate_stable_under_eps_halving(self):
        rng = np.random.default_rng(11)
        cfg = LossConfig()
        params = init_params(4, 6, 3, rng)
        batch = rng.normal(size=(5, 4)), np.array([0, 0, 1, 1, 2])
        fd_coarse = finite_diff_gradient(params, *batch, cfg, eps=1e-4).to_flat()
        fd_fine = finite_diff_gradient(params, *batch, cfg, eps=1e-5).to_flat()
        assert np.abs(fd_coarse - fd_fine).max() < 1e-6


def _integer_params(rng, dims=(3, 5, 2)):
    """Small whole-number weights: with whole-number features every
    embedding and distance is a whole number, so hardest pairs tie."""
    f, h, e = dims
    return EmbeddingHeadParams(
        w1=rng.integers(-2, 3, size=(h, f)).astype(float),
        b1=rng.integers(-2, 3, size=h).astype(float),
        w2=rng.integers(-2, 3, size=(e, h)).astype(float),
        b2=rng.integers(-2, 3, size=e).astype(float),
    )


def _assert_fused_step_matches_references(params, features, ids, cfg):
    """The training step's loss equals the reference `batch_loss` and its
    gradient equals the loop oracle, bit for bit."""
    dims = (params.feature_dim, params.hidden_dim, params.embed_dim)
    grad = np.full(params.to_flat().size, np.nan)  # the step must write every entry
    loss = _loss_and_gradient(
        _flat_views(params.to_flat(), dims),
        features,
        _batch_index(ids),
        cfg,
        _flat_views(grad, dims),
    )
    reference = loop_gradient(params, features, ids, cfg)
    assert loss == oracles.batch_loss(params, features, ids, cfg)
    assert np.array_equal(grad, reference.to_flat())
    assert gradient(params, features, ids, cfg) == reference


@st.composite
def step_cases(draw):
    """(params, features, identities, cfg) covering exact distance ties,
    duplicated rows, single-identity and all-singleton batches, and zero
    loss weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    whole = draw(st.booleans())
    if whole:
        feats = rng.integers(-3, 4, size=(n, 3)).astype(float)
        params = _integer_params(rng)
    else:
        feats = rng.uniform(-10.0, 10.0, size=(n, 3))
        params = init_params(3, 5, 2, rng)
    copies = draw(st.lists(st.integers(0, n - 1), max_size=3))
    feats = np.vstack([feats, feats[copies]])
    rows = feats.shape[0]
    labels = draw(st.sampled_from(["mixed", "single", "singletons"]))
    if labels == "single":
        ids = np.zeros(rows, dtype=np.int64)
    elif labels == "singletons":
        ids = np.arange(rows)
    else:
        ids = rng.integers(0, 4, size=rows)
    cfg = LossConfig(
        margin=draw(st.sampled_from([0.5, 2.0, 5.0])),
        pull_margin=draw(st.sampled_from([0.0, 1.0, 4.0])),
        w_triplet=draw(st.sampled_from([0.0, 0.2, 1.0])),
        w_pull=draw(st.sampled_from([0.0, 0.2, 1.0])),
    )
    return params, feats, ids, cfg


class TestFusedStep:
    @given(step_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_batch_loss_and_loop_gradient(self, case):
        _assert_fused_step_matches_references(*case)

    @given(step_cases())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_entry_points_match_references(self, case):
        """The library's `batch_loss` and `gradient`, which run the fused
        step, equal the reference loss and the loop gradient bit for bit."""
        params, feats, ids, cfg = case
        assert batch_loss(params, feats, ids, cfg) == oracles.batch_loss(params, feats, ids, cfg)
        assert gradient(params, feats, ids, cfg) == loop_gradient(params, feats, ids, cfg)

    @pytest.mark.parametrize(
        "ids, whole, cfg",
        [
            # exact ties: whole-number distances and a duplicated row
            ([0, 0, 1, 1, 2, 2, 0], True, LossConfig(pull_margin=0.0)),
            ([3, 3, 3, 3, 3], False, LossConfig()),  # one identity: no valid anchor
            ([0, 1, 2, 3, 4], False, LossConfig()),  # all singletons: no pull term
            ([0, 0, 1, 1, 1, 2], False, LossConfig(w_triplet=0.0)),
            ([0, 0, 1, 1, 1, 2], False, LossConfig(w_pull=0.0)),
        ],
    )
    def test_corner_cases(self, ids, whole, cfg):
        rng = np.random.default_rng(len(ids))
        n = len(ids)
        if whole:
            params = _integer_params(rng)
            feats = rng.integers(-3, 4, size=(n, 3)).astype(float)
            feats[-1] = feats[0]
        else:
            params = init_params(3, 5, 2, rng)
            feats = rng.normal(size=(n, 3))
        _assert_fused_step_matches_references(params, feats, np.array(ids), cfg)


@st.composite
def identity_vectors(draw):
    """2-80 int64 identities: singletons only, one identity, or draws from a
    few values, any of which may be negative or near the int64 ends."""
    n = draw(st.integers(2, 80))
    value = st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3)
    kind = draw(st.sampled_from(["singletons", "one", "few"]))
    if kind == "singletons":
        ids = draw(st.lists(value, min_size=n, max_size=n, unique=True))
    elif kind == "one":
        ids = [draw(value)] * n
    else:
        pool = draw(st.lists(value, min_size=1, max_size=6))
        ids = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(ids, dtype=np.int64)


class TestBatchIndex:
    @given(identity_vectors())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_unique_form(self, ids):
        index = _batch_index(ids)
        for name, expected in zip(index._fields, unique_batch_index(ids), strict=True):
            assert np.array_equal(getattr(index, name), expected), name


@st.composite
def train_cases(draw):
    """(batches, loss config, train config) over one to three batches of
    mixed, single-identity or all-singleton labels (the last two have no
    valid anchor), zero loss weights, and learning rates that diverge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e3]))
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 8))
        labels = draw(st.sampled_from(["mixed", "single", "singletons"]))
        ids = {
            "mixed": rng.integers(0, 4, size=n),
            "single": np.zeros(n, dtype=np.int64),
            "singletons": np.arange(n),
        }[labels]
        batches.append((scale * rng.normal(size=(n, 3)), ids))
    cfg = LossConfig(
        margin=draw(st.sampled_from([0.5, 5.0])),
        pull_margin=draw(st.sampled_from([0.0, 1.0])),
        w_triplet=draw(st.sampled_from([0.0, 0.2, 1.0])),
        w_pull=draw(st.sampled_from([0.0, 0.2, 1.0])),
    )
    tc = TrainConfig(
        initial_lr=draw(st.sampled_from([1e-2, 1.0, 1e20, 1e200, 1e308])),
        epochs=draw(st.integers(1, 3)),
        hidden_dim=5,
        embed_dim=2,
        seed=draw(st.integers(0, 100)),
    )
    return _stacked(*batches), cfg, tc


def _assert_train_matches_loop_train(batches, cfg, tc):
    """Equal params and loss trace, or the same divergence error."""
    try:
        expected_params, expected_trace = loop_train(batches, cfg, tc)
    except TrainingDivergedError as exc:
        with pytest.raises(TrainingDivergedError, match=f"^{re.escape(str(exc))}$"):
            train(batches, cfg, tc)
    else:
        params, trace = train(batches, cfg, tc)
        assert trace == expected_trace
        assert params == expected_params


class TestTrainMatchesLoopTrain:
    @given(train_cases())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_params_and_trace(self, case):
        _assert_train_matches_loop_train(*case)

    @pytest.mark.parametrize(
        "lr, scale, message",
        [
            (1e20, 1.0, "loss became non-finite at step 2"),
            (1e200, 1e3, "loss became non-finite at step 1"),
            (1e308, 1e3, "parameters became non-finite at step 0"),
        ],
    )
    def test_divergence_names_the_same_step(self, lr, scale, message):
        feats, ids = _two_cluster_batch(np.random.default_rng(9))
        batches = _stacked((scale * feats, ids))
        tc = TrainConfig(epochs=10, hidden_dim=8, embed_dim=4, initial_lr=lr, seed=1)
        with pytest.raises(TrainingDivergedError, match=f"^{message}$"):
            loop_train(batches, LossConfig(), tc)
        _assert_train_matches_loop_train(batches, LossConfig(), tc)

    def test_corner_batches_over_epochs(self):
        """A batch with no valid anchor, a single-identity batch and a mixed
        one, under each zero loss weight."""
        rng = np.random.default_rng(3)
        batches = _stacked(
            (rng.normal(size=(4, 3)), np.arange(4)),
            (rng.normal(size=(3, 3)), np.zeros(3, dtype=np.int64)),
            _two_cluster_batch(rng),
        )
        tc = TrainConfig(initial_lr=1e-1, epochs=4, hidden_dim=6, embed_dim=3, seed=2)
        for cfg in (LossConfig(), LossConfig(w_triplet=0.0), LossConfig(w_pull=0.0)):
            _assert_train_matches_loop_train(batches, cfg, tc)


class TestTrain:
    def test_zero_loss_dataset_leaves_params_at_init(self):
        rng = np.random.default_rng(1)
        batches = _stacked((rng.normal(size=(3, 3)), np.array([0, 1, 2])))
        tc = TrainConfig(epochs=5, hidden_dim=4, embed_dim=2, seed=3)
        params, trace = train(batches, LossConfig(), tc)
        assert trace == [0.0] * 5
        assert params == init_params(3, tc.hidden_dim, tc.embed_dim, np.random.default_rng(3))

    def test_descends_on_easy_data(self):
        rng = np.random.default_rng(5)
        batches = _stacked(_two_cluster_batch(rng))
        tc = TrainConfig(epochs=50, hidden_dim=8, embed_dim=4, initial_lr=1e-2, seed=1)
        _, trace = train(batches, LossConfig(), tc)
        assert trace[-1] < 0.5 * trace[0]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        batches = _stacked(_two_cluster_batch(rng))
        tc = TrainConfig(epochs=10, hidden_dim=8, embed_dim=4, seed=2)
        p1, t1 = train(batches, LossConfig(), tc)
        p2, t2 = train(batches, LossConfig(), tc)
        assert t1 == t2
        assert p1 == p2

    def test_loss_recorded_before_update(self):
        # first epoch's mean must equal the loss at the initial parameters
        rng = np.random.default_rng(8)
        feats, ids = _two_cluster_batch(rng)
        tc = TrainConfig(epochs=3, hidden_dim=8, embed_dim=4, initial_lr=1e-2, seed=4)
        init = init_params(feats.shape[1], 8, 4, np.random.default_rng(4))
        _, trace = train(_stacked((feats, ids)), LossConfig(), tc)
        assert trace[0] == oracles.batch_loss(init, feats, ids, LossConfig())

    def test_raises_on_divergence(self):
        rng = np.random.default_rng(9)
        batches = _stacked(_two_cluster_batch(rng))
        tc = TrainConfig(epochs=10, hidden_dim=8, embed_dim=4, initial_lr=1e80, seed=1)
        with pytest.raises(TrainingDivergedError, match="loss became non-finite at step 1$"):
            train(batches, LossConfig(), tc)

    @pytest.mark.parametrize(
        "lr, scale, message",
        [
            (1e20, 1.0, "loss became non-finite at step 2"),
            (1e200, 1e3, "loss became non-finite at step 1"),
            (1e308, 1e3, "parameters became non-finite at step 0"),
        ],
    )
    def test_divergence_names_its_step(self, lr, scale, message):
        feats, ids = _two_cluster_batch(np.random.default_rng(9))
        tc = TrainConfig(epochs=10, hidden_dim=8, embed_dim=4, initial_lr=lr, seed=1)
        with pytest.raises(TrainingDivergedError, match=f"{message}$"):
            train(_stacked((scale * feats, ids)), LossConfig(), tc)

    def test_rejects_empty_dataset(self):
        empty = np.zeros((0, 3)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="at least one batch is required"):
            train(empty, LossConfig(), TrainConfig())

    @pytest.mark.parametrize(
        "features, identities, counts, message",
        [
            (np.ones(4), np.arange(4), [4], "features must be 2-D"),
            (np.array([[1.0, np.inf], [1.0, 1.0]]), np.arange(2), [2], "non-finite"),
            (np.ones((3, 2)), np.arange(2), [3], "identities shape"),
            (np.ones((3, 2)), np.arange(3), [2, 2], "batch counts sum to 4, not 3 rows"),
            (np.ones((3, 2)), np.arange(3), [1, 2], "at least two rows"),
        ],
        ids=["1-d-features", "non-finite-features", "identities-wrong-length",
             "counts-not-summing-to-rows", "one-row-batch"],
    )
    def test_rejects_invalid_batches(self, features, identities, counts, message):
        with pytest.raises(ValueError, match=message):
            train((features, identities, np.array(counts)), LossConfig(), TrainConfig())


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kw", [{"initial_lr": 0.0}, {"epochs": 0}, {"hidden_dim": 0}, {"embed_dim": -1}]
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)
