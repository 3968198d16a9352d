from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedtrack import (
    EmbeddingHeadParams,
    LossConfig,
    SimConfig,
    TrainConfig,
    embed_batch,
    init_params,
    distance_matrix,
    load_params,
    save_params,
)
from embedtrack.embedding import _pair_buffers, _pair_layout, _pair_squared_distances
from oracles import broadcast_distance_matrix


def embed(params, feature):
    """One feature vector's embedding, through `embed_batch`."""
    feat = np.asarray(feature, dtype=np.float64)
    if feat.shape != (params.feature_dim,):
        raise ValueError(f"feature has shape {feat.shape}, head expects ({params.feature_dim},)")
    return embed_batch(params, feat[None, :])[0]


def _random_params(rng, f=4, h=6, e=3):
    return init_params(f, h, e, rng)


def _zero_params(f, h, e):
    return EmbeddingHeadParams(np.zeros((h, f)), np.zeros(h), np.zeros((e, h)), np.zeros(e))


def _forward_oracle(params, feature):
    """Straight-line re-computation: explicit loops, no broadcasting."""
    hidden = np.zeros(params.hidden_dim)
    for i in range(params.hidden_dim):
        acc = params.b1[i]
        for j in range(params.feature_dim):
            acc += params.w1[i, j] * feature[j]
        hidden[i] = max(acc, 0.0)
    out = np.zeros(params.embed_dim)
    for i in range(params.embed_dim):
        acc = params.b2[i]
        for j in range(params.hidden_dim):
            acc += params.w2[i, j] * hidden[j]
        out[i] = acc
    return out


class TestForward:
    def test_zero_params_give_zero_embedding(self):
        params = _zero_params(4, 6, 3)
        assert np.array_equal(embed(params, np.ones(4)), np.zeros(3))

    def test_identity_layers_pass_nonnegative_input_through(self):
        eye = np.eye(3)
        params = EmbeddingHeadParams(w1=eye, b1=np.zeros(3), w2=eye, b2=np.zeros(3))
        f = np.array([0.5, 0.0, 2.0])
        assert np.array_equal(embed(params, f), f)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            params = _random_params(rng)
            f = rng.normal(size=4)
            np.testing.assert_allclose(embed(params, f), _forward_oracle(params, f), atol=1e-12)

    def test_embed_batch_matches_embed(self):
        # rows of a batched matmul may round differently from a 1-row
        # product, so agreement is up to a few ulps, not bitwise
        rng = np.random.default_rng(1)
        params = _random_params(rng)
        feats = rng.normal(size=(7, 4))
        batch = embed_batch(params, feats)
        for k in range(7):
            np.testing.assert_allclose(
                batch[k], embed(params, feats[k]), rtol=1e-13, atol=1e-15
            )

    def test_dimension_mismatch_raises(self):
        params = _zero_params(4, 6, 3)
        with pytest.raises(ValueError):
            embed(params, np.ones(5))
        with pytest.raises(ValueError):
            embed_batch(params, np.ones((2, 5)))

    @pytest.mark.parametrize("cells", [[["1", "2", "3", "4"]], np.ones((1, 4), dtype=bool)])
    def test_refuses_non_numeric_features(self, cells):
        with pytest.raises(ValueError, match="features must hold integers or floats"):
            embed_batch(_zero_params(4, 6, 3), cells)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25)
    def test_scaling_w2_scales_embedding_when_b2_zero(self, c):
        rng = np.random.default_rng(2)
        params = _random_params(rng)
        params = EmbeddingHeadParams(
            w1=params.w1, b1=params.b1, w2=params.w2, b2=np.zeros(params.embed_dim)
        )
        scaled = EmbeddingHeadParams(
            w1=params.w1, b1=params.b1, w2=c * params.w2, b2=params.b2
        )
        f = rng.normal(size=4)
        np.testing.assert_allclose(embed(scaled, f), c * embed(params, f), rtol=1e-9)


def _laid_out(x, layout):
    """`x` with the same values, C-ordered, transposed (Fortran-ordered) or
    a strided view into a larger array."""
    if layout == "transposed":
        return np.ascontiguousarray(x.T).T
    if layout == "strided":
        big = np.ones((2 * x.shape[0], 3 * x.shape[1]))
        big[::2, ::3] = x
        return big[::2, ::3]
    return x


@st.composite
def embedding_pairs(draw):
    """Current (n, E) and former (m, E) arrays, n and m in [0, 80], E in
    [1, 40], with magnitudes spread over a drawn part of [1e-150, 1e150],
    zeros of both signs, former rows copied from current ones, and each
    array in a drawn memory layout."""
    n, m = draw(st.integers(0, 80)), draw(st.integers(0, 80))
    e = draw(st.integers(1, 40))
    lo = draw(st.integers(-150, 150))
    hi = draw(st.integers(lo, 150))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(rows):
        x = rng.choice([-1.0, 1.0], size=(rows, e)) * 10.0 ** rng.uniform(lo, hi, (rows, e))
        return np.where(rng.random((rows, e)) < zeros, 0.0 * x, x)

    cur, fmr = values(n), values(m)
    if n and m:
        shared = rng.random(m) < 0.3
        fmr[shared] = cur[rng.integers(0, n, shared.sum())]
    layouts = st.sampled_from(["C", "transposed", "strided"])
    return _laid_out(cur, draw(layouts)), _laid_out(fmr, draw(layouts))


class TestBroadcastOracle:
    """`distance_matrix` builds its difference tensor from repeated rows;
    the broadcast form of tests/oracles.py is the reference for its bits."""

    @given(embedding_pairs())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_equals_broadcast_form(self, pair):
        cur, fmr = pair
        got = distance_matrix(cur, fmr)
        assert got.shape == (cur.shape[0], fmr.shape[0])
        assert np.array_equal(got, broadcast_distance_matrix(cur, fmr))


@st.composite
def self_pair_embeddings(draw):
    """(n, E) embeddings, n in [2, 96] and E in {1, 2, 3, 8, 31, 32, 33,
    64}, at a drawn magnitude up to 1e155, where squares and their sums
    overflow; with zeros of both signs, and rows copied from other rows or
    all rows equal."""
    n = draw(st.integers(2, 96))
    e = draw(st.sampled_from([1, 2, 3, 8, 31, 32, 33, 64]))
    scale = 10.0 ** draw(st.sampled_from([-150, -3, 0, 3, 150, 154, 155]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    emb = rng.normal(size=(n, e)) * scale
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5]))
    emb = np.where(rng.random((n, e)) < zeros, 0.0 * emb, emb)
    rows = draw(st.sampled_from(["distinct", "duplicated", "equal"]))
    if rows == "duplicated":
        emb[rng.integers(0, n, n // 2)] = emb[rng.integers(0, n, n // 2)]
    elif rows == "equal":
        emb[:] = emb[0]
    return emb


class TestPairKernel:
    """The training step's pair kernel reduces each row pair i < j once;
    its bits must equal `distance_matrix(e, e)`'s."""

    @given(self_pair_embeddings(), st.integers(0, 40))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_equals_distance_matrix(self, emb, extra):
        """With its own layout and fresh buffers, and with the layout cut
        from one of more rows and buffers cut from a larger set that holds
        stale values, as `train` runs each batch with its largest batch's."""
        n, e = emb.shape
        first, second, slots = _pair_layout(n + extra)
        cut = n * (n - 1) // 2
        buffers = _pair_buffers([n, n + extra], e)
        larger = buffers[n + extra]
        for stale in (larger.diff, larger.other, larger.pairs):
            stale.fill(np.nan)
        with np.errstate(over="ignore"):
            expected = distance_matrix(emb, emb).tobytes()
            fresh = _pair_buffers([n], e)[n]
            assert _pair_squared_distances(emb, *_pair_layout(n), fresh).tobytes() == expected
            got = _pair_squared_distances(
                emb, first[:cut], second[:cut], slots[:n, :n], buffers[n]
            )
            assert got.tobytes() == expected
            # a second call on the same buffers, as every later step makes
            again = _pair_squared_distances(
                emb, first[:cut], second[:cut], slots[:n, :n], buffers[n]
            )
            assert again.tobytes() == expected


class TestPairwiseDistances:
    """`distance_matrix` of a set of embeddings against itself."""

    def test_single_embedding(self):
        emb = np.array([[1.0, 2.0]])
        assert np.array_equal(distance_matrix(emb, emb), [[0.0]])

    def test_one_dimensional_pair(self):
        emb = np.array([[0.0], [3.0]])
        d = distance_matrix(emb, emb)
        assert d[0, 1] == 9.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(5, 3))
        d = distance_matrix(emb, emb)
        for i in range(5):
            for j in range(5):
                assert d[i, j] == pytest.approx(np.sum((emb[i] - emb[j]) ** 2), abs=1e-12)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(6, 4))
        d = distance_matrix(emb, emb)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(6))


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_params(4, 6, 3, np.random.default_rng(9))
        b = init_params(4, 6, 3, np.random.default_rng(9))
        assert a == b

    def test_respects_fan_in_bounds(self):
        params = init_params(16, 64, 32, np.random.default_rng(0))
        assert np.abs(params.w1).max() <= 1.0 / np.sqrt(16)
        assert np.abs(params.b1).max() <= 1.0 / np.sqrt(16)
        assert np.abs(params.w2).max() <= 1.0 / np.sqrt(64)
        assert np.abs(params.b2).max() <= 1.0 / np.sqrt(64)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_params(0, 6, 3, np.random.default_rng(0))


class TestParams:
    def test_flat_round_trip(self):
        rng = np.random.default_rng(5)
        params = _random_params(rng)
        flat = params.to_flat()
        assert flat.shape == (4 * 6 + 6 + 6 * 3 + 3,)
        assert EmbeddingHeadParams.from_flat(flat, 4, 6, 3) == params

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(ValueError):
            EmbeddingHeadParams(
                w1=np.zeros((3, 2)), b1=np.zeros(4), w2=np.zeros((2, 3)), b2=np.zeros(2)
            )

    def test_rejects_non_finite(self):
        w1 = np.zeros((2, 2))
        w1[0, 0] = np.nan
        with pytest.raises(ValueError):
            EmbeddingHeadParams(w1=w1, b1=np.zeros(2), w2=np.zeros((2, 2)), b2=np.zeros(2))

    def test_file_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        params = _random_params(rng)
        cfg = LossConfig(margin=3.0, w_triplet=0.5)
        path = tmp_path / "params.json"
        save_params(path, params, seed=17, loss_config=cfg)
        loaded, seed, loaded_cfg = load_params(path)
        assert loaded == params
        assert seed == 17
        assert loaded_cfg == cfg

    def test_round_trip_without_metadata(self, tmp_path):
        params = _zero_params(2, 3, 2)
        path = tmp_path / "params.json"
        save_params(path, params)
        loaded, seed, cfg = load_params(path)
        assert loaded == params
        assert seed is None and cfg is None

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(path, _zero_params(2, 2, 2))
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError):
            load_params(path)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.margin == 5.0
        assert cfg.pull_margin == 1.0
        assert cfg.w_triplet == cfg.w_pull == 0.2
        assert cfg.score_threshold == 0.5

    @pytest.mark.parametrize(
        "kw",
        [
            {"margin": 0.0},
            {"margin": -1.0},
            {"pull_margin": -0.1},
            {"w_triplet": -0.2},
            {"score_threshold": 1.2},
            {"margin": np.inf},
            {"pull_margin": np.inf},
            {"w_triplet": np.inf},
            {"w_pull": np.inf},
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            LossConfig(**kw)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "cls, field",
    [
        (cls, f.name)
        for cls in (SimConfig, TrainConfig)
        for f in fields(cls)
        if type(f.default) is float
    ],
)
def test_config_float_fields_refuse_non_finite(cls, field, value):
    """Every float field refuses NaN and +-inf when the config is built,
    naming the field, whichever other check the value would slip past."""
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        cls(**{field: value})


@pytest.mark.parametrize("value", [2.5, 2.0, True, False, np.float64(2.0), np.bool_(True), "2"])
@pytest.mark.parametrize(
    "cls, field",
    [(cls, f.name) for cls in (SimConfig, TrainConfig) for f in fields(cls) if type(f.default) is int],
)
def test_config_int_fields_refuse_what_is_not_an_integer(cls, field, value):
    """Every int field refuses floats, bools and strings when the config is
    built, naming the field, instead of failing later in the stage or
    taking True as 1."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        cls(**{field: value})


FLOAT_FIELDS = [
    (cls, f.name)
    for cls in (LossConfig, SimConfig, TrainConfig)
    for f in fields(cls)
    if type(f.default) is float
]


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "5", None, [1.0]])
@pytest.mark.parametrize("cls, field", FLOAT_FIELDS)
def test_config_float_fields_refuse_what_is_not_a_number(cls, field, value):
    """Every float field refuses bools, strings and None when the config
    is built, naming the field, instead of taking True as 1 or failing in
    `math.isfinite`."""
    with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
        cls(**{field: value})


@pytest.mark.parametrize("cls, field", FLOAT_FIELDS)
def test_config_float_fields_store_integers_as_floats(cls, field):
    """An integer (or a NumPy number) given for a float field is stored as
    the float its flag parses to, so both write the same bytes."""
    default = getattr(cls(), field)
    value = int(default) if default == int(default) else 1  # 1 is valid where 0.2, 0.5 are
    for given in (value, np.int64(value), np.float64(value)):
        stored = getattr(cls(**{field: given}), field)
        assert type(stored) is float and stored == float(given)


def test_saved_loss_config_writes_floats(tmp_path):
    path = tmp_path / "params.json"
    save_params(path, init_params(2, 3, 2, np.random.default_rng(0)), loss_config=LossConfig(margin=5))
    assert '"margin": 5.0' in path.read_text()


@pytest.mark.parametrize("cls, field", FLOAT_FIELDS)
def test_config_float_fields_refuse_oversized_integers(cls, field):
    """An integer too large for a float is refused when the config is built,
    naming the field, instead of kept or raised as a bare OverflowError."""
    with pytest.raises(ValueError, match=f"^{field} is too large for a float"):
        cls(**{field: 10**400})
