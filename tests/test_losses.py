import numpy as np
import pytest
from hypothesis import given, settings

from embedtrack import distance_matrix
from oracles import pull_loss, triplet_loss
from strategies import labeled_batches


def _dist(embeddings):
    emb = np.asarray(embeddings, dtype=np.float64)
    return distance_matrix(emb, emb)


class TestTripletLoss:
    def test_single_anchor_arithmetic(self):
        # both valid anchors see max_same=2, min_diff=3: 2 - 3 + 5 = 4
        d = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 3.0], [3.0, 3.0, 0.0]])
        assert triplet_loss(d, [0, 0, 1], margin=5.0) == 4.0

    def test_inactive_hinge_is_zero(self):
        # min_diff - max_same = 100 - 1 >= margin everywhere
        emb = [[0.0], [1.0], [100.0], [101.0]]
        assert triplet_loss(_dist(emb), [0, 0, 1, 1], margin=5.0) == 0.0

    def test_frozen_four_point_example(self):
        d = _dist([[0.0], [1.0], [1.5], [2.5]])
        assert triplet_loss(d, [0, 0, 1, 1], margin=5.0) == 4.75

    def test_no_valid_anchor_returns_zero(self):
        d = _dist([[0.0], [1.0], [2.0]])
        assert triplet_loss(d, [0, 1, 2], margin=5.0) == 0.0  # no positives
        assert triplet_loss(d, [0, 0, 0], margin=5.0) == 0.0  # no negatives

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            triplet_loss(np.zeros((2, 2)), [0, 0, 1], margin=1.0)


class TestPullLoss:
    def test_margin_exactly_met(self):
        d = _dist([[0.0], [1.0]])
        assert pull_loss(d, [0, 0], pull_margin=1.0) == 0.0

    def test_single_identity(self):
        d = _dist([[0.0], [np.sqrt(3.0)]])
        assert pull_loss(d, [0, 0], pull_margin=1.0) == pytest.approx(2.0)

    def test_mean_over_identities(self):
        # intra maxima 1.0 and 2.5: (|1-1| + |2.5-1|) / 2 = 0.75
        emb = [[0.0], [1.0], [10.0], [10.0 + np.sqrt(2.5)]]
        assert pull_loss(_dist(emb), [0, 0, 1, 1], pull_margin=1.0) == pytest.approx(0.75)

    def test_penalizes_distances_below_margin(self):
        d = _dist([[0.0], [0.5]])  # max intra 0.25, |0.25 - 1| = 0.75
        assert pull_loss(d, [0, 0], pull_margin=1.0) == pytest.approx(0.75)

    def test_no_multi_member_identity_returns_zero(self):
        d = _dist([[0.0], [1.0]])
        assert pull_loss(d, [0, 1], pull_margin=1.0) == 0.0


class TestLossInvariants:
    @given(labeled_batches())
    @settings(max_examples=150)
    def test_non_negative(self, batch):
        feats, ids = batch
        d = _dist(feats)
        assert triplet_loss(d, ids, margin=5.0) >= 0.0
        assert pull_loss(d, ids, pull_margin=1.0) >= 0.0

    @given(labeled_batches())
    @settings(max_examples=150)
    def test_permutation_invariant(self, batch):
        feats, ids = batch
        perm = np.random.default_rng(0).permutation(len(ids))
        d = _dist(feats)
        dp = _dist(feats[perm])
        assert triplet_loss(d, ids, 5.0) == pytest.approx(
            triplet_loss(dp, ids[perm], 5.0), abs=1e-9
        )
        assert pull_loss(d, ids, 1.0) == pytest.approx(
            pull_loss(dp, ids[perm], 1.0), abs=1e-9
        )

    @given(labeled_batches())
    @settings(max_examples=150)
    def test_label_renaming_invariant(self, batch):
        feats, ids = batch
        renamed = ids + 100  # injective relabeling
        d = _dist(feats)
        assert triplet_loss(d, ids, 5.0) == triplet_loss(d, renamed, 5.0)
        assert pull_loss(d, ids, 1.0) == pull_loss(d, renamed, 1.0)
