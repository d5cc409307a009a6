import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hnf.errors import DimensionError, NotInvertibleError
from hnf.layers import (
    HnfLayer,
    HnfNetwork,
    iter_layer_features,
    layer_forward,
    load_network,
    network_invert,
    relu,
    save_network,
    sigmoid,
    un_collapse,
    vn_expand,
    weight_perturbation_check,
)
from hnf.matrixgen import (
    WeightKind,
    WeightMatrix,
    make_random_orthonormal,
    make_raw_gaussian,
)

from conftest import build_chain


def identity_layer(n: int) -> HnfLayer:
    w = WeightMatrix(n, n, np.eye(n), WeightKind.DCT_ORTHONORMAL, None)
    return HnfLayer(w)


finite_vectors = arrays(
    np.float64, st.integers(1, 12),
    elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
)


class TestRelu:
    def test_definition(self):
        assert np.array_equal(relu(np.array([1.0, -2.0, 0.0])),
                              [1.0, 0.0, 0.0])

    def test_scaling(self):
        v = np.array([1.0, -1.0])
        assert np.array_equal(relu(2.0 * v), 2.0 * relu(v))
        assert np.array_equal(relu(2.0 * v), [2.0, 0.0])

    def test_all_negative(self):
        assert np.array_equal(relu(np.array([-5.0, -1.0])), [0.0, 0.0])

    @given(finite_vectors, finite_vectors)
    def test_contraction(self, z1, z2):
        n = min(len(z1), len(z2))
        z1, z2 = z1[:n], z2[:n]
        lhs = float(np.sum((relu(z1) - relu(z2)) ** 2))
        rhs = float(np.sum((z1 - z2) ** 2))
        assert lhs >= 0.0
        assert lhs <= rhs * (1 + 1e-12) + 1e-12


class TestVnExpand:
    def test_definition(self):
        assert np.array_equal(vn_expand(np.array([1.0, -2.0])),
                              [1.0, 0.0, 0.0, 2.0])

    def test_zero(self):
        assert np.array_equal(vn_expand(np.zeros(2)), np.zeros(4))

    def test_nonnegative_input_keeps_norm(self):
        out = vn_expand(np.array([3.0, 4.0]))
        assert np.array_equal(out, [3.0, 4.0, 0.0, 0.0])
        assert float(np.sum(out ** 2)) == 25.0

    @given(finite_vectors)
    def test_norm_preserved_exactly(self, z):
        out = vn_expand(z)
        assert float(np.sum(out ** 2)) == pytest.approx(
            float(np.sum(z ** 2)), rel=1e-12, abs=0.0)

    def test_matrix_input(self, rng):
        z = rng.standard_normal((4, 7))
        out = vn_expand(z)
        assert out.shape == (8, 7)
        for j in range(7):
            assert np.array_equal(out[:, j], vn_expand(z[:, j]))

    @given(finite_vectors, finite_vectors)
    def test_distance_sandwich_and_exact_split(self, z1, z2):
        n = min(len(z1), len(z2))
        z1, z2 = z1[:n], z2[:n]
        d2 = float(np.sum((z1 - z2) ** 2))
        y2 = float(np.sum((vn_expand(z1) - vn_expand(z2)) ** 2))
        split = 0.5 * d2 + 0.5 * float(np.sum((np.abs(z1) - np.abs(z2)) ** 2))
        assert abs(y2 - split) <= 1e-12 * max(1.0, split)
        assert y2 >= 0.5 * d2 - 1e-12 * max(1.0, d2)
        assert y2 <= d2 + 1e-12 * max(1.0, d2)


class TestUnCollapse:
    def test_inverts_known_expansion(self):
        assert np.array_equal(un_collapse(np.array([1.0, 0.0, 0.0, 2.0])),
                              [1.0, -2.0])

    def test_round_trip_instance(self):
        z = np.array([-0.5, 0.0, 3.25])
        assert np.array_equal(un_collapse(vn_expand(z)), z)

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            un_collapse(np.array([1.0, 2.0, 3.0]))

    @given(finite_vectors)
    def test_lossless_round_trip(self, z):
        back = un_collapse(vn_expand(z))
        assert np.array_equal(back, z)


class TestLayerForward:
    def test_identity_weight(self):
        out = layer_forward(identity_layer(2), np.array([1.0, -1.0]))
        assert np.array_equal(out, [1.0, 0.0, 0.0, 1.0])

    def test_norm_preservation(self, rng):
        layer = HnfLayer(make_random_orthonormal(9, 5, seed=1))
        for _ in range(20):
            q = rng.standard_normal(5)
            ratio = np.sum(layer_forward(layer, q) ** 2) / np.sum(q ** 2)
            assert abs(ratio - 1.0) <= 1e-9

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            layer_forward(identity_layer(2), np.array([1.0, 2.0, 3.0]))

    def test_scaling_property(self, rng):
        layer = HnfLayer(make_random_orthonormal(6, 4, seed=2))
        q = rng.standard_normal(4)
        for a in [0.0, 0.5, 2.0, 7.25]:
            lhs = layer_forward(layer, a * q)
            rhs = a * layer_forward(layer, q)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_non_expanding_layer(self):
        w = make_raw_gaussian(4, 3, seed=5)
        layer = HnfLayer(w, expand=False, activation="relu")
        q = np.ones(3)
        assert np.array_equal(layer_forward(layer, q),
                              relu(w.entries @ q))
        assert layer.out_dim == 4

    def test_sigmoid_at_zero(self):
        w = make_raw_gaussian(4, 3, seed=5)
        layer = HnfLayer(w, expand=False, activation="sigmoid")
        assert np.allclose(layer_forward(layer, np.zeros(3)), 0.5)
        assert np.allclose(sigmoid(np.zeros(3)), 0.5)


class TestNetworkForward:
    def test_single_layer_reduces_to_layer_forward(self, rng):
        layer = HnfLayer(make_random_orthonormal(5, 3, seed=0))
        net = HnfNetwork((layer,))
        x = rng.standard_normal(3)
        feats = list(iter_layer_features(net, x))
        assert len(feats) == 1
        assert np.array_equal(feats[0], layer_forward(layer, x))

    def test_norm_preserved_through_chain(self, rng):
        net = build_chain(4, 5, 3, seed=11)
        x = rng.standard_normal(4)
        feats = list(iter_layer_features(net, x))
        assert abs(np.sum(feats[-1] ** 2) / np.sum(x ** 2) - 1.0) <= 1e-9

    def test_zero_input_gives_zero_features(self):
        net = build_chain(4, 5, 3, seed=11)
        for f in list(iter_layer_features(net, np.zeros(4))):
            assert np.count_nonzero(f) == 0

    def test_dimension_mismatch(self):
        net = build_chain(4, 5, 2, seed=0)
        with pytest.raises(DimensionError):
            list(iter_layer_features(net, np.zeros(5)))

    def test_chaining_validated(self):
        l1 = HnfLayer(make_random_orthonormal(4, 3, seed=0))
        l_bad = HnfLayer(make_random_orthonormal(9, 9, seed=0))
        with pytest.raises(DimensionError):
            HnfNetwork((l1, l_bad))

    def test_batched_forward_repeatable_and_close_to_per_column(self, rng):
        net = build_chain(5, 6, 3, seed=9)
        x = rng.standard_normal((5, 17))
        batched = list(iter_layer_features(net, x))[-1]
        again = list(iter_layer_features(net, x))[-1]
        assert np.array_equal(batched, again)
        for j in range(x.shape[1]):
            single = list(iter_layer_features(net, x[:, j]))[-1]
            assert np.allclose(batched[:, j], single, rtol=1e-12, atol=1e-14)


class TestNetworkInvert:
    def test_round_trip(self, rng):
        net = build_chain(8, 8, 3, seed=21)
        x = rng.standard_normal(8)
        ybar = list(iter_layer_features(net, x))[-1]
        x_rec = network_invert(net, ybar)
        assert np.linalg.norm(x_rec - x) / np.linalg.norm(x) <= 1e-6

    def test_identity_layer_reduces_to_collapse(self):
        net = HnfNetwork((identity_layer(2),))
        assert np.array_equal(network_invert(net, np.array([1.0, 0.0, 0.0, 2.0])),
                              [1.0, -2.0])

    def test_rank_deficient_weight_rejected(self, rng):
        """A duplicated column loses one input direction, so the round trip
        misses the input by far more than the 1e-6 that verify allows."""
        entries = make_random_orthonormal(5, 3, seed=0).entries.copy()
        entries[:, 2] = entries[:, 1]
        bad = WeightMatrix(5, 3, entries, WeightKind.RAW_GAUSSIAN, 0)
        net = HnfNetwork((HnfLayer(bad),))
        x = rng.standard_normal(3)
        x_rec = network_invert(net, list(iter_layer_features(net, x))[-1])
        assert np.linalg.norm(x_rec - x) / np.linalg.norm(x) > 1e-6

    def test_non_expanding_front_rejected(self, rng):
        front = HnfLayer(make_raw_gaussian(4, 3, seed=0), expand=False)
        net = HnfNetwork((front,))
        with pytest.raises(NotInvertibleError):
            network_invert(net, rng.standard_normal(4))

    def test_raw_full_rank_weight_inverts(self, rng):
        w = make_raw_gaussian(6, 4, seed=3)
        net = HnfNetwork((HnfLayer(w),))
        x = rng.standard_normal(4)
        ybar = list(iter_layer_features(net, x))[-1]
        x_rec = network_invert(net, ybar)
        assert np.linalg.norm(x_rec - x) / np.linalg.norm(x) <= 1e-6


def pair_distances(net, x1, x2):
    """Squared input distance and squared feature distance at every layer."""
    return float(np.sum((x1 - x2) ** 2)), [
        float(np.sum((a - b) ** 2))
        for a, b in zip(list(iter_layer_features(net, x1)),
                        list(iter_layer_features(net, x2)))]


class TestPairDistanceReport:
    def test_equal_inputs(self):
        net = build_chain(4, 5, 2, seed=1)
        x = np.arange(4.0)
        d2, per_layer = pair_distances(net, x, x)
        assert d2 == 0.0
        assert per_layer == [0.0, 0.0]

    def test_lower_bound_attained_with_opposite_signs(self):
        net = HnfNetwork((identity_layer(3),))
        z1 = np.array([1.0, -2.0, 0.5])
        z2 = -z1
        d2, per_layer = pair_distances(net, z1, z2)
        assert per_layer[0] == pytest.approx(0.5 * d2, rel=1e-12)

    def test_upper_bound_attained_with_matching_signs(self):
        net = HnfNetwork((identity_layer(3),))
        z1 = np.array([1.0, 2.0, 0.5])
        z2 = np.array([3.0, 0.25, 1.5])
        d2, per_layer = pair_distances(net, z1, z2)
        assert per_layer[0] == pytest.approx(d2, rel=1e-12)

    def test_bounds_hold_at_every_layer(self, rng):
        net = build_chain(6, 6, 4, seed=5)
        for _ in range(25):
            x1 = rng.standard_normal(6)
            x2 = rng.standard_normal(6)
            d2, per_layer = pair_distances(net, x1, x2)
            assert len(per_layer) == 4
            for l, dl2 in enumerate(per_layer, start=1):
                assert dl2 >= d2 / 2 ** l - 1e-9 * d2
                assert dl2 <= d2 + 1e-9 * d2


class TestWeightPerturbation:
    def test_zero_perturbation(self, rng):
        layer = HnfLayer(make_random_orthonormal(5, 3, seed=0))
        chk = weight_perturbation_check(layer, np.zeros((5, 3)),
                                        rng.standard_normal(3))
        assert chk.lhs == 0.0
        assert chk.holds

    def test_thousand_random_trials(self, rng):
        layer = HnfLayer(make_random_orthonormal(6, 4, seed=1))
        for _ in range(1000):
            dw = rng.standard_normal((6, 4)) * rng.uniform(1e-4, 2.0)
            q = rng.standard_normal(4)
            assert weight_perturbation_check(layer, dw, q).holds

    def test_two_layer_product_bound(self, rng):
        net = build_chain(4, 4, 2, seed=2)
        x = rng.standard_normal(4)
        for _ in range(200):
            dws = [rng.standard_normal(l.weight.entries.shape) *
                   rng.uniform(0.5, 2.0) for l in net.layers]
            perturbed = []
            for layer, dw in zip(net.layers, dws):
                w = layer.weight
                perturbed.append(HnfLayer(WeightMatrix(
                    w.rows, w.cols, w.entries + dw, WeightKind.RAW_GAUSSIAN, 0)))
            pnet = HnfNetwork(tuple(perturbed))
            out = list(iter_layer_features(net, x))[-1]
            out_p = list(iter_layer_features(pnet, x))[-1]
            lhs = float(np.sum((out - out_p) ** 2))
            bound = float(np.prod([np.sum(dw ** 2) for dw in dws]) *
                          np.sum(x ** 2))
            assert lhs <= bound * (1 + 1e-9)

    def test_shape_mismatch(self):
        layer = HnfLayer(make_random_orthonormal(5, 3, seed=0))
        with pytest.raises(DimensionError):
            weight_perturbation_check(layer, np.zeros((3, 5)), np.zeros(3))


class TestManifest:
    def test_save_load_round_trip(self, tmp_path, rng):
        front = HnfLayer(make_raw_gaussian(6, 4, seed=7), expand=False,
                         activation="sigmoid")
        tail = HnfLayer(make_random_orthonormal(6, 6, seed=8))
        net = HnfNetwork((front, tail))
        manifest = save_network(net, tmp_path)
        back = load_network(manifest)
        assert back.depth == net.depth
        assert back.has_front
        x = rng.standard_normal((4, 5))
        orig = list(iter_layer_features(net, x))[-1]
        again = list(iter_layer_features(back, x))[-1]
        assert np.array_equal(orig, again)
