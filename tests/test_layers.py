import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hnf
from hnf.cli import load_network, save_network
from hnf.errors import DimensionError, NotInvertibleError, ParameterError
from hnf.layers import (
    ACTIVATIONS,
    HnfLayer,
    HnfNetwork,
    network_invert,
    relu,
    sigmoid,
    un_collapse,
    vn_expand,
    walk,
)
from hnf.matrixgen import (
    WeightKind,
    WeightMatrix,
    make_random_orthonormal,
    make_raw_gaussian,
)

import oracles
from conftest import build_chain


def identity_layer(n: int) -> HnfLayer:
    w = WeightMatrix(n, n, np.eye(n), WeightKind.DCT_ORTHONORMAL, None)
    return HnfLayer(w)


def last_features(net: HnfNetwork, x: np.ndarray) -> np.ndarray:
    """The last layer's features of ``x``, through :func:`walk`."""
    *_, (_, feats) = walk(net, x)
    return feats


def forward(layer: HnfLayer, q: np.ndarray) -> np.ndarray:
    """One layer's output: a one-layer network run through :func:`walk`."""
    return last_features(HnfNetwork((layer,)), q)


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
    """One layer's forward, as a one-layer network through the walk."""

    def test_identity_weight(self):
        out = forward(identity_layer(2), np.array([1.0, -1.0]))
        assert np.array_equal(out, [1.0, 0.0, 0.0, 1.0])

    def test_norm_preservation(self, rng):
        layer = HnfLayer(make_random_orthonormal(9, 5, seed=1))
        for _ in range(20):
            q = rng.standard_normal(5)
            ratio = np.sum(forward(layer, q) ** 2) / np.sum(q ** 2)
            assert abs(ratio - 1.0) <= 1e-9

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError, match="3 features"):
            forward(identity_layer(2), np.array([1.0, 2.0, 3.0]))

    def test_scaling_property(self, rng):
        layer = HnfLayer(make_random_orthonormal(6, 4, seed=2))
        q = rng.standard_normal(4)
        for a in [0.0, 0.5, 2.0, 7.25]:
            lhs = forward(layer, a * q)
            rhs = a * forward(layer, q)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_non_expanding_layer(self):
        w = make_raw_gaussian(4, 3, seed=5)
        layer = HnfLayer(w, expand=False, activation="relu")
        q = np.ones(3)
        assert np.array_equal(forward(layer, q), relu(w.entries @ q))
        assert layer.out_dim == 4

    def test_sigmoid_at_zero(self):
        w = make_raw_gaussian(4, 3, seed=5)
        layer = HnfLayer(w, expand=False, activation="sigmoid")
        assert np.allclose(forward(layer, np.zeros(3)), 0.5)
        assert np.allclose(sigmoid(np.zeros(3)), 0.5)

    def test_sigmoid_saturates_without_a_warning(self):
        """exp(1e3) overflows to inf, and 1 / (1 + inf) is exactly 0: the
        overflow is the value, not an error."""
        assert np.array_equal(sigmoid(np.array([-1e3, 0.0, 1e3])),
                              [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("expand, activation", [
        (True, "sigmoid"), (True, "tanh"), (False, "tanh")])
    def test_activation_the_layer_cannot_run_is_refused(self, expand,
                                                        activation):
        """An expanding layer computes the ReLU expansion whatever it
        records, so it takes only ``relu``; a plain one, any activation of
        ACTIVATIONS."""
        with pytest.raises(ParameterError, match=repr(activation)):
            HnfLayer(make_raw_gaussian(4, 3, seed=5), expand=expand,
                     activation=activation)


class TestNetworkForward:
    def test_single_layer_yields_its_input_then_its_features(self, rng):
        layer = HnfLayer(make_random_orthonormal(5, 3, seed=0))
        x = rng.standard_normal(3)
        items = list(walk(HnfNetwork((layer,)), x))
        assert [k for k, _ in items] == [0, 1]
        assert items[0][1] is x
        assert np.array_equal(items[1][1], vn_expand(layer.weight.entries @ x))

    def test_norm_preserved_through_chain(self, rng):
        net = build_chain(4, 5, 3, seed=11)
        x = rng.standard_normal(4)
        ybar = last_features(net, x)
        assert abs(np.sum(ybar ** 2) / np.sum(x ** 2) - 1.0) <= 1e-9

    def test_zero_input_gives_zero_features(self):
        net = build_chain(4, 5, 3, seed=11)
        feats = [f.copy() for _, f in walk(net, np.zeros(4))]
        assert len(feats) == 4  # the input, then three layers
        for f in feats:
            assert np.count_nonzero(f) == 0

    def test_dimension_mismatch(self):
        net = build_chain(4, 5, 2, seed=0)
        with pytest.raises(DimensionError):
            list(walk(net, np.zeros(5)))

    def test_chaining_validated(self):
        l1 = HnfLayer(make_random_orthonormal(4, 3, seed=0))
        l_bad = HnfLayer(make_random_orthonormal(9, 9, seed=0))
        with pytest.raises(DimensionError):
            HnfNetwork((l1, l_bad))

    def test_batched_forward_repeatable_and_close_to_per_column(self, rng):
        net = build_chain(5, 6, 3, seed=9)
        x = rng.standard_normal((5, 17))
        batched = last_features(net, x)
        again = last_features(net, x)
        assert np.array_equal(batched, again)
        for j in range(x.shape[1]):
            single = last_features(net, x[:, j])
            assert np.allclose(batched[:, j], single, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("kind", ["plain", "elm-sigmoid", "1-D",
                                      "inner-sigmoid", "wide", "one-layer",
                                      "front-only"])
    def test_blocked_walk_matches_per_layer_reference(self, rng, kind):
        """Each layer writes W @ q into the last rows of its output, which
        may overlap its input: a non-expanding inner layer, or an expanding
        one with rows < in_dim, overwrites rows it reads. The walk yields
        the input as the baseline, or the front's output when there is
        one, then every later layer under its number."""
        net = build_chain(5, 6, 3, seed=2)
        first = net.layers[0]
        if kind == "one-layer":
            net = HnfNetwork((first,))
        elif kind == "front-only":
            net = HnfNetwork((HnfLayer(make_raw_gaussian(7, 5, seed=3),
                                       expand=False),))
        elif kind == "elm-sigmoid":
            front = HnfLayer(make_raw_gaussian(5, 5, seed=3), expand=False,
                             activation="sigmoid")
            net = HnfNetwork((front, *net.layers))
        elif kind == "inner-sigmoid":
            inner = HnfLayer(make_raw_gaussian(9, 12, seed=3), expand=False,
                             activation="sigmoid")
            net = HnfNetwork((first, inner, HnfLayer(
                make_random_orthonormal(9, 9, seed=4))))
        elif kind == "wide":
            wide = HnfLayer(make_raw_gaussian(4, 12, seed=3))
            net = HnfNetwork((first, wide, HnfLayer(
                make_random_orthonormal(8, 8, seed=4))))
        x = rng.standard_normal((5,) if kind == "1-D" else (5, 2 * 8192 + 37))
        want = [x]
        for layer in net.layers:
            z = layer.weight.entries @ want[-1]
            want.append(vn_expand(z) if layer.expand else ACTIVATIONS[
                layer.activation](z))
        items = [(k, f.copy()) for k, f in walk(net, x)]
        front = int(net.has_front)
        assert [k for k, _ in items] == [0, *range(1 + front, net.depth + 1)]
        for k, got in items:
            ref = want[k or front]
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_walk_items_are_views_of_one_buffer(self, rng):
        net = build_chain(5, 6, 3, seed=2)
        x = rng.standard_normal((5, 40))
        baseline, first, *_, last = (f for _, f in walk(net, x))
        assert baseline is x
        assert np.shares_memory(first, last)
        assert not np.shares_memory(first, x)

    def test_walk_peak_is_the_widest_features_plus_one_block(self, rng):
        """No scratch beside the one buffer: 1 MiB covers the rest."""
        net = build_chain(8, 16, 4, seed=6)
        x = rng.standard_normal((8, 2 * 8192 + 37))
        widest = net.layers[-1].out_dim * x.shape[1] * 8
        count, peak = oracles.traced_peak(
            lambda: sum(1 for _ in walk(net, x)))
        assert count == 5  # the input, then four layers
        assert peak <= widest + 2 ** 20

    def test_walk_is_called_only_by_fit_evaluate_and_verify(self):
        """Inside hnf, the walk is called by the train walk (for an ELM
        front), evaluate and verify_invariants, and by nothing else. The
        train walk, which holds pre-activations, runs only inside train.
        Features are formed only by HnfLayer.features, and weights applied
        by WeightMatrix.apply, both called by the walk, the train walk and
        verify_invariants' perturbation check. One-hot targets are formed
        only by Dataset.targets, for the train walk's products alone:
        scores read labels."""
        def callers(name):
            found = []
            for path in sorted(Path(hnf.__file__).parent.glob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                total = sum(1 for c in ast.walk(tree) if named(c, name))
                inside = [fn.name for fn in ast.walk(tree)
                          if isinstance(fn, ast.FunctionDef)
                          for c in ast.walk(fn) if named(c, name)]
                found += inside + ["<module>"] * (total - len(inside))
            return sorted(found)

        def named(node, name):
            return isinstance(node, ast.Call) and name == getattr(
                node.func, "id", getattr(node.func, "attr", None))

        assert set(callers("walk")) == {"_fit", "evaluate",
                                        "verify_invariants"}
        assert callers("_fit") == ["train"]
        assert callers("_add_abs_block") == ["_fit"]
        assert callers("vn_expand") == ["features"]
        assert callers("one_hot") == ["targets"]
        assert callers("targets") == ["_fit", "_fit"]
        for name in ("apply", "features"):
            assert set(callers(name)) == {"_fit", "verify_invariants", "walk"}

    def test_weights_multiply_data_only_in_apply_carry_and_pinv(self):
        """Outside hnf.matrixgen, which builds, stores, loads and applies
        weights, a weight's entries are read only by pinv_weight, handed to
        _carry, or asked their shape: with WeightMatrix.apply, the only
        places a weight meets data."""
        readers = set()

        def visit(node, fn, parent):
            if isinstance(node, ast.FunctionDef):
                fn = node.name
            if isinstance(node, ast.Attribute) and node.attr == "entries":
                if isinstance(parent, ast.Call) and getattr(
                        parent.func, "id", None) == "_carry":
                    readers.add("_carry")
                elif not (isinstance(parent, ast.Attribute)
                          and parent.attr == "shape"):
                    readers.add(fn)
            for child in ast.iter_child_nodes(node):
                visit(child, fn, node)

        for path in sorted(Path(hnf.__file__).parent.glob("*.py")):
            if path.name != "matrixgen.py":
                visit(ast.parse(path.read_text(encoding="utf-8")), None, None)
        assert readers == {"_carry", "pinv_weight"}

    @pytest.mark.parametrize("module", ["layers", "solvers", "trainer"])
    def test_numeric_modules_do_no_file_io(self, module):
        """hnf.cli writes and reads the run directory: no function of the
        numeric modules opens, reads, writes or makes a file or directory,
        and none of them imports json."""
        source = Path(hnf.__file__).parent / f"{module}.py"
        tree = ast.parse(source.read_text(encoding="utf-8"))
        calls = {getattr(node.func, "id", getattr(node.func, "attr", None))
                 for node in ast.walk(tree) if isinstance(node, ast.Call)}
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert not calls & {"open", "read_text", "write_text", "read_bytes",
                            "write_bytes", "mkdir"}
        assert "json" not in imported


class TestNetworkInvert:
    def test_round_trip(self, rng):
        net = build_chain(8, 8, 3, seed=21)
        x = rng.standard_normal(8)
        x_rec = network_invert(net, last_features(net, x))
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
        x_rec = network_invert(net, last_features(net, x))
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
        x_rec = network_invert(net, last_features(net, x))
        assert np.linalg.norm(x_rec - x) / np.linalg.norm(x) <= 1e-6


def pair_distances(net, x1, x2):
    """Squared input distance and squared feature distance at every layer."""
    f1, f2 = ([f.copy() for _, f in walk(net, x)] for x in (x1, x2))
    return float(np.sum((x1 - x2) ** 2)), [
        float(np.sum((a - b) ** 2)) for a, b in zip(f1[1:], f2[1:])]


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
        margin = oracles.perturbation_margin(layer, np.zeros((5, 3)),
                                             rng.standard_normal(3))
        assert margin == 0.0

    def test_thousand_random_trials(self, rng):
        layer = HnfLayer(make_random_orthonormal(6, 4, seed=1))
        for _ in range(1000):
            dw = rng.standard_normal((6, 4)) * rng.uniform(1e-4, 2.0)
            q = rng.standard_normal(4)
            assert oracles.perturbation_margin(layer, dw, q) >= 0

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
            out = last_features(net, x)
            out_p = last_features(pnet, x)
            lhs = float(np.sum((out - out_p) ** 2))
            bound = float(np.prod([np.sum(dw ** 2) for dw in dws]) *
                          np.sum(x ** 2))
            assert lhs <= bound * (1 + 1e-9)


class TestManifest:
    def test_save_load_round_trip(self, tmp_path, rng):
        front = HnfLayer(make_raw_gaussian(6, 4, seed=7), expand=False,
                         activation="sigmoid")
        tail = HnfLayer(make_random_orthonormal(6, 6, seed=8))
        net = HnfNetwork((front, tail))
        save_network(net, tmp_path)
        back = load_network(tmp_path / "network.json")
        assert back.depth == net.depth
        assert back.has_front
        x = rng.standard_normal((4, 5))
        orig = last_features(net, x)
        again = last_features(back, x)
        assert np.array_equal(orig, again)
