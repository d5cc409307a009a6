import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

import hnf.solvers
from hnf.cli import load_output_map, save_output_map
from hnf.data import make_synthetic_blobs
from hnf.errors import DataError, DimensionError, FormatError, ParameterError
from hnf.layers import HnfLayer, HnfNetwork, vn_expand, walk
from hnf.matrixgen import (
    WeightKind,
    WeightMatrix,
    make_dct_orthonormal,
    make_random_orthonormal,
    make_raw_gaussian,
)
from hnf.solvers import (
    EPSILON_FLOOR,
    OutputMap,
    embed_previous_map,
    least_squares,
    project_frobenius_ball,
)

from hnf.trainer import TrainConfig, build_network

import oracles
from conftest import solve
from oracles import sample_cost


def make_map(matrix: np.ndarray) -> OutputMap:
    return OutputMap(np.array(matrix, dtype=np.float64), math.inf, 0.0, 0)


class TestLeastSquares:
    def test_identity_fit(self):
        y = np.eye(2)
        om = solve(y, y)
        assert np.allclose(om.matrix, np.eye(2), atol=1e-12)
        assert om.train_cost == pytest.approx(0.0, abs=1e-24)
        assert om.epsilon == math.inf

    def test_exact_line(self):
        om = solve(np.array([[1.0, 2.0]]), np.array([[2.0, 4.0]]))
        assert om.matrix == pytest.approx(np.array([[2.0]]), abs=1e-12)
        assert om.train_cost == pytest.approx(0.0, abs=1e-20)

    def test_matches_extended_precision_oracle(self, rng):
        y = rng.standard_normal((4, 50))
        t = rng.standard_normal((3, 50))
        om = solve(y, t)
        expected = oracles.normal_equations_extended(y, t)
        assert np.max(np.abs(om.matrix - expected)) <= 1e-8

    def test_singular_gram_falls_back_to_pseudo_inverse(self, rng):
        base = rng.standard_normal((1, 30))
        y = np.vstack([base, base])
        t = rng.standard_normal((2, 30))
        om = solve(y, t)
        assert np.all(np.isfinite(om.matrix))
        recomputed = sample_cost(t, om.matrix, y)
        assert om.train_cost == pytest.approx(recomputed, rel=1e-9)

    def test_train_cost_recomputable(self, rng):
        y = rng.standard_normal((5, 60))
        t = rng.standard_normal((3, 60))
        om = solve(y, t)
        assert om.train_cost == pytest.approx(
            sample_cost(t, om.matrix, y), rel=1e-9)

    def test_empty_data_rejected(self):
        with pytest.raises(DataError):
            solve(np.zeros((2, 0)), np.zeros((2, 0)))
        with pytest.raises(DataError):
            least_squares(np.eye(2), np.zeros((1, 2)), 0)

    def test_statistics_width_mismatch(self, rng):
        y = rng.standard_normal((2, 5))
        with pytest.raises(DimensionError):
            least_squares(y @ y.T, rng.standard_normal((3, 3)), 5)


def elm_front_solve(w, x, t, activation="relu"):
    """The trainer's ELM front: a non-expanding layer, then least squares."""
    front = HnfLayer(w, expand=False, activation=activation)
    feats = next(walk(HnfNetwork((front,)), x))[1]
    return feats, solve(feats, t)


class TestElmSolve:
    def test_relu_inactive_on_nonnegative_inputs(self, rng):
        x = np.abs(rng.standard_normal((3, 12)))
        t = rng.standard_normal((2, 12))
        w = WeightMatrix(3, 3, np.eye(3), WeightKind.DCT_ORTHONORMAL, None)
        feats, om = elm_front_solve(w, x, t, activation="relu")
        assert np.array_equal(feats, x)
        direct = solve(x, t)
        assert np.allclose(om.matrix, direct.matrix, atol=1e-12)

    def test_sigmoid_at_zero_gives_half(self):
        w = make_raw_gaussian(4, 3, seed=0)
        t = np.vstack([np.ones(5), np.zeros(5)])
        feats, _ = elm_front_solve(w, np.zeros((3, 5)), t,
                                   activation="sigmoid")
        assert np.allclose(feats, 0.5)

    def test_random_features_beat_raw_least_squares(self):
        rng = np.random.Generator(np.random.PCG64(7))
        p, n1, n, q = 16, 250, 2000, 26
        centers = rng.standard_normal((q, p)) * 2.0
        labels = rng.integers(0, q, size=n)
        x = centers[labels].T + rng.standard_normal((p, n))
        t = np.zeros((q, n))
        t[labels, np.arange(n)] = 1.0
        raw = solve(x, t)
        w1 = make_raw_gaussian(n1, p, seed=1)
        _, om = elm_front_solve(w1, x, t, activation="relu")
        assert om.train_cost < raw.train_cost

    def test_dimension_mismatch(self, rng):
        w = make_raw_gaussian(4, 3, seed=0)
        with pytest.raises(DimensionError):
            elm_front_solve(w, rng.standard_normal((5, 4)),
                            rng.standard_normal((2, 4)))


class TestProjection:
    def test_inside_unchanged(self, rng):
        m = rng.standard_normal((3, 4)) * 0.1
        eps = float(np.sum(m * m)) + 1.0
        assert np.array_equal(project_frobenius_ball(m, eps), m)

    def test_outside_lands_on_sphere(self, rng):
        m = rng.standard_normal((3, 4)) * 10.0
        eps = 2.5
        proj = project_frobenius_ball(m, eps)
        assert float(np.sum(proj * proj)) == pytest.approx(eps, rel=1e-12)
        ratio = proj / m
        assert np.allclose(ratio, ratio.flat[0])


class TestAdmm:
    """Ball-constrained solves: :func:`least_squares` with a finite eps."""

    def test_scalar_boundary_solution(self):
        om = solve(np.array([[2.0]]), np.array([[4.0]]), eps=1.0)
        assert om.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert om.train_cost == pytest.approx(4.0, rel=1e-12)

    def test_inactive_constraint_returns_least_squares(self, rng):
        y = rng.standard_normal((5, 80))
        t = rng.standard_normal((3, 80))
        o_ls = solve(y, t)
        eps = 2.0 * float(np.sum(o_ls.matrix ** 2))
        om = solve(y, t, eps)
        assert np.array_equal(om.matrix, o_ls.matrix)
        assert om.solver["newton_steps"] == 0
        assert om.solver["multiplier"] == 0.0

    def test_active_constraint_lands_on_sphere(self, rng):
        y = rng.standard_normal((5, 80))
        t = rng.standard_normal((3, 80))
        o_ls = solve(y, t)
        eps = 0.1 * float(np.sum(o_ls.matrix ** 2))
        om = solve(y, t, eps)
        assert float(np.sum(om.matrix ** 2)) == pytest.approx(eps, rel=1e-12)
        assert om.solver["multiplier"] > 0
        _, oracle_cost = oracles.constrained_ls_oracle(y, t, eps)
        assert om.train_cost <= oracle_cost * (1 + 1e-9)

    def test_matches_dual_oracle_on_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(99))
        for trial in range(20):
            d = int(rng.integers(2, 21))
            n = int(rng.integers(d, 201))
            q = int(rng.integers(1, 6))
            y = rng.standard_normal((d, n))
            t = rng.standard_normal((q, n))
            o_ls = solve(y, t)
            eps = float(np.sum(o_ls.matrix ** 2)) * rng.uniform(0.05, 1.5)
            om = solve(y, t, eps)
            oracle, oracle_cost = oracles.constrained_ls_oracle(y, t, eps)
            assert float(np.sum(om.matrix ** 2)) <= eps * (1 + 1e-12)
            assert om.train_cost <= oracle_cost * (1 + 1e-9), f"trial {trial}"
            assert np.max(np.abs(om.matrix - oracle)) <= 1e-6, f"trial {trial}"

    def test_parameter_and_data_errors(self, rng):
        y = rng.standard_normal((3, 10))
        t = rng.standard_normal((2, 10))
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ParameterError):
                solve(y, t, eps=eps)
        bad = y.copy()
        bad[0, 0] = np.nan
        with pytest.raises(DataError):
            solve(bad, t, eps=1.0)
        with pytest.raises(DataError):
            solve(bad, t)

    @pytest.mark.parametrize("value", [math.inf, 1e200],
                             ids=["inf", "square-overflows"])
    @pytest.mark.parametrize("eps", [1.0, math.inf], ids=["ball", "free"])
    def test_non_finite_feature_is_data_error(self, rng, value, eps):
        y = rng.standard_normal((3, 10))
        y[1, 4] = value
        with pytest.raises(DataError):
            solve(y, rng.standard_normal((2, 10)), eps)

    def test_peak_has_no_feature_sized_term(self, rng):
        """Beyond O(d^2) for the Gram (factored in place on this active
        ball) and a few Q x N residuals, the solve allocates nothing of the
        d x N features' size, not even a bool mask."""
        d, n, q = 256, 20000, 2
        y = rng.standard_normal((d, n))
        t = rng.standard_normal((q, n))
        om, peak = oracles.traced_peak(solve, y, t, 1e-6)
        assert om.solver["multiplier"] > 0
        assert peak <= 3 * d * d * 8 + 4 * q * n * 8 + 2 ** 20
        assert peak < d * n

    def test_eigh_path_copies_no_eigenvectors(self, rng):
        """An unconstrained solve holds G and its eigenvectors, about
        2 d^2 floats at its peak; dropping the noise eigenvalues by a mask
        copied the eigenvectors once more, to 3 d^2."""
        d, n = 512, 1500
        y = rng.standard_normal((d, n))
        t = rng.standard_normal((2, n))
        om, peak = oracles.traced_peak(solve, y, t)
        assert om.solver["method"] == "eigh"
        assert peak < 2.5 * d * d * 8

    def test_deterministic(self, rng):
        y = rng.standard_normal((4, 40))
        t = rng.standard_normal((2, 40))
        a = solve(y, t, 0.5)
        b = solve(y, t, 0.5)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.train_cost == b.train_cost
        assert a.solver == b.solver

    def test_singular_gram_still_converges(self, rng):
        base = rng.standard_normal((2, 60))
        y = np.vstack([base, base[:1]])
        t = rng.standard_normal((2, 60))
        for eps in (0.01, 1e3):
            om = solve(y, t, eps)
            assert float(np.sum(om.matrix ** 2)) <= eps * (1 + 1e-12)
            _, oracle_cost = oracles.constrained_ls_oracle(y, t, eps)
            assert om.train_cost <= oracle_cost * (1 + 1e-9)


class TestExactSolveProperties:
    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 12), n=st.integers(1, 60), q=st.integers(1, 4),
           duplicate=st.booleans(), radius=st.sampled_from(
               [0.01, 0.3, 0.99, 1.0, 1.01, 3.0, math.inf]),
           seed=st.integers(0, 2 ** 32 - 1))
    # the ball's multiplier is 0 here, so Newton must hand the solve to the
    # spectrum: a multiplier floor near machine epsilon ran 100 steps on
    # this instance and returned a map with a duplicate-column gap
    @example(d=2, n=1, q=1, duplicate=True, radius=1.0, seed=0)
    def test_feasible_and_optimal(self, d, n, q, duplicate, radius, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        y = rng.standard_normal((d, n))
        if duplicate and d > 1:
            y[-1] = y[0]
        t = rng.standard_normal((q, n))
        free = solve(y, t)
        eps = radius * float(np.sum(free.matrix ** 2))
        om = solve(y, t, eps)
        assert float(np.sum(om.matrix ** 2)) <= eps * (1 + 1e-12)
        if duplicate and d > 1:
            # Y^T (e_0 - e_last) = 0: a difference between the first and
            # last columns of O adds norm but changes no prediction
            gap = np.max(np.abs(om.matrix[:, 0] - om.matrix[:, -1]))
            assert gap <= 1e-8 * np.linalg.norm(om.matrix)
        _, oracle_cost = oracles.constrained_ls_oracle(y, t, eps)
        # interpolating fits (rank = N) cost zero up to round-off only
        floor = 1e-12 * float(np.sum(t * t)) / n
        assert om.train_cost <= oracle_cost * (1 + 1e-9) + floor
        # a square Gaussian Y can square to a Gram of condition 1e10, where
        # no float64 solve is that close; n >= 2d keeps the Gram well-posed
        if math.isinf(eps) and not duplicate and n >= 2 * d:
            expected = oracles.normal_equations_extended(y, t)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(om.matrix - expected)) <= 1e-8 * scale


class TestCholeskyNewton:
    def test_inactive_ball_takes_the_eigh_path(self, rng, monkeypatch):
        y = rng.standard_normal((5, 80))
        t = rng.standard_normal((3, 80))
        free = solve(y, t)
        eps = 2.0 * float(np.sum(free.matrix ** 2))
        factorizations = []

        def counted(*args, **kw):
            factorizations.append(1)
            return dpotrf(*args, **kw)

        monkeypatch.setattr(hnf.solvers._lapack(), "dpotrf", counted)
        # the Cholesky path hands over as soon as it reaches the floor:
        # at once from a cold start, after one step down from a start
        # above the root
        for witness, tries in ((None, 1), (free.matrix, 1),
                               (0.1 * free.matrix, 2)):
            factorizations.clear()
            om = solve(y, t, eps, witness=witness)
            assert om.solver == {"method": "eigh", "newton_steps": 0,
                                 "multiplier": 0.0}
            assert np.array_equal(om.matrix, free.matrix)
            assert len(factorizations) == tries

    def test_handover_sees_the_gram_unchanged(self, rng):
        """The factors overwrite G's lower triangle, which is rebuilt in
        blocks of 256 columns before the spectral solve reads it."""
        y = rng.standard_normal((300, 700))
        t = rng.standard_normal((2, 700))
        free = solve(y, t)
        eps = 2.0 * float(np.sum(free.matrix ** 2))
        om = solve(y, t, eps, witness=0.1 * free.matrix)
        assert om.solver["method"] == "eigh"
        assert np.array_equal(om.matrix, free.matrix)

    def test_failed_factorization_hands_over_a_rebuilt_gram(self, rng,
                                                            monkeypatch):
        """A factorization that reports ``info > 0`` ends the Newton search,
        and the spectral path finds the optimum the Cholesky path would
        have: it reads G rebuilt after the factor overwrote its lower
        triangle, or it would solve another problem."""
        y = rng.standard_normal((5, 80))
        t = rng.standard_normal((3, 80))
        eps = 0.1 * float(np.sum(solve(y, t).matrix ** 2))
        want = solve(y, t, eps)
        assert want.solver["method"] == "cholesky"
        calls = []

        def failing(*args, **kw):
            calls.append(1)
            chol, _ = dpotrf(*args, **kw)  # the factor, in G's lower half
            return chol, 1

        monkeypatch.setattr(hnf.solvers._lapack(), "dpotrf", failing)
        om = solve(y, t, eps)
        assert om.solver["method"] == "eigh" and calls == [1]
        scale = np.max(np.abs(want.matrix))
        assert np.max(np.abs(om.matrix - want.matrix)) <= 1e-10 * scale

    def test_singular_gram_with_zero_multiplier_takes_the_eigh_path(self, rng):
        base = rng.standard_normal((3, 40))
        y = np.vstack([base, base[:1]])
        t = rng.standard_normal((2, 40))
        free = solve(y, t)
        om = solve(y, t, float(np.sum(free.matrix ** 2)))
        assert om.solver["method"] == "eigh"
        assert np.allclose(om.matrix, free.matrix, rtol=0, atol=1e-12)
        assert np.max(np.abs(om.matrix[:, 0] - om.matrix[:, -1])) <= (
            1e-12 * np.linalg.norm(om.matrix))

    def test_active_ball_takes_the_cholesky_path(self, rng):
        y = rng.standard_normal((5, 80))
        t = rng.standard_normal((3, 80))
        free = solve(y, t)
        om = solve(y, t, 0.1 * float(np.sum(free.matrix ** 2)))
        assert om.solver["method"] == "cholesky"
        assert om.solver["multiplier"] > 0

    def test_matches_eigh_on_relu_features(self, monkeypatch):
        """On every layer of a blobs network, with the trainer's witness and
        ball, the Cholesky path reproduces the spectral solve, and starting
        from the witness's multiplier never costs an extra Newton step."""
        blobs = make_synthetic_blobs(8, 3, 600, separation=10.0, seed=1)
        x, t = blobs.columns(blobs.train_idx), blobs.targets(blobs.train_idx)
        net = build_network(8, TrainConfig(n1=16, depth=3, seed=1), 1)
        prev, steps, cold_steps = None, 0, 0
        for layer, feats in walk(net, x):
            if prev is None:
                prev = solve(feats, t)
                continue
            witness, eps = embed_previous_map(prev, net.layers[layer - 1].weight)
            om = solve(feats, t, eps, witness=witness)
            cold = solve(feats, t, eps)
            with monkeypatch.context() as m:  # skip the Cholesky path
                m.setattr(hnf.solvers, "_cholesky_newton", lambda *a: None)
                ref = solve(feats, t, eps)
            assert om.solver["method"] == "cholesky", layer
            assert ref.solver["method"] == "eigh"
            assert ref.solver["multiplier"] > 0
            scale = np.max(np.abs(ref.matrix))
            assert np.max(np.abs(om.matrix - ref.matrix)) <= 1e-10 * scale
            assert om.solver["multiplier"] == pytest.approx(
                ref.solver["multiplier"], rel=1e-9)
            assert om.solver["newton_steps"] <= cold.solver["newton_steps"]
            steps += om.solver["newton_steps"]
            cold_steps += cold.solver["newton_steps"]
            prev = om
        assert steps < cold_steps


class TestEigh:
    @pytest.mark.parametrize("n", [90, 25],
                             ids=["full-rank", "rank-deficient"])
    def test_matches_scipy_bit_for_bit(self, rng, n):
        """``solvers.eigh`` reads the lower triangle of an F-ordered Gram and
        returns what ``scipy.linalg.eigh(a, overwrite_a=True,
        check_finite=False)`` does, bit for bit; the rank-deficient Gram has
        a zero row and a repeated one, as ReLU features do."""
        import scipy.linalg

        y = rng.standard_normal((60, n))
        y[7], y[8] = 0.0, y[3]
        g = np.asfortranarray(y @ y.T)
        g[np.triu_indices(len(g), 1)] = np.nan  # neither reads it
        lam, v = hnf.solvers.eigh(g.copy(order="F"))
        ref_lam, ref_v = scipy.linalg.eigh(g.copy(order="F"), overwrite_a=True,
                                           check_finite=False)
        assert lam.tobytes() == ref_lam.tobytes()
        assert v.tobytes() == ref_v.tobytes()
        assert np.all(np.diff(lam) >= 0) and np.isfinite(v).all()


class TestEpsilonSchedule:
    def test_orthonormal_gives_twice_previous_norm(self, rng):
        o_prev = make_map(rng.standard_normal((3, 4)))
        w = make_random_orthonormal(6, 4, seed=0)
        expected = 2.0 * float(np.sum(o_prev.matrix ** 2))
        assert embed_previous_map(o_prev, w)[1] == pytest.approx(
            expected, rel=1e-12)

    def test_zero_previous_map_floored(self):
        o_prev = make_map(np.zeros((2, 3)))
        w = make_random_orthonormal(3, 3, seed=0)
        assert embed_previous_map(o_prev, w)[1] == EPSILON_FLOOR

    def test_matches_materialized_oracle_orthonormal(self, rng):
        o_prev = make_map(rng.standard_normal((2, 3)))
        w = make_random_orthonormal(3, 3, seed=5)
        value = embed_previous_map(o_prev, w)[1]
        oracle = oracles.epsilon_materialized(o_prev.matrix, w.entries)
        assert abs(value - oracle) <= 1e-10
        assert value == pytest.approx(2.0 * float(np.sum(o_prev.matrix ** 2)),
                                      abs=1e-10)

    def test_next_layer_known_value(self, rng):
        o = rng.standard_normal((2, 4))
        o *= np.sqrt(1.5 / np.sum(o * o))
        w = make_random_orthonormal(4, 4, seed=1)
        assert embed_previous_map(make_map(o), w)[1] == pytest.approx(
            3.0, rel=1e-12)

    def test_matches_oracle_non_orthonormal(self, rng):
        for trial in range(20):
            q = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            n = m + int(rng.integers(0, 4))
            o_prev = rng.standard_normal((q, m))
            w = make_raw_gaussian(n, m, seed=trial)
            value = embed_previous_map(make_map(o_prev), w)[1]
            oracle = oracles.epsilon_materialized(o_prev, w.entries)
            assert abs(value - oracle) <= 1e-10

    def test_doubling_dominates_exact(self, rng):
        eps_prev = 2.0
        o = rng.standard_normal((2, 4))
        o *= np.sqrt(eps_prev * 0.8 / np.sum(o * o))
        w = make_random_orthonormal(4, 4, seed=2)
        exact = embed_previous_map(make_map(o), w)[1]
        doubling = 2.0 * eps_prev
        assert doubling >= exact

    def test_dimension_mismatch(self, rng):
        o_prev = make_map(rng.standard_normal((2, 3)))
        w = make_random_orthonormal(5, 4, seed=0)
        with pytest.raises(DimensionError):
            embed_previous_map(o_prev, w)[1]


class TestEmbedPreviousMap:
    def test_identity_weight_witness(self, rng):
        o = rng.standard_normal((2, 3))
        w = WeightMatrix(3, 3, np.eye(3), WeightKind.DCT_ORTHONORMAL, None)
        witness = embed_previous_map(make_map(o), w)[0]
        assert np.array_equal(witness, np.hstack([o, -o]))
        for _ in range(10):
            z = rng.standard_normal(3)
            assert np.allclose(witness @ vn_expand(z), o @ z, atol=1e-12)

    def test_single_layer_pad_with_zeros_is_feasible_shape(self, rng):
        o = rng.standard_normal((2, 3))
        padded = np.hstack([o, np.zeros((2, 3))])
        y = rng.standard_normal(3)
        ybar = vn_expand(y)
        assert np.allclose(padded @ ybar, o @ np.maximum(y, 0.0), atol=1e-12)

    def test_witness_reproduces_previous_predictions(self, rng):
        for kind in ("random", "dct"):
            o_prev = rng.standard_normal((3, 5))
            if kind == "random":
                w = make_random_orthonormal(7, 5, seed=3)
            else:
                w = make_dct_orthonormal(7, 5)
            witness = embed_previous_map(make_map(o_prev), w)[0]
            q = rng.standard_normal((5, 100))
            prev_pred = o_prev @ q
            new_pred = witness @ vn_expand(w.entries @ q)
            scale = np.max(np.abs(prev_pred)) or 1.0
            assert np.max(np.abs(new_pred - prev_pred)) <= 1e-9 * scale

    def test_witness_norm_matches_exact_budget(self, rng):
        o_prev = make_map(rng.standard_normal((2, 4)))
        w = make_random_orthonormal(6, 4, seed=4)
        witness = embed_previous_map(o_prev, w)[0]
        assert float(np.sum(witness ** 2)) == pytest.approx(
            embed_previous_map(o_prev, w)[1], rel=1e-12)


class TestOutputMapIO:
    def test_round_trip(self, tmp_path, rng):
        om = OutputMap(rng.standard_normal((3, 6)), 2.5, 0.125, 2,
                       {"method": "cholesky", "newton_steps": 4})
        save_output_map(om, tmp_path / "map02")
        back = load_output_map(tmp_path / "map02.json")
        assert np.array_equal(back.matrix, om.matrix)
        assert back.epsilon == om.epsilon
        assert back.train_cost == om.train_cost
        assert back.layer_index == om.layer_index
        assert back.solver["newton_steps"] == 4

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, tmp_path, rng, value):
        matrix = rng.standard_normal((3, 6))
        matrix[0, 4] = value
        save_output_map(OutputMap(matrix, 2.5, 0.125, 2), tmp_path / "map02")
        with pytest.raises(FormatError, match="map02.bin: non-finite"):
            load_output_map(tmp_path / "map02.json")

    def test_infinite_epsilon_round_trips_as_null(self, tmp_path, rng):
        om = OutputMap(rng.standard_normal((2, 2)), math.inf, 0.5, 0, None)
        save_output_map(om, tmp_path / "map00")
        assert load_output_map(tmp_path / "map00.json").epsilon == math.inf
