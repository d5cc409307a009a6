import ctypes
import functools
import json
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

import hnf.solvers
import hnf.trainer
from hnf.cli import save_report
from hnf.data import Dataset, make_synthetic_blobs
from hnf.errors import (
    ConfigError,
    DataError,
    ParameterError,
    ResourceError,
    StateError,
)
from hnf.layers import ACTIVATIONS, HnfLayer, HnfNetwork, vn_expand, walk
from hnf.matrixgen import (
    WeightMatrix,
    make_random_orthonormal,
    make_raw_gaussian,
)
from hnf.solvers import OutputMap, embed_previous_map, least_squares
from hnf.trainer import (
    EVAL_BLOCK,
    MONOTONE_SLACK,
    SCORE_BLOCK,
    VERIFY_BLOCK,
    TrainConfig,
    block_score,
    build_network,
    evaluate,
    map_widths,
    _fit,
    _to_y_basis,
    train,
    verify_invariants,
)

import oracles
from conftest import build_chain, count_walk, pin_products, solve
from oracles import accuracy, sample_cost


@pytest.fixture(scope="module")
def blobs():
    return make_synthetic_blobs(8, 3, 500, separation=6.0, seed=3)


def letter_shape():
    """Letter-shape blobs (P = 16, Q = 26) whose train split spans three
    :data:`SCORE_BLOCK`-column blocks."""
    ds = make_synthetic_blobs(16, 26, 7000, separation=3.0, seed=3)
    assert len(ds.train_idx) > 2 * SCORE_BLOCK
    return ds


#: Bytes a train call holds beyond its walk's count: a block's targets and
#: products, maps, block sums and numpy's iterator buffers.
TRACE_SLACK = 2 ** 19


def monotone(costs, slack=1e-8):
    return all(b <= a + slack * (1.0 + a) for a, b in zip(costs, costs[1:]))


def float32_moves(spectrum, m, n, width):
    """How far float32 ``|z|`` products may move an expanding layer's map
    ``m`` from the one float64 statistics give, as a fraction of its norm,
    and its cost, over ``n`` train columns whose Gram ``y y^T`` has the
    ascending eigenvalues ``spectrum``, summed ``width`` columns a block.

    Each ``2^-k z`` is rounded to float32 once and each product entry sums
    ``width`` float32 terms, so an entry of the u-basis G moves by at most
    gamma(width + 2) of the same entry of ``|z| |z|^T / 2``; gamma(k) is
    ``k u`` in the worst case and ``sqrt(k) u`` in the probabilistic model
    (Higham and Mary, SIAM J. Sci. Comput. 41, 2019) used here, with
    ``u = 2^-24``. Over G's three ``|z|`` blocks, ``||dG||_2 <= 3
    sqrt(width + 2) u lam_max``. At the solve's multiplier mu the map
    ``B (G + mu I)^-1`` moves by at most ``||dG||_2 / (lam_min + mu)`` of
    its norm, and the shift of mu back onto the ball's sphere at most
    doubles that: ``rho = 6 sqrt(width + 2) u lam_max / (lam_min + mu)``.
    The map minimizes the cost with ``G + dG`` on the ball's sphere, where
    the exact minimum lies too, so its cost exceeds that minimum by at most
    ``|<O dG, O> - <O* dG, O*>| / n <= 2 ||dO|| ||dG||_2 ||O|| / n <=
    (lam_min + mu) (rho ||O||)^2 / n``."""
    lam_min, lam_max = max(spectrum[0], 0.0), spectrum[-1]
    mu = m.solver["multiplier"]
    rho = 6.0 * math.sqrt(width + 2) * 2.0 ** -24 * lam_max / (lam_min + mu)
    return rho, (lam_min + mu) * (rho * np.linalg.norm(m.matrix)) ** 2 / n


def train_scores_match_the_report(data, cfg):
    """Train ``cfg`` on ``data``; then ``evaluate`` on the train split must
    reproduce every report row's train cost and accuracy bit for bit, and
    on the test split its test accuracy: the walk forms each block's
    products as the train walk does."""
    net, maps, report = train(data, cfg)
    transform = report.transform
    scores = evaluate(net, maps, data, "train", transform)
    test = evaluate(net, maps, data, "test", transform)
    assert sorted(scores) == [r.layer for r in report.rows()]
    for rec in report.rows():
        ev = scores[rec.layer]
        assert (ev.cost, ev.accuracy) == (rec.train_cost, rec.train_acc), rec
        assert rec.test_acc == test[rec.layer].accuracy, rec


class TestPlanWidths:
    @staticmethod
    def shapes(net):
        return [(l.weight.rows, l.weight.cols, l.expand) for l in net.layers]

    def test_default_rule_doubles(self):
        cfg = TrainConfig(n1=16, depth=3)
        assert self.shapes(build_network(8, cfg, 600)) == [
            (16, 8, True), (32, 32, True), (64, 64, True)]

    def test_elm_plan_starts_at_two(self):
        cfg = TrainConfig(n1=20, depth=3, elm_front=True)
        assert self.shapes(build_network(8, cfg, 600)) == [
            (20, 8, False), (20, 20, True), (40, 40, True)]


class TestBuildNetwork:
    @pytest.mark.parametrize("cfg", [
        TrainConfig(n1=16, depth=3, seed=4),
        TrainConfig(n1=16, depth=3, weight_kind="dct"),
        TrainConfig(n1=24, depth=3, seed=2, elm_front=True,
                    elm_activation="sigmoid"),
    ], ids=["random", "dct", "elm"])
    def test_same_weights_as_trained_network(self, blobs, cfg):
        built = build_network(blobs.input_dim, cfg, blobs.n_samples)
        trained, _, _ = train(blobs, cfg)
        assert len(built.layers) == len(trained.layers) == cfg.depth
        for a, b in zip(built.layers, trained.layers):
            assert (a.expand, a.activation) == (b.expand, b.activation)
            assert a.weight.kind is b.weight.kind
            assert a.weight.seed == b.weight.seed
            assert a.weight.entries.tobytes() == b.weight.entries.tobytes()

    def test_n1_below_input_dim_rejected(self):
        with pytest.raises(ConfigError, match="n1 >= input dim"):
            build_network(8, TrainConfig(n1=4, depth=1), 600)

    @pytest.mark.parametrize("kind", ["random", "dct"])
    def test_weight_build_peak_within_its_layer_count(self, kind,
                                                      monkeypatch):
        """Building a weight holds scratch beside it (a QR's for random
        weights), but no more than the layer's own count in the budget
        beyond the earlier weights: its weight, d x d Gram and rows x rows
        carry, here on no columns. Layer 1 is 128 x 16, the rest square."""
        peaks = []

        def traced(build):
            def wrapper(*args):
                w, peak = oracles.traced_peak(build, *args)
                peaks.append(peak)
                return w
            return wrapper

        for name in ("make_random_orthonormal", "make_dct_orthonormal"):
            monkeypatch.setattr(hnf.trainer, name,
                                traced(getattr(hnf.trainer, name)))
        net = build_network(16, TrainConfig(n1=128, depth=4,
                                            weight_kind=kind), 0)
        assert len(peaks) == 4
        for layer, peak in zip(net.layers, peaks):
            rows, cols = layer.weight.rows, layer.weight.cols
            counted = (rows * cols + (2 * rows) ** 2 + rows ** 2) * 8
            assert peak <= counted, (rows, cols, peak / (rows * cols * 8))

    def test_elm_front_may_be_narrower_than_input(self):
        net = build_network(8, TrainConfig(n1=4, depth=2, elm_front=True),
                            600)
        assert [l.out_dim for l in net.layers] == [4, 8]


class TestTrain:
    @pytest.mark.parametrize("kind", ["random", "dct"])
    def test_costs_non_increasing_and_certified(self, blobs, kind):
        cfg = TrainConfig(n1=16, depth=3, weight_kind=kind, seed=1)
        net, maps, report = train(blobs, cfg)
        costs = [r.train_cost for r in report.rows()]
        assert len(costs) == 4
        assert monotone(costs)
        assert report.monotonicity_certified
        assert net.depth == 3
        assert len(maps) == 4
        for m in maps[1:]:
            assert abs(m.solver["witness_drift"]) <= 1e-12

    def test_depth_one_equals_direct_constrained_solve(self, blobs):
        cfg = TrainConfig(n1=16, depth=1, seed=2)
        net, maps, report = train(blobs, cfg)

        w = make_random_orthonormal(16, 8, seed=cfg.seed + 1)
        assert np.array_equal(net.layers[0].weight.entries, w.entries)
        x, t = blobs.columns(blobs.train_idx), blobs.targets(blobs.train_idx)
        baseline = solve(x, t)
        eps = embed_previous_map(baseline, w)[1]
        direct = solve(vn_expand(w.entries @ x), t, eps)
        expect = direct.matrix
        y = vn_expand(w.entries @ x)
        rho, _ = float32_moves(np.linalg.eigvalsh(y @ y.T), maps[1],
                               x.shape[1], min(x.shape[1], SCORE_BLOCK))
        if direct.train_cost > maps[1].train_cost:
            pytest.fail("trainer should never beat the identical solve")
        # the trainer sums its Gram in another basis and order, in float32
        assert (np.linalg.norm(maps[1].matrix - expect)
                <= (1e-12 + rho) * np.linalg.norm(expect))
        assert report.per_layer[0].epsilon == pytest.approx(eps, rel=1e-12)

    @pytest.mark.parametrize("k", [-80, -20, 20, 80])
    def test_inputs_scaled_by_a_power_of_two_scale_the_radii(self, k):
        """Inputs times 2^k give every cost bit for bit and every radius
        times 2^-2k: each map scales by 2^-k, and every step from the data
        to a cost or a radius commutes with a power of two, the float32
        ``|z|`` products too, whose own power-of-two scale follows the
        data. A floor on every small radius broke this at k = 20 and 80."""
        ds = make_synthetic_blobs(4, 3, 600, separation=3.0, seed=2)
        cfg = TrainConfig(n1=8, depth=3, seed=1)
        _, _, want = train(ds, cfg)
        _, _, got = train(replace(ds, X=ds.X * 2.0 ** k), cfg)
        assert got.monotonicity_certified
        for a, b in zip(want.rows(), got.rows()):
            assert b.train_cost == a.train_cost, a.layer
            assert b.epsilon * 2.0 ** (2 * k) == a.epsilon, a.layer
            assert (b.train_acc, b.test_acc) == (a.train_acc, a.test_acc)

    def test_n1_below_input_dim_rejected(self, blobs):
        with pytest.raises(ConfigError):
            train(blobs, TrainConfig(n1=4, depth=1))

    def test_depth_zero_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(n1=16, depth=0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(ConfigError, match=f"got {seed}$"):
            TrainConfig(n1=16, depth=1, seed=seed)

    @pytest.mark.parametrize("elm_front", [False, True])
    def test_layer_seeds_wrap_modulo_2_64(self, elm_front):
        """Layer l (the front too) is seeded with seed + l modulo 2**64."""
        cfg = TrainConfig(n1=8, depth=3, seed=2 ** 64 - 1, elm_front=elm_front)
        net = build_network(4, cfg, 10)
        assert [l.weight.seed for l in net.layers] == [0, 1, 2]

    def test_deterministic_reports(self, blobs):
        cfg = TrainConfig(n1=16, depth=2, seed=5)
        _, _, a = train(blobs, cfg)
        _, _, b = train(blobs, cfg)
        for ra, rb in zip(a.rows(), b.rows()):
            assert replace(ra, wall_ms=0) == replace(rb, wall_ms=0)

    def test_nodes_accounting(self, blobs):
        cfg = TrainConfig(n1=16, depth=3, seed=1)
        _, _, report = train(blobs, cfg)
        assert report.baseline.nodes_cumulative == 0
        expected = np.cumsum([2 * 16, 2 * 32, 2 * 64])
        assert [r.nodes_cumulative for r in report.per_layer] == list(expected)

    def test_epsilon_schedules(self, blobs):
        exact_cfg = TrainConfig(n1=16, depth=3, seed=1, eps_schedule="exact")
        doubling_cfg = TrainConfig(n1=16, depth=3, seed=1,
                                   eps_schedule="doubling")
        _, maps_e, rep_e = train(blobs, exact_cfg)
        _, _, rep_d = train(blobs, doubling_cfg)

        for i, rec in enumerate(rep_e.per_layer):
            if i == 0:
                continue
            prev_norm2 = float(np.sum(maps_e[i].matrix ** 2))
            assert rec.epsilon == pytest.approx(2.0 * prev_norm2, rel=1e-9)

        eps1 = rep_d.per_layer[0].epsilon
        for l, rec in enumerate(rep_d.per_layer, start=1):
            assert rec.epsilon == pytest.approx(2 ** (l - 1) * eps1, rel=1e-12)

        for re_, rd in zip(rep_e.per_layer, rep_d.per_layer):
            assert rd.epsilon >= re_.epsilon * (1 - 1e-12)

    def test_run_is_sized_from_the_split(self, blobs):
        """train counts the train split's columns, not ``meta["N_train"]``:
        a library dataset whose meta has none trains as its split says,
        and a stale count of 5 on 40 train columns does not let a budget
        that fits 5 columns but not 40 pass."""
        bare = replace(blobs, meta={})
        cfg = TrainConfig(n1=8, depth=2, seed=1)
        maps = train(bare, cfg)[1]
        assert [m.matrix.tobytes() for m in maps] == [
            m.matrix.tobytes() for m in train(blobs, cfg)[1]]
        split = Dataset(blobs.X[:, :60], blobs.labels[:60], blobs.label_names,
                        np.arange(40), np.arange(40, 60), {"N_train": 5})
        small = TrainConfig(n1=8, depth=1, seed=1, memory_budget=6000)
        build_network(8, small, 5)
        with pytest.raises(ResourceError, match="layer 1"):
            build_network(8, small, 40)
        with pytest.raises(ResourceError, match="layer 1"):
            train(split, small)

    def test_memory_budget_names_layer(self, blobs):
        cfg = TrainConfig(n1=16, depth=3, seed=1, memory_budget=200_000)
        with pytest.raises(ResourceError, match="layer"):
            train(blobs, cfg)

    def test_memory_budget_checked_before_any_solve(self, blobs,
                                                     monkeypatch):
        calls = []
        monkeypatch.setattr("hnf.trainer.least_squares",
                            lambda *a, **k: calls.append(a))
        # layers 1-3 need 99792, 217808 and 558800 bytes on 333 columns
        cfg = TrainConfig(n1=16, depth=3, seed=1, memory_budget=500_000)
        with pytest.raises(ResourceError, match="layer 3"):
            train(blobs, cfg)
        assert calls == []

    @pytest.mark.parametrize("kind", ["random", "dct"])
    def test_memory_budget_checked_before_wider_weights(self, blobs,
                                                        monkeypatch, kind):
        built = []

        def recording(name):
            real = getattr(hnf.trainer, name)

            def make(rows, cols, *args):
                built.append(rows)
                return real(rows, cols, *args)
            return make

        for name in ("make_random_orthonormal", "make_dct_orthonormal"):
            monkeypatch.setattr(hnf.trainer, name, recording(name))
        # layer 3 needs 519376 bytes on 333 columns; layers 3-6 have
        # widths 64, 128, 256 and 512
        cfg = TrainConfig(n1=16, depth=6, weight_kind=kind, seed=1,
                          memory_budget=500_000)
        with pytest.raises(ResourceError, match="layer 3"):
            train(blobs, cfg)
        assert built == [16, 32]

    def test_memory_budget_counts_weights(self, monkeypatch):
        built = []
        real = hnf.trainer.make_random_orthonormal

        def make(rows, cols, seed):
            built.append(rows)
            return real(rows, cols, seed)

        monkeypatch.setattr(hnf.trainer, "make_random_orthonormal", make)
        small = make_synthetic_blobs(4, 2, 20, separation=6.0, seed=3)
        # on 13 train columns layer 5's pre-activations, error vectors, Gram
        # and the carry into it take 931024 bytes, and the weights of layers
        # 1-5 174336 more (widths 8 to 128); layer 4 needs 279504 in all
        cfg = TrainConfig(n1=8, depth=6, memory_budget=700_000)
        with pytest.raises(ResourceError, match="layer 5"):
            train(small, cfg)
        assert built == [8, 16, 32, 64]

    def test_budget_counts_held_pre_activations(self, blobs):
        """Layer 3 needs 558800 bytes: the weights, its 64 x 333 train
        pre-activations, the pass's two error vectors on 333 columns and
        its own pass's 128 x 333 block buffer, which outweighs its 128 x
        128 Gram with the carry from the 64 x 64 one, and the previous
        pass's 64-row buffer beside that Gram. Counted as 128-row features
        on all 500 columns, the pre-activations alone needed 512000."""
        cfg = TrainConfig(n1=16, depth=3, seed=1, memory_budget=558_800)
        _, _, report = train(blobs, cfg)
        assert report.monotonicity_certified
        with pytest.raises(ResourceError, match="layer 3"):
            train(blobs, replace(cfg, memory_budget=558_799))

    def test_budget_bounds_the_traced_peak(self):
        """What train allocates, as tracemalloc traces numpy's buffers,
        is the count build_network checks and under TRACE_SLACK more: a
        budget of the traced peak admits the run, and one below it by the
        slack refuses it, naming the block buffer and the carry."""
        ds = make_synthetic_blobs(8, 3, 6000, separation=3.0, seed=1)
        cfg = TrainConfig(n1=16, depth=4, seed=1)
        n_train = len(ds.train_idx)
        _, peak = oracles.traced_peak(train, ds, cfg)
        build_network(ds.input_dim, replace(cfg, memory_budget=peak), n_train)
        with pytest.raises(ResourceError, match="block buffer.*carry"):
            build_network(ds.input_dim, replace(
                cfg, memory_budget=peak - TRACE_SLACK), n_train)

    def test_test_walk_holds_no_train_buffer(self, monkeypatch):
        """No view into the train walk's pre-activations outlives the walk:
        when the test split is scored, what is live is well under that
        buffer's 32 x N_train floats."""
        ds = make_synthetic_blobs(4, 2, 6000, separation=3.0, seed=1)
        live, real = [], hnf.trainer.evaluate
        monkeypatch.setattr(hnf.trainer, "evaluate", lambda *a: live.append(
            tracemalloc.get_traced_memory()[0]) or real(*a))
        _, peak = oracles.traced_peak(train, ds, TrainConfig(n1=4, depth=4))
        held = 32 * len(ds.train_idx) * 8
        assert peak > held
        assert live[0] < held / 2

    @pytest.mark.parametrize("cfg", [
        TrainConfig(n1=16, depth=3, seed=1),
        TrainConfig(n1=16, depth=3, seed=1, standardize=True),
        TrainConfig(n1=16, depth=3, seed=1, elm_front=True),
    ], ids=["plain", "standardize", "elm"])
    def test_solves_hold_no_block_buffer_or_train_copy(self, monkeypatch,
                                                        cfg):
        """When a solve starts, no block buffer of any pass's height is
        live, nor the train split's targets. Its X copy, standardized in
        place if at all, is live only at the baseline's solve, whose pass
        reads it, and not behind an ELM front: the baseline reads the
        front's output in the held buffer. On 4000 train columns these
        sizes are no other array's."""
        ds = make_synthetic_blobs(8, 3, 6000, separation=3.0, seed=3)
        n = len(ds.train_idx)
        net = build_network(8, cfg, n)
        buffers = {h * SCORE_BLOCK * 8 for l in net.layers
                   for h in (l.weight.rows, l.out_dim)}
        x_copy, t_copy = (ds.columns(ds.train_idx).nbytes,
                          ds.targets(ds.train_idx).nbytes)
        live, real = [], hnf.trainer.least_squares

        def spy(*args, **kw):
            numpy_traces = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
            live.append([t.size for t in numpy_traces.traces])
            return real(*args, **kw)

        monkeypatch.setattr("hnf.trainer.least_squares", spy)
        oracles.traced_peak(train, ds, cfg)
        assert n > SCORE_BLOCK
        assert len(live) == len(net.layers) + 1 - cfg.elm_front
        for k, sizes in enumerate(live):
            assert not buffers & set(sizes), k
            assert t_copy not in sizes, k
            assert sizes.count(x_copy) == (k == 0 and not cfg.elm_front), k

    def test_standardize_recorded(self, blobs):
        cfg = TrainConfig(n1=16, depth=1, seed=1, standardize=True)
        _, _, report = train(blobs, cfg)
        mu, sigma = report.transform
        assert mu.shape == sigma.shape == (blobs.input_dim, 1)
        assert report.monotonicity_certified

    def test_standardize_refuses_a_statistic_that_overflows(self, blobs):
        """A train feature scaled by 1e200 has a variance past float64: its
        1-based number is named, before any solve, not standardized by an
        infinite sigma to zero."""
        x = blobs.X.copy()
        x[[0, 2]] *= 1e200
        cfg = TrainConfig(n1=16, depth=2, seed=1, standardize=True)
        with pytest.raises(DataError, match=r"feature\(s\) 1, 3 overflows"):
            train(replace(blobs, X=x), cfg)

    def test_elm_front_chain(self, blobs):
        cfg = TrainConfig(n1=32, depth=3, elm_front=True, seed=4)
        net, maps, report = train(blobs, cfg)
        assert net.has_front
        assert net.depth == 3
        costs = [r.train_cost for r in report.rows()]
        assert monotone(costs)
        assert report.monotonicity_certified
        assert report.baseline.nodes_cumulative == 32
        assert [r.layer for r in report.per_layer] == [2, 3]
        assert [r.nodes_cumulative for r in report.per_layer] == [
            32 + 2 * 32, 32 + 2 * 32 + 2 * 64]

    def test_elm_front_needs_depth_two(self):
        with pytest.raises(ConfigError):
            TrainConfig(n1=8, depth=1, elm_front=True)

    def test_witness_off_previous_cost_not_certified(self, blobs, monkeypatch):
        # half the witness is still inside the ball, but it no longer
        # reproduces the previous layer's cost, so the chain has a gap
        def halved(o_prev, w):
            witness, eps = embed_previous_map(o_prev, w)
            return 0.5 * witness, eps

        monkeypatch.setattr("hnf.trainer.embed_previous_map", halved)
        _, maps, report = train(blobs, TrainConfig(n1=16, depth=3, seed=1))
        assert not report.monotonicity_certified
        assert abs(maps[1].solver["witness_drift"]) > MONOTONE_SLACK

    def test_worse_solve_falls_back_to_the_witness(self, blobs, monkeypatch):
        def zero_when_constrained(g, b, n, eps=math.inf, **kw):
            o, diag = least_squares(g, b, n, eps, **kw)
            return (o, diag) if math.isinf(eps) else (np.zeros_like(o), diag)

        monkeypatch.setattr("hnf.trainer.least_squares", zero_when_constrained)
        net, maps, report = train(blobs, TrainConfig(n1=16, depth=2, seed=1))
        assert report.monotonicity_certified
        for k, layer in enumerate(net.layers, 1):
            witness, eps = embed_previous_map(maps[k - 1], layer.weight)
            assert np.array_equal(maps[k].matrix, witness)
            assert (maps[k].epsilon, maps[k].layer_index) == (eps, k)
            assert maps[k].solver["fallback"] == "witness"
            # a zero map's cost on one-hot targets
            assert maps[k].solver["solve_cost"] == 1.0

    def test_map_just_outside_the_ball_not_certified(self, blobs, monkeypatch):
        def outside(g, b, n, eps=math.inf, **kw):
            o, diag = least_squares(g, b, n, eps, **kw)
            if math.isinf(eps):
                return o, diag
            return o * math.sqrt(eps * (1 + 1e-9) / np.sum(o ** 2)), diag

        monkeypatch.setattr("hnf.trainer.least_squares", outside)
        _, maps, report = train(blobs, TrainConfig(n1=16, depth=2, seed=1))
        assert not report.monotonicity_certified
        assert "fallback" not in maps[1].solver
        assert np.sum(maps[1].matrix ** 2) > maps[1].epsilon * (1 + 1e-12)

    def test_elm_front_with_dct_tail(self, blobs):
        cfg = TrainConfig(n1=24, depth=3, weight_kind="dct",
                          elm_front=True, seed=2)
        net, _, report = train(blobs, cfg)
        assert net.has_front
        assert all(l.weight.kind.name == "DCT_ORTHONORMAL"
                   for l in net.layers[1:])
        assert report.monotonicity_certified
        assert monotone([r.train_cost for r in report.rows()])


class TestReleaseHeap:
    @pytest.fixture(autouse=True)
    def fresh_lookup(self):
        hnf.trainer._malloc_trim.cache_clear()
        yield
        hnf.trainer._malloc_trim.cache_clear()

    def test_does_nothing_without_malloc_trim(self, monkeypatch):
        """A C library without malloc_trim (musl, macOS) is opened once,
        and the release is then a no-op."""
        opened = []
        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: opened.append(name) or object())
        assert hnf.trainer._release_heap() is None
        assert hnf.trainer._release_heap() is None
        assert opened == [None]

    def test_trims_before_each_solve_and_pass(self, blobs, monkeypatch):
        """Where the C library has malloc_trim, train calls it with 0
        right before each map's solve and right before its pass."""
        calls, real = [], hnf.trainer.least_squares

        def malloc_trim(pad):
            calls.append(("trim", pad))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(
            malloc_trim=malloc_trim))
        monkeypatch.setattr("hnf.trainer.least_squares", lambda *a, **kw: (
            calls.append("solve") or real(*a, **kw)))
        train(blobs, TrainConfig(n1=16, depth=3, seed=1))
        assert calls == [("trim", 0), "solve", ("trim", 0)] * 4


class TestExpandedStatistics:
    @pytest.mark.parametrize("elm", [False, True], ids=["plain", "elm"])
    def test_u_basis_gram_matches_the_expanded_features(self, blobs,
                                                        monkeypatch, elm):
        """Each expanding layer's G and B, begun by _carry from the previous
        layer's statistics, summed by _add_abs_block once per 64-column
        block of the pass before, closed and rotated back, are those of
        vn_expand(z): for the non-square first layer, the square inner ones
        and the layer behind an ELM front. In the u basis ``[z; |z|] /
        sqrt(2)``, B is a float64 sum, within 1e-12 relative of the
        features', and so is the carried ``z z^T`` block of ``W G W^T``
        from the previous G rotated back. Each of the two ``|z|`` blocks,
        summed as float32 products of ``2^-k z`` rounded to float32 once,
        is within gamma(66) = 66 u / (1 - 66 u), u = 2^-24, of the
        features' ``|z| |z|^T / 2`` in Frobenius norm (Higham's bound
        ``|fl(A B) - A B| <= gamma(c) |A| |B|`` for c = 64 terms a block,
        two more for the operands)."""
        monkeypatch.setattr("hnf.trainer.SCORE_BLOCK", 64)
        solved, summed = [], []
        real_step = hnf.trainer._add_abs_block

        def solve(g, b, n, eps=math.inf, **kw):
            solved.append((g.copy(), b.copy()))
            return least_squares(g, b, n, eps, **kw)

        def step(zb, tb, *rest):
            summed.append((len(zb), zb.shape[1]))
            real_step(zb, tb, *rest)

        monkeypatch.setattr("hnf.trainer.least_squares", solve)
        monkeypatch.setattr("hnf.trainer._add_abs_block", step)
        cfg = TrainConfig(n1=16, depth=3, elm_front=elm, seed=1)
        net = build_network(8, cfg, 1)
        _fit(net, blobs, cfg, 0.0)
        x, t = blobs.columns(blobs.train_idx), blobs.targets(blobs.train_idx)
        n = t.shape[1]
        blocks = [min(64, n - s) for s in range(0, n, 64)]
        assert summed == [(l.weight.rows, c) for l in net.layers[elm:]
                          for c in blocks]
        feats = [f.copy() for _, f in walk(net, x)]
        assert len(feats) == len(solved) == len(net.layers) + 1 - elm
        gamma = 66 * 2.0 ** -24 / (1 - 66 * 2.0 ** -24)
        prev = solved[0][0]  # the previous G, in the basis of its features
        for (g, b), y, layer in zip(solved[1:], feats[1:], net.layers[elm:]):
            assert np.array_equal(g, g.T)
            r = len(y) // 2
            u = np.vstack([y[:r] - y[r:], y[:r] + y[r:]]) * math.sqrt(0.5)
            want_g, want_b = u @ u.T, t @ u.T
            w = layer.weight.entries
            carried = 0.5 * (w @ prev @ w.T)
            assert (np.linalg.norm(g[:r, :r] - carried)
                    <= 1e-12 * np.linalg.norm(carried)), y.shape
            prev = _to_y_basis(_to_y_basis(g).T)  # R^T G R, G symmetric
            for block in (np.s_[:r, r:], np.s_[r:, r:]):
                assert (np.linalg.norm(g[block] - want_g[block])
                        <= gamma * np.linalg.norm(want_g[r:, r:])), y.shape
            assert (np.linalg.norm(b - want_b)
                    <= 1e-12 * np.linalg.norm(want_b)), y.shape

    @pytest.mark.parametrize("elm", [False, True], ids=["plain", "elm"])
    def test_fit_runs_one_block_loop_per_map(self, blobs, monkeypatch, elm):
        """Every map is solved, scored and the next layer's |z| summed in one
        pass over the train columns: _fit runs one _blocks loop per map."""
        loops, real_blocks = [], hnf.trainer._blocks

        def blocks(n, width):
            loops.append(n)
            return real_blocks(n, width)

        monkeypatch.setattr("hnf.trainer._blocks", blocks)
        cfg = TrainConfig(n1=16, depth=3, elm_front=elm, seed=1)
        net = build_network(8, cfg, 1)
        maps, _, _, _ = _fit(net, blobs, cfg, 0.0)
        assert len(maps) == 4 - elm
        assert loops == [len(blobs.train_idx)] * len(maps)

    @pytest.mark.parametrize("cfg", [
        TrainConfig(n1=16, depth=3, seed=1),
        TrainConfig(n1=24, depth=3, seed=3, elm_front=True, weight_kind="dct",
                    elm_activation="sigmoid"),
    ], ids=["plain", "elm-dct"])
    def test_blocks_match_a_one_block_run(self, blobs, monkeypatch, cfg):
        """Summed and scored 7 columns at a time, the train walk reports
        every cost within 1e-12 relative of a one-block run, and the same
        accuracies; beyond the baseline, plus the cost move float32 ``|z|``
        products allow at the wider block (:func:`float32_moves`)."""
        net, maps, whole = train(blobs, cfg)
        n = len(blobs.train_idx)
        assert n <= SCORE_BLOCK
        monkeypatch.setattr("hnf.trainer.SCORE_BLOCK", 7)
        _, _, blocked = train(blobs, cfg)
        assert blocked.monotonicity_certified
        spectra = {layer: np.linalg.eigvalsh(f @ f.T)
                   for layer, f in walk(net, blobs.columns(blobs.train_idx))}
        for m, a, b in zip(maps, whole.rows(), blocked.rows()):
            moved = 0.0 if math.isinf(m.epsilon) else float32_moves(
                spectra[m.layer_index], m, n, n)[1]
            assert (abs(b.train_cost - a.train_cost)
                    <= 1e-12 * a.train_cost + moved)
            assert (b.train_acc, b.test_acc) == (a.train_acc, a.test_acc)


class TestMapInputs:
    @pytest.mark.parametrize("elm, layers", [(False, [0, 1, 2, 3]),
                                             (True, [0, 2, 3])],
                             ids=["plain", "elm"])
    def test_yields_each_map_layer_on_its_features(self, blobs, elm, layers):
        """The walk yields each map's features, ``act(W q)`` bit for bit;
        the baseline reads the front, if any."""
        net = build_network(8, TrainConfig(n1=16, depth=3, elm_front=elm), 1)
        x = blobs.columns(blobs.train_idx)
        feats = [x]
        for layer in net.layers:
            z = layer.weight.entries @ feats[-1]
            feats.append(vn_expand(z) if layer.expand
                         else ACTIVATIONS[layer.activation](z))
        items = [(layer, f.copy()) for layer, f in walk(net, x)]
        assert [layer for layer, _ in items] == layers
        for layer, f in items:
            assert np.array_equal(f, feats[layer or int(elm)])
        assert map_widths(net) == {layer: len(f) for layer, f in items}

    @pytest.mark.parametrize("elm", [False, True], ids=["plain", "elm"])
    def test_train_walks_each_split_once(self, blobs, monkeypatch, elm):
        """The train split's pre-activations are expanded once per column
        at each expanding layer, a block at a time; only an ELM front is
        walked on the whole train split, and the test split's one walk runs
        every layer on every column once, :data:`EVAL_BLOCK` columns at a
        time (wider here than the train pass's 100), so each expanding
        layer's features are formed once per column of the whole
        dataset."""
        widths, expanded = count_walk(monkeypatch), {}
        real = HnfLayer.features

        def features(layer, z, *rest):
            if layer.expand:
                expanded[len(z)] = expanded.get(len(z), 0) + z.shape[1]
            return real(layer, z, *rest)

        monkeypatch.setattr(HnfLayer, "features", features)
        monkeypatch.setattr("hnf.trainer.SCORE_BLOCK", 100)
        monkeypatch.setattr("hnf.trainer.EVAL_BLOCK", 150)
        net, _, _ = train(blobs, TrainConfig(n1=16, depth=3, elm_front=elm,
                                             seed=1))
        n_train, n_test = len(blobs.train_idx), len(blobs.test_idx)
        assert expanded == {l.weight.rows: n_train + n_test
                            for l in net.layers if l.expand}
        assert widths[:elm] == [n_train] * elm
        assert sorted(widths[elm:]) == [n_test - 150] * 3 + [150] * 3


class TestEvaluate:
    def test_split_other_than_train_or_test_refused(self, blobs):
        net, maps, _ = train(blobs, TrainConfig(n1=16, depth=1, seed=1))
        with pytest.raises(ParameterError, match="got 'val'"):
            evaluate(net, maps, blobs, split="val")

    def test_perfect_predictor(self):
        ds = make_synthetic_blobs(4, 2, 10, separation=50.0, seed=0)
        cfg = TrainConfig(n1=4, depth=1, seed=0)
        net, maps, _ = train(ds, cfg)
        ev = evaluate(net, maps, ds, split="train")[1]
        assert ev.accuracy == 1.0

    def test_zero_map_accuracy_is_class_zero_frequency(self, blobs):
        cfg = TrainConfig(n1=16, depth=1, seed=1)
        net, maps, _ = train(blobs, cfg)
        zero = OutputMap(np.zeros_like(maps[1].matrix), 1.0, 0.0, 1)
        labels = blobs.labels[blobs.test_idx]
        freq0 = float(np.mean(labels == 0))
        ev = evaluate(net, [maps[0], zero], blobs)[1]
        assert ev.accuracy == pytest.approx(freq0)

    def test_train_split_cost_matches_solver(self, blobs, monkeypatch):
        """On one block, each train score is the sample cost of the whole
        split: exactly, summed as the scorer sums it (each column's squared
        errors class by class, then one ``np.sum`` over the columns), and
        within 1e-12 relative as :func:`oracles.sample_cost` sums it. Over
        several train blocks (64 columns here, walked 24 or 128 at a time;
        2048 on a Letter-shape run, walked 1024 at a time), plain,
        standardized and with DCT weights, each equals the report's train
        cost and accuracy exactly: both sum one vector of per-column errors.
        Products are pinned to one BLAS call a column
        (:func:`conftest.pin_products`), so no bit depends on the width at
        which the BLAS forms a column."""
        pin_products(monkeypatch)
        net, maps, _ = train(blobs, TrainConfig(n1=16, depth=2, seed=1))
        scores = evaluate(net, maps, blobs, split="train")
        x, t = blobs.columns(blobs.train_idx), blobs.targets(blobs.train_idx)
        for (layer, feats), m in zip(walk(net, x), maps):
            r = np.matmul(m.matrix, feats) - t
            cost = float(np.sum(functools.reduce(np.add, r * r))) / len(x.T)
            assert scores[layer].cost == cost
            assert cost == pytest.approx(sample_cost(t, m.matrix, feats),
                                         rel=1e-12, abs=0)
        train_scores_match_the_report(letter_shape(), TrainConfig(
            n1=32, depth=2, seed=1))
        monkeypatch.setattr("hnf.trainer.SCORE_BLOCK", 64)
        assert len(blobs.train_idx) > 4 * 64
        for width in (24, 128):
            monkeypatch.setattr("hnf.trainer.EVAL_BLOCK", width)
            for cfg in (TrainConfig(n1=16, depth=3, seed=1),
                        TrainConfig(n1=16, depth=3, seed=2, standardize=True),
                        TrainConfig(n1=16, depth=3, seed=1,
                                    weight_kind="dct")):
                train_scores_match_the_report(blobs, cfg)

    @pytest.mark.parametrize("shift, cfg", [
        (1, TrainConfig(n1=16, depth=3, seed=1)),
        (2, TrainConfig(n1=24, depth=3, seed=3, elm_front=True)),
        (3, TrainConfig(n1=24, depth=3, seed=3, elm_front=True,
                        elm_activation="sigmoid")),
        (4, TrainConfig(n1=16, depth=3, seed=2, standardize=True)),
    ], ids=["plain", "elm-relu", "elm-sigmoid", "standardize"])
    def test_drawn_widths_keep_the_report_s_scores(self, monkeypatch, shift,
                                                   cfg):
        """Whatever widths SCORE_BLOCK and EVAL_BLOCK take, set alike for
        train and evaluate, evaluate on the train split returns the
        report's costs and accuracies exactly, and on the test split its
        test accuracies: each cost is one sum of a vector of per-column
        errors. The widths are 1, 7, 64, 100 (which does not divide N =
        333) and N + 1, and over the four runs each ordered pair of
        distinct widths is drawn once. Products are pinned to one BLAS
        call a column (:func:`conftest.pin_products`), so the summation is
        what is checked; 10 classes take each column's error past numpy's
        eight-way pairwise unrolling, which a width-1 sum would use."""
        ds = make_synthetic_blobs(8, 10, 500, separation=6.0, seed=3)
        n = len(ds.train_idx)
        widths = [1, 7, 64, 100, n + 1]
        assert n == 333
        pin_products(monkeypatch)
        for i, score in enumerate(widths):
            monkeypatch.setattr("hnf.trainer.SCORE_BLOCK", score)
            monkeypatch.setattr("hnf.trainer.EVAL_BLOCK",
                                widths[(i + shift) % len(widths)])
            train_scores_match_the_report(ds, cfg)

    def test_scores_from_labels_without_one_hot_targets(self, blobs,
                                                        monkeypatch):
        """evaluate scores every map from the labels alone: with
        ``one_hot`` replaced by a stub that raises, its scores are
        unchanged."""
        net, maps, _ = train(blobs, TrainConfig(n1=16, depth=2, seed=1))
        want = [evaluate(net, maps, blobs, s) for s in ("train", "test")]

        def refuse(*_):
            raise AssertionError("evaluate formed one-hot targets")

        monkeypatch.setattr("hnf.data.one_hot", refuse)
        assert [evaluate(net, maps, blobs, s) for s in ("train", "test")
                ] == want

    def test_missing_layer_is_state_error(self, blobs):
        cfg = TrainConfig(n1=16, depth=1, seed=1)
        net, maps, _ = train(blobs, cfg)
        beyond = OutputMap(maps[1].matrix, 1.0, 0.0, net.depth + 1)
        with pytest.raises(StateError):
            evaluate(net, [*maps, beyond], blobs)

    def test_layer_one_behind_a_front_is_state_error(self, blobs):
        net, maps, _ = train(blobs, TrainConfig(n1=32, depth=2, elm_front=True,
                                                seed=4))
        layer1 = OutputMap(np.zeros((3, 32)), 1.0, 0.0, 1)
        with pytest.raises(StateError, match=r"layers \[0, 1, 2\]"):
            evaluate(net, [*maps, layer1], blobs)

    def test_elm_baseline_uses_front_features(self, blobs, monkeypatch):
        """Behind an ELM front, the baseline and every later map score on
        the train split exactly as the report has them, over 2048-column
        train blocks of a Letter-shape run, walked 1024 columns at a time,
        and 64-column blocks of blobs, walked 24 or 128 at a time. The
        train walk forms the front with one product over all train columns
        and ``evaluate`` with one per block, so exact equality here relies
        on the BLAS computing each column of a product in the same order
        whatever the column count; it does not follow from the code
        (:meth:`TestEvaluate.test_drawn_widths_keep_the_report_s_scores`
        pins that order)."""
        train_scores_match_the_report(letter_shape(), TrainConfig(
            n1=32, depth=2, elm_front=True, seed=4))
        monkeypatch.setattr("hnf.trainer.SCORE_BLOCK", 64)
        for width in (24, 128):
            monkeypatch.setattr("hnf.trainer.EVAL_BLOCK", width)
            for cfg in (TrainConfig(n1=32, depth=2, elm_front=True, seed=4),
                        TrainConfig(n1=24, depth=3, seed=3, elm_front=True,
                                    elm_activation="sigmoid",
                                    standardize=True)):
                train_scores_match_the_report(blobs, cfg)

    @pytest.mark.parametrize("cfg", [
        TrainConfig(n1=16, depth=3, seed=1),
        TrainConfig(n1=16, depth=3, seed=2, standardize=True),
        TrainConfig(n1=24, depth=3, seed=3, elm_front=True, weight_kind="dct"),
    ], ids=["plain", "standardize", "elm-dct"])
    def test_report_test_acc_is_evaluates(self, blobs, cfg):
        net, maps, report = train(blobs, cfg)
        transform = report.transform
        scores = evaluate(net, maps, blobs, "test", transform)
        assert sorted(scores) == [r.layer for r in report.rows()]
        for rec in report.rows():
            assert rec.test_acc == scores[rec.layer].accuracy

    def test_walk_stops_at_the_deepest_map(self, blobs, monkeypatch):
        net, maps, _ = train(blobs, TrainConfig(n1=16, depth=3, seed=1))
        calls = count_walk(monkeypatch)
        assert list(evaluate(net, maps[:3], blobs)) == [0, 1, 2]
        assert len(calls) == 2

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("cfg", [
        TrainConfig(n1=16, depth=3, seed=2, standardize=True),
        TrainConfig(n1=24, depth=3, seed=3, elm_front=True,
                    elm_activation="sigmoid"),
    ], ids=["standardize", "elm-sigmoid"])
    def test_blocks_match_a_one_block_reference(self, blobs, monkeypatch,
                                                cfg, split):
        """Walked 7 columns at a time, each map's cost is within 1e-12 of
        sample_cost over the whole split, and its accuracy is exact."""
        net, maps, report = train(blobs, cfg)
        transform = report.transform
        idx = blobs.train_idx if split == "train" else blobs.test_idx
        x, t = blobs.columns(idx, transform), blobs.targets(idx)
        monkeypatch.setattr("hnf.trainer.EVAL_BLOCK", 7)
        scores = evaluate(net, maps, blobs, split, transform)
        assert sorted(scores) == [m.layer_index for m in maps]
        for (layer, feats), m in zip(walk(net, x), maps):
            want = sample_cost(t, m.matrix, feats)
            assert abs(scores[layer].cost - want) <= 1e-12 * want
            assert scores[layer].accuracy == accuracy(m.matrix @ feats, t)

    def test_empty_split_scores_nan(self, blobs):
        net, maps, _ = train(blobs, TrainConfig(n1=16, depth=2, seed=1))
        empty = Dataset(blobs.X, blobs.labels, blobs.label_names,
                        np.arange(blobs.n_samples), np.arange(0), blobs.meta)
        scores = evaluate(net, maps, empty, "test")
        assert sorted(scores) == [0, 1, 2]
        for ev in scores.values():
            assert math.isnan(ev.cost) and math.isnan(ev.accuracy)

    def test_peak_is_one_block_of_the_widest_features(self):
        """Over at least four blocks, evaluate holds the features of the
        widest layer it runs on EVAL_BLOCK columns: the last layer's for
        every map, layer 1's (a quarter of those) for maps up to layer 1.
        1 MiB covers a block's inputs and targets, and each map's vector of
        per-column errors on the split (8 bytes a column, 64 KiB here)."""
        ds = make_synthetic_blobs(4, 2, 6 * SCORE_BLOCK, separation=3.0,
                                  seed=1)
        assert len(ds.train_idx) >= 4 * SCORE_BLOCK
        net, maps, _ = train(ds, TrainConfig(n1=16, depth=3, seed=1))
        for upto in (3, 1):
            scores, peak = oracles.traced_peak(evaluate, net, maps[:upto + 1],
                                               ds, "train")
            assert sorted(scores) == list(range(upto + 1))
            assert peak <= (net.layers[upto - 1].out_dim * EVAL_BLOCK * 8
                            + 2 ** 20)


#: The reference trainer's runs: a config, and the train pass's block
#: width (None: one block of all 200 train columns).
REFERENCE_CASES = pytest.mark.parametrize("cfg, block", [
    (TrainConfig(n1=8, depth=4, seed=1), None),
    (TrainConfig(n1=8, depth=4, seed=1), 64),
    (TrainConfig(n1=8, depth=3, seed=2, weight_kind="dct"), None),
    (TrainConfig(n1=12, depth=3, seed=3, elm_front=True), None),
    (TrainConfig(n1=12, depth=4, seed=3, elm_front=True,
                 elm_activation="sigmoid"), 64),
    (TrainConfig(n1=8, depth=4, seed=4, eps_schedule="doubling"), None),
    (TrainConfig(n1=8, depth=3, seed=5, standardize=True), None),
], ids=["random", "random-blocks", "dct", "elm-relu", "elm-sigmoid",
        "doubling", "standardize"])


class TestReferenceTrainer:
    @REFERENCE_CASES
    def test_train_matches_the_reference_trainer(self, monkeypatch, cfg,
                                                 block):
        """``train`` never forms the expanded features: it builds each Gram
        in the u basis, carries part of it through the weight and rotates
        each map back to y. :func:`oracles.reference_train` forms every
        layer's features, witness and radius explicitly and solves each
        layer by bisection. On 200 train columns, walked in one block or
        in 64-column blocks, each map's cost agrees within 1e-9 relative,
        its radius (the reference's, from its own previous map) within
        1e-12, and, where the ball binds, the map within what float32
        ``|z|`` products allow (:func:`float32_moves`) of its norm; so do
        the fallbacks and the certificate."""
        if block is not None:
            monkeypatch.setattr("hnf.trainer.SCORE_BLOCK", block)
        data = make_synthetic_blobs(6, 3, 300, separation=3.0, seed=5)
        assert len(data.train_idx) == 200
        _, maps, report = train(data, cfg)
        _, ref, certified = oracles.reference_train(data, cfg)
        assert certified == report.monotonicity_certified
        assert [m.layer_index for m in maps] == [r.layer for r in ref]
        assert sum(r.active for r in ref) == len(ref) - 1
        for m, r in zip(maps, ref):
            assert abs(m.train_cost - r.cost) <= 1e-9 * r.cost
            assert m.epsilon == r.epsilon or (
                abs(m.epsilon - r.epsilon) <= 1e-12 * r.epsilon)
            assert ("fallback" in m.solver) == r.fallback
            if r.active:
                rho, _ = float32_moves(r.spectrum, m, 200, min(200, block or
                                                               SCORE_BLOCK))
                assert (np.linalg.norm(m.matrix - r.matrix)
                        <= rho * np.linalg.norm(r.matrix))

    @REFERENCE_CASES
    @pytest.mark.parametrize("duplicate", [False, True],
                             ids=["distinct", "duplicate-row"])
    def test_spectral_path_matches_the_reference_trainer(
            self, monkeypatch, cfg, block, duplicate):
        """With every factorization failing, each ball is solved on G's
        spectrum, whose float64 cutoff drops directions the float32 ``|z|``
        sums can leave below it, negative ones too; once Newton's
        multiplier reaches the Cholesky path's floor it reads them again,
        as that path does. So each cost agrees with the reference within
        1e-9 relative, with and without a duplicated input row, and so do
        the fallbacks and the certificate. (Dropped for good, they moved
        costs by up to 1.6e-8 relative here, and a cutoff at float32's unit
        roundoff by up to 6.6e-3.)"""
        if block is not None:
            monkeypatch.setattr("hnf.trainer.SCORE_BLOCK", block)
        data = make_synthetic_blobs(6, 3, 300, separation=3.0, seed=5)
        if duplicate:
            data = replace(data, X=np.vstack([data.X, data.X[:1]]))
        lapack = hnf.solvers._lapack()  # each factor fails after it is formed
        real = lapack.dpotrf
        monkeypatch.setattr(lapack, "dpotrf", lambda *a, **kw: (
            real(*a, **kw)[0], 1))
        _, maps, report = train(data, cfg)
        _, ref, certified = oracles.reference_train(data, cfg)
        assert certified == report.monotonicity_certified
        for m, r in zip(maps, ref):
            assert m.solver["method"] == "eigh"
            assert abs(m.train_cost - r.cost) <= 1e-9 * r.cost
            assert ("fallback" in m.solver) == r.fallback


#: The metamorphic relations' runs, on Letter-shape blobs.
RELATION_CONFIGS = pytest.mark.parametrize("cfg", [
    TrainConfig(n1=32, depth=2, seed=1),
    TrainConfig(n1=32, depth=2, seed=1, weight_kind="dct"),
    TrainConfig(n1=32, depth=3, seed=4, elm_front=True, standardize=True),
], ids=["plain", "dct", "elm-standardize"])


class TestMetamorphicRelations:
    """Relabellings the paper's cost is blind to: a cost is a mean over the
    train columns, and it treats every class alike."""

    @RELATION_CONFIGS
    def test_permuting_the_columns_keeps_costs(self, cfg):
        """Shuffled columns, each kept in its split, give each split's
        columns in another order; every cost stays within 1e-10 relative
        and every accuracy is the same."""
        ds = letter_shape()
        perm = np.random.Generator(np.random.PCG64(5)).permutation(
            ds.n_samples)
        at = np.argsort(perm)  # where each old column lands
        moved = Dataset(ds.X[:, perm], ds.labels[perm], ds.label_names,
                        np.sort(at[ds.train_idx]), np.sort(at[ds.test_idx]),
                        ds.meta)
        assert not np.array_equal(perm[moved.train_idx], ds.train_idx)
        (_, _, want), (_, _, got) = train(ds, cfg), train(moved, cfg)
        assert got.monotonicity_certified
        for a, b in zip(want.rows(), got.rows()):
            assert abs(b.train_cost - a.train_cost) <= 1e-10 * a.train_cost
            assert (b.train_acc, b.test_acc) == (a.train_acc, a.test_acc)

    @RELATION_CONFIGS
    def test_permuting_the_classes_permutes_the_maps(self, cfg):
        """Classes renumbered by a permutation s give maps whose row s(c)
        is the first run's row c, within 1e-12 of the map's norm, and every
        cost within 1e-12 relative."""
        ds = letter_shape()
        s = np.random.Generator(np.random.PCG64(6)).permutation(ds.n_classes)
        names = [ds.label_names[c] for c in np.argsort(s)]
        renamed = replace(ds, labels=s[ds.labels], label_names=names)
        (_, want, _), (_, got, _) = train(ds, cfg), train(renamed, cfg)
        for a, b in zip(want, got):
            assert (np.linalg.norm(b.matrix[s] - a.matrix)
                    <= 1e-12 * np.linalg.norm(a.matrix)), a.layer_index
            assert abs(b.train_cost - a.train_cost) <= 1e-12 * a.train_cost


class TestVerifyInvariants:
    def test_fresh_net_passes(self, blobs):
        cfg = TrainConfig(n1=16, depth=3, seed=1)
        net, _, _ = train(blobs, cfg)
        rep = verify_invariants(net, blobs, trials=50, seed=0)
        assert rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert by_name["distance_sandwich_lower"].worst_margin >= 0
        assert by_name["inversion_round_trip"].violations == 0

    def test_zero_trials_rejected(self, blobs):
        cfg = TrainConfig(n1=16, depth=1, seed=1)
        net, _, _ = train(blobs, cfg)
        with pytest.raises(ParameterError):
            verify_invariants(net, blobs, trials=0)

    def test_empty_dataset_is_data_error(self, monkeypatch):
        """A dataset with no samples is named before anything is drawn."""
        empty = Dataset(np.zeros((8, 0)), np.arange(0), ["a", "b", "c"],
                        np.arange(0), np.arange(0), {"source": "empty.csv"})
        net = build_chain(8, 16, 2)
        monkeypatch.setattr("numpy.random.Generator", None)  # no draw
        with pytest.raises(DataError, match="empty.csv"):
            verify_invariants(net, empty, trials=5)

    def test_elm_front_checks_subchain(self, blobs):
        cfg = TrainConfig(n1=32, depth=2, elm_front=True, seed=4)
        net, _, _ = train(blobs, cfg)
        rep = verify_invariants(net, blobs, trials=20, seed=0)
        assert rep.passed

    def test_reduced_perturbation_has_the_dense_law(self):
        """||dW q||^2 / (||dW||_F^2 ||q||^2) for dW = r G / ||G||_F, G an
        i.i.d. N(0, 1) n x m matrix, against ||xi||^2 / (||xi||^2 + c) with
        xi ~ N(0, I_n) and c ~ chi^2 on n (m - 1) degrees of freedom."""
        n, m, draws = 40, 30, 20000
        rng = np.random.Generator(np.random.PCG64(11))
        q = rng.standard_normal(m)
        dense = np.concatenate([
            np.sum((g @ q) ** 2, axis=1) / np.sum(g * g, axis=(1, 2))
            for g in (rng.standard_normal((1000, n, m))
                      for _ in range(draws // 1000))]) / (q @ q)
        xi2 = np.sum(rng.standard_normal((draws, n)) ** 2, axis=1)
        c = 2.0 * rng.standard_gamma(n * (m - 1) / 2, size=draws)
        assert scipy.stats.ks_2samp(dense, xi2 / (xi2 + c)).pvalue > 0.01

    def test_planted_violation_counted_on_every_trial(self, blobs, monkeypatch):
        """With the check's expansion (the one formed into no buffer)
        negated and scaled by 1.5, the perturbed output of an orthonormal
        layer sits at least ||q|| from the walk's nonnegative one, beyond
        every bound r^2 ||q||^2, r <= 1."""
        real = HnfLayer.features
        monkeypatch.setattr(HnfLayer, "features", lambda l, z, out=None: (
            real(l, z, out) if out is not None else -1.5 * real(l, z)))
        net = build_chain(8, 16, 3, seed=1)
        trials = VERIFY_BLOCK + 44
        rep = verify_invariants(net, blobs, trials=trials, seed=9)
        assert [c.violations for c in rep.checks] == [0, 0, 0, 0, trials]
        assert rep.checks[4].worst_margin < 0

    def test_fan_in_one_and_zero_inputs(self):
        """A layer of fan-in 1 (its chi-square has 0 degrees of freedom)
        and all-zero input columns, whose perturbations are all 0, give
        finite margins and no violation."""
        x = make_synthetic_blobs(1, 3, 400, separation=6.0, seed=3)
        zeroed = x.X.copy()
        zeroed[:, ::2] = 0.0
        data = Dataset(zeroed, x.labels, x.label_names, x.train_idx,
                       x.test_idx, x.meta)
        net = build_network(1, TrainConfig(n1=4, depth=3, seed=1), 400)
        rep = verify_invariants(net, data, trials=VERIFY_BLOCK + 44, seed=9)
        assert rep.passed
        assert all(math.isfinite(c.worst_margin) for c in rep.checks)
        assert rep.checks[4].worst_margin == 0.0

    def test_front_runs_on_the_drawn_columns_only(self, blobs, monkeypatch):
        """An ELM front's features are computed per trial block, on the
        columns it draws, not on every column of the data."""
        widths = count_walk(monkeypatch)
        front = HnfLayer(make_raw_gaussian(20, 8, seed=2), expand=False)
        net = HnfNetwork((front, *build_chain(20, 20, 2, seed=3).layers))
        assert verify_invariants(net, blobs, trials=VERIFY_BLOCK + 44).passed
        assert widths and max(widths) <= VERIFY_BLOCK < blobs.n_samples

    @pytest.mark.parametrize("kind", ["random", "dct", "elm", "elm_sigmoid",
                                      "rank_deficient", "inner_sigmoid",
                                      "elm_inner_sigmoid"])
    def test_batched_matches_per_pair_reference(self, blobs, kind):
        if kind in ("elm", "elm_sigmoid"):  # the reference fronts every column
            front = HnfLayer(make_raw_gaussian(20, 8, seed=2), expand=False,
                             activation="sigmoid" if kind == "elm_sigmoid"
                             else "relu")
            net = HnfNetwork((front, *build_chain(20, 20, 2, seed=3).layers))
        elif kind == "inner_sigmoid":  # only a hand-written manifest has one
            inner = HnfLayer(make_raw_gaussian(12, 32, seed=2), expand=False,
                             activation="sigmoid")
            net = HnfNetwork((*build_chain(8, 16, 1, seed=1).layers, inner,
                              *build_chain(12, 12, 1, seed=3).layers))
        elif kind == "elm_inner_sigmoid":  # the checks start on a front too
            front = HnfLayer(make_raw_gaussian(20, 8, seed=2), expand=False)
            inner = HnfLayer(make_raw_gaussian(12, 20, seed=4), expand=False,
                             activation="sigmoid")
            net = HnfNetwork((front, inner,
                              *build_chain(12, 12, 2, seed=3).layers))
        elif kind == "rank_deficient":
            w = make_random_orthonormal(16, 8, seed=1)
            entries = w.entries.copy()
            entries[:, 1] = entries[:, 0]
            bad = WeightMatrix(16, 8, entries, w.kind, w.seed)
            net = HnfNetwork((HnfLayer(bad), *build_chain(32, 32, 1).layers))
        else:
            net = build_chain(8, 16, 3, kind=kind, seed=1)
        trials = VERIFY_BLOCK + 44
        rep = verify_invariants(net, blobs, trials=trials, seed=9)
        ref = oracles.verify_reference(net, blobs.X, trials, 9, VERIFY_BLOCK)
        assert [c.name for c in rep.checks] == list(ref)
        for chk in rep.checks:
            viol, margin, checked = ref[chk.name]
            assert chk.count == checked, chk.name
            assert chk.violations == viol, chk.name
            if math.isnan(margin):
                assert math.isnan(chk.worst_margin), chk.name
            else:
                assert abs(chk.worst_margin - margin) <= 1e-12, chk.name
        if kind in ("rank_deficient", "inner_sigmoid", "elm_inner_sigmoid"):
            assert rep.checks[3].violations == trials


class TestReportSerialization:
    def test_jsonl_and_csv(self, tmp_path, blobs):
        cfg = TrainConfig(n1=16, depth=2, seed=1)
        _, _, report = train(blobs, cfg)
        save_report(report, tmp_path)
        jpath = tmp_path / "report.jsonl"
        cpath = tmp_path / "report.csv"

        lines = jpath.read_text().splitlines()
        assert len(lines) == 3
        rows = [json.loads(line) for line in lines]
        assert rows[0]["layer"] == 0
        assert rows[0]["epsilon"] is None
        assert rows[1]["epsilon"] > 0
        assert rows[1]["train_cost"] == report.per_layer[0].train_cost

        csv_lines = cpath.read_text().splitlines()
        assert csv_lines[0].startswith("layer,nodes_cumulative")
        assert len(csv_lines) == 4

    def test_accuracy_tie_breaks_low(self):
        pred = np.array([[1.0, 0.5], [1.0, 0.5]])
        err = np.full(2, np.nan)
        # targets e_0, e_1: the tie in column 0 goes to class 0, a hit;
        # column 0's squared error is 0 + 1, column 1's 0.25 + 0.25
        assert block_score(np.eye(2), pred, np.array([0, 1]), err) == 1
        assert err.tolist() == [1.0, 0.5]


class TestCertificationInternals:
    def test_witness_dominance_recorded(self, blobs):
        cfg = TrainConfig(n1=16, depth=3, seed=1)
        _, maps, _ = train(blobs, cfg)
        for om in maps[1:]:
            assert math.isfinite(om.epsilon)
            assert float(np.sum(om.matrix ** 2)) <= om.epsilon * (1 + 1e-12)
