import json
import math

import numpy as np
import pytest

import hnf.layers
import hnf.trainer
from hnf.data import make_synthetic_blobs
from hnf.errors import ConfigError, ParameterError, ResourceError, StateError
from hnf.layers import HnfLayer, HnfNetwork, vn_expand
from hnf.matrixgen import (
    WeightMatrix,
    make_random_orthonormal,
    make_raw_gaussian,
)
from hnf.solvers import (
    OutputMap,
    embed_previous_map,
    epsilon_budget,
    least_squares,
)
from hnf.trainer import (
    MONOTONE_SLACK,
    VERIFY_BLOCK,
    TrainConfig,
    accuracy,
    build_network,
    evaluate,
    train,
    verify_invariants,
)

import oracles
from conftest import build_chain


@pytest.fixture(scope="module")
def blobs():
    return make_synthetic_blobs(8, 3, 500, separation=6.0, seed=3)


def monotone(costs, slack=1e-8):
    return all(b <= a + slack * (1.0 + a) for a, b in zip(costs, costs[1:]))


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
        baseline = least_squares(blobs.X_train, blobs.T_train)
        eps = epsilon_budget(baseline, w)
        feats = vn_expand(w.entries @ blobs.X_train)
        direct = least_squares(feats, blobs.T_train, eps)
        expect = direct.matrix
        if direct.train_cost > maps[1].train_cost:
            pytest.fail("trainer should never beat the identical solve")
        assert np.array_equal(maps[1].matrix, expect)
        assert report.per_layer[0].epsilon == pytest.approx(eps, rel=1e-12)

    def test_n1_below_input_dim_rejected(self, blobs):
        with pytest.raises(ConfigError):
            train(blobs, TrainConfig(n1=4, depth=1))

    def test_depth_zero_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(n1=16, depth=0)

    def test_deterministic_reports(self, blobs):
        cfg = TrainConfig(n1=16, depth=2, seed=5)
        _, _, a = train(blobs, cfg)
        _, _, b = train(blobs, cfg)
        for ra, rb in zip(a.rows(), b.rows()):
            da, db = ra.as_dict(), rb.as_dict()
            da.pop("wall_ms"), db.pop("wall_ms")
            assert da == db

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

    def test_memory_budget_names_layer(self, blobs):
        cfg = TrainConfig(n1=16, depth=3, seed=1, memory_budget=200_000)
        with pytest.raises(ResourceError, match="layer"):
            train(blobs, cfg)

    def test_memory_budget_checked_before_any_solve(self, blobs,
                                                     monkeypatch):
        calls = []
        monkeypatch.setattr("hnf.trainer.least_squares",
                            lambda *a, **k: calls.append(a))
        # layers 1-3 need 129024, 265216 and 553984 bytes on 500 columns
        cfg = TrainConfig(n1=16, depth=3, seed=1, memory_budget=300_000)
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
        # layer 3 needs 553984 bytes on 500 columns; layers 3-6 have
        # widths 64, 128, 256 and 512
        cfg = TrainConfig(n1=16, depth=6, weight_kind=kind, seed=1,
                          memory_budget=300_000)
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
        # on 20 columns the features of layer 5 take 40960 bytes, but the
        # weights of layers 1-5 take 174336 (widths 8 to 128)
        cfg = TrainConfig(n1=8, depth=6, memory_budget=100_000)
        with pytest.raises(ResourceError, match="layer 5"):
            train(small, cfg)
        assert built == [8, 16, 32, 64]

    def test_standardize_recorded(self, blobs):
        cfg = TrainConfig(n1=16, depth=1, seed=1, standardize=True)
        _, _, report = train(blobs, cfg)
        params = report.meta["standardize_params"]
        assert params is not None
        assert len(params["mu"]) == blobs.input_dim
        assert report.monotonicity_certified

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
        monkeypatch.setattr(
            "hnf.trainer.embed_previous_map",
            lambda o_prev, w: 0.5 * embed_previous_map(o_prev, w))
        _, maps, report = train(blobs, TrainConfig(n1=16, depth=3, seed=1))
        assert not report.monotonicity_certified
        assert abs(maps[1].solver["witness_drift"]) > MONOTONE_SLACK

    def test_elm_front_with_dct_tail(self, blobs):
        cfg = TrainConfig(n1=24, depth=3, weight_kind="dct",
                          elm_front=True, seed=2)
        net, _, report = train(blobs, cfg)
        assert net.has_front
        assert all(l.weight.kind.name == "DCT_ORTHONORMAL"
                   for l in net.layers[1:])
        assert report.monotonicity_certified
        assert monotone([r.train_cost for r in report.rows()])


class TestEvaluate:
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
        labels = np.argmax(blobs.T_test, axis=0)
        freq0 = float(np.mean(labels == 0))
        ev = evaluate(net, [maps[0], zero], blobs)[1]
        assert ev.accuracy == pytest.approx(freq0)

    def test_train_split_cost_matches_solver(self, blobs):
        cfg = TrainConfig(n1=16, depth=2, seed=1)
        net, maps, report = train(blobs, cfg)
        scores = evaluate(net, maps, blobs, split="train")
        for layer, rec in enumerate(report.per_layer, start=1):
            assert scores[layer].cost == pytest.approx(rec.train_cost, rel=1e-9)
        assert scores[0].cost == pytest.approx(report.baseline.train_cost,
                                               rel=1e-9)

    def test_missing_layer_is_state_error(self, blobs):
        cfg = TrainConfig(n1=16, depth=1, seed=1)
        net, maps, _ = train(blobs, cfg)
        beyond = OutputMap(maps[1].matrix, 1.0, 0.0, net.depth + 1)
        with pytest.raises(StateError):
            evaluate(net, [*maps, beyond], blobs)

    def test_elm_baseline_uses_front_features(self, blobs):
        cfg = TrainConfig(n1=32, depth=2, elm_front=True, seed=4)
        net, maps, report = train(blobs, cfg)
        ev = evaluate(net, maps, blobs, split="train")[0]
        assert ev.cost == pytest.approx(report.baseline.train_cost, rel=1e-9)

    @pytest.mark.parametrize("cfg", [
        TrainConfig(n1=16, depth=3, seed=1),
        TrainConfig(n1=16, depth=3, seed=2, standardize=True),
        TrainConfig(n1=24, depth=3, seed=3, elm_front=True, weight_kind="dct"),
    ], ids=["plain", "standardize", "elm-dct"])
    def test_report_test_acc_is_evaluates(self, blobs, cfg):
        net, maps, report = train(blobs, cfg)
        std = report.meta["standardize_params"]
        transform = std and (np.array(std["mu"])[:, None],
                             np.array(std["sigma"])[:, None])
        scores = evaluate(net, maps, blobs, "test", transform)
        assert sorted(scores) == [r.layer for r in report.rows()]
        for rec in report.rows():
            assert rec.test_acc == scores[rec.layer].accuracy

    def test_walk_stops_at_the_deepest_map(self, blobs, monkeypatch):
        net, maps, _ = train(blobs, TrainConfig(n1=16, depth=3, seed=1))
        calls = []
        real = hnf.layers.layer_forward
        monkeypatch.setattr("hnf.layers.layer_forward",
                            lambda *a: calls.append(1) or real(*a))
        assert list(evaluate(net, maps[:3], blobs)) == [0, 1, 2]
        assert len(calls) == 2


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

    def test_elm_front_checks_subchain(self, blobs):
        cfg = TrainConfig(n1=32, depth=2, elm_front=True, seed=4)
        net, _, _ = train(blobs, cfg)
        rep = verify_invariants(net, blobs, trials=20, seed=0)
        assert rep.passed

    @pytest.mark.parametrize("kind", ["random", "dct", "elm", "rank_deficient"])
    def test_batched_matches_per_pair_reference(self, blobs, kind):
        if kind == "elm":
            front = HnfLayer(make_raw_gaussian(20, 8, seed=2), expand=False)
            net = HnfNetwork((front, *build_chain(20, 20, 2, seed=3).layers))
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
            viol, margin = ref[chk.name]
            assert chk.count == trials
            assert chk.violations == viol, chk.name
            if math.isnan(margin):
                assert math.isnan(chk.worst_margin), chk.name
            else:
                assert abs(chk.worst_margin - margin) <= 1e-12, chk.name
        if kind == "rank_deficient":
            assert rep.checks[3].violations == trials


class TestReportSerialization:
    def test_jsonl_and_csv(self, tmp_path, blobs):
        cfg = TrainConfig(n1=16, depth=2, seed=1)
        _, _, report = train(blobs, cfg)
        jpath = tmp_path / "report.jsonl"
        cpath = tmp_path / "report.csv"
        report.to_jsonl(jpath)
        report.to_csv(cpath)

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
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(pred, t) == 0.5


class TestCertificationInternals:
    def test_witness_dominance_recorded(self, blobs):
        cfg = TrainConfig(n1=16, depth=3, seed=1)
        _, maps, _ = train(blobs, cfg)
        for om in maps[1:]:
            assert math.isfinite(om.epsilon)
            assert float(np.sum(om.matrix ** 2)) <= om.epsilon * (1 + 1e-6)
