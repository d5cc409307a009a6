"""Acceptance gate: every criterion at its stated tolerance.

One test per criterion (8 and 9 need the Letter/Shuttle files; see
scripts/fetch_datasets.sh and README for placement, or set HNF_DATA_DIR).
A one-line PASS/FAIL/SKIP summary per criterion prints at the end of the
pytest run.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from hnf.data import (
    load_csv,
    load_idx,
    make_synthetic_blobs,
    merge_train_test,
    split_dataset,
)
from hnf.layers import (
    HnfLayer,
    network_invert,
    vn_expand,
    walk,
)
from hnf.matrixgen import make_dct_orthonormal, make_random_orthonormal
from hnf.solvers import OutputMap, embed_previous_map
from hnf.trainer import TrainConfig, build_network, train

import oracles
from conftest import build_chain, solve
from oracles import sample_cost

DATA_DIR = Path(os.environ.get("HNF_DATA_DIR",
                               Path(__file__).parent.parent / "data"))
LETTER_PATH = DATA_DIR / "letter-recognition.data"
SHUTTLE_TRAIN = DATA_DIR / "shuttle.trn"
SHUTTLE_TEST = DATA_DIR / "shuttle.tst"

needs_letter = pytest.mark.skipif(
    not LETTER_PATH.is_file(),
    reason=f"Letter dataset not present at {LETTER_PATH}; "
           "run scripts/fetch_datasets.sh on a networked machine "
           "or point HNF_DATA_DIR at it",
)
needs_shuttle = pytest.mark.skipif(
    not (SHUTTLE_TRAIN.is_file() and SHUTTLE_TEST.is_file()),
    reason=f"Shuttle dataset not present under {DATA_DIR}; "
           "run scripts/fetch_datasets.sh on a networked machine "
           "or point HNF_DATA_DIR at it",
)


def load_letter():
    ds = load_csv(LETTER_PATH, label_column=0)
    assert ds.input_dim == 16 and ds.n_classes == 26
    assert ds.n_samples == 20000
    return split_dataset(ds, 13333, seed=0)


def test_c01_monotone_cost_chain_blobs():
    """Train-cost sequence non-increasing (slack 1e-8), certified, for both
    weight kinds, both budget schedules, seeds {1,2,3}, depth 4; < 30 s."""
    blobs = make_synthetic_blobs(8, 3, 600, separation=10.0, seed=1)
    t0 = time.perf_counter()
    for kind in ("random", "dct"):
        for schedule in ("exact", "doubling"):
            for seed in (1, 2, 3):
                cfg = TrainConfig(n1=16, depth=4, weight_kind=kind,
                                  seed=seed, eps_schedule=schedule)
                _, maps, report = train(blobs, cfg)
                assert report.monotonicity_certified, (kind, schedule, seed)
                costs = [r.train_cost for r in report.rows()]
                for prev, cur in zip(costs, costs[1:]):
                    assert cur <= prev + 1e-8 * (1.0 + prev), \
                        (kind, schedule, seed, costs)
                for om in maps[1:]:
                    assert om.solver["witness_cost"] >= om.train_cost - 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"


def test_c02_norm_preservation():
    """||last features||^2 == ||x||^2 within 1e-9 relative for 1000 random
    inputs through a depth-4 orthonormal chain; < 5 s."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(2))
    net = build_chain(8, 16, 4, seed=7)
    x = rng.standard_normal((8, 1000))
    *_, (_, last) = walk(net, x)
    in2 = np.sum(x * x, axis=0)
    out2 = np.sum(last ** 2, axis=0)
    rel = np.abs(out2 - in2) / in2
    assert float(np.max(rel)) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s"


def test_c03_distance_sandwich_and_exact_identity():
    """For 1e5 random pairs across depths 1..4: squared feature distance in
    [d2 / 2^l, d2] with 1e-9 relative slack, and the exact split identity
    ||y1-y2||^2 = 0.5||z1-z2||^2 + 0.5|| |z1|-|z2| ||^2 to 1e-12."""
    rng = np.random.Generator(np.random.PCG64(3))
    pairs_per_depth = 25_000
    for depth in (1, 2, 3, 4):
        net = build_chain(6, 8, depth, seed=depth)
        x1 = rng.standard_normal((6, pairs_per_depth))
        x2 = rng.standard_normal((6, pairs_per_depth))
        d2 = np.sum((x1 - x2) ** 2, axis=0)

        f1, f2 = x1, x2
        for l, layer in enumerate(net.layers, start=1):
            z1 = layer.weight.entries @ f1
            z2 = layer.weight.entries @ f2
            f1 = vn_expand(z1)
            f2 = vn_expand(z2)
            dl2 = np.sum((f1 - f2) ** 2, axis=0)

            lower = d2 / 2 ** l
            assert not np.any(dl2 < lower - 1e-9 * d2), f"depth {depth} l {l}"
            assert not np.any(dl2 > d2 + 1e-9 * d2), f"depth {depth} l {l}"

            split = (0.5 * np.sum((z1 - z2) ** 2, axis=0)
                     + 0.5 * np.sum((np.abs(z1) - np.abs(z2)) ** 2, axis=0))
            tol = 1e-12 * np.maximum(1.0, split)
            assert np.all(np.abs(dl2 - split) <= tol), f"depth {depth} l {l}"


def test_c04_invertibility_round_trip():
    """Reconstruction within 1e-6 relative error over 1000 inputs, depth 4,
    both weight kinds."""
    rng = np.random.Generator(np.random.PCG64(4))
    for kind in ("random", "dct"):
        net = build_chain(8, 16, 4, kind=kind, seed=11)
        x = rng.standard_normal((8, 1000))
        *_, (_, ybar) = walk(net, x)
        x_rec = network_invert(net, ybar)
        rel = np.linalg.norm(x_rec - x, axis=0) / np.linalg.norm(x, axis=0)
        assert float(np.max(rel)) <= 1e-6, kind


def test_c05a_constrained_solve_feasibility():
    """Every returned map satisfies its ball constraint within 1e-12."""
    rng = np.random.Generator(np.random.PCG64(50))
    for trial in range(25):
        d = int(rng.integers(2, 21))
        n = int(rng.integers(d, 201))
        q = int(rng.integers(1, 6))
        y = rng.standard_normal((d, n))
        t = rng.standard_normal((q, n))
        eps = float(rng.uniform(0.01, 5.0))
        om = solve(y, t, eps)
        assert float(np.sum(om.matrix ** 2)) <= eps * (1 + 1e-12)


def test_c05b_constrained_solve_matches_dual_oracle():
    """On 50 random small instances (d<=20, N<=200), the exact solve's cost
    is within 1e-9 relative of the independent dual-bisection oracle."""
    rng = np.random.Generator(np.random.PCG64(2024))
    for trial in range(50):
        d = int(rng.integers(2, 21))
        n = int(rng.integers(d, 201))
        q = int(rng.integers(1, 6))
        y = rng.standard_normal((d, n))
        t = rng.standard_normal((q, n))
        o_ls = solve(y, t)
        eps = float(np.sum(o_ls.matrix ** 2)) * rng.uniform(0.05, 1.5)
        om = solve(y, t, eps)
        assert float(np.sum(om.matrix ** 2)) <= eps * (1 + 1e-12)
        _, oracle_cost = oracles.constrained_ls_oracle(y, t, eps)
        assert om.train_cost <= oracle_cost * (1 + 1e-9), f"instance {trial}"


def test_c05c_witness_dominance_at_production_setting():
    """Raw constrained-solve cost <= embedded-witness cost + 1e-8 on every
    layer solve of the criterion-1 grid, rebuilt outside the trainer."""
    blobs = make_synthetic_blobs(8, 3, 600, separation=10.0, seed=1)
    x, t = blobs.columns(blobs.train_idx), blobs.targets(blobs.train_idx)
    for kind in ("random", "dct"):
        for seed in (1, 2, 3):
            cfg = TrainConfig(n1=16, depth=4, weight_kind=kind, seed=seed)
            prev_map = solve(x, t)
            feats = x
            net = build_network(8, cfg, blobs.n_samples)
            for layer_no, layer in enumerate(net.layers, 1):
                w = layer.weight
                witness, eps = embed_previous_map(prev_map, w)
                assert float(np.sum(witness ** 2)) <= eps * (1 + 1e-9)
                feats = vn_expand(w.entries @ feats)
                witness_cost = sample_cost(t, witness, feats)
                om = solve(feats, t, eps)
                assert om.train_cost <= witness_cost + 1e-8, \
                    (kind, seed, layer_no)
                prev_map = om


def _wrap(matrix) -> OutputMap:
    return OutputMap(np.array(matrix, dtype=np.float64), math.inf, 0.0, 0)


def test_c06_budget_identity_vs_materialized_oracle():
    """Exact-schedule budget equals the materialized-collapse oracle, and
    2 ||O_prev||_F^2, within 1e-10 on 100 random shapes (random and DCT
    orthonormal weights)."""
    rng = np.random.Generator(np.random.PCG64(6))
    checked = 0
    for trial in range(120):
        q = int(rng.integers(1, 6))
        m = int(rng.integers(1, 9))
        n = m + int(rng.integers(0, 6))
        o_prev = rng.standard_normal((q, m))
        if trial % 2 == 0:
            w = make_random_orthonormal(n, m, seed=trial)
        else:
            w = make_dct_orthonormal(n, m)
        value = embed_previous_map(_wrap(o_prev), w)[1]
        oracle = oracles.epsilon_materialized(o_prev, w.entries)
        assert abs(value - oracle) <= 1e-10, trial
        assert abs(value - 2.0 * float(np.sum(o_prev ** 2))) <= 1e-10, trial
        checked += 1
    assert checked >= 100


def test_c07_perturbation_bound():
    """1e4 random (dW, q) trials with zero violations of
    lhs <= ||dW||_F^2 ||q||^2."""
    rng = np.random.Generator(np.random.PCG64(7))
    trials = 10_000
    layers = [HnfLayer(make_random_orthonormal(n, m, seed=n * 31 + m))
              for n, m in [(4, 3), (8, 8), (12, 5), (6, 6)]]
    violations = 0
    for i in range(trials):
        layer = layers[i % len(layers)]
        shape = layer.weight.entries.shape
        dw = rng.standard_normal(shape) * rng.uniform(1e-6, 3.0)
        q = rng.standard_normal(shape[1]) * rng.uniform(0.1, 10.0)
        if not oracles.perturbation_margin(layer, dw, q) >= 0:
            violations += 1
    assert violations == 0


@needs_letter
def test_c08_letter_reproduction():
    """Letter, n1=250, depth 3, random weights: test accuracy >= 88% and no
    layer drops train accuracy by more than 0.5 points; < 10 min."""
    t0 = time.perf_counter()
    data = load_letter()
    cfg = TrainConfig(n1=250, depth=3, weight_kind="random", seed=1)
    _, _, report = train(data, cfg)
    assert report.monotonicity_certified
    rows = report.rows()
    final_test_acc = rows[-1].test_acc
    assert final_test_acc >= 0.88, f"test accuracy {final_test_acc:.4f}"
    for prev, cur in zip(rows, rows[1:]):
        assert cur.train_acc >= prev.train_acc - 0.005, \
            [r.train_acc for r in rows]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"criterion 8 (letter) took {elapsed:.0f}s"


@needs_shuttle
def test_c08_shuttle_reproduction():
    """Shuttle (canonical split), n1=250, depth 3, random weights: test
    accuracy >= 99.0% and train accuracy never drops more than 0.5 points."""
    t0 = time.perf_counter()
    tr = load_csv(SHUTTLE_TRAIN, label_column=-1, delimiter=" ")
    te = load_csv(SHUTTLE_TEST, label_column=-1, delimiter=" ")
    data = merge_train_test(tr, te)
    assert data.input_dim == 9
    assert data.n_classes == 7
    cfg = TrainConfig(n1=250, depth=3, weight_kind="random", seed=1)
    _, _, report = train(data, cfg)
    assert report.monotonicity_certified
    rows = report.rows()
    assert rows[-1].test_acc >= 0.99, f"test accuracy {rows[-1].test_acc:.4f}"
    for prev, cur in zip(rows, rows[1:]):
        assert cur.train_acc >= prev.train_acc - 0.005, \
            [r.train_acc for r in rows]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"criterion 8 (shuttle) took {elapsed:.0f}s"


@needs_letter
def test_c09_elm_extension_letter():
    """Letter with a 1000-wide ELM front: the added layer's train cost stays
    at or below the ELM cost (certified) and test accuracy stays within 0.5
    points of the ELM's."""
    data = load_letter()
    cfg = TrainConfig(n1=1000, depth=2, elm_front=True, seed=1)
    _, maps, report = train(data, cfg)
    assert report.monotonicity_certified
    elm_row = report.baseline
    layer_row = report.per_layer[-1]
    assert layer_row.train_cost <= elm_row.train_cost + 1e-8
    assert maps[-1].solver["witness_cost"] >= maps[-1].train_cost - 1e-12
    assert layer_row.test_acc >= elm_row.test_acc - 0.005, \
        (elm_row.test_acc, layer_row.test_acc)


@pytest.mark.skipif(
    os.environ.get("HNF_RUN_MNIST") != "1"
    or not (DATA_DIR / "train-images-idx3-ubyte").is_file(),
    reason="MNIST run is optional (memory-heavy) and excluded from CI; "
           "set HNF_RUN_MNIST=1 with IDX files under the data directory",
)
def test_mnist_optional_smoke():
    train_part = load_idx(DATA_DIR / "train-images-idx3-ubyte",
                          DATA_DIR / "train-labels-idx1-ubyte")
    assert train_part.input_dim == 784 and train_part.n_classes == 10
    assert train_part.n_samples == 60000
    data = merge_train_test(
        train_part,
        load_idx(DATA_DIR / "t10k-images-idx3-ubyte",
                 DATA_DIR / "t10k-labels-idx1-ubyte"))
    cfg = TrainConfig(n1=1000, depth=2, weight_kind="random", seed=1,
                      memory_budget=8 * 1024 ** 3)
    _, _, report = train(data, cfg)
    assert report.monotonicity_certified
    assert report.rows()[-1].test_acc >= 0.95
