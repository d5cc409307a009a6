"""Benchmark for ``hnf train``, ``hnf eval`` and ``hnf verify``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload letter_solve --seed 7 --seconds 10 --trace 0

The workload seed generates seeded blob data (separation 3.0), written as a
CSV; it also becomes ``--split-seed``. The program always gets ``--seed 1
--weights random``. Every ``hnf`` command runs in-process through
``hnf.cli.main``; each repetition of the timed phase runs in a fresh child
process (``child.py``), whose peak RSS after its first command is that
command's own. The timed phase repeats until ``--seconds`` have passed and
at least the workload's ``reps`` times; each time is the median over
repetitions. Set-up runs at least three times and reports its median too.

Every output is checked: each command exits 0, the manifest is certified,
the report's train cost never rises, ``eval`` reproduces the report's train
cost (1e-9 relative) and train accuracy (as printed) at each layer it
evaluates, ``verify`` reports no violations, and repeated trainings give
identical reports. Each failure is printed.

The last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-module metrics. With
``--trace 1`` repetitions alternate untraced and traced; spans come from the
traced ones (``spans.py``), end-to-end numbers only from the untraced ones.
Results, spans and the run record are written under
``.perfbench-out/<workload>-seed<seed>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import runrecord
from spans import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

SEPARATION = 3.0
MEANS_SEED = 0
PROGRAM_SEED = 1
#: Set-up runs at least SETUPS times and until SETUP_S seconds have passed;
#: a set-up of a fraction of a second is otherwise too noisy to compare.
SETUPS = 3
SETUP_S = 1.0
#: No repetition starts once it could end after this many seconds from the
#: start, so that a run ends within three minutes.
DEADLINE_S = 170.0
#: The trainer's own certification slack on the cost chain.
MONOTONE_SLACK = 1e-8
EVAL_COST_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """Blob shape, split, network, and how the timed phase runs.

    Each repetition runs ``train``, ``eval`` of the final layer and
    ``verify --trials trials`` in one fresh process. With ``audit_apart``
    the audit (``eval`` of every layer, then ``verify``) runs in a process
    of its own after training, so its peak RSS is its own, and the timed
    phase and the trace cover the audit only.

    One repetition on a 2-core box swings by up to a tenth, so ``reps``,
    the least number of repetitions, is higher for short phases, and a
    training workload's ``trials`` keep its audit mostly rank SVDs: a
    Letter-like audit made mostly of CSV parsing and page faults spread 15%
    across seeds.
    """

    name: str
    p: int
    q: int
    n: int
    split: int
    n1: int
    depth: int
    trials: int
    reps: int
    audit_apart: bool = False


WORKLOADS = {w.name: w for w in (
    # Letter-like. Solve-heavy: each of the 100 ADMM iterations per layer
    # runs cho_solve with 26 right-hand sides at widths up to d=2000, while
    # feature work stays small at N_train=13333.
    Workload("letter_solve", p=16, q=26, n=20000, split=13333, n1=250, depth=3,
             trials=12, reps=2),
    # Shuttle-like. Feature-heavy: the forward W@Y, vn_expand and the Gram
    # on 38667 columns dominate (d up to 2048); with Q=7 the ADMM
    # iterations are cheap.
    Workload("shuttle_features", p=9, q=7, n=58000, split=38667, n1=64, depth=5,
             trials=5, reps=2),
    # The read side: artifact loads, column-at-a-time forward and inverse,
    # and one full-column-rank SVD per layer per verify trial.
    Workload("letter_audit", p=16, q=26, n=20000, split=13333, n1=250, depth=2,
             trials=200, reps=3, audit_apart=True),
)}

#: Per-module metrics read from spans, named ``<span>.<s|self_s|calls>``.
SPAN_METRICS = (
    "cli.train.s", "cli.eval.s", "cli.verify.s",
    "data.load_csv.s", "data.split_dataset.s",
    "matrixgen.make_random_orthonormal.s", "matrixgen.make_random_orthonormal.calls",
    "matrixgen.verify_full_column_rank.s", "matrixgen.verify_full_column_rank.calls",
    "matrixgen.save_weight.s", "matrixgen.load_weight.s",
    "layers.vn_expand.s", "layers.vn_expand.calls",
    "layers.layer_forward.s", "layers.layer_forward.calls",
    "layers.network_invert.s", "layers.network_invert.self_s",
    "layers.network_invert.calls", "layers.weight_perturbation_check.s",
    "layers.save_network.s", "layers.load_network.s",
    "solvers.admm_constrained_ls.s", "solvers.admm_constrained_ls.self_s",
    "solvers.cho_factor.s", "solvers.cho_solve.s", "solvers.cho_solve.calls",
    "solvers.least_squares.s", "solvers.sample_cost.s",
    "solvers.embed_previous_map.s", "solvers.save_output_map.s",
    "solvers.load_output_map.s",
    "trainer.train.s", "trainer.train.self_s", "trainer.accuracy.s",
    "trainer.evaluate.s", "trainer.evaluate.calls",
    "trainer.verify_invariants.s", "trainer.verify_invariants.self_s",
)
#: Counts computed from the trained run's shapes and map diagnostics, not
#: measured; they repeat exactly.
COMPUTED_METRICS = {
    "solvers.admm.iterations": "count",
    "solvers.cho_solve.flops": "flop",
    "solvers.gram.flops": "flop",
    "trainer.forward.flops": "flop",
    "trainer.feature_bytes.peak": "B",
}
#: Timed phase with and without tracing, and the time no module span covers.
TRACE_METRICS = ("trace.untraced_s", "trace.traced_s", "trace.overhead_s",
                 "trace.unattributed_s")
END_TO_END = {
    "setup_s": "s", "train_s": "s", "audit_s": "s", "peak_rss_mb": "MB",
    "train_cost_final": "cost", "test_acc_final": "ratio",
    "pass_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {name: "count" if name.endswith(".calls") else "s"
             for name in SPAN_METRICS}
    units.update(COMPUTED_METRICS)
    units.update({name: "s" for name in TRACE_METRICS})
    return units


class Checks:
    """Correctness checks; each failure is printed when it happens."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAIL {what}", flush=True)
        return ok


def write_blobs_csv(path: Path, wl: Workload, seed: int) -> None:
    """Balanced Gaussian blobs, unit variance, the label in the last column.

    Class means lie on unit directions scaled so orthogonal means sit
    ``SEPARATION`` apart. The directions are fixed per shape, so the seed
    moves only the samples: with seeded directions the final cost of a
    Shuttle-like run spread 9% across seeds, hiding any change smaller.
    """
    dirs = np.random.Generator(np.random.PCG64(MEANS_SEED)).standard_normal(
        (wl.q, wl.p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = dirs * SEPARATION / math.sqrt(2.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = rng.permutation(np.arange(wl.n) % wl.q)
    x = rng.standard_normal((wl.n, wl.p)) + means[labels]
    np.savetxt(path, np.column_stack([x, labels]),
               fmt=["%.17g"] * wl.p + ["%d"], delimiter=",")


class Runner:
    """Starts child processes for one benchmark run, within its deadline."""

    def __init__(self, work: Path, deadline: float, checks: Checks) -> None:
        self.work = work
        self.deadline = deadline
        self.checks = checks
        self.count = 0

    def run(self, commands: list[list[str]], trace: bool) -> dict | None:
        """Run the commands in one fresh process; None if it failed."""
        self.count += 1
        out = self.work / f"child{self.count}.json"
        spec = {"root": str(ROOT), "commands": commands, "trace": trace,
                "out": str(out)}
        label = " + ".join(f"hnf {argv[0]}" for argv in commands)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.checks.check(False, f"{label}: timed out")
            return None
        if not self.checks.check(proc.returncode == 0 and out.is_file(),
                                 f"{label}: child exited {proc.returncode}"):
            sys.stdout.write(proc.stderr[-2000:])
            return None
        result = json.loads(out.read_text())
        # The child stops at the first command that fails.
        ok = [self.checks.check(r["rc"] == 0, f"hnf {r['argv'][0]} exited {r['rc']}")
              for r in result["commands"]]
        return result if all(ok) else None


def read_report(run_dir: Path, checks: Checks) -> list[dict]:
    """``report.jsonl`` rows, checked for a non-increasing train cost."""
    try:
        rows = [json.loads(line) for line in
                (run_dir / "report.jsonl").read_text().splitlines() if line]
        costs = [float(r["train_cost"]) for r in rows]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        checks.check(False, f"report.jsonl unreadable: {exc}")
        return []
    rising = [i for i in range(1, len(costs))
              if not costs[i] <= costs[i - 1] + MONOTONE_SLACK]
    checks.check(bool(costs) and not rising,
                 f"report.jsonl train cost rises at rows {rising}")
    return rows


def check_train_run(run_dir: Path, checks: Checks) -> list[dict]:
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
    except (OSError, ValueError):
        manifest = {}
    checks.check(manifest.get("monotonicity_certified") is True,
                 "manifest does not show monotonicity_certified")
    return read_report(run_dir, checks)


_EVAL_ROW = re.compile(r"^\s*(\d+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$")


def check_eval(stdout: str, rows: list[dict], checks: Checks) -> dict | None:
    """Check that ``eval`` reproduces each of the given report rows; returns
    the eval row of the last layer printed."""
    printed = {}
    for line in stdout.splitlines():
        m = _EVAL_ROW.match(line)
        if m:
            printed[int(m.group(1))] = m.groups()
    checks.check(bool(rows), "eval: no report rows to reproduce")
    for row in rows:
        layer = row["layer"]
        got = printed.get(layer)
        if not checks.check(got is not None, f"eval: layer {layer} missing"):
            continue
        cost = float(got[1])
        want = float(row["train_cost"])
        checks.check(abs(cost - want) <= EVAL_COST_RTOL * abs(want),
                     f"eval: layer {layer} train_cost {cost!r} != {want!r}")
        checks.check(got[2] == f"{row['train_acc']:.10f}",
                     f"eval: layer {layer} train_acc {got[2]} != "
                     f"{row['train_acc']!r}")
    if not printed:
        return None
    last = printed[max(printed)]
    return {"train_cost": float(last[1]), "test_acc": float(last[4])}


def check_verify(stdout: str, checks: Checks) -> None:
    rows = [line.split() for line in stdout.splitlines()[1:] if line.strip()]
    checks.check(bool(rows), "verify printed no checks")
    for parts in rows:
        ok = len(parts) >= 3 and parts[2] == "0"
        checks.check(ok, f"verify: {' '.join(parts)}")


def computed_counts(run_dir: Path) -> dict[str, float]:
    """Work counts of a training run, from its shapes and map diagnostics.

    cho_solve: each ADMM iteration solves against a d x d Cholesky factor
    with Q right-hand sides, 2*Q*d^2 flops. Gram: 2*d^2*N_train per map.
    Forward: 2*n*m*N per n x m weight over train and test columns. Feature
    bytes: the largest d x N_train float64 matrix.
    """
    manifest = json.loads((run_dir / "manifest.json").read_text())
    n_train = manifest["dataset"]["N_train"]
    n_all = n_train + manifest["dataset"]["N_test"]
    layers = json.loads((run_dir / "network.json").read_text())["layers"]
    maps = [json.loads((run_dir / rel).read_text())
            for rel in manifest["artifacts"]["maps"]]
    iters = cho = gram = 0
    for m in maps:
        q, d = m["rows"], m["cols"]
        it = int((m.get("solver") or {}).get("iterations", 0))
        iters += it
        cho += it * 2 * q * d * d
        gram += 2 * d * d * n_train
    return {
        "solvers.admm.iterations": iters,
        "solvers.cho_solve.flops": cho,
        "solvers.gram.flops": gram,
        "trainer.forward.flops": sum(2 * l["rows"] * l["cols"] * n_all
                                     for l in layers),
        "trainer.feature_bytes.peak": max(
            (2 if l["expand"] else 1) * l["rows"] for l in layers) * n_train * 8,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            out_dir: Path, checks: Checks) -> dict:
    """One benchmark run; returns metrics, raw samples and spans."""
    deadline = time.monotonic() + DEADLINE_S
    work = out_dir / "work"
    work.mkdir(parents=True)
    runner = Runner(work, deadline, checks)
    csv_path = work / "data.csv"
    run_dir = work / "run"
    data = ["--data", f"csv:{csv_path}", "--split", str(wl.split),
            "--split-seed", str(seed)]
    train_argv = ["train", *data, "--n1", str(wl.n1), "--depth", str(wl.depth),
                  "--seed", str(PROGRAM_SEED), "--weights", "random",
                  "--out", str(run_dir)]
    eval_argv = ["eval", "--run", str(run_dir)]
    if not wl.audit_apart:
        eval_argv += ["--layer", str(wl.depth)]
    verify_argv = ["verify", "--run", str(run_dir), *data,
                   "--trials", str(wl.trials)]
    reports: list[list[dict]] = []

    def train_and(then: list[list[str]], traced: bool) -> dict | None:
        """Train into a fresh run directory, then run ``then`` in the same
        process; every retraining must reproduce the first report."""
        shutil.rmtree(run_dir, ignore_errors=True)
        res = runner.run([train_argv, *then], traced)
        if res:
            rows = check_train_run(run_dir, checks)
            if reports:
                checks.check(_stable(rows) == _stable(reports[0]),
                             "retraining gave a different report")
            reports.append(rows)
        return res

    setup_s = []
    while len(setup_s) < SETUPS or sum(setup_s) < SETUP_S:
        t0 = time.perf_counter()
        write_blobs_csv(csv_path, wl, seed)
        setup_s.append(time.perf_counter() - t0)

    timed = {"train_s": [], "audit_s": [], "peak_rss_mb": []}
    untraced_phase, traced = [], []
    final = None
    reps = 0
    last_rep = 0.0
    start = time.monotonic()
    while reps < wl.reps or time.monotonic() - start < seconds:
        if time.monotonic() + last_rep > deadline:
            break
        rep_start = time.monotonic()
        traced_rep = trace and reps % 2 == 1
        if wl.audit_apart:
            trained = train_and([], False)
            res = trained and runner.run([eval_argv, verify_argv], traced_rep)
        else:
            trained = res = train_and([eval_argv, verify_argv], traced_rep)
        reps += 1
        last_rep = time.monotonic() - rep_start
        if not res:
            continue
        train = trained["commands"][0]
        ev, ver = res["commands"][-2:]
        report = reports[-1]
        final = check_eval(ev["stdout"], report if wl.audit_apart
                           else report[-1:], checks)
        check_verify(ver["stdout"], checks)
        audit = ev["seconds"] + ver["seconds"]
        phase = audit if wl.audit_apart else audit + train["seconds"]
        if traced_rep:
            traced.append({"phase_s": phase, "spans": res["spans"]})
            if res["untraced"]:
                print(f"note: not found, so not traced: {res['untraced']}")
            continue
        untraced_phase.append(phase)
        timed["train_s"].append(train["seconds"])
        timed["audit_s"].append(audit)
        # Train is first in its process, so the peak read after it is its own.
        timed["peak_rss_mb"].append(
            (ver if wl.audit_apart else train)["peak_rss_kb"] / 1024)

    if reports and reports[-1] and not wl.audit_apart:
        final = {"train_cost": reports[-1][-1]["train_cost"],
                 "test_acc": reports[-1][-1]["test_acc"]}
    e2e = {
        "setup_s": _median(setup_s),
        **{key: _median(values) for key, values in timed.items()},
        "train_cost_final": final["train_cost"] if final else math.nan,
        "test_acc_final": final["test_acc"] if final else math.nan,
    }
    counts = dict.fromkeys(COMPUTED_METRICS, 0)
    if not wl.audit_apart and reports:
        try:
            counts = computed_counts(run_dir)
        except (OSError, ValueError, KeyError) as exc:
            checks.check(False, f"run artifacts unreadable: {exc!r}")
    per_layer = None
    if trace:
        per_layer = _per_layer(traced, untraced_phase, counts)
    return {"e2e": e2e, "per_layer": per_layer, "computed": counts,
            "reps": reps, "traced": traced,
            "samples": {"setup_s": setup_s, **timed,
                        "untraced_phase_s": untraced_phase}}


def _stable(rows: list[dict]) -> list[tuple]:
    """The report columns a rerun must reproduce bit for bit."""
    return [(r["layer"], r["train_cost"], r["train_acc"], r["test_acc"])
            for r in rows]


def _per_layer(traced: list[dict], untraced_phase: list[float],
               counts: dict[str, float]) -> dict[str, float]:
    """Per-module metrics: medians over traced repetitions; NaN where no
    traced repetition succeeded."""
    per_rep = []
    for rep in traced:
        summary = summarize(rep["spans"])
        values = {}
        for name in SPAN_METRICS:
            span, field = name.rsplit(".", 1)
            values[name] = summary.get(span, {}).get(field, 0)
        values["trace.unattributed_s"] = sum(
            v["self_s"] for k, v in summary.items() if k.startswith("cli."))
        values["trace.traced_s"] = rep["phase_s"]
        per_rep.append(values)
    out = dict.fromkeys(per_layer_units(), math.nan)
    for name in per_rep[0] if per_rep else ():
        out[name] = _median([v[name] for v in per_rep])
    out.update(counts)
    out["trace.untraced_s"] = _median(untraced_phase)
    out["trace.overhead_s"] = out["trace.traced_s"] - out["trace.untraced_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hnf" / "cli.py").is_file():
        print(f"error: no hnf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure, print the metric table, write the result files, and return
    the final JSON object."""
    out_dir = OUT / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    checks = Checks()
    try:
        measured = measure(wl, seed, seconds, trace, out_dir, checks)
    finally:
        shutil.rmtree(out_dir / "work", ignore_errors=True)
    missing = [k for k, v in measured["e2e"].items() if not math.isfinite(v)]
    checks.check(not missing, f"no value for {missing}")
    fail_ratio = len(checks.failures) / max(checks.attempted, 1)
    e2e = {**measured["e2e"], "pass_ratio": 1.0 - fail_ratio}

    record = runrecord.run_record(ROOT, wl.name, seed, seconds, trace)
    threads = sorted({b["threads"] for b in record["blas"]} - {None})
    print(f"workload {wl.name}  seed {seed}  repetitions {measured['reps']}  "
          f"nproc {record['nproc']}  blas threads {threads}  "
          f"numpy {record['numpy']}  scipy {record['scipy']}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<44} {e2e[name]:>16.6g} {unit}")
    print(f"  {'fail_ratio':<44} {fail_ratio:>16.6g} ratio "
          f"({len(checks.failures)} of {checks.attempted} checks)")
    values, units = e2e, END_TO_END
    if trace:
        values, units = measured["per_layer"], per_layer_units()
        for name, unit in units.items():
            tag = "  computed" if name in COMPUTED_METRICS else ""
            print(f"  {name:<44} {values[name]:>16.6g} {unit}{tag}")
    # A metric that could not be measured is null, which keeps the line JSON.
    metrics = {name: {"value": values[name] if math.isfinite(values[name])
                      else None, "unit": unit} for name, unit in units.items()}

    (out_dir / "run_record.json").write_text(json.dumps(record, indent=2))
    with open(out_dir / "spans.jsonl", "w") as fh:
        for r, rep in enumerate(measured["traced"]):
            for i, (name, t0, t1, parent) in enumerate(rep["spans"]):
                fh.write(json.dumps({"rep": r, "id": i, "name": name,
                                     "start": t0, "end": t1,
                                     "parent": parent}) + "\n")
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures), "metrics": metrics}
    (out_dir / "result.json").write_text(json.dumps({
        **result, "failures": checks.failures, "fail_ratio": fail_ratio,
        "end_to_end": e2e, "computed_counts": measured["computed"],
        "samples": measured["samples"], "run_record": "run_record.json",
    }, indent=2))
    return result


if __name__ == "__main__":
    sys.exit(main())
