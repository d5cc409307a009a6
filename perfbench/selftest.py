"""Self-test of the benchmark harness at toy sizes; takes a few seconds.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``

It runs every workload scaled down, checks that each metric named in
``BENCHMARK.json`` is printed with its unit and that the final JSON line
carries exactly the metrics of its mode, checks that a corrupted copy of a
run's ``report.jsonl`` is counted as a failure, and checks that the harness
refuses to run without the hnf sources. Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run

TOY = {
    "letter_solve": dict(p=4, q=5, n=300, split=200, n1=8, depth=2),
    "shuttle_features": dict(p=3, q=2, n=400, split=260, n1=4, depth=3),
    "letter_audit": dict(p=4, q=5, n=300, split=200, n1=8, depth=2),
}


def toy(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], trials=3, reps=2,
                               **TOY[name])


class SelfTest:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)
            print(f"selftest FAIL {what}")


def run_captured(wl: run.Workload, trace: bool) -> tuple[dict, dict]:
    """Run a workload in-process; returns the final JSON object and the
    printed table as {name: unit}."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.run(wl, seed=3, seconds=0, trace=trace)
    lines = buf.getvalue().splitlines()
    printed = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) >= 3:
            printed[parts[0]] = parts[2]
    return result, printed


def test_metrics(t: SelfTest, spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in TOY:
        result, printed = run_captured(toy(name), trace=True)
        t.expect(result["correct"] and result["attempted"] >= 1,
                 f"{name}: checks failed: {result}")
        for metric, unit in {**e2e, **layer}.items():
            t.expect(printed.get(metric) == unit,
                     f"{name}: {metric} printed as {printed.get(metric)!r}, "
                     f"expected unit {unit!r}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        t.expect(got == layer, f"{name}: trace JSON metrics differ from "
                               "BENCHMARK.json per_layer")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        roots = values["cli.train.s"] + values["cli.eval.s"] + values["cli.verify.s"]
        t.expect(abs(roots - values["trace.traced_s"])
                 <= 0.05 * values["trace.traced_s"] + 0.01,
                 f"{name}: cli spans {roots} do not cover the traced phase "
                 f"{values['trace.traced_s']}")
    result, _ = run_captured(toy("letter_solve"), trace=False)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    t.expect(got == e2e, "untraced JSON metrics differ from BENCHMARK.json "
                         "end_to_end")
    t.expect(all(v["value"] > 0 for v in result["metrics"].values()),
             f"an end-to-end metric reads 0: {result['metrics']}")


def test_corrupted_report(t: SelfTest, work) -> None:
    wl = toy("letter_solve")
    checks = run.Checks()
    runner = run.Runner(work, deadline=run.time.monotonic() + 60, checks=checks)
    csv_path = work / "data.csv"
    run.write_blobs_csv(csv_path, wl, seed=3)
    good = work / "run"
    runner.run([["train", "--data", f"csv:{csv_path}", "--split", str(wl.split),
                 "--n1", str(wl.n1), "--depth", str(wl.depth),
                 "--out", str(good)]], trace=False)
    rows = run.check_train_run(good, checks)
    res = runner.run([["eval", "--run", str(good)]], trace=False)
    t.expect(res is not None and not checks.failures,
             f"toy run failed its own checks: {checks.failures}")
    if res is None:
        return
    run.check_eval(res["commands"][0]["stdout"], rows, checks)
    t.expect(not checks.failures, f"intact report fails: {checks.failures}")

    bad = work / "corrupted"
    shutil.copytree(good, bad)
    rows[-1]["train_cost"] = rows[0]["train_cost"] * 2
    (bad / "report.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in rows))
    checks = run.Checks()
    with contextlib.redirect_stdout(io.StringIO()):
        bad_rows = run.check_train_run(bad, checks)
        run.check_eval(res["commands"][0]["stdout"], bad_rows, checks)
    t.expect(len(checks.failures) == 2,
             f"corrupted report.jsonl: expected the monotone and eval checks "
             f"to fail, got {checks.failures}")


def test_refuses_without_sources(t: SelfTest, work) -> None:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "letter_solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    t.expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
             f"harness ran without hnf sources: rc {proc.returncode}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t = SelfTest()
    try:
        test_metrics(t, spec)
        test_corrupted_report(t, work)
        test_refuses_without_sources(t, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest", "FAILED" if t.errors else "ok")
    return 1 if t.errors else 0


if __name__ == "__main__":
    sys.exit(main())
