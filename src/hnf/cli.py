"""Batch command-line interface: train, eval, verify, curves.

Exit codes are stable: 0 success, 2 configuration problems, 3 data problems,
4 solver or certification failures, 5 resource budget exceeded. Every train
run writes a manifest sufficient to reproduce it byte-for-byte on the same
build, and every artifact it writes can be re-loaded by ``eval``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import shutil
import sys
import uuid
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    Dataset,
    load_csv,
    load_idx,
    make_synthetic_blobs,
    merge_train_test,
    split_dataset,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    HnfError,
    ParameterError,
    ResourceError,
    StateError,
)
from .layers import (
    DEFAULT_MEMORY_BUDGET,
    json_artifact,
    load_network,
    save_network,
)
from .solvers import load_output_map, save_output_map
from .trainer import (
    TrainConfig,
    build_network,
    evaluate,
    train,
    verify_invariants,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4
EXIT_RESOURCE = 5

_BLOB_DEFAULTS = {"p": 8, "q": 3, "n": 600, "separation": 10.0}

#: Keys a ``train --config`` file may set; each mirrors the flag of that name.
_CONFIG_KEYS = ("data", "label_col", "delimiter", "split", "split_seed",
                "n1", "depth", "weights", "seed", "elm", "elm_activation",
                "eps_schedule", "standardize", "out")


def _exit_code_for(exc: HnfError) -> int:
    if isinstance(exc, (ConfigError, ParameterError, DimensionError, StateError)):
        return EXIT_CONFIG
    if isinstance(exc, DataError):
        return EXIT_DATA
    if isinstance(exc, ResourceError):
        return EXIT_RESOURCE
    return EXIT_SOLVER


def _read_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment. A key outside
    :data:`_CONFIG_KEYS` is an error, so a misspelt or retired setting is
    never silently ignored."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; "
                              f"accepted keys: {', '.join(_CONFIG_KEYS)}")
        values[key] = value
    return values


def _load_data(spec: str, label_col, split_count: int | None,
               split_seed: int, blob_opts: dict,
               delimiter: str = ",") -> Dataset:
    if spec == "blobs":
        opts = {**_BLOB_DEFAULTS, **blob_opts}
        return make_synthetic_blobs(
            int(opts["p"]), int(opts["q"]), int(opts["n"]),
            float(opts["separation"]), int(opts.get("seed", 0)))
    if spec.startswith("csv:"):
        path = spec[len("csv:"):]
        if not path:
            raise DataError("csv: needs a path")
        label = label_col if label_col is not None else -1
        try:
            label = int(label)
        except (TypeError, ValueError):
            pass
        has_header = isinstance(label, str)
        ds = load_csv(path, label_column=label, delimiter=delimiter,
                      has_header=has_header)
    elif spec.startswith("idx:"):
        parts = spec[len("idx:"):].split(",")
        if len(parts) == 4:
            return merge_train_test(load_idx(parts[0], parts[1]),
                                    load_idx(parts[2], parts[3]))
        if len(parts) != 2:
            raise DataError("idx: needs IMAGES,LABELS or "
                            "IMG,LBL,TEST_IMG,TEST_LBL")
        ds = load_idx(parts[0], parts[1])
    else:
        raise DataError(f"unknown data source {spec!r}; "
                        "use blobs, csv:PATH, or idx:IMG,LBL")
    return split_dataset(ds, split_count, split_seed) if split_count else ds


def _add_common_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="blobs | csv:PATH | idx:IMG,LBL[,TIMG,TLBL]")
    p.add_argument("--label-col", default=None,
                   help="label column index or header name (csv)")
    p.add_argument("--delimiter", default=None,
                   help="csv field delimiter (default ,)")
    p.add_argument("--split", type=int, default=None, metavar="N_TRAIN",
                   help="seeded shuffle split for sources with no canonical one")
    p.add_argument("--split-seed", type=int, default=None)
    p.add_argument("--blob-p", type=int, default=None)
    p.add_argument("--blob-q", type=int, default=None)
    p.add_argument("--blob-n", type=int, default=None)
    p.add_argument("--blob-sep", type=float, default=None)


def _blob_opts(args, seed: int) -> dict:
    opts = {"seed": seed}
    for key, val in (("p", args.blob_p), ("q", args.blob_q),
                     ("n", args.blob_n), ("separation", args.blob_sep)):
        if val is not None:
            opts[key] = val
    return opts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnf",
        description="Layer-wise training of fixed-weight ReLU expansion "
                    "networks with a certified non-increasing training cost.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a network and write artifacts")
    _add_common_data_args(p_train)
    p_train.add_argument("--config", help="flat key=value config file; "
                                          "flags override file values")
    p_train.add_argument("--n1", type=int, default=None)
    p_train.add_argument("--depth", type=int, default=None)
    p_train.add_argument("--weights", choices=["random", "dct"], default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--elm", action="store_true", default=None,
                         help="use an ELM feature layer in front")
    p_train.add_argument("--elm-activation", choices=["relu", "sigmoid"],
                         default=None)
    p_train.add_argument("--eps-schedule", choices=["exact", "doubling"],
                         default=None)
    p_train.add_argument("--standardize", action="store_true", default=None)
    p_train.add_argument("--out", default=None, help="artifact directory")

    p_eval = sub.add_parser("eval", help="re-evaluate saved artifacts")
    p_eval.add_argument("--run", required=True, help="artifact directory")
    p_eval.add_argument("--data", default=None,
                        help="override the data source recorded in the manifest")
    p_eval.add_argument("--layer", type=int, default=None,
                        help="single layer to evaluate (default: all)")

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    _add_common_data_args(p_verify)
    p_verify.add_argument("--run", default=None,
                          help="saved artifact directory (default: fresh net)")
    p_verify.add_argument("--n1", type=int, default=16)
    p_verify.add_argument("--depth", type=int, default=3)
    p_verify.add_argument("--weights", choices=["random", "dct"],
                          default="random")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=200)

    p_curves = sub.add_parser("curves", help="emit accuracy-vs-size curve CSV")
    p_curves.add_argument("--run", required=True, help="artifact directory")
    p_curves.add_argument("--out", default=None,
                          help="output CSV path (default: stdout)")

    return parser


def _train_config_from(args) -> tuple[TrainConfig, str, dict]:
    file_vals = _read_config_file(args.config) if args.config else {}

    def pick(flag_val, key, cast, default):
        if flag_val is not None:
            return flag_val
        if key in file_vals:
            raw = file_vals[key]
            if cast is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            try:
                return cast(raw)
            except ValueError:
                raise ConfigError(f"{args.config}: {key} = {raw!r} is not "
                                  f"a valid {cast.__name__}") from None
        return default

    data_spec = pick(args.data, "data", str, None)
    if not data_spec:
        raise ConfigError("no data source: pass --data or set data= in the config")
    n1 = pick(args.n1, "n1", int, None)
    depth = pick(args.depth, "depth", int, None)
    if n1 is None or depth is None:
        raise ConfigError("--n1 and --depth are required")
    seed = pick(args.seed, "seed", int, 0)
    weight_kind = pick(args.weights, "weights", str, "random")
    elm = bool(pick(args.elm, "elm", bool, False))
    elm_act = pick(args.elm_activation, "elm_activation", str, "relu")
    schedule = pick(args.eps_schedule, "eps_schedule", str, "exact")
    standardize = bool(pick(args.standardize, "standardize", bool, False))
    out_dir = pick(args.out, "out", str, None)
    if not out_dir:
        raise ConfigError("no output directory: pass --out or set out=")

    budget = DEFAULT_MEMORY_BUDGET
    env_budget = os.environ.get("HNF_MEM_BUDGET")
    if env_budget:
        try:
            budget = int(env_budget)
        except ValueError:
            raise ConfigError(
                f"HNF_MEM_BUDGET must be an integer byte count, "
                f"got {env_budget!r}"
            ) from None

    cfg = TrainConfig(
        n1=n1, depth=depth, weight_kind=weight_kind, seed=seed,
        elm_front=elm, elm_activation=elm_act,
        eps_schedule=schedule, memory_budget=budget, standardize=standardize,
    )
    data_opts = {
        "label_col": pick(args.label_col, "label_col", str, None),
        "delimiter": pick(args.delimiter, "delimiter", str, ","),
        "split": pick(args.split, "split", int, None),
        "split_seed": pick(args.split_seed, "split_seed", int, 0),
        "blobs": _blob_opts(args, seed),
    }
    return cfg, data_spec, {"out": out_dir, **data_opts}


def _check_out_dir(out: Path) -> None:
    """Refuse an existing ``--out`` unless it is empty or a previous run:
    its manifest.json is an object with ``artifacts`` and ``config``."""
    if not out.exists() or (out.is_dir() and not any(out.iterdir())):
        return
    try:
        with json_artifact(out / "manifest.json") as doc:
            if isinstance(doc, dict) and {"artifacts", "config"} <= doc.keys():
                return
    except DataError:
        pass
    raise ConfigError(f"--out {out} exists and is neither empty nor a run "
                      "directory (no hnf manifest.json); not replacing it")


def _replace_dir(out: Path, write) -> None:
    """Run ``write(tmp)`` on a fresh sibling of ``out``, then swap it in for
    ``out``: a failed write leaves ``out`` as it was, and a retrain never
    leaves files of the previous run behind. ``out`` is checked again just
    before the swap; a symlinked ``out`` is replaced at its target."""
    out = Path(os.path.realpath(out))
    out.parent.mkdir(parents=True, exist_ok=True)
    tag = f".{out.name}.{uuid.uuid4().hex}"
    tmp, old = out.with_name(tag + ".tmp"), out.with_name(tag + ".old")
    tmp.mkdir()
    try:
        write(tmp)
        _check_out_dir(out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if out.exists():
        out.rename(old)
    tmp.rename(out)
    shutil.rmtree(old, ignore_errors=True)


def cmd_train(args) -> int:
    cfg, data_spec, opts = _train_config_from(args)
    out = Path(opts["out"])
    _check_out_dir(out)
    data = _load_data(data_spec, opts["label_col"], opts["split"],
                      opts["split_seed"], opts["blobs"], opts["delimiter"])
    net, maps, report = train(data, cfg)

    manifest = {
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "version": __version__,
        "numpy": np.__version__,
        "data_source": data_spec,
        "data_options": {k: opts[k] for k in ("label_col", "delimiter",
                                              "split", "split_seed", "blobs")},
        "dataset": data.meta,
        "config": cfg.echo(),
        "standardize_params": report.meta.get("standardize_params"),
        "monotonicity_certified": report.monotonicity_certified,
        "artifacts": {
            "network": "network.json",
            "maps": [f"maps/map{om.layer_index:02d}.json" for om in maps],
            "report_jsonl": "report.jsonl",
            "report_csv": "report.csv",
        },
    }

    def write(run: Path) -> None:
        save_network(net, run)
        for om in maps:
            save_output_map(om, run / "maps" / f"map{om.layer_index:02d}")
        report.to_jsonl(run / "report.jsonl")
        report.to_csv(run / "report.csv")
        (run / "manifest.json").write_text(json.dumps(manifest, indent=2))

    _replace_dir(out, write)

    for rec in report.rows():
        print(json.dumps(rec.as_dict()))
    if not report.monotonicity_certified:
        print("certification FAILED: training cost chain is not certified",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _load_run(run_dir: str):
    run = Path(run_dir)
    with json_artifact(run / "manifest.json") as manifest:
        artifacts = manifest["artifacts"]
        network_path = run / artifacts["network"]
        map_paths = [run / rel for rel in artifacts["maps"]]
    net = load_network(network_path)
    maps = [load_output_map(path) for path in map_paths]
    return manifest, net, maps


def cmd_eval(args) -> int:
    manifest, net, maps = _load_run(args.run)
    spec = args.data or manifest.get("data_source")
    if not isinstance(spec, str):
        raise DataError(f"{args.run}: manifest.json names no data_source; "
                        "pass --data")
    dopts = manifest.get("data_options", {})
    data = _load_data(spec, dopts.get("label_col"), dopts.get("split"),
                      dopts.get("split_seed", 0), dopts.get("blobs", {}),
                      dopts.get("delimiter", ","))
    std = manifest.get("standardize_params")
    transform = None
    if std:
        transform = (np.asarray(std["mu"])[:, None],
                     np.asarray(std["sigma"])[:, None])

    layer_ids = sorted(m.layer_index for m in maps)
    if args.layer is not None:
        if args.layer not in layer_ids:
            raise StateError(
                f"no map for layer {args.layer}; available: {layer_ids}"
            )
        layer_ids = [args.layer]

    print(f"{'layer':>5} {'train_cost':>20} {'train_acc':>12} "
          f"{'test_cost':>20} {'test_acc':>12}")
    for lid in layer_ids:
        tr = evaluate(net, maps, data, lid, "train", transform)
        te = evaluate(net, maps, data, lid, "test", transform)
        print(f"{lid:>5} {tr.cost:>20.12e} {tr.accuracy:>12.10f} "
              f"{te.cost:>20.12e} {te.accuracy:>12.10f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    data_spec = args.data or "blobs"
    data = _load_data(data_spec, args.label_col, args.split,
                      args.split_seed or 0, _blob_opts(args, args.seed),
                      args.delimiter or ",")
    if args.run:
        _, net, _ = _load_run(args.run)
    else:
        cfg = TrainConfig(n1=args.n1, depth=args.depth,
                          weight_kind=args.weights, seed=args.seed)
        net = build_network(data.input_dim, cfg, data.n_samples)

    report = verify_invariants(net, data, args.trials, args.seed)
    print(f"{'check':<28} {'trials':>7} {'violations':>11} {'worst_margin':>13}")
    for chk in report.checks:
        margin = "nan" if math.isnan(chk.worst_margin) else f"{chk.worst_margin:.3e}"
        line = (f"{chk.name:<28} {chk.count:>7} {chk.violations:>11} "
                f"{margin:>13}")
        if chk.note:
            line += f"  ({chk.note})"
        print(line)
    if not report.passed:
        print("invariant checks FAILED", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_curves(args) -> int:
    lines = ["nodes_cumulative,train_acc,test_acc,layer"]
    with json_artifact(Path(args.run) / "report.jsonl", jsonl=True) as rows:
        for row in rows:
            test = "" if row["test_acc"] is None else repr(row["test_acc"])
            lines.append(f"{row['nodes_cumulative']},{row['train_acc']!r},"
                         f"{test},{row['layer']}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "curves": cmd_curves,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except HnfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
