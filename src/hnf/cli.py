"""Batch command-line interface: train, eval, verify.

Exit codes are stable: 0 success, 2 configuration problems, 3 data problems,
4 solver or certification failures, 5 resource budget exceeded or memory
exhausted. Each train setting is its flag, else its ``--config`` line, else
its :data:`_TRAIN_SETTINGS` default. A train run writes a manifest that
reproduces it byte-for-byte on the same build and BLAS thread count, and
``eval`` can re-load every artifact it writes. A ``csv:`` run also keeps the
table it parsed (:data:`SNAPSHOT_FILE`), keyed to the CSV's bytes and parse
options; ``eval`` and ``verify --run`` read that instead of parsing again
while the key still matches, and parse otherwise, with the same output.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import sys
import uuid
from contextlib import suppress
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    Dataset,
    load_csv,
    load_csv_snapshot,
    load_idx,
    make_synthetic_blobs,
    merge_train_test,
    save_csv_snapshot,
    split_dataset,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    HnfError,
    ParameterError,
    ResourceError,
    SolverError,
    StateError,
)
from .layers import ACTIVATIONS, json_artifact, load_network, save_network
from .solvers import load_output_map, save_output_map, within_ball
from .trainer import (
    DEFAULT_MEMORY_BUDGET,
    EPS_SCHEDULES,
    WEIGHT_KINDS,
    TrainConfig,
    build_network,
    evaluate,
    map_widths,
    train,
    verify_invariants,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4
EXIT_RESOURCE = 5

_BLOB_DEFAULTS = {"p": 8, "q": 3, "n": 600, "separation": 10.0}

#: The run-directory file holding a ``csv:`` source's parsed table.
SNAPSHOT_FILE = "table.snap"

#: Each ``train`` setting: its ``--config`` key, which is also its flag's
#: dest, its type, and its value when neither the flag nor the file sets it.
_TRAIN_SETTINGS = {
    "data": (str, None), "label_col": (str, None), "delimiter": (str, ","),
    "split": (int, None), "split_seed": (int, 0), "n1": (int, None),
    "depth": (int, None), "weights": (str, "random"), "seed": (int, 0),
    "elm": (bool, False), "elm_activation": (str, "relu"),
    "eps_schedule": (str, "exact"), "standardize": (bool, False),
    "out": (str, None)}

#: The settings a manifest records as ``data_options``, beside ``blobs``.
_DATA_OPTIONS = ("label_col", "delimiter", "split", "split_seed")

#: The boolean values a config file may spell, in any case.
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _exit_code_for(exc: HnfError | OSError | MemoryError) -> int:
    if isinstance(exc, (ConfigError, ParameterError, DimensionError, StateError)):
        return EXIT_CONFIG
    if isinstance(exc, (DataError, OSError)):
        return EXIT_DATA
    if isinstance(exc, (ResourceError, MemoryError)):
        return EXIT_RESOURCE
    return EXIT_SOLVER


def _read_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment. A key outside
    :data:`_TRAIN_SETTINGS` or an empty value (so a whitespace delimiter,
    which stripping empties) is an error, never silently ignored."""
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
        if key not in _TRAIN_SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; "
                              f"accepted keys: {', '.join(_TRAIN_SETTINGS)}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: {key} has no value")
        values[key] = value
    return values


def _csv_args(spec: str, opts: dict) -> tuple[str, int | str, str]:
    """The path, label column and delimiter of a ``csv:`` source, each
    option defaulted and the label column an int where it reads as one."""
    path = spec[len("csv:"):]
    if not path:
        raise DataError("csv: needs a path")
    label = -1 if opts.get("label_col") is None else opts["label_col"]
    with suppress(TypeError, ValueError):
        label = int(label)
    return path, label, opts.get("delimiter") or ","


def _load_data(spec: str, opts: dict,
               snapshot: tuple | None = None) -> Dataset:
    """Load ``spec`` with the options a manifest records as
    ``data_options``; an absent or None option takes its default. A
    ``csv:`` source is read from ``snapshot``, a run's (snapshot path,
    manifest record), when :func:`load_csv_snapshot` finds it holds the
    table a parse would give, and parsed otherwise."""
    if spec == "blobs":
        blob = {**_BLOB_DEFAULTS, **(opts.get("blobs") or {})}
        return make_synthetic_blobs(
            int(blob["p"]), int(blob["q"]), int(blob["n"]),
            float(blob["separation"]), int(blob.get("seed", 0)))
    if spec.startswith("csv:"):
        path, label, delimiter = _csv_args(spec, opts)
        ds = (load_csv_snapshot(*snapshot, path, label, delimiter)
              if snapshot else None)
        if ds is None:
            ds = load_csv(path, label_column=label, delimiter=delimiter,
                          has_header=isinstance(label, str))
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
    if opts.get("split") is None:
        return ds
    return split_dataset(ds, opts["split"], opts.get("split_seed") or 0)


def _check_split(spec: str, opts: dict) -> None:
    """Refuse a split of blobs or a four-part ``idx:``: each has its own."""
    if opts.get("split") is not None and (
            spec == "blobs" or spec.startswith("idx:") and spec.count(",") == 3):
        raise ConfigError(f"--split (or split =) does not apply to {spec}, "
                          "which has its own train/test division")


def _memory_budget() -> int:
    """``HNF_MEM_BUDGET`` in bytes; the default when it is unset or empty."""
    raw = os.environ.get("HNF_MEM_BUDGET") or str(DEFAULT_MEMORY_BUDGET)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"HNF_MEM_BUDGET must be an integer byte count, "
                          f"got {raw!r}") from None


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


def _data_opts(args, values: dict) -> dict:
    """A manifest's ``data_options``, from ``values`` and the blob flags."""
    given = {"seed": values["seed"], "p": args.blob_p, "q": args.blob_q,
             "n": args.blob_n, "separation": args.blob_sep}
    return {**{k: values[k] for k in _DATA_OPTIONS},
            "blobs": {k: v for k, v in given.items() if v is not None}}


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
    p_train.add_argument("--weights", choices=WEIGHT_KINDS, default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--elm", action="store_true", default=None,
                         help="use an ELM feature layer in front")
    p_train.add_argument("--elm-activation", choices=sorted(ACTIVATIONS),
                         default=None)
    p_train.add_argument("--eps-schedule", choices=EPS_SCHEDULES, default=None)
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
    p_verify.add_argument("--weights", choices=WEIGHT_KINDS, default="random")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=200)

    return parser


def _train_config_from(args) -> tuple[TrainConfig, str, Path, dict]:
    """The run's config, data source, ``--out`` and data options."""
    lines = _read_config_file(args.config) if args.config else {}
    s = {}
    for key, (kind, default) in _TRAIN_SETTINGS.items():
        value = getattr(args, key)
        if value is None and key in lines:
            raw = lines[key]
            try:
                value = _BOOLS[raw.lower()] if kind is bool else kind(raw)
            except (KeyError, ValueError):
                raise ConfigError(f"{args.config}: {key} = {raw!r} is not "
                                  f"a valid {kind.__name__}") from None
        s[key] = default if value is None else value
    if not s["data"]:
        raise ConfigError("no data source: pass --data or set data= in the config")
    if s["n1"] is None or s["depth"] is None:
        raise ConfigError("--n1 and --depth are required")
    if not s["out"]:
        raise ConfigError("no output directory: pass --out or set out=")
    _check_split(s["data"], s)
    cfg = TrainConfig(
        n1=s["n1"], depth=s["depth"], weight_kind=s["weights"], seed=s["seed"],
        elm_front=s["elm"], elm_activation=s["elm_activation"],
        eps_schedule=s["eps_schedule"], memory_budget=_memory_budget(),
        standardize=s["standardize"])
    return cfg, s["data"], Path(s["out"]), _data_opts(args, s)


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
    cfg, data_spec, out, opts = _train_config_from(args)
    _check_out_dir(out)
    csv = _csv_args(data_spec, opts) if data_spec.startswith("csv:") else None
    data = _load_data(data_spec, opts)
    net, maps, report = train(data, cfg)

    manifest = {
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "version": __version__,
        "numpy": np.__version__,
        "data_source": data_spec,
        "data_options": opts,
        "dataset": data.meta,
        "config": asdict(cfg),
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
        if csv:
            manifest["data_snapshot"] = save_csv_snapshot(
                data, run / SNAPSHOT_FILE, *csv[1:])
        (run / "manifest.json").write_text(json.dumps(manifest, indent=2))

    _replace_dir(out, write)

    for rec in report.rows():
        print(json.dumps(rec.as_dict()))
    if not report.monotonicity_certified:
        print("certification FAILED: training cost chain is not certified",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _typed(doc, types: dict) -> dict:
    """The non-null fields of ``doc`` if it is an object whose ``types``
    fields are null or of that type (a bool is no number), else TypeError."""
    if not isinstance(doc, dict) or any(
            isinstance(doc.get(k), bool)
            or not isinstance(doc.get(k), (kind, type(None)))
            for k, kind in types.items()):
        raise TypeError(f"expected an object with fields {types}, got {doc!r}")
    return {k: v for k, v in doc.items() if v is not None}


def _load_run(run_dir: str, spec: str | None = None, opts: dict | None = None):
    """A run's data, standardization transform, network, maps and label
    names. The data is ``spec`` loaded with ``opts``, each defaulting to
    the manifest's. A manifest field of the wrong type, length or range
    (two maps of one layer too), or ``data_options`` the data cannot take,
    is a DataError naming manifest.json; a map whose column count does not
    fit its layer is one naming the map's file, and a map outside its ball
    a SolverError naming it."""
    run = Path(run_dir)
    with json_artifact(run / "manifest.json") as manifest:
        net = load_network(run / manifest["artifacts"]["network"])
        rels = manifest["artifacts"]["maps"]
        maps = [load_output_map(run / rel) for rel in rels]
        if len({m.layer_index for m in maps}) < len(maps):
            raise ValueError(f"maps {rels} repeat a layer")
        std, transform = manifest.get("standardize_params"), None
        if std is not None:  # mu and sigma as (P, 1) columns
            transform = np.array([std["mu"], std["sigma"]], dtype=np.float64
                                 ).reshape(2, net.layers[0].in_dim, 1)
            if not (np.isfinite(transform).all() and (transform[1] > 0).all()):
                raise ValueError("standardize_params must be finite, sigma > 0")
        names = _typed(manifest.get("dataset") or {},
                       {"label_names": list}).get("label_names")
        snapshot = run / SNAPSHOT_FILE, manifest.get("data_snapshot")
        spec = spec or manifest.get("data_source")
        manifest_opts = opts is None
        if manifest_opts:  # the types train writes; null takes the default
            opts = _typed(manifest.get("data_options") or {}, {
                **{k: _TRAIN_SETTINGS[k][0] for k in _DATA_OPTIONS},
                "label_col": (str, int), "blobs": dict})  # old label_col: int
            opts["blobs"] = _typed(opts.get("blobs", {}), {
                "p": int, "q": int, "n": int, "separation": (int, float),
                "seed": int})
    width = map_widths(net)
    for rel, m in zip(rels, maps):
        if m.matrix.shape[1] != width.get(m.layer_index):
            raise DataError(f"{run / rel}: {m.matrix.shape[1]} columns, but "
                            f"the map of layer {m.layer_index} reads "
                            f"{width.get(m.layer_index, 'no')} features")
        if not within_ball(m.matrix, m.epsilon):
            raise SolverError(f"{run / rel}: squared norm "
                              f"{float(np.sum(m.matrix ** 2)):.6e} is outside "
                              f"its ball, epsilon {m.epsilon:.6e}")
    if not isinstance(spec, str):
        raise DataError(f"{run_dir}: manifest.json names no data_source; "
                        "pass --data")
    try:
        return _load_data(spec, opts, snapshot), transform, net, maps, names
    except ParameterError as exc:
        if not manifest_opts:
            raise
        raise DataError(f"{run / 'manifest.json'}: data_options do not fit "
                        f"{spec}: {exc}") from exc


def cmd_eval(args) -> int:
    data, transform, net, maps, names = _load_run(args.run, args.data)
    if names is not None and len(names) == data.n_classes:
        own = data.meta["label_names"]  # numbered by first appearance
        unknown = [n for n in own if n not in names]
        if unknown:
            raise DimensionError(f"data labels {unknown} are not the run's "
                                 f"labels {names}")
        order = [names.index(n) for n in own]  # each label's run index
        if order != list(range(len(order))):
            data = replace(data, labels=np.array(order)[data.labels])
    if args.layer is not None:
        layer_ids = sorted(m.layer_index for m in maps)
        maps = [m for m in maps if m.layer_index == args.layer]
        if not maps:
            raise StateError(f"no map for layer {args.layer}; "
                             f"available: {layer_ids}")

    train_scores = evaluate(net, maps, data, "train", transform)
    test_scores = evaluate(net, maps, data, "test", transform)
    print(f"{'layer':>5} {'train_cost':>20} {'train_acc':>12} "
          f"{'test_cost':>20} {'test_acc':>12}")
    for lid, tr in sorted(train_scores.items()):
        te = test_scores[lid]
        print(f"{lid:>5} {tr.cost:>20.12e} {tr.accuracy:>12.10f} "
              f"{te.cost:>20.12e} {te.accuracy:>12.10f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    opts = _data_opts(args, vars(args))
    if args.data or not args.run:  # the flags choose the data
        _check_split(args.data or "blobs", opts)
    if args.run:
        data, _, net, _, _ = _load_run(args.run, args.data,
                                       opts if args.data else None)
    else:
        data = _load_data(args.data or "blobs", opts)
        cfg = TrainConfig(n1=args.n1, depth=args.depth,
                          weight_kind=args.weights, seed=args.seed,
                          memory_budget=_memory_budget())
        net = build_network(data.input_dim, cfg, len(data.train_idx))

    report = verify_invariants(net, data, args.trials, args.seed)
    print(f"{'check':<28} {'trials':>7} {'violations':>11} {'worst_margin':>13}")
    for chk in report.checks:
        margin = f"{chk.worst_margin:.3e}" if chk.count else "-"
        note = f"  ({chk.note})" if chk.note else ""
        print(f"{chk.name:<28} {chk.count:>7} {chk.violations:>11} "
              f"{margin:>13}{note}")
    if not report.passed:
        print("invariant checks FAILED", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:  # an empty data flag would read as its default: refuse it first
        for k in ("data", *_DATA_OPTIONS):
            if getattr(args, k, None) == "":
                raise ConfigError(f"--{k.replace('_', '-')} has no value")
        return _COMMANDS[args.command](args)
    except (HnfError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
