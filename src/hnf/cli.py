"""Batch command-line interface: train, eval, verify.

Every failure leaves through :func:`main`, which exits with its error
class's ``exit_code`` (see :mod:`hnf.errors`). Each train setting is its
flag, else its field in ``--config``, a JSON object of a run manifest's
shape, else its default. This module writes and reads every file of a run
directory: its manifest, ``network.json`` beside the weight files (through
:mod:`hnf.matrixgen`'s codec), the maps and the report. A run's manifest,
as ``--config``, retrains it byte-for-byte on the same build and BLAS
thread count, and ``eval`` can re-load every artifact it writes. A ``csv:`` run also keeps
the table it parsed (:data:`SNAPSHOT_FILE`, through :mod:`hnf.data`),
keyed to the CSV's bytes and parse options; ``eval`` and ``verify --run``
read that instead of parsing again while the key still matches, and parse
otherwise, with the same output.
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
from contextlib import contextmanager, suppress
from dataclasses import asdict, fields
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
from .layers import ACTIVATIONS, HnfLayer, HnfNetwork
from .matrixgen import load_weight, read_entries, save_weight
from .solvers import OutputMap, within_ball
from .trainer import (
    DEFAULT_MEMORY_BUDGET,
    EPS_SCHEDULES,
    WEIGHT_KINDS,
    LayerRecord,
    TrainConfig,
    TrainReport,
    evaluate,
    map_widths,
    train,
    verify_invariants,
)

#: The run-directory file holding a ``csv:`` source's parsed table.
SNAPSHOT_FILE = "table.snap"

#: The columns of ``report.csv``, in order.
_CSV_FIELDS = tuple(f.name for f in fields(LayerRecord))

#: Each data option, by its flag's dest: its type, default, the kinds of
#: source that take it and its key in a manifest's ``data_options``, a
#: blobs option's in ``blobs``, beside the blob seed, which is ``--seed``.
_DATA_OPTIONS = {
    "label_col": (str, None, ("csv",), "label_col"),
    "delimiter": (str, ",", ("csv",), "delimiter"),
    "split": (int, None, ("csv", "idx"), "split"),
    "split_seed": (int, 0, ("csv", "idx"), "split_seed"),
    "blob_p": (int, 8, ("blobs",), "p"), "blob_q": (int, 3, ("blobs",), "q"),
    "blob_n": (int, 600, ("blobs",), "n"),
    "blob_sep": (float, 10.0, ("blobs",), "separation")}

#: Each ``train`` setting but ``--out``, by its flag's dest: its type or
#: the strings it may take, and its field in a ``--config`` file, which has
#: a run manifest's shape (``config.F`` sets :class:`TrainConfig` field F;
#: :data:`_DATA_OPTIONS` defaults the data options).
_TRAIN_SETTINGS = {
    "data": (str, "data_source"),
    **{k: (kind, "data_options." + "blobs." * ("blobs" in sources) + key)
       for k, (kind, _, sources, key) in _DATA_OPTIONS.items()},
    "n1": (int, "config.n1"), "depth": (int, "config.depth"),
    "weights": (WEIGHT_KINDS, "config.weight_kind"),
    "seed": (int, "config.seed"), "elm": (bool, "config.elm_front"),
    "elm_activation": (tuple(sorted(ACTIVATIONS)), "config.elm_activation"),
    "eps_schedule": (EPS_SCHEDULES, "config.eps_schedule"),
    "standardize": (bool, "config.standardize")}


def _read_data_options(doc) -> dict:
    """A manifest's ``data_options``, null fields dropped, each of the type
    train writes (a ``label_col`` also an int, as older trains wrote it)."""
    types = {key: (int, float) if kind is float else kind
             for kind, _, _, key in _DATA_OPTIONS.values()}
    opts = _typed({} if doc is None else doc, {
        **types, "label_col": (str, int), "blobs": dict}, "data_options.")
    opts["blobs"] = _typed(opts.get("blobs", {}), {**types, "seed": int},
                           "data_options.blobs.")
    return opts


def _read_config(path: str) -> dict:
    """The settings, by flag dest, of ``path``: a JSON object of a run
    manifest's shape, such as a run's manifest.json, whose other top-level
    fields and ``config.memory_budget`` are ignored. A bad file or field, or
    a key in ``config`` or ``data_options`` naming no setting, exits 2."""
    kinds = {field: kind for kind, field in _TRAIN_SETTINGS.values()}
    with json_artifact(path, ConfigError) as doc:
        opts = _typed(doc, {"data_source": str, "config": dict}).get(
            "data_options", {})
        _read_data_options(opts)
        given = {"data_source": doc.get("data_source"), **{
            f"{name}.{k}": v for name, obj in (
                ("config", doc.get("config") or {}), ("data_options", opts),
                ("data_options.blobs", opts.get("blobs") or {}))
            for k, v in obj.items()}}
        _typed(given, {f: str if isinstance(kind, tuple) else kind
                       for f, kind in kinds.items() if f.startswith("config.")})
        for key, value in given.items():
            if key not in {*kinds, "config.memory_budget",
                           "data_options.blobs", "data_options.blobs.seed"}:
                raise ValueError(f"{key} names no setting")
            if value == "" or isinstance(kinds.get(key), tuple) and (
                    value not in (None, *kinds[key])):
                raise ValueError(f"{key} = {value!r} is not " + (
                    f"one of {kinds[key]}" if value else "a value"))
    return {dest: given.get(f) for dest, (_, f) in _TRAIN_SETTINGS.items()}


def _option(opts: dict, dest: str):
    """Option ``dest`` as ``opts``, a manifest's ``data_options``, records it;
    its default if absent, null or empty (as older trains read a delimiter)."""
    _, default, sources, key = _DATA_OPTIONS[dest]
    value = (opts["blobs"] if "blobs" in sources else opts).get(key)
    if dest == "label_col":  # an int where it reads as one; -1, the last, unset
        with suppress(ValueError):
            return int(-1 if value in (None, "") else value)
    return default if value in (None, "") else value


def _load_data(spec: str, opts: dict,
               snapshot: tuple | None = None) -> Dataset:
    """Load ``spec`` with the options ``opts`` records for its kind of source.
    A ``csv:`` source is read from ``snapshot``, a run's (snapshot path,
    manifest record), when :func:`load_csv_snapshot` finds it holds the
    table a parse would give, and parsed otherwise."""
    if spec == "blobs":
        return make_synthetic_blobs(
            *(_option(opts, f"blob_{k}") for k in "pqn"),
            float(_option(opts, "blob_sep")), opts["blobs"].get("seed", 0))
    if spec.startswith("csv:"):
        path, label, delimiter = (spec[len("csv:"):], _option(opts, "label_col"),
                                  _option(opts, "delimiter"))
        if not path:
            raise DataError("csv: needs a path")
        ds = snapshot and load_csv_snapshot(*snapshot, path, label, delimiter)
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
    split = _option(opts, "split")
    return ds if split is None else split_dataset(
        ds, split, _option(opts, "split_seed"))


def _memory_budget() -> int:
    """``HNF_MEM_BUDGET`` in bytes; the default when it is unset or empty."""
    raw = os.environ.get("HNF_MEM_BUDGET") or str(DEFAULT_MEMORY_BUDGET)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"HNF_MEM_BUDGET must be an integer byte count, "
                          f"got {raw!r}") from None


def _data_options(spec: str | None, values: dict, config: bool) -> dict:
    """The ``data_options`` a manifest records for ``spec``: ``values``' seed
    and the options the source takes (blobs ones if set, others defaulted).
    Refuses a negative seed and a set option the source does not take (any,
    for ``spec`` None: a run's manifest picks the data), by flag (and field)."""
    kind = spec and ("idx4" if spec.startswith("idx:") and spec.count(",") == 3
                     else spec.partition(":")[0])  # idx4: train and test pairs
    opts, blobs = {}, {"seed": values["seed"]}
    named = lambda dest: ("--" + dest.replace("_", "-") + (
        f" (or {_TRAIN_SETTINGS[dest][1]})" if config else ""))
    for dest in ("seed", "split_seed"):
        if (values[dest] or 0) < 0:
            raise ConfigError(f"{named(dest)} must be >= 0, got {values[dest]}")
    for dest, (_, default, sources, key) in _DATA_OPTIONS.items():
        if values[dest] is not None and kind not in sources:
            raise ConfigError(f"{named(dest)} does not apply to " + (
                spec or "verify --run without --data"))
        if kind == "blobs" and values[dest] is not None:
            blobs[key] = values[dest]
        elif kind in sources and kind != "blobs":
            opts[key] = default if values[dest] is None else values[dest]
    return {**opts, "blobs": blobs}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnf",
        description="Layer-wise training of fixed-weight ReLU expansion "
                    "networks with a certified non-increasing training cost.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a network and write artifacts")
    p_train.add_argument("--config", help="a run's manifest.json, or JSON of "
                         "its shape; flags override its values")
    for dest, (kind, field) in _TRAIN_SETTINGS.items():
        if dest != "data" and dest not in _DATA_OPTIONS:  # added below
            p_train.add_argument("--" + dest.replace("_", "-"), help=field, **(
                {"action": "store_true", "default": None} if kind is bool
                else {"choices": kind} if isinstance(kind, tuple)
                else {"type": kind}))
    p_train.add_argument("--out", required=True, help="artifact directory")

    p_eval = sub.add_parser("eval", help="re-evaluate saved artifacts")
    p_eval.add_argument("--run", required=True, help="artifact directory")
    p_eval.add_argument("--data", default=None,
                        help="override the data source recorded in the manifest")
    p_eval.add_argument("--layer", type=int, default=None,
                        help="single layer to evaluate (default: all)")

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--run", required=True, help="artifact directory")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seeds the trials and a --data blobs draw")
    p_verify.add_argument("--trials", type=int, default=200)
    for p in (p_train, p_verify):
        p.add_argument("--data", help="blobs | csv:PATH | idx:IMG,LBL[,TIMG,TLBL]")
        for dest, (kind, default, sources, _) in _DATA_OPTIONS.items():
            p.add_argument("--" + dest.replace("_", "-"), type=kind,
                           help=f"{' or '.join(sources)} only (default {default})")

    return parser


def _typed(doc, types: dict, name: str = "") -> dict:
    """The non-null fields of ``doc`` if it is an object whose ``types``
    fields are null or of that type (a bool only of bool), else a TypeError
    naming ``name`` and the first other field."""
    if not isinstance(doc, dict):
        raise TypeError(f"{name.rstrip('.') or 'document'} is not an object")
    for k, kind in types.items():
        if not isinstance(doc.get(k), (kind, type(None))) or isinstance(
                doc.get(k), bool) and kind is not bool:
            raise TypeError(f"{name}{k} is not {kind}: {doc.get(k)!r}")
    return {k: v for k, v in doc.items() if v is not None}


@contextmanager
def json_artifact(path, error=DataError):
    """Parse a JSON artifact for a ``with`` block that reads its fields; an
    unreadable file or one the block reads, malformed JSON, or a field the
    block finds missing, of the wrong type or out of range becomes an
    ``error`` naming the file."""
    try:
        yield json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc}") from exc
    except (ValueError, KeyError, TypeError, ArithmeticError, ParameterError,
            DimensionError) as exc:
        raise error(f"{path}: malformed or incomplete JSON: {exc!r}") from exc


def save_network(net: HnfNetwork, run: Path) -> None:
    """Write ``weights/wNN.hnfw`` and ``network.json``: ``{"layers": [{"file",
    "rows", "cols", "kind", "seed", "expand", "activation"}, ...]}``, with
    files relative to ``run``."""
    (run / "weights").mkdir(parents=True, exist_ok=True)
    records = []
    for i, layer in enumerate(net.layers):
        fname = f"weights/w{i:02d}.hnfw"
        save_weight(layer.weight, run / fname)
        records.append({"file": fname, **layer.weight.header,
                        "expand": layer.expand,
                        "activation": layer.activation})
    (run / "network.json").write_text(json.dumps({"layers": records}, indent=2))


def load_network(path: Path) -> HnfNetwork:
    """Rebuild a network from a ``network.json`` :func:`save_network` wrote.
    A field of the wrong type, or a weight file whose header disagrees with
    its record, is a :class:`DataError` naming that file."""
    layers = []
    with json_artifact(path) as doc:
        for rec in doc["layers"]:
            typed = _typed(rec, {"file": str, "rows": int, "cols": int,
                                 "expand": bool, "activation": str})
            w = load_weight(path.parent / typed["file"])
            if w.header != {k: rec[k] for k in w.header}:
                raise DataError(f"{path.parent / rec['file']}: header "
                                f"{w.header} is not the layer {path.name} "
                                "records")
            layers.append(HnfLayer(w, expand=typed["expand"],
                                   activation=typed["activation"]))
        return HnfNetwork(tuple(layers))


def save_output_map(om: OutputMap, prefix: Path) -> None:
    """Write ``<prefix>.bin`` (row-major float64) and ``<prefix>.json``."""
    prefix.parent.mkdir(parents=True, exist_ok=True)
    bin_path = prefix.with_suffix(".bin")
    bin_path.write_bytes(np.ascontiguousarray(om.matrix, dtype="<f8"))
    prefix.with_suffix(".json").write_text(json.dumps(_nulled({
        "rows": int(om.matrix.shape[0]),
        "cols": int(om.matrix.shape[1]),
        "epsilon": om.epsilon,
        "train_cost": om.train_cost,
        "layer_index": om.layer_index,
        "solver": om.solver,
        "matrix_file": bin_path.name,
    }), indent=2))


def load_output_map(path: Path) -> OutputMap:
    """Read a map :func:`save_output_map` wrote, finite entries only; a field
    of the wrong type, or an epsilon not null or > 0, is a DataError."""
    with json_artifact(path) as meta:
        typed = _typed(meta, {"rows": int, "cols": int, "layer_index": int,
                              "epsilon": (int, float),
                              "train_cost": (int, float), "matrix_file": str})
        rows, cols = typed["rows"], typed["cols"]
        eps = math.inf if meta["epsilon"] is None else float(meta["epsilon"])
        if not eps > 0:
            raise ValueError(f"epsilon must be null or > 0, got {eps}")
        fitted = (float(typed["train_cost"]), typed["layer_index"],
                  meta["solver"])
        bin_path = path.parent / typed["matrix_file"]
        with open(bin_path, "rb") as fh:
            matrix = read_entries(fh, rows, cols, "map", path.name)
    return OutputMap(matrix, eps, *fitted)


def _nulled(record: dict) -> dict:
    """``record`` with each float that is not finite (as an unconstrained
    epsilon) as None: null in JSON, an empty ``report.csv`` cell."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in record.items()}


def save_report(report: TrainReport, run: Path) -> None:
    """Write the report's rows to ``report.jsonl`` and ``report.csv``."""
    rows = [_nulled(asdict(rec)) for rec in report.rows()]
    csv = [",".join(_CSV_FIELDS), *(",".join(
        "" if d[k] is None else str(d[k]) for k in _CSV_FIELDS) for d in rows)]
    (run / "report.jsonl").write_text("".join(json.dumps(d) + "\n"
                                              for d in rows))
    (run / "report.csv").write_text("".join(line + "\n" for line in csv))


def _check_out_dir(out: Path) -> None:
    """Refuse an existing ``--out`` unless it is empty or a previous run:
    its manifest.json is an object with ``artifacts`` and ``config``."""
    if not out.exists() or (out.is_dir() and not any(out.iterdir())):
        return
    with suppress(DataError), json_artifact(out / "manifest.json") as doc:
        if isinstance(doc, dict) and {"artifacts", "config"} <= doc.keys():
            return
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


def cmd_train(args) -> None:
    given = _read_config(args.config) if args.config else {}
    s = {key: given.get(key) if getattr(args, key) is None  # flags win
         else getattr(args, key) for key in _TRAIN_SETTINGS}
    if None in (s["data"], s["n1"], s["depth"]):
        raise ConfigError("--data, --n1 and --depth are required, as flags or "
                          "--config fields")
    opts = _data_options(s["data"], s, config=True)  # first: names the flag
    cfg = TrainConfig(memory_budget=_memory_budget(), **{
        f[len("config."):]: s[k] for k, (_, f) in _TRAIN_SETTINGS.items()
        if f.startswith("config.") and s[k] is not None})
    opts["blobs"]["seed"] = cfg.seed
    data_spec, out = s["data"], Path(args.out)
    _check_out_dir(out)
    data = _load_data(data_spec, opts)
    net, maps, report = train(data, cfg)

    manifest = {
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "version": __version__,
        "numpy": np.__version__,
        "data_source": data_spec,
        "data_options": opts,
        "dataset": {"name": data.meta["name"], "P": data.input_dim,
                    "Q": data.n_classes, "N_train": len(data.train_idx),
                    "N_test": len(data.test_idx),
                    "label_names": data.label_names, **data.meta},
        "config": asdict(cfg),
        "standardize_params": report.transform and dict(zip(
            ("mu", "sigma"), (a.ravel().tolist() for a in report.transform))),
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
        save_report(report, run)
        if data_spec.startswith("csv:"):
            manifest["data_snapshot"] = save_csv_snapshot(
                data, run / SNAPSHOT_FILE, _option(opts, "label_col"),
                _option(opts, "delimiter"))
        (run / "manifest.json").write_text(json.dumps(manifest, indent=2))

    _replace_dir(out, write)

    for rec in report.rows():
        print(json.dumps(_nulled(asdict(rec))))
    if not report.monotonicity_certified:
        raise SolverError("certification FAILED: training cost chain is not "
                          "certified")


def _load_run(run_dir: str, spec: str | None = None, opts: dict | None = None):
    """A run's data, standardization transform, network, maps and label
    names. The data is ``spec`` loaded with ``opts``, each defaulting to
    the manifest's. A manifest field of the wrong type, length or range
    (maps not one for each layer of ``map_widths``, or label names not one
    per map row, too), or ``data_options`` the data cannot take, is a
    DataError naming manifest.json; a map whose layer or column count does
    not fit the network is one naming the map's file, and a map outside
    its ball a SolverError naming it."""
    run = Path(run_dir)
    with json_artifact(run / "manifest.json") as manifest:
        net = load_network(run / manifest["artifacts"]["network"])
        rels, width = manifest["artifacts"]["maps"], map_widths(net)
        maps = [load_output_map(run / rel) for rel in rels]
        for rel, m in zip(rels, maps):
            if m.matrix.shape[1] != width.get(m.layer_index):
                raise DataError(f"{run / rel}: {m.matrix.shape[1]} columns, "
                                f"but the map of layer {m.layer_index} reads "
                                f"{width.get(m.layer_index, 'no')} features")
            if not within_ball(m.matrix, m.epsilon):
                raise SolverError(f"{run / rel}: squared norm "
                                  f"{float(np.sum(m.matrix ** 2)):.6e} is "
                                  f"outside its ball, epsilon {m.epsilon:.6e}")
        if sorted(m.layer_index for m in maps) != sorted(width):
            raise ValueError(f"maps {rels} are not one per layer of "
                             f"{sorted(width)}")
        std, transform = manifest.get("standardize_params"), None
        if std is not None:  # mu and sigma as (P, 1) columns
            transform = np.array([std["mu"], std["sigma"]], dtype=np.float64
                                 ).reshape(2, net.layers[0].in_dim, 1)
            if not (np.isfinite(transform).all() and (transform[1] > 0).all()):
                raise ValueError("standardize_params must be finite, sigma > 0")
        names = _typed(manifest.get("dataset") or {},
                       {"label_names": list}).get("label_names")
        if names is not None and not (all(isinstance(n, str) for n in names)
                                      and len(set(names)) == len(names)
                                      and {len(m.matrix) for m in maps}
                                      <= {len(names)}):
            raise TypeError(f"label_names {names!r} are not distinct strings, "
                            "one per row of every map")
        snapshot = run / SNAPSHOT_FILE, manifest.get("data_snapshot")
        spec = spec or manifest.get("data_source")
        manifest_opts = opts is None  # null takes the default
        opts = opts or _read_data_options(manifest.get("data_options"))
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


def cmd_eval(args) -> None:
    data, transform, net, maps, names = _load_run(args.run, args.data)
    if names is not None:  # a file may lack some of the run's classes
        data = data.relabel(names)
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


def cmd_verify(args) -> None:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    opts = _data_options(args.data, vars(args), config=False)
    data, _, net, _, _ = _load_run(args.run, args.data, args.data and opts)
    report = verify_invariants(net, data, args.trials, args.seed)
    print(f"{'check':<28} {'trials':>7} {'violations':>11} {'worst_margin':>13}")
    for chk in report.checks:
        margin = f"{chk.worst_margin:.3e}" if chk.count else "-"
        note = f"  ({chk.note})" if chk.note else ""
        print(f"{chk.name:<28} {chk.count:>7} {chk.violations:>11} "
              f"{margin:>13}{note}")
    if not report.passed:
        raise SolverError("invariant checks FAILED")


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
        _COMMANDS[args.command](args)
        return 0
    except (HnfError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        # an OSError exits as a DataError, a MemoryError as a ResourceError
        return (exc if isinstance(exc, HnfError) else DataError
                if isinstance(exc, OSError) else ResourceError).exit_code


if __name__ == "__main__":
    sys.exit(main())
