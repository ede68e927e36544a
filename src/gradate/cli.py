"""Command-line surface: split, gdd, select.

stdout carries machine-readable JSON only; diagnostics, including the fully
resolved configuration of every run, go to stderr. Exit codes: 0 success,
2 usage or input error, 3 numerical failure (partial output suppressed).

Outputs are byte-reproducible for identical inputs, flags and seed: the
provenance timestamp is derived from the dataset file, not the wall clock.
"""

from __future__ import annotations

import argparse
import csv
import datetime as _dt
import json
import os
import sys
from dataclasses import fields, replace
from io import StringIO
from pathlib import Path

import numpy as np

from . import io
from .errors import ConfigInvalid, GradateError, NonConvergence, NumericalFailure, SchemaError
from .gdd import gdd_from_cost
from .pipeline import SelectionConfig, build_cost, gradate, lava_select, random_select

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# Config keys named as in SelectionConfig take its defaults; the rest are
# CLI-only.
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(SelectionConfig)}
_COMMON_DEFAULTS = {
    **{key: _CONFIG_DEFAULTS[key]
       for key in ("c", "alpha", "nbar", "solver", "epsilon", "seed")},
    "val_labels": True,
}
_SELECT_DEFAULTS = {**_COMMON_DEFAULTS, "method": None, "tau": None,
                    "eta": _CONFIG_DEFAULTS["eta"], "T": _CONFIG_DEFAULTS["T"]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradate",
        description="Optimal-transport training-data selection for graph datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("split", help="sort by a graph property and split 60/20/20")
    sp.add_argument("dataset", help="TUDataset directory or native .json file")
    sp.add_argument("--by", choices=tuple(io._SHIFT_PROPERTIES), default="density")
    sp.add_argument("--out", required=True, help="where to write the split JSON")
    sp.set_defaults(func=cmd_split)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("dataset", help="TUDataset directory or native .json file")
    common.add_argument("split", help="split JSON produced by `gradate split`")
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--c", type=float, default=None, help="label signal strength")
    common.add_argument("--alpha", type=float, default=None, help="FGW trade-off")
    common.add_argument("--nbar", type=int, default=None, help="reference graph size")
    common.add_argument("--solver", choices=("exact", "sinkhorn"), default=None)
    common.add_argument("--epsilon", type=float, default=None, help="sinkhorn regularization")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--cache-dir", default=None,
                        help="cache directory for datasets, distance matrices and OT solves "
                             "(env GRADATE_CACHE_DIR overrides default)")
    common.add_argument("--no-val-labels", dest="val_labels", action="store_const",
                        const=False, default=None,
                        help="ignore validation labels and force c=0")

    gp = sub.add_parser("gdd", parents=[common],
                        help="dataset distance between the train and val splits")
    gp.add_argument("--weights", default=None,
                    help="JSON weight array or selection file over the train split")
    gp.add_argument("--force", action="store_true",
                    help="accept a selection file whose dataset hash disagrees")
    gp.set_defaults(func=cmd_gdd, parser=gp)

    lp = sub.add_parser("select", parents=[common], help="select training data")
    lp.add_argument("--method", choices=("gradate", "lava", "random"), default=None)
    lp.add_argument("--tau", type=float, default=None, help="selection ratio")
    lp.add_argument("--eta", type=float, default=None, help="learning rate")
    lp.add_argument("--T", type=int, default=None, dest="T", help="update steps")
    lp.add_argument("--out", required=True, help="where to write the selection JSON")
    lp.add_argument("--trace", default=None, help="optional per-iteration CSV")
    lp.set_defaults(func=cmd_select, parser=lp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NumericalFailure, NonConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (GradateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


# ---------------------------------------------------------------------------
# config plumbing

def _resolve(args, defaults: dict) -> dict:
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        file_cfg = io._read_json(config_path)
        if not isinstance(file_cfg, dict):
            raise ConfigInvalid(f"{config_path}: config must be a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigInvalid(f"unknown config keys {sorted(unknown)}")
        flags = {action.dest: action for action in args.parser._actions}
        resolved.update({key: _check_file_value(flags[key], value, defaults[key])
                         for key, value in file_cfg.items()})
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    resolved["dataset"] = args.dataset
    resolved["split"] = args.split
    return resolved


def _check_file_value(action: argparse.Action, value, default):
    """A config-file value as its flag would set it, or a None default.

    The flag's own type and choices decide; a store_const flag takes values
    of its constant's type. A float flag also takes a JSON integer, as a float.
    """
    if value is None and default is None:
        return None
    kind = type(action.const) if action.const is not None else action.type or str
    accepted = (int, float) if kind is float else kind
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted)
            or (action.choices is not None and value not in action.choices)):
        raise ConfigInvalid(
            f"config value {value!r} for {action.dest!r} is not a valid "
            f"{action.option_strings[0]} value"
        )
    return float(value) if kind is float else value


def _log_config(resolved: dict) -> None:
    print("resolved config: " + json.dumps(resolved, sort_keys=True), file=sys.stderr)


def _selection_config(resolved: dict) -> SelectionConfig:
    # T and eta are select-only; gdd leaves them at SelectionConfig's defaults.
    cfg = SelectionConfig(**{key: resolved[key] for key in _CONFIG_DEFAULTS if key in resolved})
    # The given c is checked above even when no validation labels are read.
    return cfg if resolved["val_labels"] else replace(cfg, c=0.0)


def _cache_dir(args) -> Path:
    flag = getattr(args, "cache_dir", None)
    raw = flag or os.environ.get("GRADATE_CACHE_DIR") or ".gradate_cache"
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_splits(args, cache: Path):
    raw = io.load_dataset(args.dataset, cache)
    digest = io.dataset_hash(raw)
    split = io.load_split(args.split, expected_hash=digest)
    covered = len(split.train_idx) + len(split.val_idx) + len(split.test_idx)
    if covered != len(raw):
        raise SchemaError(
            f"split covers {covered} graphs but the dataset has {len(raw)}"
        )
    return digest, raw.subset(split.train_idx), raw.subset(split.val_idx)


def _dataset_stamp(dataset_path) -> str:
    """Deterministic provenance timestamp: the dataset's mtime in UTC."""
    mtime = Path(dataset_path).stat().st_mtime
    return _dt.datetime.fromtimestamp(int(mtime), tz=_dt.timezone.utc).isoformat()


def _load_weights(path, n: int, expected_hash: str, force: bool) -> np.ndarray:
    payload = io._read_json(path)
    if isinstance(payload, list):
        # As in a selection file: a string or a boolean (a subclass of int) is no number.
        if any(type(x) not in (int, float) for x in payload):
            raise SchemaError(f"{path}: weights must be numbers")
        try:
            w = np.asarray(payload, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            raise SchemaError(f"{path}: weights must be numbers in the float range") from None
        if w.shape != (n,):
            raise SchemaError(f"{path}: {w.shape[0]} weights for {n} training graphs")
        return w
    selection = io.load_selection(path, expected_hash=expected_hash, force=force)
    w = np.zeros(n)
    for i, x in zip(selection.indices, selection.weights):
        if i >= n:
            raise SchemaError(f"{path}: selection index {i} outside the train split")
        w[i] = x
    return w


# ---------------------------------------------------------------------------
# commands

def cmd_split(args) -> int:
    dataset = io.load_dataset(args.dataset)
    split = io.covariate_split(dataset, args.by)
    io.save_split(split, args.out, dataset_digest=io.dataset_hash(dataset))
    print(json.dumps({
        "split": args.out,
        "sizes": {"train": len(split.train_idx), "val": len(split.val_idx),
                  "test": len(split.test_idx)},
    }, sort_keys=True))
    return EXIT_OK


def cmd_gdd(args) -> int:
    resolved = _resolve(args, _COMMON_DEFAULTS)
    _log_config(resolved)
    cfg = _selection_config({**resolved, "tau": 1.0})
    cache = _cache_dir(args)
    digest, train, val = _load_splits(args, cache)
    dtilde = build_cost(train, val, cfg, cache)
    w = None
    if args.weights:
        w = _load_weights(args.weights, len(train), digest, args.force)
    value, _ = gdd_from_cost(dtilde, w, cfg.ot_solver(cache))
    print(json.dumps({"gdd": value, "config": resolved}, sort_keys=True))
    return EXIT_OK


def cmd_select(args) -> int:
    resolved = _resolve(args, _SELECT_DEFAULTS)
    _log_config(resolved)
    if resolved["method"] is None:
        raise ConfigInvalid("--method is required (gradate, lava or random)")
    if resolved["tau"] is None:
        raise ConfigInvalid("--tau is required")
    cfg = _selection_config(resolved)
    cache = _cache_dir(args)
    digest, train, val = _load_splits(args, cache)

    method = resolved["method"]
    if method == "random":
        result = random_select(train, cfg.tau, cfg.seed)
    else:
        select = gradate if method == "gradate" else lava_select
        result = select(train, val, cfg, cache_dir=cache)

    provenance = dict(result.provenance)
    provenance["config"] = resolved
    provenance["dataset_hash"] = digest
    result = replace(result, provenance=provenance)
    io.save_selection(result, args.out, created_at=_dataset_stamp(args.dataset))

    if args.trace:
        _write_trace(result, args.trace)
    print(json.dumps({
        "selection": args.out,
        "method": method,
        "n_selected": len(result.indices),
    }, sort_keys=True))
    return EXIT_OK


def _write_trace(result, path) -> None:
    """Write the per-iteration CSV, in csv's CRLF rows, atomically as every other output."""
    rows = StringIO()
    writer = csv.writer(rows)
    writer.writerow(["t", "gdd", "support"])
    if result.trace is not None:
        for t, value, support in result.trace.rows():
            writer.writerow([t, repr(value), support])
    io._atomic_write_bytes(Path(path), rows.getvalue().encode())


if __name__ == "__main__":
    sys.exit(main())
