"""Command-line front end: flag parsing, dispatch, and result serialization.

Commands (selected with ``--command``):

* ``estimate``      fit the tolerance parameter from experiment files
* ``curves``        sample group-mean rewards along a theta grid
* ``simulate-mc``   run the Monte-Carlo study
* ``consistency``   sweep the estimate's spread across sample sizes
* ``ingest-check``  parse and validate inputs without estimating

Each command has its own parser, holding only the flags it reads.  Every
command's output is its configuration, its scalars and at most one table,
written by one writer only to ``--out``: as JSON (the table as one list per
column) or as CSV (scalars as ``# key=value`` lines, then the table's rows).
Outputs carry the seed, never include timestamps, and serialize floats at
full (shortest round-trip) precision, so both formats carry identical values.

Exit codes: 0 success, 1 validation or data error (including inputs that
are not UTF-8, and an ``ingest-check`` that finds violations), 2
configuration error (including a flag argparse rejects, and an ``--out``
that cannot be written, which is checked before any work).  A failed run
removes an ``--out`` that it created and left empty.  Failures emit a machine-readable
``{"error": {"class", "message"}}`` object on stderr.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from argparse import SUPPRESS, ArgumentParser, ArgumentTypeError, Namespace
from dataclasses import asdict
from typing import NoReturn

import numpy as np

from .core import DivergenceSpec, Norm, validate_dataset
from .errors import (
    ConfigurationError,
    DataError,
    DegenerateObjectiveError,
    DivtolError,
    InputError,
    LinkageError,
)
from .estimator import (
    BOOTSTRAP_MAX_REPLICATES,
    MIN_GRID_STEP,
    bootstrap_ci,
    estimate_theta,
    grid_intervals,
    reward_curves,
)
from .ingest import (
    StudyLayout,
    assemble_dataset,
    average_sessions,
    bin_events,
    parse_binned_counts,
    parse_events,
    parse_exposures,
)
from .simulation import McConfig, PolicyConfig, consistency_sweep, run_monte_carlo

__all__ = ["build_parser", "main", "entrypoint"]

CURVES_DEFAULT_GRID_STEP = 0.005  # 201 grid points

#: largest --n (each entry, for consistency) and --datasets accepted; both
#: size the arrays the simulation commands allocate
MAX_N = 10**7
MAX_DATASETS = 10**6


class _Parser(ArgumentParser):
    """An argument parser whose usage errors are configuration errors, not exits."""

    def error(self, message: str) -> NoReturn:
        if message.endswith("expected one argument"):
            # argparse reads a value such as -1e100 as an option
            message += "; a value that starts with '-' must follow '=', as in --optimal=-1e100"
        raise ConfigurationError(message)


def _within(convert, lo=None, hi=math.inf, *, closed=True, many=False):
    """An argparse ``type``: ``convert`` of the value, or of each comma-separated part if
    ``many``.  Unless ``lo`` is None, each lies in [lo, hi], or in (lo, hi) if not ``closed``."""

    def parse(raw: str):
        values = tuple(map(convert, raw.split(","))) if many else (convert(raw),)
        if lo is not None and not all(lo <= v <= hi if closed else lo < v < hi for v in values):
            bounds = f"[{lo}, {hi}]" if closed else f"({lo}, {hi})"
            raise ArgumentTypeError(f"must lie in {bounds}, got {raw}")
        return values if many else values[0]

    parse.__name__ = convert.__name__  # argparse's "invalid int value" error names it
    return parse


def _grid_step(raw: str) -> float:
    """An argparse ``type``: a theta grid step in [MIN_GRID_STEP, 1] that divides 1."""
    try:
        grid_intervals(step := _within(float, MIN_GRID_STEP, 1.0)(raw))
    except InputError as exc:
        raise ArgumentTypeError(str(exc)) from None
    return step


_grid_step.__name__ = "float"  # argparse's "invalid float value" error names it


def _sweep_sizes(raw: str) -> tuple:
    """An argparse ``type``: the non-decreasing sample sizes of ``consistency``."""
    ns = _within(int, 2, MAX_N, many=True)(raw)
    if list(ns) != sorted(ns):
        raise ArgumentTypeError(f"must be non-decreasing, got {raw}")
    return ns


def build_parser(command: str | None = None) -> ArgumentParser:
    """The parser of the flags ``command`` reads, each with that command's default and range.

    Without a command it reads only ``--command``, and its ``--help`` lists the commands.
    """
    p = _Parser(prog="divtol", allow_abbrev=False, description="Estimate a group's tolerance for "
                "divergence from optimality in fixed-interval experiments.")
    p.add_argument("--command", required=True, choices=tuple(_DISPATCH))
    if command is None:
        return p
    if command in ("estimate", "curves", "ingest-check"):
        p.add_argument("--exposures", required=True, help="exposures CSV (mouse_id,exposed)")
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--bins", help="binned counts CSV (mouse_id,session,b0,...)")
        source.add_argument("--events", help="raw press events CSV (mouse_id,session,press_time_s)")
    if command in ("estimate", "curves"):
        p.add_argument("--optimal", required=True, type=_within(float, -math.inf, closed=False,
                                                                 many=True),
                       help="optimal action: scalar or comma-separated vector")
        p.add_argument("--norm", choices=tuple(norm.value for norm in Norm), default="l2")
        p.add_argument("--weights", choices=("none", "sixty-minus-midpoint"), default="none",
                       help="per-bin weights: none, or interval length minus bin midpoints")
    if command == "estimate":
        p.add_argument("--bootstrap", type=_within(int, 100, BOOTSTRAP_MAX_REPLICATES),
                       metavar="N", help="bootstrap replicates of a percentile interval")
        # absent unless given; _parse_args defaults them with --bootstrap and refuses them without
        p.add_argument("--level", type=_within(float, 0.0, 1.0, closed=False), default=SUPPRESS,
                       help="interval level of --bootstrap (default 0.95)")
        p.add_argument("--seed", type=_within(int, 0), default=SUPPRESS,
                       help="resampling seed of --bootstrap (default 0)")
    if command == "curves":
        p.add_argument("--grid-step", type=_grid_step, default=CURVES_DEFAULT_GRID_STEP,
                       help="theta grid step (default %(default)s)")
    if command in ("simulate-mc", "consistency"):
        p.add_argument("--seed", type=_within(int, 0), default=0)
        p.add_argument("--optimal", type=_within(float, -math.inf, closed=False), default=0.0,
                       help="scalar optimal action")
    if command == "simulate-mc":
        p.add_argument("--n", type=_within(int, 2, MAX_N), default=50,
                       help="animals per dataset (default %(default)s)")
        p.add_argument("--datasets", type=_within(int, 1, MAX_DATASETS), default=2000)
        p.add_argument("--p-exposed", type=_within(float, 0.0, 1.0, closed=False), default=0.5)
    if command == "consistency":
        p.add_argument("--n", type=_sweep_sizes, default=(50, 200, 800),
                       help="non-decreasing sample sizes (default 50,200,800)")
        p.add_argument("--datasets", type=_within(int, 2, MAX_DATASETS), default=200)
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return p


def _parse_args(argv: list[str] | None) -> Namespace:
    """``argv`` parsed by its command's parser: the run configuration, echoed but for ``out``."""
    head = _Parser(add_help=False, allow_abbrev=False)
    head.add_argument("--command", choices=tuple(_DISPATCH))
    parser = build_parser(head.parse_known_args(argv)[0].command)
    cfg, extra = parser.parse_known_args(argv)
    unread = [arg.split("=")[0] for arg in extra if arg.startswith("--")]
    if unread:
        raise ConfigurationError(f"--command {cfg.command} does not read {', '.join(unread)}")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if cfg.command == "estimate":
        given = [f"--{key}" for key in ("level", "seed") if key in cfg]
        if cfg.bootstrap is None and given:
            raise ConfigurationError(
                f"--command estimate reads {', '.join(given)} only with --bootstrap"
            )
        if cfg.bootstrap is not None:
            cfg.level, cfg.seed = getattr(cfg, "level", 0.95), getattr(cfg, "seed", 0)
    return cfg


def _load_dataset(cfg: Namespace):
    """Return the dataset, its layout and the exposure ids that have no actions."""
    if not os.path.exists(cfg.exposures):
        raise LinkageError(f"exposures file not found: {cfg.exposures}")
    exposures = parse_exposures(cfg.exposures)
    if cfg.bins is not None:
        sessions = parse_binned_counts(cfg.bins)
    else:
        sessions = bin_events(parse_events(cfg.events), StudyLayout())
    ds, unmatched = assemble_dataset(exposures, average_sessions(sessions))
    return ds, sessions.layout, unmatched


def _build_spec(cfg: Namespace, layout: StudyLayout) -> DivergenceSpec:
    optimal = np.array(cfg.optimal, dtype=float)
    if optimal.shape[0] != layout.n_bins:
        raise InputError(
            f"--optimal has length {optimal.shape[0]} but the data has {layout.n_bins} bins"
        )
    weights = None
    if cfg.weights == "sixty-minus-midpoint":
        weights = layout.interval_length_s - layout.midpoints
    return DivergenceSpec(optimal=optimal, norm=Norm(cfg.norm), weights=weights)


def _interpretation(theta_e: float) -> str:
    if theta_e < 0.5:
        return "theta_e < 0.5: exposed group tolerates divergence from optimality more than controls"
    if theta_e > 0.5:
        return "theta_e > 0.5: exposed group tolerates divergence from optimality less than controls"
    return "theta_e = 0.5: both groups tolerate divergence from optimality equally"


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, float):
        return repr(v)
    return str(v)


#: a line break inside a ``# key=value`` line is written as its backslash
#: escape, so an id or a path holding one cannot end the line early
_LINE_BREAK_ESCAPES = str.maketrans({"\r": "\\r", "\n": "\\n"})


def _open_out(path: str, mode: str):
    try:
        return open(path, mode, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def _write(cfg: Namespace, scalars: dict, table: tuple[str, dict] | None = None) -> None:
    """Write the config echo, ``scalars`` and an optional table to ``--out``.

    ``table`` is ``(key, columns)``, ``columns`` a dict of column name to a
    list of Python scalars.  JSON nests ``columns`` under ``key``; CSV writes
    the flattened scalars as ``# key=value`` lines, then the table's header
    and rows.
    """
    config = {key: value for key, value in vars(cfg).items() if key != "out"}
    payload = {"config": config, **scalars}
    with _open_out(cfg.out, "w") as fh:
        if cfg.format == "json":
            if table is not None:
                key, columns = table
                payload[key] = columns
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            for name, value in _flatten(payload):
                fh.write(f"# {name}={_fmt_value(value).translate(_LINE_BREAK_ESCAPES)}\n")
            if table is not None:
                _, columns = table
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows(map(_fmt_value, row) for row in zip(*columns.values()))


def _flatten(obj: dict, prefix: str = "") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    for key in sorted(obj):
        value = obj[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            items.extend(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            # one CSV record, so an id holding a comma stays one field
            record = io.StringIO()
            csv.writer(record, lineterminator="").writerow(map(_fmt_value, value))
            items.append((name, record.getvalue()))
        else:
            items.append((name, value))
    return items


def cmd_estimate(cfg: Namespace) -> None:
    ds, layout, unmatched = _load_dataset(cfg)
    spec = _build_spec(cfg, layout)
    result = estimate_theta(ds, spec)
    interval = None
    if cfg.bootstrap is not None:
        lo, hi = bootstrap_ci(ds, spec, replicates=cfg.bootstrap, seed=cfg.seed, level=cfg.level)
        interval = {"lo": lo, "hi": hi, "replicates": cfg.bootstrap, "level": cfg.level}
    result_echo = {
        "theta_e": result.theta_e,
        "objective_at_min": result.objective_at_min,
        "quadratic": dict(zip(("var_u", "cov_uv", "var_v"), result.quadratic)),
        "bootstrap": interval,
    }
    _write(cfg, {"result": result_echo, "unmatched_exposure_ids": unmatched})
    print(f"theta_e = {result.theta_e!r} ({_interpretation(result.theta_e)})")


def cmd_curves(cfg: Namespace) -> None:
    ds, layout, unmatched = _load_dataset(cfg)
    spec = _build_spec(cfg, layout)
    grid = np.linspace(0.0, 1.0, grid_intervals(cfg.grid_step) + 1)
    curves = reward_curves(ds, spec, grid)
    try:
        theta_hat = estimate_theta(ds, spec).theta_e
    except DegenerateObjectiveError:
        theta_hat = None
    gap = None
    if theta_hat is not None and curves.crossing_theta is not None:
        gap = abs(curves.crossing_theta - theta_hat)
    metadata = {"crossing_theta": curves.crossing_theta, "theta_e": theta_hat, "crossing_gap": gap}
    columns = {
        "theta": curves.thetas.tolist(),
        "mean_reward_exposed": curves.mean_reward_exposed.tolist(),
        "mean_reward_control": curves.mean_reward_control.tolist(),
    }
    _write(cfg, {"metadata": metadata, "unmatched_exposure_ids": unmatched}, ("samples", columns))
    print(f"crossing_theta = {curves.crossing_theta!r}, theta_e = {theta_hat!r}")


def cmd_simulate_mc(cfg: Namespace) -> None:
    mc = McConfig(n_per_dataset=cfg.n, num_datasets=cfg.datasets, p_exposed=cfg.p_exposed,
                  seed=cfg.seed, optimal_action=cfg.optimal)
    policy = PolicyConfig()
    result = run_monte_carlo(mc, policy)
    summary = {
        "frac_theta_below_half": result.frac_theta_below_half,
        "frac_b1_above_zero": result.frac_b1_above_zero,
        "degenerate_count": result.degenerate_count,
        "replicates_used": len(result.theta_estimates),
    }
    estimates = {"theta": result.theta_estimates.tolist(), "b1": result.b1_estimates.tolist()}
    _write(cfg, {"policy": asdict(policy), "summary": summary}, ("estimates", estimates))
    print(
        f"frac(theta < 0.5) = {result.frac_theta_below_half:.4f}, "
        f"frac(b1 > 0) = {result.frac_b1_above_zero:.4f} "
        f"over {len(result.theta_estimates)} datasets"
    )


def cmd_consistency(cfg: Namespace) -> None:
    policy = PolicyConfig()
    rows = consistency_sweep(policy, ns=list(cfg.n), replicates=cfg.datasets, seed=cfg.seed,
                             optimal_action=cfg.optimal)
    columns = {c: [getattr(r, c) for r in rows] for c in ("n", "mean_theta", "sd_theta")}
    _write(cfg, {"policy": asdict(policy)}, ("rows", columns))
    print("; ".join(f"n={r.n}: sd={r.sd_theta:.5f}" for r in rows))


def cmd_ingest_check(cfg: Namespace) -> None:
    violations: list[str] = []
    n = dimension = unmatched = None
    try:
        ds, _, unmatched = _load_dataset(cfg)
    except DivtolError as exc:
        violations.append(f"{type(exc).__name__}: {exc}")
    else:
        n = len(ds)
        dimension = ds.dimension
        violations.extend(validate_dataset(ds))
    scalars = {"n": n, "dimension": dimension, "unmatched_exposure_ids": unmatched}
    _write(cfg, scalars, ("violations", {"violation": violations}))
    if violations:
        raise DataError(f"{len(violations)} violation(s) found, listed in {cfg.out}")
    print("clean")


_DISPATCH = {
    "estimate": cmd_estimate,
    "curves": cmd_curves,
    "simulate-mc": cmd_simulate_mc,
    "consistency": cmd_consistency,
    "ingest-check": cmd_ingest_check,
}


def _emit_error(exc: Exception) -> None:
    obj = {"error": {"class": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(obj, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = _parse_args(argv)
        created = not os.path.exists(cfg.out)
        _open_out(cfg.out, "a").close()  # fail before the work, not after it
        try:
            _DISPATCH[cfg.command](cfg)
        except BaseException:
            if created and os.path.getsize(cfg.out) == 0:
                os.remove(cfg.out)
            raise
        return 0
    except ConfigurationError as exc:
        _emit_error(exc)
        return 2
    except DivtolError as exc:
        _emit_error(exc)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
