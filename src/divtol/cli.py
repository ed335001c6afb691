"""Command-line front end: flag parsing, dispatch, and result serialization.

Commands (selected with ``--command``):

* ``estimate``      fit the tolerance parameter from experiment files
* ``curves``        sample group-mean rewards along a theta grid
* ``simulate-mc``   run the Monte-Carlo study
* ``consistency``   sweep the estimate's spread across sample sizes
* ``ingest-check``  parse and validate inputs without estimating

Every command's output is the effective configuration, its scalars and at
most one table, written by one writer only to ``--out``: as JSON (the table
as one list per column) or as CSV (scalars as ``# key=value`` lines, then
the table's rows).  Outputs carry the seed, never include timestamps, and
serialize floats at full (shortest round-trip) precision, so both formats
carry identical values.

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
import os
import sys
from argparse import ArgumentParser, Namespace
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
    DEFAULT_GRID_STEP,
    Method,
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


def build_parser() -> ArgumentParser:
    p = _Parser(
        prog="divtol",
        description="Estimate a group's tolerance for divergence from optimality "
        "in fixed-interval experiments.",
    )
    p.add_argument("--command", required=True, choices=tuple(_DISPATCH))
    p.add_argument("--exposures", help="exposures CSV (mouse_id,exposed)")
    p.add_argument("--bins", help="binned counts CSV (mouse_id,session,b0,...)")
    p.add_argument("--events", help="raw press events CSV (mouse_id,session,press_time_s)")
    p.add_argument("--optimal", help="optimal action: scalar or comma-separated vector")
    p.add_argument("--norm", choices=("l2", "l1"), default="l2")
    p.add_argument(
        "--weights",
        choices=("none", "sixty-minus-midpoint"),
        default="none",
        help="per-bin weights: none, or interval length minus bin midpoints",
    )
    p.add_argument("--method", choices=("closed-form", "grid"), default="closed-form")
    p.add_argument(
        "--grid-step",
        type=float,
        default=None,
        help="theta grid step (default 1e-6 for the grid estimator, 0.005 for curves)",
    )
    p.add_argument("--bootstrap", type=int, default=None, metavar="N")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", default=None, help="sample size, or comma list for consistency")
    p.add_argument("--datasets", type=int, default=None)
    p.add_argument("--p-exposed", type=float, default=0.5, dest="p_exposed")
    p.add_argument("--out", help="output file path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return p


def _parse_list(raw: str, convert, flag: str) -> tuple:
    """The comma-separated values of ``--flag``, each passed through ``convert``."""
    try:
        return tuple(convert(part) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse --{flag} {raw!r}: {exc}") from exc


def _resolve_config(args: Namespace) -> Namespace:
    """Check the parsed flags and resolve the per-command defaults onto ``args``.

    The returned namespace is the run's configuration: every output echoes
    all of it except ``out``.
    """
    command = args.command
    if args.out is None:
        raise ConfigurationError("--out is required")
    if args.seed < 0:
        raise ConfigurationError("--seed must be nonnegative")
    if not 0.0 < args.level < 1.0:
        raise ConfigurationError("--level must lie in (0, 1)")
    if args.bootstrap is not None and not 100 <= args.bootstrap <= BOOTSTRAP_MAX_REPLICATES:
        raise ConfigurationError(f"--bootstrap must lie in [100, {BOOTSTRAP_MAX_REPLICATES}]")
    if not 0.0 < args.p_exposed < 1.0:
        raise ConfigurationError("--p-exposed must lie in (0, 1)")

    if command in ("estimate", "curves", "ingest-check"):
        if args.exposures is None:
            raise ConfigurationError(f"--exposures is required for {command}")
        if (args.bins is None) == (args.events is None):
            raise ConfigurationError(f"exactly one of --bins/--events is required for {command}")

    if args.optimal is not None:
        args.optimal = _parse_list(args.optimal, float, "optimal")
    if command in ("estimate", "curves") and args.optimal is None:
        raise ConfigurationError(f"--optimal is required for {command}")
    if command in ("simulate-mc", "consistency"):
        if args.optimal is None:
            args.optimal = (0.0,)
        if len(args.optimal) != 1:
            raise ConfigurationError(f"--optimal must be scalar for {command}")

    max_step = 1.0 if command == "curves" else 0.5
    if args.grid_step is None:
        args.grid_step = CURVES_DEFAULT_GRID_STEP if command == "curves" else DEFAULT_GRID_STEP
    elif not DEFAULT_GRID_STEP <= args.grid_step <= max_step:
        raise ConfigurationError(f"--grid-step must lie in [{DEFAULT_GRID_STEP}, {max_step}]")
    else:
        try:
            grid_intervals(args.grid_step)
        except InputError:
            raise ConfigurationError(f"--grid-step must divide 1, got {args.grid_step!r}") from None

    sweep = command == "consistency"
    if args.n is None:
        args.n = (50, 200, 800) if sweep else (50,)
    else:
        args.n = _parse_list(args.n, int, "n")
    if args.datasets is None:
        args.datasets = 200 if sweep else 2000
    if not sweep and len(args.n) != 1:
        raise ConfigurationError(f"--n must be a single integer for {command}")
    if not all(2 <= n <= MAX_N for n in args.n):
        raise ConfigurationError(f"--n values must lie in [2, {MAX_N}]")
    min_datasets = 2 if sweep else 1
    if not min_datasets <= args.datasets <= MAX_DATASETS:
        raise ConfigurationError(f"--datasets must lie in [{min_datasets}, {MAX_DATASETS}]")
    if sweep:
        if list(args.n) != sorted(args.n):
            raise ConfigurationError("--n must be non-decreasing for consistency")
        if args.p_exposed != 0.5:
            raise ConfigurationError("--p-exposed must be 0.5 for consistency, its fixed rate")
    return args


def _load_dataset(cfg: Namespace):
    """Return the dataset, its layout and the exposure ids that have no actions."""
    if not os.path.exists(cfg.exposures):
        raise LinkageError(f"exposures file not found: {cfg.exposures}")
    exposures = parse_exposures(cfg.exposures)
    if cfg.bins is not None:
        sessions = parse_binned_counts(cfg.bins)  # bin count from the header
    else:
        sessions = bin_events(parse_events(cfg.events), StudyLayout())
    layout = sessions.layout
    actions = average_sessions(sessions, layout)
    ds, unmatched = assemble_dataset(exposures, actions, layout)
    return ds, layout, unmatched


def _build_spec(cfg: Namespace, layout: StudyLayout) -> DivergenceSpec:
    optimal = np.array(cfg.optimal, dtype=float)
    if optimal.shape[0] != layout.n_bins:
        raise InputError(
            f"--optimal has length {optimal.shape[0]} but the data has {layout.n_bins} bins"
        )
    weights = None
    if cfg.weights == "sixty-minus-midpoint":
        weights = layout.interval_length_s - layout.midpoints
    norm = Norm.L2_SQUARED if cfg.norm == "l2" else Norm.L1
    return DivergenceSpec(optimal=optimal, norm=norm, weights=weights)


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


def _write(cfg: Namespace, scalars: dict, table: tuple[str, list[str], list] | None = None) -> None:
    """Write the config echo, ``scalars`` and an optional table to ``--out``.

    ``table`` is ``(key, columns, rows)``.  JSON nests it under ``key`` as one
    list per column; CSV writes the flattened scalars as ``# key=value`` lines,
    then the table's header and rows.
    """
    config = {key: value for key, value in vars(cfg).items() if key != "out"}
    payload = {"config": config, **scalars}
    with _open_out(cfg.out, "w") as fh:
        if cfg.format == "json":
            if table is not None:
                key, columns, rows = table
                payload[key] = {c: [row[j] for row in rows] for j, c in enumerate(columns)}
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            for name, value in _flatten(payload):
                fh.write(f"# {name}={_fmt_value(value).translate(_LINE_BREAK_ESCAPES)}\n")
            if table is not None:
                _, columns, rows = table
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows([_fmt_value(cell) for cell in row] for row in rows)


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
    method = Method.CLOSED_FORM if cfg.method == "closed-form" else Method.GRID
    result = estimate_theta(ds, spec, method=method, grid_step=cfg.grid_step)
    interval = None
    if cfg.bootstrap is not None:
        lo, hi = bootstrap_ci(ds, spec, replicates=cfg.bootstrap, seed=cfg.seed, level=cfg.level)
        interval = {"lo": lo, "hi": hi, "replicates": cfg.bootstrap, "level": cfg.level}
    var_u, cov_uv, var_v = result.quadratic
    result_echo = {
        "theta_e": result.theta_e,
        "objective_at_min": result.objective_at_min,
        "method": result.method.name,
        "clamped": result.clamped,
        "quadratic": {"var_u": var_u, "cov_uv": cov_uv, "var_v": var_v},
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
        "theta": curves.thetas,
        "mean_reward_exposed": curves.mean_reward_exposed,
        "mean_reward_control": curves.mean_reward_control,
    }
    rows = list(zip(*(c.tolist() for c in columns.values())))
    _write(
        cfg,
        {"metadata": metadata, "unmatched_exposure_ids": unmatched},
        ("samples", list(columns), rows),
    )
    print(f"crossing_theta = {curves.crossing_theta!r}, theta_e = {theta_hat!r}")


def cmd_simulate_mc(cfg: Namespace) -> None:
    mc = McConfig(
        n_per_dataset=cfg.n[0],
        num_datasets=cfg.datasets,
        p_exposed=cfg.p_exposed,
        seed=cfg.seed,
        optimal_action=cfg.optimal[0],
    )
    policy = PolicyConfig()
    result = run_monte_carlo(mc, policy)
    summary = {
        "frac_theta_below_half": result.frac_theta_below_half,
        "frac_b1_above_zero": result.frac_b1_above_zero,
        "degenerate_count": result.degenerate_count,
        "replicates_used": len(result.theta_estimates),
    }
    _write(
        cfg,
        {"policy": asdict(policy), "summary": summary},
        ("estimates", ["theta", "b1"], list(zip(result.theta_estimates, result.b1_estimates))),
    )
    print(
        f"frac(theta < 0.5) = {result.frac_theta_below_half:.4f}, "
        f"frac(b1 > 0) = {result.frac_b1_above_zero:.4f} "
        f"over {len(result.theta_estimates)} datasets"
    )


def cmd_consistency(cfg: Namespace) -> None:
    policy = PolicyConfig()
    rows = consistency_sweep(
        policy,
        ns=list(cfg.n),
        replicates=cfg.datasets,
        seed=cfg.seed,
        optimal_action=cfg.optimal[0],
    )
    _write(
        cfg,
        {"policy": asdict(policy)},
        ("rows", ["n", "mean_theta", "sd_theta"], [(r.n, r.mean_theta, r.sd_theta) for r in rows]),
    )
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
        violations.extend(validate_dataset(ds).violations)
    _write(
        cfg,
        {"n": n, "dimension": dimension, "unmatched_exposure_ids": unmatched},
        ("violations", ["violation"], [[v] for v in violations]),
    )
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
        cfg = _resolve_config(build_parser().parse_args(argv))
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
