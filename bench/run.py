"""Outside-in benchmark of the divtol CLI.

Usage (from the repository root)::

    python3 bench/run.py --workload sim-mc --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` into a temporary
directory under ``.bench_work/``; the CLI sees only those files and its
flags. A fresh worker process then calls ``divtol.cli.main`` in a closed
loop with one client for ``--seconds`` and checks every output.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls and reports per-layer self times and counts, and
writes every span to ``.bench_out/trace-<workload>.json``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The lines above it print each metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import calib
import gen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: fresh interpreters timed per run for ``setup_s``, half before and half
#: after the measured loop: single starts range over +-20% on a shared 2-CPU
#: box, and the machine's speed drifts on a scale of seconds
SETUP_STARTS = 20

#: per-layer metrics: (name, unit, better). ``*.self_s`` names a span's
#: self time, the rest are counters or derived values.
PER_LAYER = [
    ("cli.main.self_s", "s", "lower"),
    ("cli.out_bytes", "B", "lower"),
    ("ingest.parse_exposures.self_s", "s", "lower"),
    ("ingest.parse_binned_counts.self_s", "s", "lower"),
    ("ingest.parse_events.self_s", "s", "lower"),
    ("ingest.bin_events.self_s", "s", "lower"),
    ("ingest.average_sessions.self_s", "s", "lower"),
    ("ingest.assemble_dataset.self_s", "s", "lower"),
    ("ingest.rows", "count", "higher"),
    ("ingest.events", "count", "higher"),
    ("ingest.sessions", "count", "higher"),
    ("ingest.mice", "count", "higher"),
    ("ingest.bytes_in", "B", "higher"),
    ("core.Dataset.from_arrays.self_s", "s", "lower"),
    ("core.Dataset.from_arrays.calls", "count", "lower"),
    ("core.Dataset.materialize.self_s", "s", "lower"),
    ("core.Dataset.materialize.calls", "count", "lower"),
    ("core.dataset_divergences.self_s", "s", "lower"),
    ("core.dataset_divergences.calls", "count", "lower"),
    ("core.observations", "count", "higher"),
    ("estimator.bootstrap_ci.self_s", "s", "lower"),
    ("estimator.bootstrap_ci.replicates", "count", "higher"),
    ("estimator.estimate_theta.self_s", "s", "lower"),
    ("estimator.estimate_theta.calls", "count", "lower"),
    ("estimator.estimate_theta.errors", "count", "lower"),
    ("estimator.variance_objective.self_s", "s", "lower"),
    ("estimator.variance_objective.calls", "count", "lower"),
    ("simulation.run_monte_carlo.self_s", "s", "lower"),
    ("simulation.draw_policy.self_s", "s", "lower"),
    ("simulation.generate_study_dataset.self_s", "s", "lower"),
    ("simulation.fit_anova.self_s", "s", "lower"),
    ("simulation.degenerate", "count", "lower"),
    ("simulation.animals", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

END_TO_END_UNITS = {
    "setup_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: (value, percentile).

    With fewer than eleven samples no such percentile exists and the
    maximum is returned as the 100th percentile.
    """
    ordered = sorted(times)
    k = len(ordered) - 11
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def time_imports(env: dict, starts: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that each import ``divtol.cli``.

    Returns the wall times and the same times normalised by the calibration
    kernel, run in this process before and after each start. Each start is
    awaited with a blocking wait: ``subprocess.run`` with a timeout polls
    with sleeps of up to 50 ms, which rounds each time up to the next poll.
    A timer kills a start that hangs instead.
    """
    cmd = [sys.executable, "-c", "import divtol.cli"]
    calib.kernel()  # warm-up
    times, kernel_times = [], [calib.measure()]
    for _ in range(starts):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=env, cwd=ROOT) as proc:
            killer = threading.Timer(60, proc.kill)
            killer.start()
            try:
                rc = proc.wait()
            finally:
                killer.cancel()
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
        kernel_times.append(calib.measure())
    return times, calib.normalise(times, kernel_times)


def end_to_end(result: dict, items: int, setup: list[float], setup_raw: list[float]) -> tuple[dict, dict]:
    raw = result["times"]
    times = calib.normalise(raw, result["kernel_times"])
    tail_s, pct = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": tail_s,
        "items_per_s": items * len(times) / sum(times),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports of divtol.cli, normalised; "
        f"wall median {statistics.median(setup_raw):.4f} s",
        "cmd_p50_s": f"median of {len(times)} invocations, normalised; wall median {statistics.median(raw):.4f} s",
        "cmd_tail_s": f"p{pct:.1f} of {len(times)} invocations, normalised; wall {tail(raw)[0]:.4f} s",
        "items_per_s": f"over normalised call time; over wall time {items * len(raw) / sum(raw):.1f}",
    }
    return values, notes


def per_layer(result: dict, bytes_in: int) -> dict:
    derived = {
        "cli.out_bytes": result["out_bytes"],
        "ingest.bytes_in": bytes_in,
        "simulation.degenerate": result["degenerate"],
        "trace.overhead_frac": statistics.median(result["traced_times"])
        / statistics.median(result["times"])
        - 1.0,
    }
    values = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".self_s"):
            values[name] = result["self_s"].get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = result["counts"].get(name, 0)
    return values


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "divtol", "cli.py")):
        print(f"error: no divtol sources under {SRC}", file=sys.stderr)
        return 2

    workload = gen.WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        generated = gen.generate(workload, args.seed, tmp)
        expect = {"kind": workload.kind, "datasets": workload.datasets, "bootstrap": workload.bootstrap is not None}
        if workload.kind != "mc":
            expect["theta_e"] = gen.reference_theta(
                generated["mean_counts"], generated["states"], workload.norm, workload.weights
            )
        spec = {
            "argv": generated["argv"],
            "out": os.path.join(tmp, "out.json"),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "expect": expect,
            "trace_out": os.path.join(ROOT, ".bench_out", f"trace-{workload.name}.json"),
        }
        spec_path, result_path = os.path.join(tmp, "spec.json"), os.path.join(tmp, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        # the first start compiles the bytecode cache, which users pay once
        time_imports(env, 1)
        half = 0 if args.trace else SETUP_STARTS // 2
        setup_raw, setup = time_imports(env, half)
        subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path, result_path],
            env=env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=args.seconds + 120,
        )
        raw, normalised = time_imports(env, half)
        setup_raw += raw
        setup += normalised
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        bytes_in = sum(os.path.getsize(f) for f in generated["input_files"])
        items = workload.items(generated)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        values = per_layer(result, bytes_in)
        units = {name: unit for name, unit, _ in PER_LAYER}
        notes = {}
    else:
        values, notes = end_to_end(result, items, setup, setup_raw)
        units = END_TO_END_UNITS
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"# {workload.name} seed={args.seed} trace={args.trace}: {attempted} invocations, "
        f"{failed} failed (failed_frac {failed / attempted:g}); items: {items} {workload.items_unit}; "
        f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__}"
    )
    for message in result["failures"]:
        print(f"# failure: {message}")
    for name, value in values.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"# {name} = {value!r} {units[name]}{note}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
