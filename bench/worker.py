"""One workload's closed loop: a single client calls ``divtol.cli.main`` in-process.

Run in a fresh interpreter by ``run.py``; ``divtol`` is importable through
``PYTHONPATH``. Usage: ``worker.py SPEC_JSON RESULT_JSON``.

Each call starts after the previous one returns and its output is checked.
The first call warms caches and is checked but not timed. Without tracing,
the calibration kernel of ``calib.py`` runs before the first timed call and
after every call, so each call's time can be scaled by the machine's speed
around it. With tracing on, untraced and traced calls alternate, so both see
the same machine state and their ratio gives the tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import calib
from checks import OutputChecker
from tracing import ROOT, Tracer, install, invocation_self_times

import divtol.cli as cli


def _invoke(main, argv: list[str], out: str, check: OutputChecker) -> tuple[float, str | None]:
    t0 = time.perf_counter()
    try:
        rc = main(argv)
    except Exception as exc:  # counted as a failed invocation; the run goes on
        return time.perf_counter() - t0, f"raised {exc!r}"
    elapsed = time.perf_counter() - t0
    try:
        with open(out, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return elapsed, f"exit code {rc}, cannot read output: {exc}"
    return elapsed, check(rc, data)


def run(spec: dict) -> dict:
    out = spec["out"]
    argv = spec["argv"] + ["--out", out]
    check = OutputChecker(spec["expect"])
    failures: list[str] = []

    def record(error: str | None) -> None:
        if error is not None:
            failures.append(error)

    times: list[float] = []
    traced_times: list[float] = []
    selfs: list[dict[str, float]] = []
    counts: list[dict[str, int]] = []
    tracer = Tracer()
    traced_main = tracer.wrap(ROOT, cli.main)
    marks: list[int] = []
    kernel_times: list[float] = []

    def untraced() -> None:
        elapsed, error = _invoke(cli.main, argv, out, check)
        times.append(elapsed)
        record(error)

    def calibrated() -> None:
        untraced()
        kernel_times.append(calib.measure())

    def traced() -> None:
        tracer.counts.clear()
        lo = tracer.mark()
        marks.append(lo)
        install(tracer)
        try:
            elapsed, error = _invoke(traced_main, argv, out, check)
        finally:
            tracer.unpatch_all()
        own = invocation_self_times(tracer, lo, tracer.mark())
        total = sum(own.values())
        if error is None and abs(total - elapsed) > 0.01 * elapsed:
            error = f"self times sum to {total!r} s, traced call took {elapsed!r} s"
        record(error)
        traced_times.append(elapsed)
        selfs.append(own)
        counts.append(dict(tracer.counts))

    record(_invoke(cli.main, argv, out, check)[1])
    # the peak of one invocation in a fresh process, as a CLI user sees it,
    # taken before the calibration kernel's own allocations can raise it
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # with tracing, pairs alternate their order so neither side always runs
    # right after the other
    rounds = [(untraced, traced), (traced, untraced)] if spec["trace"] else [(calibrated,)]
    calib.kernel()  # warm-up
    begin = time.perf_counter()
    if not spec["trace"]:
        kernel_times.append(calib.measure())
    while time.perf_counter() - begin < spec["seconds"]:
        for step in rounds[len(times) % len(rounds)]:
            step()

    result = {
        "attempted": 1 + len(times) + len(traced_times),
        "failed": len(failures),
        "failures": failures[:5],
        "times": times,
        "kernel_times": kernel_times,
        "peak_rss_kb": peak_rss_kb,
    }
    if spec["trace"]:
        span_names = {n for own in selfs for n in own}
        count_names = {n for c in counts for n in c}
        result["traced_times"] = traced_times
        result["self_s"] = {n: statistics.median(own.get(n, 0.0) for own in selfs) for n in span_names}
        result["counts"] = {n: statistics.median_low(c.get(n, 0) for c in counts) for n in count_names}
        result["out_bytes"] = os.path.getsize(out)
        with open(out, encoding="utf-8") as fh:
            result["degenerate"] = json.load(fh).get("summary", {}).get("degenerate_count", 0)
        tracer.write(spec["trace_out"], marks)
    return result


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
