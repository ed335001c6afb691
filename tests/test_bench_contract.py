"""What the benchmark under ``bench/`` relies on, checked on shrunk workloads.

``bench/worker.py`` calls ``divtol.cli.main`` plainly and under the
wrappers of ``bench/tracing.py``.  Those wrappers take ``len()`` of what
the ``cli.parse_*`` functions return, read ``bootstrap_ci``'s
``replicates=`` keyword and count ``len(Dataset.observations)``.  A change
that breaks any of them, or that makes ``--out`` differ from call to call,
fails the benchmark's checked runs while every other test passes.
"""

import dataclasses
import os
import sys
import time

import numpy as np
import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

import divtol.cli as cli  # noqa: E402
from divtol import ingest  # noqa: E402

#: each workload shrunk to calls of about 10 ms: the few microseconds a
#: traced call spends outside its root span then stay well inside the 1%
#: by which the worker lets the self times miss the call's wall time
SHRUNK = {
    "study-boot": {"mice": 16, "sessions": 3, "bootstrap": 4000},
    "bins-large": {"mice": 1000, "sessions": 10},
    "events-large": {"mice": 50, "sessions": 10, "presses": 40},
    "sim-mc": {"datasets": 200},
}


def generated_spec(name, directory):
    """The workload's argv and the expectation its checker needs, as ``run.py`` builds them."""
    workload = dataclasses.replace(gen.WORKLOADS[name], **SHRUNK[name])
    generated = gen.generate(workload, 3, str(directory))
    expect = {"kind": workload.kind, "datasets": workload.datasets,
              "bootstrap": workload.bootstrap is not None}
    if workload.kind != "mc":
        expect["theta_e"] = gen.reference_theta(
            generated["mean_counts"], generated["states"], workload.norm, workload.weights
        )
    return workload, generated["argv"], expect


@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_plain_and_traced_calls_pass_the_benchmark_checks(name, tmp_path):
    workload, argv, expect = generated_spec(name, tmp_path)
    out = tmp_path / "out.json"
    argv = argv + ["--out", str(out)]
    check = checks.OutputChecker(expect)
    assert cli.main(argv) == 0
    plain = out.read_bytes()
    assert check(0, plain) is None

    tracer = tracing.Tracer()
    traced_main = tracer.wrap(tracing.ROOT, cli.main)
    tracing.install(tracer)
    try:
        start = time.perf_counter()
        rc = traced_main(argv)
        elapsed = time.perf_counter() - start
    finally:
        tracer.unpatch_all()
    assert rc == 0
    assert out.read_bytes() == plain
    assert check(rc, plain) is None
    own = tracing.invocation_self_times(tracer, 0, tracer.mark())
    assert sum(own.values()) == pytest.approx(elapsed, rel=0.01)
    assert not [key for key in tracer.counts if key.endswith(".errors")]
    if workload.kind != "mc":
        assert tracer.counts["ingest.mice"] == workload.mice
        assert tracer.counts["core.observations"] == workload.mice
    if workload.bootstrap is not None:
        assert tracer.counts["estimator.bootstrap_ci.replicates"] == workload.bootstrap


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_the_worker_loop_counts_no_failure(name, trace, tmp_path):
    _, argv, expect = generated_spec(name, tmp_path)
    spec = {"argv": argv, "out": str(tmp_path / "out.json"), "seconds": 0.1, "trace": trace,
            "expect": expect, "trace_out": str(tmp_path / "trace.json")}
    result = worker.run(spec)
    assert result["failures"] == [] and result["failed"] == 0
    assert result["traced_times" if trace else "times"]


@pytest.mark.parametrize("name", ["bins-large", "events-large"])
def test_the_benchmark_files_take_the_fast_reader(name, monkeypatch, tmp_path):
    # the full-size inputs, so that their line lengths are the benchmark's
    workload = gen.WORKLOADS[name]
    path = gen.generate(workload, 901, str(tmp_path))["input_files"][1]
    parse = ingest.parse_events if workload.kind == "events" else ingest.parse_binned_counts
    with monkeypatch.context() as patched:
        patched.setattr(ingest, "_loadtxt_table", lambda text, numeric: None)
        expected = parse(path)

    def refuse(*args, **kwargs):
        raise AssertionError("the csv path ran")

    monkeypatch.setattr(ingest.csv, "reader", refuse)
    got = parse(path)
    assert got.mouse_ids == expected.mouse_ids
    for field in ("codes", "session", "time" if workload.kind == "events" else "counts",
                  "line_numbers"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
