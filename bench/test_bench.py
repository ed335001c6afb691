"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

import calib
import checks
import gen
import run
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import divtol.cli as cli  # noqa: E402
import worker  # noqa: E402

FILE_WORKLOADS = [w for w in gen.WORKLOADS.values() if w.kind != "mc"]


def _read_all(paths):
    out = {}
    for p in paths:
        with open(p, "rb") as fh:
            out[os.path.basename(p)] = fh.read()
    return out


@pytest.mark.parametrize("workload", FILE_WORKLOADS, ids=lambda w: w.name)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    ga = gen.generate(workload, 5, str(a))
    gb = gen.generate(workload, 5, str(b))
    gc = gen.generate(workload, 6, str(c))
    assert _read_all(ga["input_files"]) == _read_all(gb["input_files"])
    assert _read_all(ga["input_files"]) != _read_all(gc["input_files"])
    assert [x.replace(str(a), "") for x in ga["argv"]] == [x.replace(str(b), "") for x in gb["argv"]]


def test_mc_cli_seed_follows_workload_seed():
    w = gen.WORKLOADS["sim-mc"]
    assert gen.generate(w, 5, "")["argv"] == gen.generate(w, 5, "")["argv"]
    assert gen.cli_seed(w, 5) != gen.cli_seed(w, 6)


@pytest.mark.parametrize("kind, norm", [("bins", "l2"), ("events", "l1"), ("events", "l2")])
def test_reference_theta_matches_cli(kind, norm, tmp_path):
    workload = gen.Workload(name="study-boot", kind=kind, mice=12, sessions=3, presses=20, norm=norm,
                            weights="sixty-minus-midpoint")
    g = gen.generate(workload, 3, str(tmp_path))
    out = tmp_path / "out.json"
    assert cli.main(g["argv"] + ["--out", str(out)]) == 0
    theta = json.loads(out.read_text())["result"]["theta_e"]
    ref = gen.reference_theta(g["mean_counts"], g["states"], norm, workload.weights)
    assert checks.estimate_error({"result": {"theta_e": theta}}, {"theta_e": ref, "bootstrap": False}) is None


def _estimate_payload(theta, lo=0.1, hi=0.4):
    return {"result": {"theta_e": theta, "bootstrap": {"lo": lo, "hi": hi}}}


def test_check_rejects_perturbed_theta():
    expect = {"theta_e": 0.3716, "bootstrap": True}
    assert checks.estimate_error(_estimate_payload(0.3716), expect) is None
    assert checks.estimate_error(_estimate_payload(0.3716 * (1 + 1e-6)), expect) is not None
    assert checks.estimate_error(_estimate_payload(0.3716, lo=0.5, hi=0.4), expect) is not None
    assert checks.estimate_error(_estimate_payload(0.3716, lo=0.2, hi=1.5), expect) is not None


def test_check_rejects_bad_mc_accounting():
    expect = {"kind": "mc", "datasets": 3}
    good = {"summary": {"replicates_used": 2, "degenerate_count": 1}, "estimates": {"theta": [0.1, 0.9]}}
    assert checks.mc_error(good, expect) is None
    lost = {"summary": {"replicates_used": 2, "degenerate_count": 0}, "estimates": {"theta": [0.1, 0.9]}}
    assert checks.mc_error(lost, expect) is not None
    outside = {"summary": {"replicates_used": 2, "degenerate_count": 1}, "estimates": {"theta": [0.1, 1.2]}}
    assert checks.mc_error(outside, expect) is not None


def test_checker_requires_identical_bytes_and_zero_exit():
    expect = {"kind": "estimate", "theta_e": 0.25, "bootstrap": False}
    check = checks.OutputChecker(expect)
    out = json.dumps({"result": {"theta_e": 0.25, "bootstrap": None}}).encode()
    assert check(0, out) is None
    assert check(0, out) is None
    assert check(0, out + b" ") is not None
    assert check(1, out) is not None
    assert checks.OutputChecker(expect)(0, b"not json") is not None


def test_invoke_counts_missing_output_and_raises_as_failures(tmp_path):
    check = checks.OutputChecker({"kind": "estimate", "theta_e": 0.25, "bootstrap": False})
    missing = str(tmp_path / "missing.json")
    assert worker._invoke(lambda argv: 1, [], missing, check)[1] is not None

    def boom(argv):
        raise RuntimeError("boom")

    assert "boom" in worker._invoke(boom, [], missing, check)[1]


def test_self_times_on_hand_built_tree():
    #   root [0, 10]
    #   +- a [1, 4]
    #   |  +- b [2, 3]
    #   +- c [5, 9]
    names = ["root", "a", "b", "c"]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    own = tracing.self_times(names, parents, starts, ends)
    assert own == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert sum(own.values()) == ends[0] - starts[0]


def test_self_times_merge_repeated_names():
    names = ["root", "x", "x"]
    own = tracing.self_times(names, [-1, 0, 0], [0.0, 1.0, 3.0], [5.0, 2.0, 4.5])
    assert own == {"root": 2.5, "x": 2.5}


def test_tracer_records_nested_spans_and_restores_patches():
    class Holder:
        pass

    holder = Holder()
    holder.inner = lambda x: x + 1
    original = holder.inner
    tracer = tracing.Tracer()
    tracer.patch(holder, "inner", tracer.wrap("inner", holder.inner, lambda c, a, k, r: c.update(seen=r)))
    outer = tracer.wrap("outer", lambda: holder.inner(1) + holder.inner(2))
    assert outer() == 5
    tracer.unpatch_all()
    assert holder.inner is original
    own = tracing.invocation_self_times(tracer, 0, tracer.mark())
    assert set(own) == {"outer", "inner"}
    assert sum(own.values()) == pytest.approx(tracer.end[0] - tracer.start[0])
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.counts["inner.calls"] == 2 and tracer.counts["seen"] == 5


def test_install_counts_layers_and_unpatches(tmp_path):
    import divtol.core as core
    import divtol.estimator as estimator

    workload = dataclasses.replace(gen.WORKLOADS["bins-large"], mice=8, sessions=2)
    g = gen.generate(workload, 1, str(tmp_path))
    before = (cli.parse_binned_counts, estimator.dataset_divergences, core.Dataset.__dict__["states"])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        rc = tracer.wrap(tracing.ROOT, cli.main)(g["argv"] + ["--out", str(tmp_path / "o.json")])
    finally:
        tracer.unpatch_all()
    assert rc == 0
    assert before == (cli.parse_binned_counts, estimator.dataset_divergences, core.Dataset.__dict__["states"])
    assert tracer.counts["ingest.sessions"] == 16
    assert tracer.counts["ingest.mice"] == 8
    assert tracer.counts["core.observations"] == 8
    assert tracer.counts["estimator.estimate_theta.calls"] == 1
    own = tracing.invocation_self_times(tracer, 0, tracer.mark())
    assert {"cli.main", "ingest.parse_binned_counts", "core.Dataset.materialize"} <= set(own)


def test_tail_keeps_ten_samples_beyond():
    times = [float(i) for i in range(1, 101)]
    assert run.tail(times) == (90.0, 90.0)
    assert run.tail(times[:20]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_normalise_scales_by_neighbouring_kernel_times():
    ref = calib.REFERENCE_S
    # the kernel ran at the reference speed, then at half speed, then at
    # half speed again: the second call took twice as long only because the
    # machine slowed down
    assert calib.normalise([1.0, 2.0], [ref, 2 * ref, 2 * ref]) == pytest.approx([1.0 / 1.5, 1.0])
    with pytest.raises(ValueError):
        calib.normalise([1.0], [ref])


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])

