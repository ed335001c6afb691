"""Bitwise pins on seed-fixed outputs, and the no-per-animal-object guarantee.

The Monte-Carlo and ``estimate`` hashes were recorded from the
object-per-animal implementation that the columnar ``Dataset`` replaced; the
iid-dataset and sweep hashes from the simulation module as it was before its
scalar sampler twin was folded into ``generate_dataset``; the bootstrap
hashes from the replicate-at-a-time bootstrap that the block-wise one
replaced; the CLI output hashes from the per-command JSON/CSV writers that
one writer replaced, and they held when ``dataclasses.asdict`` replaced
the hand-built config and policy echoes; the events and large-count CLI
hashes from the row-at-a-time parsers that columnar ingest replaced.  Every
hash except the iid-dataset and ingest-check ones was re-recorded when the
fit moved from the per-animal reward decomposition to six group statistics,
a stated last-bit change (thetas within 2e-15 relative, Monte-Carlo
fractions and curve samples unchanged).  Three later changes moved pins
again, with thetas, Monte-Carlo and sweep hashes unchanged: the bootstrap
hashes and intervals moved to chunked substreams (a new stream contract),
every ``objective_at_min`` moved to the exact-mean group form (last bits,
and about 1e-6 relative on the big-count fixtures, whose old values were
that far off), and the ``estimate``, ``curves`` and ``ingest-check``
outputs gained ``unmatched_exposure_ids``.  The six ``estimate`` output
hashes were re-recorded once more when the always-false ``clamped`` key was
removed, which was the only change to those files.  All thirteen CLI output
hashes were re-recorded when each command got its own parser: the
``config`` echo now holds only the flags the command reads, and the
simulation commands echo a scalar ``optimal`` (and ``simulate-mc`` a scalar
``n``), which was the only change to those files.  The six ``estimate``
output hashes were re-recorded again when the grid minimizer was removed:
the output lost ``config.method``, ``config.grid_step`` and
``result.method``, and a run without ``--bootstrap`` lost ``config.seed``
and ``config.level``, which was the only change to those files.  The
convergence-probe hash was recorded from the probe that built one dataset
per replicate, before it moved to the block path.  The rate-2.5 hashes
were recorded from the sampler that called ``Generator.gamma(alphas,
1 / rate)``, before it drew ``standard_gamma(alphas) * (1 / rate)``.  The
two bootstrap hashes, the ``estimate`` JSON hash and the ``estimate`` CSV
hash moved again when the chunked substreams gave way to one stream per
exposure group, ``SeedSequence([seed, 0])`` for the exposed and
``[seed, 1]`` for the controls; only the interval's ends changed.  The
Monte-Carlo, sweep and probe hashes, the two Monte-Carlo and the sweep
rate-2.5 hashes, and the ``simulate-mc`` and ``consistency`` CLI hashes
moved when the studies stopped building one generator per replicate and
drew blocks of replicates from three streams, shapes, states and actions,
spawned from ``SeedSequence(seed)`` (``[seed, n]`` per sample size for the
sweep and the probe); the dataset pins held.  Any change to them is a
numeric change and must be stated as one.
"""

import dataclasses
import hashlib
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import divtol.core as core
from divtol import (
    DivergenceSpec,
    McConfig,
    Norm,
    PolicyConfig,
    assemble_dataset,
    average_sessions,
    bootstrap_ci,
    consistency_sweep,
    dataset_divergences,
    draw_policy,
    estimate_theta,
    generate_dataset,
    generate_study_dataset,
    objective_convergence_probe,
    parse_binned_counts,
    parse_exposures,
    run_monte_carlo,
)
from divtol.cli import main

MC_SHA256 = "de3f54c05fa794a27426e0c386ff8072ed881aa7e814ac7f5ffcb52a7eba26c1"
ESTIMATE_OUT_SHA256 = "47c64fcb288237d4ef26c25ff68e15fef962cc2ac9eb8c9a3b9289a6d04fc30f"
IID_DATASET_SHA256 = "a5e3a205e921c8409bcfeb17dc900f704b65caa9ef72f812de1681fc4f379780"
SWEEP_SHA256 = "226014da0352b962857d39a0b923e0cbd099261694d85576d193abb6bf35db96"
PROBE_SHA256 = "8e917c85ad8fe947e0f0272a71798a9d1cd8d269b64d1abaa5605de4a7b230bd"
# a non-unit rate, at n=2 and 3 with p_exposed=0.05 so that regenerations are frequent
RATE_2_5_SHA256 = {
    ("monte-carlo", 2): "e3d22a961634d63a2507de95fb6606f230b66bf4c0c052815d8b3a0217fb9780",
    ("monte-carlo", 3): "d4b1dfdb7960f5d380823794c9243d547dd15a948e1b47e3e753fad38c22988b",
    ("iid-dataset", 2): "d72d4b3d89fde064b2c1ca8af975e8aaf9d9627dda2a0e475637ee576b4f9139",
    ("iid-dataset", 3): "0c20da5c25c0c73bb5e506e3c4d5cd37dd44b0b886f3a83822abff308db3fb63",
    ("study-dataset", 2): "1d32402086636dc1b4955302885a7cd0adb3c8ddf2688024c98907e7227604f1",
    ("study-dataset", 3): "9f648a6660742224dfa09af20e5efe9bc1f0e896ef493fadbb89d1024ffd41bb",
}
RATE_2_5_SWEEP_SHA256 = "496efa99f94092c4d1e00bd28f27eb910a41d66bcdbb505978f0e820007988f5"
# B=2500 at n=200 spans many resampling blocks and ends in a partial one
BOOTSTRAP_SHA256 = {
    Norm.L2_SQUARED: "87df036f3060b8d3d5b3515d6e53eeaeefc383b46c50dfb689ed44d36a695ff3",
    Norm.L1: "9f147c462b551de6248b069d198eca133d72b39edd6621ac51dbd654fec56355",
}

OPTIMAL_12 = ",".join(["1"] + ["0"] * 11)

# one small run of each command; every output except the JSON of consistency
# and ingest-check, whose layouts changed on purpose
CLI_RUNS = {
    "estimate": ["--command", "estimate", "--exposures", "exposures.csv", "--bins", "bins.csv",
                 "--optimal", OPTIMAL_12, "--bootstrap", "500", "--seed", "7"],
    "curves": ["--command", "curves", "--exposures", "exposures.csv", "--bins", "bins.csv",
               "--optimal", OPTIMAL_12, "--grid-step", "0.05"],
    "simulate-mc": ["--command", "simulate-mc", "--n", "20", "--datasets", "5", "--seed", "4"],
    "consistency": ["--command", "consistency", "--n", "20,40", "--datasets", "8", "--seed", "2"],
    "ingest-check": ["--command", "ingest-check", "--exposures", "all_exposed.csv",
                     "--bins", "bins.csv"],
}
CLI_OUT_SHA256 = {
    ("estimate", "csv"):
        "c3c7c6de99244988dc1dfc1972ae94b51172c36b6984f8bb5efb5a3db4fccdfa",
    ("curves", "json"):
        "efde807e5713da276d208997c5243f30b34fd142bb763c0b6308b6e6505e0451",
    ("curves", "csv"):
        "5ae5dccf98560a34284bc578514e9f61fec7c8af9879dd8084c293067b536a61",
    ("simulate-mc", "json"):
        "3630cce0fc442381fd9eeeaf43a37e1040f2407806a4229224f8eab21baf87ee",
    ("simulate-mc", "csv"):
        "fd24ba9ff840e423f85fc19027533ae6c61c107602f30fe93ea07792858881f7",
    ("consistency", "csv"):
        "3f850aefc9b10f0c596f8b75afdbd3c363098499c0797d7ae71012541ebd40bb",
    ("ingest-check", "csv"):
        "9e20517a16977de394c27f3a5e5581a8c27324687736653fe67fc1785d6b7514",
}

# events input under L1, and bins whose mice have 1 to 4 (d=12) or 1 to 20
# (d=1) sessions with counts beyond 2**53, where the order of the float64
# additions inside a session mean shows in the bits
INGEST_RUNS = {
    "estimate-events-l1": ["--command", "estimate", "--exposures", "exposures.csv",
                           "--events", "events.csv", "--optimal", OPTIMAL_12, "--norm", "l1",
                           "--weights", "sixty-minus-midpoint"],
    "curves-events": ["--command", "curves", "--exposures", "exposures.csv",
                      "--events", "events.csv", "--optimal", OPTIMAL_12, "--grid-step", "0.05"],
    "estimate-big-counts-d12": ["--command", "estimate", "--exposures", "exposures.csv",
                                "--bins", "big12.csv", "--optimal", OPTIMAL_12],
    "estimate-big-counts-d1": ["--command", "estimate", "--exposures", "exposures.csv",
                               "--bins", "big1.csv", "--optimal", "1"],
}
INGEST_OUT_SHA256 = {
    ("estimate-events-l1", "json"):
        "f86513903b79d10de6dc83118e8d236cd19334684eb7661226830ac8b30c7ce3",
    ("estimate-events-l1", "csv"):
        "7107e537ca569142c129abdb7e844d94972ddbcef6b4fb3f608849c13b01219f",
    ("curves-events", "json"):
        "c264f1529aca857b0a45e49b8bc2dabecdcfebc2064cfae04e8a1336c56028e8",
    ("estimate-big-counts-d12", "json"):
        "c1d3414234b03156d9a9ef54da355557d82032584a3eff2432d262660aa88625",
    ("estimate-big-counts-d1", "json"):
        "0a0393ecc3634400eddc7c6e2923d91509eb843a9a246e71ce3ac062a3d17396",
}


def write_bins_fixture(directory):
    """24 mice x 3 sessions x 12 bins of integer counts, half of them exposed."""
    rng = np.random.default_rng(2024)
    mice = [f"m{i:02d}" for i in range(24)]
    (directory / "exposures.csv").write_text(
        "mouse_id,exposed\n" + "".join(f"{m},{i % 2}\n" for i, m in enumerate(mice)),
        encoding="utf-8",
    )
    header = "mouse_id,session," + ",".join(f"b{j}" for j in range(12)) + "\n"
    rows = []
    for i, m in enumerate(mice):
        for session in (1, 2, 3):
            counts = rng.poisson(1.0 + 2.0 * (i % 2), size=12)
            rows.append(f"{m},{session}," + ",".join(str(int(c)) for c in counts) + "\n")
    (directory / "bins.csv").write_text(header + "".join(rows), encoding="utf-8")
    (directory / "all_exposed.csv").write_text(
        "mouse_id,exposed\n" + "".join(f"{m},1\n" for m in mice), encoding="utf-8"
    )


def write_ingest_fixtures(directory):
    """Events and large-count bins files for the mice of :func:`write_bins_fixture`."""
    write_bins_fixture(directory)
    rng = np.random.default_rng(2025)
    mice = [f"m{i:02d}" for i in range(24)]
    lines = ["mouse_id,session,press_time_s"]
    for i, m in enumerate(mice):
        for session in range(1, 2 + i % 3):
            times = rng.uniform(0.0, 1800.0, size=int(rng.integers(5, 40)))
            if i % 2:
                times = times - times % 60.0 + rng.uniform(0.0, 15.0, size=times.size)
            lines += [f"{m},{session},{t:.3f}" for t in times]
        # presses just below a bin edge, on an edge, and just below an interval end
        lines += [f"{m},1,{float(np.nextafter(5.0 * (1 + i % 12), 0.0))!r}", f"{m},1,{60.0 * i}",
                  f"{m},1,{float(np.nextafter(60.0 * (i + 1), 0.0))!r}"]
    (directory / "events.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for d, most in ((12, 4), (1, 20)):
        rows = ["mouse_id,session," + ",".join(f"b{j}" for j in range(d))]
        for i, m in enumerate(mice):
            for session in range(1, 2 + i % most):
                counts = 2**53 + rng.integers(0, 2**12, size=d) * (1 + i % 2)
                rows.append(f"{m},{session}," + ",".join(str(int(c)) for c in counts))
        (directory / f"big{d}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def estimate_argv(out="out.json"):
    # relative paths: the config echo in --out must not depend on the temp dir
    return ["--command", "estimate", "--exposures", "exposures.csv", "--bins", "bins.csv",
            "--optimal", OPTIMAL_12, "--bootstrap", "500", "--seed", "7", "--out", out]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def as_recorded(result):
    """``result`` with its estimate arrays as the tuples of floats the pins were recorded on."""
    return dataclasses.replace(
        result,
        theta_estimates=tuple(result.theta_estimates.tolist()),
        b1_estimates=tuple(result.b1_estimates.tolist()),
    )


def test_monte_carlo_estimates_are_bitwise_pinned():
    result = run_monte_carlo(McConfig(n_per_dataset=50, num_datasets=200, seed=0), PolicyConfig())
    recorded = as_recorded(result)
    digest = sha256(repr((recorded.theta_estimates, recorded.b1_estimates)).encode())
    assert digest == MC_SHA256


def test_iid_dataset_is_bitwise_pinned():
    ds = generate_dataset(PolicyConfig(), 1000, 0.5, np.random.default_rng(5))
    data = ds.actions.astype("<f8").tobytes() + ds.states.astype("<i8").tobytes()
    assert sha256(data) == IID_DATASET_SHA256


def test_consistency_sweep_rows_are_bitwise_pinned():
    rows = consistency_sweep(PolicyConfig(), [50, 200], 50, seed=0)
    assert sha256(repr(rows).encode()) == SWEEP_SHA256


@pytest.mark.parametrize("n", [2, 3])
def test_monte_carlo_at_a_non_unit_rate_is_bitwise_pinned(n):
    cfg = McConfig(n_per_dataset=n, num_datasets=300, p_exposed=0.05, seed=n)
    result = run_monte_carlo(cfg, PolicyConfig(rate=2.5))
    assert sha256(repr(as_recorded(result)).encode()) == RATE_2_5_SHA256["monte-carlo", n]


def test_consistency_sweep_at_a_non_unit_rate_is_bitwise_pinned():
    rows = consistency_sweep(PolicyConfig(rate=2.5), [2, 3], 200, seed=4)
    assert sha256(repr(rows).encode()) == RATE_2_5_SWEEP_SHA256


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("design", ["iid-dataset", "study-dataset"])
def test_datasets_at_a_non_unit_rate_are_bitwise_pinned(design, n):
    cfg = PolicyConfig(rate=2.5)
    data = b""
    if design == "iid-dataset":
        rng = np.random.default_rng(n)
        draws = (generate_dataset(cfg, n, 0.05, rng) for _ in range(200))
    else:
        rng = np.random.default_rng(10 + n)
        draws = (generate_study_dataset(draw_policy(cfg, rng), n, 0.05, rng) for _ in range(200))
    for ds in draws:
        data += ds.actions.astype("<f8").tobytes() + ds.states.astype("<i8").tobytes()
    assert sha256(data) == RATE_2_5_SHA256[design, n]


def test_convergence_probe_is_bitwise_pinned():
    probe = objective_convergence_probe(PolicyConfig(), [2, 50, 200], 50, 0.3, seed=0)
    assert sha256(repr(probe).encode()) == PROBE_SHA256


@pytest.mark.parametrize("norm", list(BOOTSTRAP_SHA256))
def test_multi_block_bootstrap_interval_is_bitwise_pinned(norm):
    ds = generate_dataset(PolicyConfig(), 200, 0.5, np.random.default_rng(3))
    spec = DivergenceSpec(optimal=[0.0], norm=norm)
    interval = bootstrap_ci(ds, spec, replicates=2500, seed=11)
    assert sha256(repr(interval).encode()) == BOOTSTRAP_SHA256[norm]


def test_estimate_output_is_bitwise_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_bins_fixture(tmp_path)
    assert main(estimate_argv()) == 0
    assert sha256((tmp_path / "out.json").read_bytes()) == ESTIMATE_OUT_SHA256


@pytest.mark.parametrize(
    "command, fmt", list(CLI_OUT_SHA256), ids=["-".join(key) for key in CLI_OUT_SHA256]
)
def test_cli_output_is_bitwise_pinned(command, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_bins_fixture(tmp_path)
    main(CLI_RUNS[command] + ["--format", fmt, "--out", f"out.{fmt}"])
    assert sha256((tmp_path / f"out.{fmt}").read_bytes()) == CLI_OUT_SHA256[command, fmt]


@pytest.mark.parametrize(
    "run, fmt", list(INGEST_OUT_SHA256), ids=["-".join(key) for key in INGEST_OUT_SHA256]
)
def test_ingest_output_is_bitwise_pinned(run, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_ingest_fixtures(tmp_path)
    assert main(INGEST_RUNS[run] + ["--format", fmt, "--out", f"out.{fmt}"]) == 0
    assert sha256((tmp_path / f"out.{fmt}").read_bytes()) == INGEST_OUT_SHA256[run, fmt]


@pytest.mark.parametrize("bins, optimal", [("big1.csv", "1"), ("big12.csv", OPTIMAL_12)])
def test_objective_at_min_of_big_counts_is_exact_to_1e_12(bins, optimal, tmp_path):
    # divergences near 2**106 that differ from each other near 2**67
    write_ingest_fixtures(tmp_path)
    sessions = parse_binned_counts(str(tmp_path / bins))
    actions = average_sessions(sessions)
    ds, _ = assemble_dataset(parse_exposures(str(tmp_path / "exposures.csv")), actions)
    spec = DivergenceSpec(optimal=[float(x) for x in optimal.split(",")])
    result = estimate_theta(ds, spec)
    # the literal pairwise double sum, in exact arithmetic
    t = Fraction(result.theta_e)
    rewards = [-Fraction(d) * (t if s else 1 - t)
               for d, s in zip(dataset_divergences(ds, spec).tolist(), ds.states.tolist())]
    exact = sum((a - b) ** 2 for a, b in product(rewards, repeat=2)) / len(rewards) ** 2
    assert abs(Fraction(result.objective_at_min) - exact) <= 1e-12 * exact


def test_no_observation_objects_on_the_hot_paths(tmp_path, monkeypatch, capsys):
    built = []
    original = core._ObservationView.__getitem__

    def counting_getitem(self, i):
        obs = original(self, i)
        built.append(i)
        return obs

    monkeypatch.setattr(core._ObservationView, "__getitem__", counting_getitem)
    # positive control: the counter sees every row the view builds
    ds = generate_dataset(PolicyConfig(), 7, 0.5, np.random.default_rng(0))
    assert len(list(ds.observations)) == 7
    assert built == list(range(7))
    built.clear()

    run_monte_carlo(McConfig(n_per_dataset=50, num_datasets=20, seed=0), PolicyConfig())
    monkeypatch.chdir(tmp_path)
    write_bins_fixture(tmp_path)
    assert main(estimate_argv()) == 0
    assert built == []
