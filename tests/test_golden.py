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
fractions and curve samples unchanged).  Any change to them is a numeric
change and must be stated as one.
"""

import hashlib

import numpy as np
import pytest

import divtol.core as core
from divtol import (
    DivergenceSpec,
    McConfig,
    Norm,
    PolicyConfig,
    bootstrap_ci,
    consistency_sweep,
    generate_dataset,
    run_monte_carlo,
)
from divtol.cli import main

MC_SHA256 = "7b6b692350f41b2dcda70763757a6954173a55a279bd9ecd0d4a764981b6d524"
ESTIMATE_OUT_SHA256 = "21a30b8ae0c9c0f627544b90e7311868ec9c60ad3f566cf9c7e66cd077718937"
IID_DATASET_SHA256 = "a5e3a205e921c8409bcfeb17dc900f704b65caa9ef72f812de1681fc4f379780"
SWEEP_SHA256 = "2e2db1a47f764744439821205c86284a7618915fa604eec4f871e77edca07dea"
# B=2500 at n=200 spans many resampling blocks and ends in a partial one
BOOTSTRAP_SHA256 = {
    Norm.L2_SQUARED: "625fcd9944d3f2268be86d0fa1483a928f779f62406f102be2dba9364876f600",
    Norm.L1: "aa9d16f63d23959ecd2a0160256e7a8c4a2bfb9f740c3f0180fa12d0ab365ad1",
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
        "0fda53cad06dccfede50774b00739063ee7000a7af51fba0f1e0aab65bf49390",
    ("curves", "json"):
        "00ba26f1a004059eba1656b7ff151a829f68fe3375d9935b9bf67452f28f5c66",
    ("curves", "csv"):
        "77ce1bf91503106f5cab5978c6bda4b4db1044dc726c976c2420909ac285b13b",
    ("simulate-mc", "json"):
        "e989bd9193ddbe038601fa58028fd50245bbaac2bc73dbcfc42ae300a744a629",
    ("simulate-mc", "csv"):
        "c25ba3113e1e8837b8acc337807f08b8d0af17ae7066653129f9ad0d19de7d46",
    ("consistency", "csv"):
        "e658ab85f57bfc7b1f3a834eb2da68deeef5772c14e5cc6a3e3506434af99790",
    ("ingest-check", "csv"):
        "b19b43fb24991c16fe1531f091612ad5e19c085676d478adb980dfd6d9792d16",
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
        "ef5e5005eb8f767ff0fcd94a71808d077cd783e05445e0d8baaa5bb3f7a890e7",
    ("estimate-events-l1", "csv"):
        "d1fb40ef71edb272b604be5f53bfcf255ec89220085e9c2ca6c50321bb528c02",
    ("curves-events", "json"):
        "5cfb3408ce276f396fb6d63e3ecf73f67a89b3bde1697460d2a1d358561c6841",
    ("estimate-big-counts-d12", "json"):
        "ad9c175ff8269ec8f388f250ed65f58222dd38e92f273ae8645580be18606f9a",
    ("estimate-big-counts-d1", "json"):
        "a43d1f1b869fb4d0156ef62c8d0f67790aab980d7b3d57eca45429129f31b83a",
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


def test_monte_carlo_estimates_are_bitwise_pinned():
    result = run_monte_carlo(McConfig(n_per_dataset=50, num_datasets=200, seed=0), PolicyConfig())
    digest = sha256(repr((result.theta_estimates, result.b1_estimates)).encode())
    assert digest == MC_SHA256


def test_iid_dataset_is_bitwise_pinned():
    ds = generate_dataset(PolicyConfig(), 1000, 0.5, np.random.default_rng(5))
    data = ds.actions.astype("<f8").tobytes() + ds.states.astype("<i8").tobytes()
    assert sha256(data) == IID_DATASET_SHA256


def test_consistency_sweep_rows_are_bitwise_pinned():
    rows = consistency_sweep(PolicyConfig(), [50, 200], 50, seed=0)
    assert sha256(repr(rows).encode()) == SWEEP_SHA256


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


@pytest.mark.parametrize("command, fmt", list(CLI_OUT_SHA256), ids="-".join)
def test_cli_output_is_bitwise_pinned(command, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_bins_fixture(tmp_path)
    main(CLI_RUNS[command] + ["--format", fmt, "--out", f"out.{fmt}"])
    assert sha256((tmp_path / f"out.{fmt}").read_bytes()) == CLI_OUT_SHA256[command, fmt]


@pytest.mark.parametrize("run, fmt", list(INGEST_OUT_SHA256), ids="-".join)
def test_ingest_output_is_bitwise_pinned(run, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_ingest_fixtures(tmp_path)
    assert main(INGEST_RUNS[run] + ["--format", fmt, "--out", f"out.{fmt}"]) == 0
    assert sha256((tmp_path / f"out.{fmt}").read_bytes()) == INGEST_OUT_SHA256[run, fmt]


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
