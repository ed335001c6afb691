"""Bitwise pins on seed-fixed outputs, and the no-per-animal-object guarantee.

The Monte-Carlo and ``estimate`` hashes were recorded from the
object-per-animal implementation that the columnar ``Dataset`` replaced; the
iid-dataset and sweep hashes from the simulation module as it was before its
scalar sampler twin was folded into ``generate_dataset``; the bootstrap
hashes from the replicate-at-a-time bootstrap that the block-wise one
replaced; the CLI output hashes from the per-command JSON/CSV writers that
one writer replaced, and they held when ``dataclasses.asdict`` replaced
the hand-built config and policy echoes; the events and large-count CLI
hashes from the row-at-a-time parsers that columnar ingest replaced.  Any
change to them is a numeric change and must be stated as one.
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

MC_SHA256 = "72fea2ff557d819b77af04bd96ea20dc1663ff49d6dbae649853a2f09a1488f5"
ESTIMATE_OUT_SHA256 = "801d34592eb259f542ce714e8542b6a63e6dc4bd00c4fd8cda7e491d9e0a3643"
IID_DATASET_SHA256 = "a5e3a205e921c8409bcfeb17dc900f704b65caa9ef72f812de1681fc4f379780"
SWEEP_SHA256 = "13e1312b57ddf5b7b75c8bad98f5f44cbaf1dda271411a89087917bee51ea4fc"
# B=2500 at n=200 spans many resampling blocks and ends in a partial one
BOOTSTRAP_SHA256 = {
    Norm.L2_SQUARED: "313b02079cefb005cf9dd0655396dba00dce254f9992d754e4a1f77621a58724",
    Norm.L1: "5a523755e489ad39c0ec20e71e0f517c28ad5a6fee5ba61cd8177d33236f0546",
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
        "4d6957334d32e7803eadabf6438a141890355cffcb39ba2526db4770f5649277",
    ("curves", "json"):
        "338f5f1e7c35ff462fd5332d8c4cb867b5db675f55fc6f887ee61c7b56c025aa",
    ("curves", "csv"):
        "828977364f5d4530e0f4fd0a121185178c98e14d415ff4cbd31dd67defaf5445",
    ("simulate-mc", "json"):
        "9a763424629389f202e42881e80c3b06207d3af4623226484ef4cd1e6a741ce7",
    ("simulate-mc", "csv"):
        "348d6b41dbd3ea7e89d2db294474487f0819e90aa75a45e8e566fc373ca7326c",
    ("consistency", "csv"):
        "4eff4d9c73d4eaa7049861aeae7cccf2906bd11de2f3c490d26c197ec64bbe5d",
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
        "51ef59c0de218d1491b137c567bf4301a97c802799d1fd0782ba8955d7c16170",
    ("estimate-events-l1", "csv"):
        "00938a11758dcee2bb1387ea95d15526599d5e13a5d94f37c8043f118ae741b5",
    ("curves-events", "json"):
        "cdec936ec542a01967128cf495c6a4a52df5ff8b5d9209299b7589c3efa91ce9",
    ("estimate-big-counts-d12", "json"):
        "939910f0ff47fce72bb3f2fa38e7080d838c470d6ecaf9a71eca7fa4dc8b2159",
    ("estimate-big-counts-d1", "json"):
        "b67b0a7acfcd177beabec4c6d6747bfeec8624d1401e940867cdba3bcccb4eb9",
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
