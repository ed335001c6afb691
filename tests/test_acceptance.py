"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.  Every tolerance is pinned here;
nothing is deferred to later calibration.
"""

import json
import time

import numpy as np
import pytest

from divtol import (
    Dataset,
    DivergenceSpec,
    McConfig,
    Norm,
    PolicyConfig,
    StudyLayout,
    assemble_dataset,
    average_sessions,
    consistency_sweep,
    estimate_theta,
    fit_anova,
    objective_convergence_probe,
    pairwise_objective,
    parse_binned_counts,
    parse_events,
    parse_exposures,
    run_monte_carlo,
    variance_objective,
)
from divtol.cli import main
from divtol.ingest import bin_events
from pairwise_oracle import grid_argmin

#: largest |crossing_theta - theta_e| observed over the 20 frozen random
#: fixtures exercised in the estimator suite
CROSSING_REGRESSION_BOUND = 0.15


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_two_mouse_exact_reproduction():
    ds = Dataset.from_arrays(actions=[[3.0], [2.0]], states=[1, 0])
    spec = DivergenceSpec(optimal=np.array([1.0]))
    estimate_theta(ds, spec)  # warm-up so the timed call excludes dispatch costs
    start = time.perf_counter()
    closed = estimate_theta(ds, spec)
    elapsed = time.perf_counter() - start
    oracle = grid_argmin(ds, spec)
    ok = (
        abs(closed.theta_e - 0.2) <= 1e-9
        and abs(oracle - 0.2) <= 2e-6
        and elapsed < 1e-3
    )
    assert report(
        1,
        ok,
        f"theta_e closed={closed.theta_e!r} pairwise grid oracle={oracle!r} "
        f"closed-form runtime={elapsed * 1e6:.0f}us (< 1 ms)",
    )


def test_criterion_2_pairwise_equals_twice_variance():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(2, 101))
        d = int(rng.choice([1, 12]))
        actions = rng.normal(0.0, 3.0, size=(n, d))
        states = rng.integers(0, 2, size=n)
        ds = Dataset.from_arrays(actions=actions, states=states)
        spec = DivergenceSpec(
            optimal=rng.normal(size=d),
            norm=Norm.L2_SQUARED if k % 2 == 0 else Norm.L1,
        )
        theta = float(rng.random())
        a = pairwise_objective(theta, ds, spec)
        b = variance_objective(theta, ds, spec)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert report(2, ok, f"worst relative gap {worst:.2e} over 200 pairs in {elapsed:.2f}s (< 1 s)")


def test_criterion_3_monte_carlo_study_reproduction():
    start = time.perf_counter()
    result = run_monte_carlo(McConfig(seed=0), PolicyConfig())
    elapsed = time.perf_counter() - start
    ok = (
        0.6885 <= result.frac_theta_below_half <= 0.7885
        and 0.6915 <= result.frac_b1_above_zero <= 0.7915
        and elapsed < 60.0
    )
    assert report(
        3,
        ok,
        f"frac(theta<0.5)={result.frac_theta_below_half:.4f} in [0.6885, 0.7885], "
        f"frac(b1>0)={result.frac_b1_above_zero:.4f} in [0.6915, 0.7915], "
        f"n=50 M=2000 in {elapsed:.1f}s (< 60 s)",
    )


def test_criterion_4_closed_form_and_grid_oracle_agree():
    start = time.perf_counter()
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([404, k]))
        n = int(rng.integers(4, 80))
        states = np.zeros(n, dtype=int)
        states[rng.permutation(n)[: max(1, n // 2)]] = 1
        if states.all() or not states.any():
            states[0] ^= 1
        actions = rng.gamma(2.0, 2.0, size=(n, 1))
        ds = Dataset.from_arrays(actions=actions, states=states)
        spec = DivergenceSpec(optimal=np.array([0.5]))
        worst = max(worst, abs(estimate_theta(ds, spec).theta_e - grid_argmin(ds, spec)))
    # engineered boundary datasets: the estimate and the oracle must sit on the boundary
    spec = DivergenceSpec(optimal=np.array([0.0]))
    upper = Dataset.from_arrays(actions=[[0.0], [0.0], [3.0], [2.0]], states=[1, 1, 0, 0])
    lower = Dataset.from_arrays(actions=[[3.0], [2.0], [0.0], [0.0]], states=[1, 1, 0, 0])
    boundary_ok = (
        estimate_theta(upper, spec).theta_e == grid_argmin(upper, spec) == 1.0
        and estimate_theta(lower, spec).theta_e == grid_argmin(lower, spec) == 0.0
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 2e-6 and boundary_ok and elapsed < 30.0
    assert report(
        4,
        ok,
        f"worst |closed - pairwise grid oracle| = {worst:.2e} over 100 datasets, "
        f"boundary cases agree, in {elapsed:.1f}s (< 30 s)",
    )


def test_criterion_5_estimate_spread_shrinks_with_n():
    start = time.perf_counter()
    rows = consistency_sweep(PolicyConfig(), [50, 200, 800], 200, seed=0)
    elapsed = time.perf_counter() - start
    sds = [row.sd_theta for row in rows]
    ok = sds[0] > sds[1] > sds[2] and elapsed < 120.0
    assert report(
        5,
        ok,
        "sd(theta) strictly decreasing: "
        + " > ".join(f"{sd:.5f}" for sd in sds)
        + f" over n=50,200,800 in {elapsed:.1f}s (< 2 min)",
    )


def test_criterion_6_objective_settles_with_stable_fluctuations():
    start = time.perf_counter()
    probe = objective_convergence_probe(
        PolicyConfig(), [100, 400, 1600], 200, theta_fixed=0.3, seed=0
    )
    sds = [row.sd_scaled for row in probe.rows]
    ratios = [sds[i + 1] / sds[i] for i in range(len(sds) - 1)]
    mean_probe = objective_convergence_probe(
        PolicyConfig(), [100_000], 20, theta_fixed=0.3, seed=0
    )
    rel_err = abs(mean_probe.rows[0].mean_psi - mean_probe.psi_0) / mean_probe.psi_0
    elapsed = time.perf_counter() - start
    ok = (
        rel_err <= 0.02
        and all(0.5 <= r <= 2.0 for r in ratios)
        and elapsed < 120.0
    )
    assert report(
        6,
        ok,
        f"mean Psi at n=1e5 within {rel_err:.3%} of the exact value (<= 2%), "
        f"scaled-sd ratios {[round(r, 3) for r in ratios]} within [0.5, 2], "
        f"in {elapsed:.1f}s (< 2 min)",
    )


def _write_study_fixture(tmp_path):
    """48 mice x 25 sessions: exposed press heavily everywhere, controls scallop."""
    rng = np.random.default_rng(777)
    exposures_lines = ["mouse_id,exposed"]
    bins_lines = ["mouse_id,session," + ",".join(f"b{j}" for j in range(12))]
    control_base = np.array([1, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 4], dtype=float)
    for i in range(48):
        mouse, exposed = f"m{i:02d}", int(i < 22)
        exposures_lines.append(f"{mouse},{exposed}")
        for session in range(1, 26):
            rates = np.full(12, 8.0) if exposed else control_base
            counts = rng.poisson(rates)
            bins_lines.append(f"{mouse},{session}," + ",".join(map(str, counts)))
    exposures_path = tmp_path / "exposures.csv"
    bins_path = tmp_path / "bins.csv"
    exposures_path.write_text("\n".join(exposures_lines) + "\n", encoding="utf-8")
    bins_path.write_text("\n".join(bins_lines) + "\n", encoding="utf-8")
    return exposures_path, bins_path


def test_criterion_7_binned_pipeline_end_to_end(tmp_path, capsys):
    start = time.perf_counter()
    exposures_path, bins_path = _write_study_fixture(tmp_path)
    optimal = "1," + ",".join(["0"] * 11)

    estimate_out = tmp_path / "estimate.json"
    code_estimate = main(
        ["--command", "estimate", "--exposures", str(exposures_path), "--bins", str(bins_path),
         "--optimal", optimal, "--weights", "sixty-minus-midpoint", "--out", str(estimate_out)]
    )
    curves_out = tmp_path / "curves.json"
    code_curves = main(
        ["--command", "curves", "--exposures", str(exposures_path), "--bins", str(bins_path),
         "--optimal", optimal, "--weights", "sixty-minus-midpoint", "--out", str(curves_out)]
    )
    capsys.readouterr()  # the per-command summary lines are not part of this report
    theta = json.loads(estimate_out.read_text())["result"]["theta_e"]
    metadata = json.loads(curves_out.read_text())["metadata"]

    # the fixture must really separate the groups: every exposed weighted
    # divergence above every control one
    layout = StudyLayout()
    actions = average_sessions(parse_binned_counts(bins_path))
    ds, _ = assemble_dataset(parse_exposures(exposures_path), actions)
    spec = DivergenceSpec(
        optimal=np.r_[1.0, np.zeros(11)],
        weights=60.0 - layout.midpoints,
    )
    from divtol import dataset_divergences

    divergences = dataset_divergences(ds, spec)
    states = ds.states
    separated = divergences[states == 1].min() > divergences[states == 0].max()

    scalar = Dataset.from_arrays(
        actions=ds.actions.mean(axis=1)[:, None], states=states
    )
    b1 = fit_anova(scalar).b1

    elapsed = time.perf_counter() - start
    ok = (
        code_estimate == 0
        and code_curves == 0
        and theta < 0.5
        and separated
        and metadata["crossing_gap"] is not None
        and metadata["crossing_gap"] <= CROSSING_REGRESSION_BOUND
        and b1 > 0.0
        and elapsed < 1.0
    )
    assert report(
        7,
        ok,
        f"theta_e={theta:.4f} (< 0.5), crossing gap={metadata['crossing_gap']:.4f} "
        f"(<= {CROSSING_REGRESSION_BOUND}), anova b1={b1:.3f} (> 0), groups separated, "
        f"in {elapsed:.2f}s (< 1 s)",
    )


def test_criterion_8_ingestion_conservation_and_round_trip(tmp_path):
    start = time.perf_counter()
    layout = StudyLayout()
    rng = np.random.default_rng(88)
    events = [
        (f"m{int(rng.integers(0, 10))}", int(rng.integers(1, 6)), float(rng.uniform(0.0, 1800.0)))
        for _ in range(10_000)
    ]
    events_path = tmp_path / "events.csv"
    lines = ["mouse_id,session,press_time_s"] + [f"{m},{s},{t!r}" for m, s, t in events]
    events_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sessions = bin_events(parse_events(events_path), layout)
    conserved = int(sessions.counts.sum()) == len(events)

    def rows(parsed):
        ids = [parsed.mouse_ids[c] for c in parsed.codes.tolist()]
        return sorted(zip(ids, parsed.session.tolist(), parsed.counts.tolist()))

    path = tmp_path / "bins.csv"
    header = "mouse_id,session," + ",".join(f"b{j}" for j in range(12))
    lines = [f"{m},{s}," + ",".join(map(str, counts)) for m, s, counts in rows(sessions)]
    path.write_text("\n".join([header] + lines) + "\n", encoding="utf-8")
    round_trip = rows(parse_binned_counts(path)) == rows(sessions)
    elapsed = time.perf_counter() - start
    ok = conserved and round_trip and elapsed < 1.0
    assert report(
        8,
        ok,
        f"10^4 events conserved across bins and file round trip, in {elapsed:.2f}s (< 1 s)",
    )
