"""Workload definitions, deterministic input generation and reference estimates.

Each workload is one ``divtol`` CLI call on inputs made here from the
workload seed. The generator also keeps what it drew (per-mouse mean counts
and exposure states), so the checker can recompute ``theta_e`` in numpy
without going through any divtol code.

Sizes are scaled so that one invocation takes a few tenths of a second on a
2-CPU box: a 20 s run then holds enough invocations for a tail percentile,
while each workload's dominant layer stays dominant.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

N_BINS = 12
INTERVAL_S = 60.0
BIN_WIDTH_S = INTERVAL_S / N_BINS
OPTIMAL = (1.0,) + (0.0,) * (N_BINS - 1)
#: the CLI's ``sixty-minus-midpoint`` weights for 12 bins of 5 s
SIXTY_MINUS_MIDPOINT = INTERVAL_S - (np.arange(N_BINS) + 0.5) * BIN_WIDTH_S


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "bins", "events" or "mc"
    mice: int = 0
    sessions: int = 0
    presses: int = 0  # mean per (mouse, session), events only
    norm: str = "l2"
    weights: str = "none"
    bootstrap: int | None = None
    n: int = 50  # per simulated dataset, mc only
    datasets: int = 0  # mc only
    items_unit: str = ""

    def items(self, generated: dict) -> int:
        """Work units one invocation completes, in ``items_unit``."""
        if self.kind == "mc":
            return self.datasets
        if self.kind == "events":
            return generated["events"]
        if self.bootstrap is not None:
            return self.bootstrap
        return self.mice * self.sessions


#: why each workload exists is recorded in BENCHMARK.json and bench/baseline.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="study-boot",
            kind="bins",
            mice=64,
            sessions=30,
            weights="sixty-minus-midpoint",
            bootstrap=5000,
            items_unit="bootstrap replicates",
        ),
        Workload(
            name="bins-large",
            kind="bins",
            mice=1000,
            sessions=20,
            items_unit="session rows",
        ),
        Workload(
            name="events-large",
            kind="events",
            mice=100,
            sessions=10,
            presses=60,
            norm="l1",
            items_unit="press events",
        ),
        Workload(
            name="sim-mc",
            kind="mc",
            datasets=400,
            items_unit="simulated datasets",
        ),
    )
}


def rng_for(workload: Workload, seed: int) -> np.random.Generator:
    code = sorted(WORKLOADS).index(workload.name)
    return np.random.default_rng(np.random.SeedSequence([seed, code]))


def cli_seed(workload: Workload, seed: int) -> int:
    """The ``--seed`` handed to the CLI, derived from the workload seed."""
    return int(rng_for(workload, seed).integers(0, 2**31 - 1))


def _mouse_ids(m: int) -> list[str]:
    return [f"m{i:05d}" for i in range(m)]


def _bin_profiles(rng: np.random.Generator, states: np.ndarray) -> np.ndarray:
    """Per-mouse expected presses per bin: a fixed-interval scallop.

    Press rates rise towards the end of the interval; exposed mice press
    more early in the interval, so the groups diverge differently from the
    optimal action (one press in the first bin).
    """
    ramp = 0.2 + 1.8 * (np.arange(N_BINS) / (N_BINS - 1)) ** 2
    early = np.exp(-np.arange(N_BINS) / 3.0)
    scale = rng.gamma(4.0, 0.5, size=states.size)
    lift = rng.uniform(0.0, 1.5, size=states.size) * states
    return scale[:, None] * (ramp[None, :] + lift[:, None] * early[None, :])


def _states(rng: np.random.Generator, m: int) -> np.ndarray:
    states = np.zeros(m, dtype=int)
    states[rng.permutation(m)[: m // 2]] = 1
    return states


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def generate(workload: Workload, seed: int, directory: str) -> dict:
    """Write the workload's input files into ``directory``.

    Returns the CLI argument list (without ``--out``) and, for estimate
    workloads, the per-mouse mean counts and states the reference needs.
    """
    if workload.kind == "mc":
        argv = [
            "--command", "simulate-mc",
            "--n", str(workload.n),
            "--datasets", str(workload.datasets),
            "--seed", str(cli_seed(workload, seed)),
        ]
        return {"argv": argv, "input_files": []}

    rng = rng_for(workload, seed)
    ids = _mouse_ids(workload.mice)
    states = _states(rng, workload.mice)
    profiles = _bin_profiles(rng, states)
    exposures = os.path.join(directory, "exposures.csv")
    _write(exposures, ["mouse_id,exposed"] + [f"{i},{s}" for i, s in zip(ids, states)])

    m, s = workload.mice, workload.sessions
    if workload.kind == "bins":
        counts = rng.poisson(np.repeat(profiles[:, None, :], s, axis=1))  # (m, s, d)
        data = os.path.join(directory, "bins.csv")
        header = "mouse_id,session," + ",".join(f"b{j}" for j in range(N_BINS))
        lines = [header]
        for i, mouse in enumerate(ids):
            for k in range(s):
                lines.append(f"{mouse},{k + 1}," + ",".join(map(str, counts[i, k])))
        _write(data, lines)
        source = ["--bins", data]
    else:
        totals = profiles.sum(axis=1)
        # busier mice press more; every session keeps at least one press so
        # no (mouse, session) drops out of the data
        presses = np.maximum(rng.poisson(workload.presses * totals / totals.mean(), (s, m)).T, 1)
        probs = profiles / totals[:, None]
        counts = np.stack(
            [[rng.multinomial(presses[i, k], probs[i]) for k in range(s)] for i in range(m)]
        )  # (m, s, d)
        data = os.path.join(directory, "events.csv")
        lines = ["mouse_id,session,press_time_s"]
        for i, mouse in enumerate(ids):
            for k in range(s):
                bins = np.repeat(np.arange(N_BINS), counts[i, k])
                # each press sits well inside its bin of a random interval in
                # an hour-long session, so binning by time recovers ``bins``
                interval = rng.integers(0, 60, size=bins.size)
                offset = rng.uniform(0.25, BIN_WIDTH_S - 0.25, size=bins.size)
                times = np.sort(interval * INTERVAL_S + bins * BIN_WIDTH_S + offset)
                lines.extend(f"{mouse},{k + 1},{t:.3f}" for t in times)
        _write(data, lines)
        source = ["--events", data]

    argv = [
        "--command", "estimate",
        "--exposures", exposures,
        *source,
        "--optimal", ",".join(repr(x) for x in OPTIMAL),
        "--norm", workload.norm,
        "--weights", workload.weights,
    ]
    if workload.bootstrap is not None:
        argv += ["--bootstrap", str(workload.bootstrap), "--seed", str(cli_seed(workload, seed))]
    return {
        "argv": argv,
        "input_files": [exposures, data],
        "events": int(counts.sum()) if workload.kind == "events" else 0,
        "mean_counts": counts.mean(axis=1),
        "states": states,
    }


def reference_theta(
    mean_counts: np.ndarray, states: np.ndarray, norm: str, weights: str
) -> float:
    """Closed-form ``theta_e = -cov(u, v) / var(u)``, clamped to [0, 1].

    ``u = -D (2s - 1)`` and ``v = -D (1 - s)`` are the linear coefficients of
    each animal's reward in theta; D is its divergence from the optimal action.
    """
    w = SIXTY_MINUS_MIDPOINT if weights == "sixty-minus-midpoint" else np.ones(N_BINS)
    resid = w * (np.asarray(mean_counts, dtype=float) - np.array(OPTIMAL))
    d = (resid**2).sum(axis=1) if norm == "l2" else np.abs(resid).sum(axis=1)
    s = np.asarray(states)
    u = -d * (2 * s - 1)
    v = -d * (1 - s)
    uc, vc = u - u.mean(), v - v.mean()
    return float(np.clip(-np.dot(uc, vc) / np.dot(uc, uc), 0.0, 1.0))
