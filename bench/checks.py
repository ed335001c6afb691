"""Output checks applied to every invocation's ``--out`` file.

A failed check is counted, never raised out of the run: the benchmark
reports it through ``failed`` and keeps measuring.
"""

from __future__ import annotations

import json
import math

#: the CLI and the numpy reference sum in different orders; anything wider
#: than rounding noise is a wrong answer
THETA_RTOL = 1e-9
THETA_ATOL = 1e-12


def estimate_error(payload: dict, expect: dict) -> str | None:
    """Compare an ``estimate`` output with the independently computed theta."""
    result = payload["result"]
    theta = result["theta_e"]
    if not math.isclose(theta, expect["theta_e"], rel_tol=THETA_RTOL, abs_tol=THETA_ATOL):
        return f"theta_e {theta!r} != reference {expect['theta_e']!r}"
    if expect["bootstrap"]:
        interval = result["bootstrap"]
        if interval is None:
            return "bootstrap interval missing"
        if not 0.0 <= interval["lo"] <= interval["hi"] <= 1.0:
            return f"bootstrap interval [{interval['lo']!r}, {interval['hi']!r}] not within [0, 1]"
    return None


def mc_error(payload: dict, expect: dict) -> str | None:
    """Check the Monte-Carlo output's replicate accounting and theta range."""
    summary = payload["summary"]
    used, degenerate = summary["replicates_used"], summary["degenerate_count"]
    if used + degenerate != expect["datasets"]:
        return f"replicates_used {used} + degenerate_count {degenerate} != datasets {expect['datasets']}"
    thetas = payload["estimates"]["theta"]
    if len(thetas) != used:
        return f"{len(thetas)} theta estimates for {used} replicates"
    if not all(0.0 <= t <= 1.0 for t in thetas):
        return "theta estimate outside [0, 1]"
    return None


class OutputChecker:
    """Checks one workload's outputs; the first output fixes the expected bytes."""

    def __init__(self, expect: dict):
        self.expect = expect
        self.first: bytes | None = None

    def __call__(self, rc, out: bytes) -> str | None:
        """Return a failure message, or None when the invocation is correct."""
        if rc != 0:
            return f"exit code {rc}"
        if self.first is None:
            self.first = out
        elif out != self.first:
            return "output differs from the first invocation's"
        try:
            payload = json.loads(out)
            if self.expect["kind"] == "mc":
                return mc_error(payload, self.expect)
            return estimate_error(payload, self.expect)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed output: {exc!r}"
