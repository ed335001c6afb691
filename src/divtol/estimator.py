"""Pairwise reward objective, its minimizer, and diagnostics built on it.

The objective compares every animal with every other animal:

    Psi_n(theta) = (1/n^2) * sum_i sum_j (R_i(theta) - R_j(theta))^2

where ``R_i`` is the subjective reward of animal ``i``.  This double sum is
algebraically equal to twice the divisor-n sample variance of the rewards,
which is the O(n) evaluation path used everywhere performance matters; the
literal double sum is kept as the reference path.

Because each reward is linear in theta,

    R_i(theta) = u_i * theta + v_i,
    u_i = -D_i * (2 s_i - 1),   v_i = -D_i * (1 - s_i),

the objective is an exact quadratic

    Psi_n(theta) / 2 = var(u) * theta^2 + 2 * cov(u, v) * theta + var(v)

(all moments with divisor n), so the minimizer over [0, 1] has a closed form.
An exhaustive grid scan over [0, 1] is retained as a user-selectable oracle
for the argmin.

A note on clamping: for nonnegative divergences the unconstrained minimizer
-cov(u, v)/var(u) provably lies in [0, 1] (Cauchy-Schwarz bounds both
cov(u, v) <= 0 and var(u) + cov(u, v) >= 0), so the clamp can only trigger
through floating-point rounding at the exact boundaries.  The machinery is
kept because results must be valid tolerances even in those corner cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Dataset, DivergenceSpec, dataset_divergences
from .errors import DegenerateObjectiveError, EstimationError, InferenceError, InputError

__all__ = [
    "Method",
    "EstimateResult",
    "CurveSamples",
    "pairwise_objective",
    "variance_objective",
    "estimate_theta",
    "reward_curves",
    "bootstrap_ci",
    "grid_intervals",
]

#: default and finest accepted theta grid step: a grid has at most 10^6 + 1 points
DEFAULT_GRID_STEP = 1e-6

#: a grid step must divide 1: 1/step may differ from a whole number of
#: intervals by at most this fraction of 1/step
GRID_STEP_RTOL = 1e-9

#: largest n for which :func:`pairwise_objective` builds its n x n matrix
PAIRWISE_MAX_N = 5000

#: var(u) at or below 1e-12 * max(D)^2 is treated as zero curvature.  The
#: bound is relative, so rescaling the actions and the optimum never changes
#: whether an objective counts as degenerate.
DEGENERACY_RTOL = 1e-12

#: largest replicate count :func:`bootstrap_ci` accepts
BOOTSTRAP_MAX_REPLICATES = 10**6

#: :func:`bootstrap_ci` resamples max(1, this // n) replicates per block, so
#: its working memory stays bounded at any n
BOOTSTRAP_BLOCK_ELEMENTS = 16384


class Method(Enum):
    CLOSED_FORM = "closed_form"
    GRID = "grid"


@dataclass(frozen=True)
class EstimateResult:
    """Fitted tolerance with minimizer provenance and diagnostics.

    ``quadratic`` carries the (var_u, cov_uv, var_v) coefficients of the
    objective's quadratic form, useful for audits and standard-error work.
    ``clamped`` is set when the unconstrained minimizer fell outside [0, 1].
    """

    theta_e: float
    objective_at_min: float
    method: Method
    clamped: bool
    quadratic: tuple[float, float, float]


@dataclass(frozen=True)
class CurveSamples:
    """Group-mean subjective rewards sampled along a theta grid.

    ``crossing_theta`` is the exact point where the two mean curves (both
    lines in theta) cross, or None when it lies outside the grid's range.
    """

    thetas: np.ndarray
    mean_reward_exposed: np.ndarray
    mean_reward_control: np.ndarray
    crossing_theta: float | None


def _decompose(ds: Dataset, spec: DivergenceSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (u, v, d): the linear reward coefficients and the divergences."""
    d = dataset_divergences(ds, spec)
    s = ds.states
    u = -d * (2 * s - 1)
    v = -d * (1 - s)
    return u, v, d


def _require_theta(theta_e: float) -> float:
    t = float(theta_e)
    if not np.isfinite(t) or not 0.0 <= t <= 1.0:
        raise InputError(f"theta_e must lie in [0, 1], got {theta_e!r}")
    return t


def _require_both_groups(ds: Dataset) -> None:
    s = ds.states
    presence = ((s.max() == 1, "exposed"), (s.min() == 0, "control"))
    missing = [name for present, name in presence if not present]
    if missing:
        raise EstimationError(f"missing {' and '.join(missing)} group")


def _rewards(theta: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u * theta + v


def _objective(theta: float, u: np.ndarray, v: np.ndarray) -> float:
    """Twice the divisor-n variance of the rewards ``u * theta + v``."""
    r = _rewards(theta, u, v)
    centered = r - r.mean()
    return float(2.0 * np.mean(centered * centered))


def pairwise_objective(theta_e: float, ds: Dataset, spec: DivergenceSpec) -> float:
    """Mean squared reward difference over all ordered pairs (reference path).

    Evaluates the literal O(n^2) double sum, so n is capped at
    ``PAIRWISE_MAX_N``; use :func:`variance_objective` for large n.
    """
    t = _require_theta(theta_e)
    if len(ds) > PAIRWISE_MAX_N:
        raise InputError(
            f"pairwise_objective builds an n x n matrix; n={len(ds)} exceeds {PAIRWISE_MAX_N}"
        )
    u, v, _ = _decompose(ds, spec)
    r = _rewards(t, u, v)
    diff = r[:, None] - r[None, :]
    return float(np.mean(diff * diff))


def variance_objective(theta_e: float, ds: Dataset, spec: DivergenceSpec) -> float:
    """Twice the divisor-n sample variance of the rewards (O(n) path).

    Agrees with :func:`pairwise_objective` to floating-point accuracy.
    """
    t = _require_theta(theta_e)
    u, v, _ = _decompose(ds, spec)
    return _objective(t, u, v)


def _quadratic_coefficients(u: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """Divisor-n moments (var_u, cov_uv, var_v) of the reward decomposition."""
    uc = u - u.mean()
    vc = v - v.mean()
    n = u.shape[0]
    var_u = float(np.dot(uc, uc) / n)
    cov_uv = float(np.dot(uc, vc) / n)
    var_v = float(np.dot(vc, vc) / n)
    return var_u, cov_uv, var_v


def _check_degenerate(var_u: float, d: np.ndarray) -> None:
    tol = DEGENERACY_RTOL * float(np.max(d, initial=0.0)) ** 2
    if var_u <= tol:
        raise DegenerateObjectiveError(
            "objective has no curvature in theta (var of the reward slope "
            f"coefficients is {var_u:.3e} <= tolerance {tol:.3e}); "
            "this happens when every divergence is zero, so no tolerance is identified"
        )


def _parabola_vertex(x: np.ndarray, y: np.ndarray) -> float:
    """Vertex abscissa of the parabola through three equally spaced samples."""
    h = x[1] - x[0]
    denom = 2.0 * (y[0] - 2.0 * y[1] + y[2])
    if denom == 0.0:
        return float(x[1])
    return float(x[0] + h * (3.0 * y[0] - 4.0 * y[1] + y[2]) / denom)


def grid_intervals(step: float) -> int:
    """Number of intervals of a uniform grid on [0, 1] with the given step.

    Raises :class:`InputError` unless the step divides 1, i.e. unless 1/step
    is a whole number to within a relative ``GRID_STEP_RTOL``.
    """
    intervals = 1.0 / step
    whole = round(intervals)
    if abs(intervals - whole) > GRID_STEP_RTOL * intervals:
        raise InputError(f"grid step must divide 1, got {step!r} (1/step = {intervals!r})")
    return int(whole)


def _scan_grid(var_u: float, cov_uv: float, var_v: float, step: float) -> tuple[float, bool]:
    """Exhaustive argmin of the quadratic objective over a uniform grid on [0, 1].

    A boundary argmin is flagged as clamped only when the parabola refit
    through the sampled objective has its vertex strictly outside [0, 1], so
    the flag means the same thing as on the closed-form path.
    """
    if not DEFAULT_GRID_STEP <= step <= 0.5:
        raise InputError(f"grid step must lie in [{DEFAULT_GRID_STEP}, 0.5], got {step!r}")
    grid = np.linspace(0.0, 1.0, grid_intervals(step) + 1)

    def psi_at(t):
        return 2.0 * (var_u * t * t + 2.0 * cov_uv * t + var_v)

    psi = psi_at(grid)
    k = int(np.argmin(psi))
    theta = float(grid[k]) + 0.0  # normalize -0.0
    clamped = False
    if k in (0, len(grid) - 1):
        # refit the parabola through well-separated samples; adjacent grid
        # values differ by O(step^2) and would cancel catastrophically
        anchors = np.array([0.0, 0.5, 1.0])
        vertex = _parabola_vertex(anchors, psi_at(anchors))
        clamped = vertex < 0.0 if k == 0 else vertex > 1.0
    return theta, clamped


def _minimize_quadratic(var_u: float, cov_uv: float) -> tuple[float, bool]:
    """Closed-form argmin of the quadratic objective, clamped to [0, 1]."""
    unconstrained = -cov_uv / var_u
    if unconstrained < 0.0:
        return 0.0, True
    if unconstrained > 1.0:
        return 1.0, True
    return float(unconstrained) + 0.0, False  # normalize -0.0


def estimate_theta(
    ds: Dataset,
    spec: DivergenceSpec,
    method: Method = Method.CLOSED_FORM,
    grid_step: float = DEFAULT_GRID_STEP,
) -> EstimateResult:
    """Minimize the pairwise objective over theta in [0, 1].

    CLOSED_FORM uses the quadratic's analytic argmin; GRID scans a uniform
    grid (default step 1e-6) as an independent oracle.  Raises
    :class:`EstimationError` when a group is missing and
    :class:`DegenerateObjectiveError` when the objective has no curvature.
    """
    _require_both_groups(ds)
    u, v, d = _decompose(ds, spec)
    var_u, cov_uv, var_v = _quadratic_coefficients(u, v)
    _check_degenerate(var_u, d)

    if method is Method.CLOSED_FORM:
        theta, clamped = _minimize_quadratic(var_u, cov_uv)
    elif method is Method.GRID:
        theta, clamped = _scan_grid(var_u, cov_uv, var_v, grid_step)
    else:
        raise InputError(f"unknown method {method!r}")

    return EstimateResult(
        theta_e=theta,
        objective_at_min=_objective(theta, u, v),
        method=method,
        clamped=clamped,
        quadratic=(var_u, cov_uv, var_v),
    )


def reward_curves(ds: Dataset, spec: DivergenceSpec, grid) -> CurveSamples:
    """Group-mean subjective rewards along a theta grid, with their crossing.

    The exposed mean at theta is ``-theta * mean(D | exposed)`` and the
    control mean is ``-(1 - theta) * mean(D | control)``, so the lines cross
    at ``mean(D | control) / (mean(D | exposed) + mean(D | control))``.  The
    grid only sets where the curves are sampled and the range in which a
    crossing is reported; when every divergence is zero the curves coincide
    and the first grid value is reported.
    """
    _require_both_groups(ds)
    thetas = np.asarray(grid, dtype=float)
    if thetas.ndim != 1 or thetas.size == 0:
        raise InputError("grid must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(thetas)) or thetas.min() < 0.0 or thetas.max() > 1.0:
        raise InputError("grid values must lie in [0, 1]")

    _, _, d = _decompose(ds, spec)
    s = ds.states
    mean_d_exposed = float(d[s == 1].mean())
    mean_d_control = float(d[s == 0].mean())
    mean_exposed = -thetas * mean_d_exposed
    mean_control = -(1.0 - thetas) * mean_d_control

    total = mean_d_exposed + mean_d_control
    crossing = mean_d_control / total if total != 0.0 else float(thetas[0])
    if not thetas.min() <= crossing <= thetas.max():
        crossing = None
    return CurveSamples(
        thetas=thetas,
        mean_reward_exposed=mean_exposed,
        mean_reward_control=mean_control,
        crossing_theta=crossing,
    )


def bootstrap_ci(
    ds: Dataset,
    spec: DivergenceSpec,
    replicates: int,
    seed: int,
    level: float = 0.95,
) -> tuple[float, float]:
    """Stratified percentile bootstrap interval for the fitted tolerance.

    Observations are resampled with replacement within each exposure group,
    so both groups survive every replicate.  Replicate k draws from a
    substream derived deterministically from (seed, k), making the interval
    reproducible and safe to parallelize.  Replicates whose objective is
    degenerate are skipped; if more than half are skipped an
    :class:`InferenceError` is raised.

    Only the draws are made one replicate at a time: they fill the rows of
    an index block of at most ``BOOTSTRAP_BLOCK_ELEMENTS`` entries, and the
    moments and argmins of a whole block are computed together, with the
    same floating-point operations as :func:`estimate_theta`.

    Note the percentile interval is not guaranteed to contain the point
    estimate.
    """
    if not 100 <= replicates <= BOOTSTRAP_MAX_REPLICATES:
        raise InputError(
            f"replicates must lie in [100, {BOOTSTRAP_MAX_REPLICATES}], got {replicates}"
        )
    if not 0.0 < level < 1.0:
        raise InputError(f"level must lie in (0, 1), got {level!r}")
    _require_both_groups(ds)

    u, v, d = _decompose(ds, spec)
    s = ds.states
    exposed_idx = np.flatnonzero(s == 1)
    control_idx = np.flatnonzero(s == 0)
    n_e, n = exposed_idx.size, len(s)
    n_c = n - n_e

    rows = max(1, BOOTSTRAP_BLOCK_ELEMENTS // n)
    block = np.empty((min(rows, replicates), n), dtype=np.intp)
    estimates = []
    for start in range(0, replicates, rows):
        take = block[: min(rows, replicates - start)]
        # exposed draws first; idx[integers(0, m, m)] consumes the stream
        # exactly as rng.choice(idx, m, replace=True) does
        for k, row in enumerate(take, start):
            rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
            row[:n_e] = rng.integers(0, n_e, size=n_e)
            row[n_e:] = rng.integers(0, n_c, size=n_c)
        take[:, :n_e] = exposed_idx[take[:, :n_e]]
        take[:, n_e:] = control_idx[take[:, n_e:]]
        estimates.append(_block_estimates(u[take], v[take], d[take]))

    estimates = np.concatenate(estimates)
    skipped = replicates - estimates.size
    if skipped > replicates // 2:
        raise InferenceError(
            f"{skipped} of {replicates} bootstrap replicates were degenerate; "
            "the dataset does not support resampling inference"
        )
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(estimates, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(lo), float(hi)


def _block_estimates(u: np.ndarray, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Closed-form argmins of the non-degenerate rows of resampled (u, v, d).

    Row by row this repeats :func:`_quadratic_coefficients`,
    :func:`_check_degenerate` and :func:`_minimize_quadratic` bit for bit:
    row means are the same pairwise sums, and a (1, n) @ (n, 1) matmul is the
    same dot product.
    """
    n = u.shape[1]
    uc = u - u.mean(axis=1, keepdims=True)
    vc = v - v.mean(axis=1, keepdims=True)
    var_u = np.matmul(uc[:, None, :], uc[:, :, None])[:, 0, 0] / n
    cov_uv = np.matmul(uc[:, None, :], vc[:, :, None])[:, 0, 0] / n
    ok = var_u > DEGENERACY_RTOL * np.max(d, axis=1, initial=0.0) ** 2
    return np.clip(-cov_uv[ok] / var_u[ok], 0.0, 1.0) + 0.0  # normalize -0.0
