"""Pairwise reward objective, its minimizer, and diagnostics built on it.

The objective compares every animal with every other animal:

    Psi_n(theta) = (1/n^2) * sum_i sum_j (R_i(theta) - R_j(theta))^2

where ``R_i`` is the subjective reward of animal ``i``.  This double sum is
algebraically equal to twice the divisor-n sample variance of the rewards,
which is the O(n) evaluation path used everywhere performance matters; the
literal double sum is kept as the reference path.  One function gives every
reward: ``-D * theta`` if exposed, ``-D * (1 - theta)`` if control.

A reward depends on an animal only through ``D`` and its group, so the
quadratic ``Psi_n / 2`` is fixed by six group statistics: the sizes
``n_e``, ``n_c``, the means ``m_e``, ``m_c`` of ``D`` and the within-group
sums of squares ``W_e``, ``W_c``.  With ``p = n_e / n``, ``q = n_c / n`` and
``A_g = W_g / n + p * q * m_g * (m_e + m_c)`` for each group g, the theta^2
coefficient is ``A_e + A_c``, the theta coefficient ``-2 A_c``, and

    theta_e = A_c / (A_e + A_c).

``A_e`` and ``A_c`` are sums and products of nonnegative numbers, so the
computed ratio lies in [0, 1] even after rounding: no clamp is needed.  With
no spread within the groups it is ``m_c / (m_e + m_c)``, where the
group-mean reward curves cross.  A grid scan over [0, 1] is kept as an
oracle.  Divergences above ``MAX_DIVERGENCE`` are refused, so every
statistic and tolerance stays finite.
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

#: a coefficient of theta^2 at or below 1e-12 * max(D)^2 is treated as zero
#: curvature.  The bound is relative, so rescaling the actions and the optimum
#: never changes whether an objective counts as degenerate.
DEGENERACY_RTOL = 1e-12

#: largest divergence the estimator accepts: squares of divergences up to
#: 1e150, and so every group statistic, coefficient and tolerance, stay finite
#: for fewer than 10^8 animals
MAX_DIVERGENCE = 1e150

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
    objective's quadratic form ``var_u * theta^2 + 2 * cov_uv * theta + var_v``,
    useful for audits and standard-error work.  ``clamped`` is set on the GRID
    path when the grid's argmin sits on a boundary because the parabola's
    vertex lies outside [0, 1]; the closed-form argmin always lies in [0, 1],
    so on the CLOSED_FORM path it is always False.
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


def _fit(d_e: np.ndarray, d_c: np.ndarray):
    """Return (theta, degenerate, (var_u, cov_uv, var_v)) from group divergences.

    ``d_e`` and ``d_c`` have shapes (..., n_e) and (..., n_c): 1-D for one
    dataset, 2-D for a block of replicates, each row fitted to the same bits
    as alone.  Both groups must be non-empty and every ``D`` finite and
    nonnegative.  ``theta`` lies in [0, 1] on every row, but means nothing
    where ``degenerate``.
    """
    n_e, n_c = d_e.shape[-1], d_c.shape[-1]
    n = n_e + n_c
    pq = (n_e / n) * (n_c / n)
    # the bits of .mean(axis=-1), without its per-call overhead
    m_e = d_e.sum(axis=-1) / n_e
    m_c = d_c.sum(axis=-1) / n_c
    w_e = np.square(d_e - m_e[..., None]).sum(axis=-1) / n
    w_c = np.square(d_c - m_c[..., None]).sum(axis=-1) / n
    pq_m = pq * (m_e + m_c)
    a_e = w_e + pq_m * m_e
    a_c = w_c + pq_m * m_c
    var_u = a_e + a_c
    top = np.maximum(d_e.max(axis=-1), d_c.max(axis=-1))
    degenerate = var_u <= DEGENERACY_RTOL * (top * top)
    theta = a_c / (var_u + degenerate)  # no 0/0 on an all-zero row
    return theta, degenerate, (var_u, 0.0 - a_c, w_c + pq * m_c * m_c)


def _require_theta(theta_e: float) -> float:
    t = float(theta_e)
    if not np.isfinite(t) or not 0.0 <= t <= 1.0:
        raise InputError(f"theta_e must lie in [0, 1], got {theta_e!r}")
    return t


def _divergences(ds: Dataset, spec: DivergenceSpec) -> np.ndarray:
    """:func:`dataset_divergences`, refused unless finite and at most ``MAX_DIVERGENCE``."""
    d = dataset_divergences(ds, spec)
    top = d.max()
    if not top <= MAX_DIVERGENCE:
        raise InputError(
            f"divergences must be finite and at most {MAX_DIVERGENCE:g}, got {float(top)!r}; "
            "rescale the actions and the optimum"
        )
    return d


def _group_divergences(ds: Dataset, spec: DivergenceSpec):
    """Return (d, d_e, d_c): all divergences, then the exposed and the control ones."""
    exposed = ds.states == 1
    n_e = np.count_nonzero(exposed)
    groups = (("exposed", n_e == 0), ("control", n_e == exposed.size))
    missing = [name for name, absent in groups if absent]
    if missing:
        raise EstimationError(f"missing {' and '.join(missing)} group")
    d = _divergences(ds, spec)
    return d, d[exposed], d[~exposed]


def _rewards(theta, d: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Subjective rewards: ``-D * theta`` if exposed, ``-D * (1 - theta)`` if control."""
    return -d * np.where(states == 1, theta, 1.0 - theta)


def _objective(theta: float, d: np.ndarray, states: np.ndarray) -> float:
    """Twice the divisor-n variance of the rewards."""
    r = _rewards(theta, d, states)
    centered = r - r.sum() / r.size  # sum / size: the bits of mean()
    return float(2.0 * ((centered * centered).sum() / r.size))


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
    r = _rewards(t, _divergences(ds, spec), ds.states)
    diff = r[:, None] - r[None, :]
    return float(np.mean(diff * diff))


def variance_objective(theta_e: float, ds: Dataset, spec: DivergenceSpec) -> float:
    """Twice the divisor-n sample variance of the rewards (O(n) path).

    Agrees with :func:`pairwise_objective` to floating-point accuracy.
    """
    t = _require_theta(theta_e)
    return _objective(t, _divergences(ds, spec), ds.states)


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
    :class:`DegenerateObjectiveError` when the objective has no curvature,
    and :class:`InputError` when a divergence exceeds ``MAX_DIVERGENCE``.
    """
    d, d_e, d_c = _group_divergences(ds, spec)
    theta, degenerate, coefficients = _fit(d_e, d_c)
    quadratic = tuple(map(float, coefficients))
    if degenerate:
        raise DegenerateObjectiveError(
            f"objective has no curvature in theta (its theta^2 coefficient is {quadratic[0]:.3e} "
            f"<= tolerance {DEGENERACY_RTOL * float(d.max()) ** 2:.3e}); "
            "this happens when every divergence is zero, so no tolerance is identified"
        )

    if method is Method.CLOSED_FORM:
        theta, clamped = float(theta), False
    elif method is Method.GRID:
        theta, clamped = _scan_grid(*quadratic, grid_step)
    else:
        raise InputError(f"unknown method {method!r}")

    return EstimateResult(
        theta_e=theta,
        objective_at_min=_objective(theta, d, ds.states),
        method=method,
        clamped=clamped,
        quadratic=quadratic,
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
    thetas = np.asarray(grid, dtype=float)
    if thetas.ndim != 1 or thetas.size == 0:
        raise InputError("grid must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(thetas)) or thetas.min() < 0.0 or thetas.max() > 1.0:
        raise InputError("grid values must lie in [0, 1]")

    _, d_e, d_c = _group_divergences(ds, spec)
    mean_d_exposed = float(d_e.mean())
    mean_d_control = float(d_c.mean())
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
    whole block is fitted at once from its rows' group statistics, each row
    to the same bits as :func:`estimate_theta` on the resampled dataset.

    Note the percentile interval is not guaranteed to contain the point
    estimate.
    """
    if not 100 <= replicates <= BOOTSTRAP_MAX_REPLICATES:
        raise InputError(
            f"replicates must lie in [100, {BOOTSTRAP_MAX_REPLICATES}], got {replicates}"
        )
    if not 0.0 < level < 1.0:
        raise InputError(f"level must lie in (0, 1), got {level!r}")
    _, d_e, d_c = _group_divergences(ds, spec)
    d = np.concatenate([d_e, d_c])
    n_e, n_c, n = d_e.size, d_c.size, d.size

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
        take[:, n_e:] += n_e  # the control divergences follow the exposed ones in d
        draws = d[take]
        thetas, degenerate, _ = _fit(draws[:, :n_e], draws[:, n_e:])
        estimates.append(thetas[~degenerate])

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

