"""Pairwise reward objective, its minimizer, and diagnostics built on it.

The objective compares every animal with every other animal:

    Psi_n(theta) = (1/n^2) * sum_i sum_j (R_i(theta) - R_j(theta))^2

where ``R_i`` is the subjective reward of animal ``i``: ``-D * theta`` if
exposed, ``-D * (1 - theta)`` if control.  This double sum is algebraically
equal to twice the divisor-n sample variance of the rewards; the literal
double sum is kept as the reference path.

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
group-mean reward curves cross.  The objective itself is

    Psi_n(theta) = 2 * ((theta^2 W_e + (1 - theta)^2 W_c) / n + p q g^2),
    g = theta m_e - (1 - theta) m_c,

a sum of nonnegative terms, evaluated in O(n).  A grid scan over [0, 1] is
kept as an oracle.  Divergences above ``MAX_DIVERGENCE`` are refused, so every
statistic and tolerance stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import Dataset, DivergenceSpec, dataset_divergences
from .errors import (
    DegenerateObjectiveError,
    DivtolError,
    EstimationError,
    InferenceError,
    InputError,
)

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

#: :func:`bootstrap_ci` resamples, and the simulation study loops draw,
#: max(1, this // n) replicates per block, so working memory stays bounded
#: at any n
BOOTSTRAP_BLOCK_ELEMENTS = 16384

#: replicates that share one pair of :func:`bootstrap_ci` random streams
BOOTSTRAP_CHUNK = 64


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


def _require_seed(seed, error: type[DivtolError] = InputError) -> None:
    """Refuse a seed that ``SeedSequence`` would refuse, or take as a request for entropy."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise error(f"seed must be a nonnegative integer, got {seed!r}")


def _bounded(d: np.ndarray) -> np.ndarray:
    """``d``, refused unless every divergence is finite and at most ``MAX_DIVERGENCE``.

    ``d`` holds one dataset's divergences, or one row per replicate; the
    error names the largest divergence of the first row refused.
    """
    tops = d.max(axis=-1)
    ok = tops <= MAX_DIVERGENCE
    if not ok.all():
        top = np.ravel(tops)[~np.ravel(ok)][0]
        raise InputError(
            f"divergences must be finite and at most {MAX_DIVERGENCE:g}, got {float(top)!r}; "
            "rescale the actions and the optimum"
        )
    return d


def _divergences(ds: Dataset, spec: DivergenceSpec) -> np.ndarray:
    """:func:`dataset_divergences`, refused by :func:`_bounded`."""
    return _bounded(dataset_divergences(ds, spec))


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


def _moments(d: np.ndarray) -> tuple[Fraction, float]:
    """The mean of non-empty ``d`` and the sum of squared deviations from it.

    The rounded mean is corrected by the mean of the deviations from it,
    which are exact wherever the values lie within a factor 2 of the mean,
    so the mean returned carries more than float precision.
    """
    m = d.sum() / d.size
    dev = d - m
    r = dev.sum() / d.size  # what rounding lost of the mean
    return Fraction(m) + Fraction(r), np.square(dev - r).sum()


def _group_objective(theta: float, d_e: np.ndarray, d_c: np.ndarray) -> float:
    """Psi_n(theta) from the group moments; either group may be empty.

    When the divergences share a large common part, ``g`` near the minimum
    is far smaller than the rounding error of ``theta * m_e``, yet ``p q g^2``
    can still matter beside the within-group terms.  So ``g`` is taken in
    exact arithmetic from means that carry more than float precision, and
    each ``W_g`` is centred on such a mean.

    The moments are not shared with :func:`_fit`: its float means must stay
    as they are, since they fix every theta to the bit, and ``g`` built from
    them in float arithmetic leaves the objective at the minimum wrong by up
    to 85 times its own size on divergences whose spread is 1e-17 of their
    common part.
    """
    n_e, n_c = d_e.size, d_c.size
    n = n_e + n_c
    t = Fraction(theta)
    within, gap = 0.0, Fraction(0)
    for d, weight in ((d_e, t), (d_c, t - 1)):
        if d.size:
            mean, ss = _moments(d)
            within += float(weight) ** 2 * ss
            gap += weight * mean
    pq = (n_e / n) * (n_c / n)
    return float(2.0 * (within / n + pq * float(gap) ** 2))


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
    """Twice the divisor-n sample variance of the rewards, from the group moments.

    O(n), and within a few float roundings of the exact value of
    :func:`pairwise_objective` even when the divergences share a large
    common part.  A missing group contributes nothing.
    """
    t = _require_theta(theta_e)
    d = _divergences(ds, spec)
    exposed = ds.states == 1
    return _group_objective(t, d[exposed], d[~exposed])


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
        objective_at_min=_group_objective(theta, d_e, d_c),
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
    so both groups survive every replicate.  Replicates come in chunks of
    ``BOOTSTRAP_CHUNK``: replicate k is row ``k % BOOTSTRAP_CHUNK`` of chunk
    ``c = k // BOOTSTRAP_CHUNK``.  Chunk c draws its exposed indices from
    ``default_rng(SeedSequence([seed, c, 0]))`` and its control indices from
    ``default_rng(SeedSequence([seed, c, 1]))``, each stream filling the
    chunk's rows with ``integers(0, m, (rows, m))`` for a group of m
    animals.  The interval is reproducible, and chunks are independent, so
    the work is safe to parallelize at chunk grain.  Replicates whose
    objective is degenerate are skipped; if more than half are skipped an
    :class:`InferenceError` is raised.

    A chunk is drawn and fitted in row blocks of at most
    ``BOOTSTRAP_BLOCK_ELEMENTS`` indices, so working memory stays bounded at
    any n.  Consecutive ``integers`` calls on one stream give the same values
    as one call over all their rows, so the block size never changes the
    interval.  Each row is fitted from its group statistics to the same bits
    as :func:`estimate_theta` on the resampled dataset.

    Note the percentile interval is not guaranteed to contain the point
    estimate.
    """
    if not 100 <= replicates <= BOOTSTRAP_MAX_REPLICATES:
        raise InputError(
            f"replicates must lie in [100, {BOOTSTRAP_MAX_REPLICATES}], got {replicates}"
        )
    if not 0.0 < level < 1.0:
        raise InputError(f"level must lie in (0, 1), got {level!r}")
    _require_seed(seed)
    _, d_e, d_c = _group_divergences(ds, spec)
    n_e, n_c = d_e.size, d_c.size

    rows = max(1, BOOTSTRAP_BLOCK_ELEMENTS // (n_e + n_c))
    estimates = []
    for chunk, first in enumerate(range(0, replicates, BOOTSTRAP_CHUNK)):
        size = min(BOOTSTRAP_CHUNK, replicates - first)
        exposed, control = (
            np.random.default_rng(np.random.SeedSequence([seed, chunk, group])) for group in (0, 1)
        )
        for start in range(0, size, rows):
            take = min(rows, size - start)
            draws_e = d_e[exposed.integers(0, n_e, (take, n_e))]
            draws_c = d_c[control.integers(0, n_c, (take, n_c))]
            thetas, degenerate, _ = _fit(draws_e, draws_c)
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

