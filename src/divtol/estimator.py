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

a sum of nonnegative terms, evaluated in O(n).  :mod:`divtol.core` refuses
divergences above ``MAX_DIVERGENCE`` (re-exported here), so every statistic
and tolerance stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import MAX_DIVERGENCE, Dataset, DivergenceSpec, _missing_group, dataset_divergences
from .errors import (
    DegenerateObjectiveError,
    DivtolError,
    EstimationError,
    InferenceError,
    InputError,
)

__all__ = [
    "EstimateResult",
    "CurveSamples",
    "pairwise_objective",
    "variance_objective",
    "estimate_theta",
    "reward_curves",
    "bootstrap_ci",
    "grid_intervals",
]

#: finest accepted theta grid step: a grid has at most 10^6 + 1 points
MIN_GRID_STEP = 1e-6

#: a grid step must divide 1: 1/step may differ from a whole number of
#: intervals by at most this fraction of 1/step
GRID_STEP_RTOL = 1e-9

#: largest n for which :func:`pairwise_objective` builds its n x n matrix
PAIRWISE_MAX_N = 5000

#: a coefficient of theta^2 at or below 1e-12 * max(D)^2 is treated as zero
#: curvature.  The bound is relative, so rescaling the actions and the optimum
#: never changes whether an objective counts as degenerate.
DEGENERACY_RTOL = 1e-12

#: largest replicate count :func:`bootstrap_ci` accepts
BOOTSTRAP_MAX_REPLICATES = 10**6

#: :func:`bootstrap_ci` resamples, and the simulation study loops draw,
#: max(1, this // n) replicates per block, so working memory stays bounded
#: at any n
BOOTSTRAP_BLOCK_ELEMENTS = 16384


@dataclass(frozen=True)
class EstimateResult:
    """Fitted tolerance, the objective at it, and the quadratic it minimizes.

    ``quadratic`` carries the coefficients ``(A_e + A_c, -A_c, W_c / n + p q m_c^2)``
    of ``Psi_n / 2 = (A_e + A_c) theta^2 - 2 A_c theta + W_c / n + p q m_c^2``
    (see the module docstring), useful for audits and standard-error work.
    """

    theta_e: float
    objective_at_min: float
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
    """Return (theta, degenerate, :attr:`EstimateResult.quadratic`) from group divergences.

    ``d_e`` and ``d_c`` have shapes (..., n_e) and (..., n_c): 1-D for one
    dataset, 2-D for a block of replicates, each row fitted to the same bits
    as alone.  Both groups must be non-empty and every ``D`` finite and
    nonnegative.  ``theta`` lies in [0, 1] on every row, but means nothing
    where ``degenerate``.

    A row is degenerate when its curvature is at most ``DEGENERACY_RTOL``
    times the square of its largest divergence.  The test is first made
    against the block's largest divergence, one reduction for the whole
    block.  No row's maximum exceeds it, and rounded squares and products
    keep that order, so a row this bound leaves unflagged is unflagged by
    its own maximum too.  Only when the bound flags some row are the row
    maxima taken, to clear the flags they do not confirm; every flag, and
    so every theta, keeps the bits of the per-row test.
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
    curvature = a_e + a_c
    top = max(d_e.max(), d_c.max())
    degenerate = curvature <= DEGENERACY_RTOL * (top * top)
    if np.any(degenerate):
        top = np.maximum(d_e.max(axis=-1), d_c.max(axis=-1))
        degenerate &= curvature <= DEGENERACY_RTOL * (top * top)
    theta = a_c / (curvature + degenerate)  # no 0/0 on an all-zero row
    return theta, degenerate, (curvature, 0.0 - a_c, w_c + pq * m_c * m_c)


def _require_theta(theta_e: float) -> float:
    t = float(theta_e)
    if not np.isfinite(t) or not 0.0 <= t <= 1.0:
        raise InputError(f"theta_e must lie in [0, 1], got {theta_e!r}")
    return t


def _require_seed(seed, error: type[DivtolError] = InputError) -> None:
    """Refuse a seed that ``SeedSequence`` would refuse, or take as a request for entropy."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise error(f"seed must be a nonnegative integer, got {seed!r}")


def _group_divergences(ds: Dataset, spec: DivergenceSpec):
    """Return (d, d_e, d_c): all divergences, then the exposed and the control ones."""
    states = ds.states
    if missing := _missing_group(states):
        raise EstimationError(missing)
    d = dataset_divergences(ds, spec)
    exposed = states == 1
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
    r = _rewards(t, dataset_divergences(ds, spec), ds.states)
    diff = r[:, None] - r[None, :]
    return float(np.mean(diff * diff))


def variance_objective(theta_e: float, ds: Dataset, spec: DivergenceSpec) -> float:
    """Twice the divisor-n sample variance of the rewards, from the group moments.

    O(n), and within a few float roundings of the exact value of
    :func:`pairwise_objective` even when the divergences share a large
    common part.  A missing group contributes nothing.
    """
    t = _require_theta(theta_e)
    d = dataset_divergences(ds, spec)
    exposed = ds.states == 1
    return _group_objective(t, d[exposed], d[~exposed])


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


def estimate_theta(ds: Dataset, spec: DivergenceSpec) -> EstimateResult:
    """Minimize the pairwise objective over theta in [0, 1], in closed form.

    Raises :class:`EstimationError` when a group is missing,
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
    theta = float(theta)
    return EstimateResult(
        theta_e=theta,
        objective_at_min=_group_objective(theta, d_e, d_c),
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
    so both groups survive every replicate.  Exposed indices come from one
    stream, ``default_rng(SeedSequence([seed, 0]))``, and control indices
    from another, ``default_rng(SeedSequence([seed, 1]))``; replicate k is
    row k of the draws ``integers(0, m, (replicates, m))`` that each stream
    would make for a group of m animals.  Replicates whose objective is
    degenerate are skipped; if more than half are skipped an
    :class:`InferenceError` is raised.

    Replicates are drawn in blocks of ``max(1, BOOTSTRAP_BLOCK_ELEMENTS // n)``
    rows into two reused buffers, so working memory stays bounded at any n,
    and each block is fitted by one :func:`_fit` call.  Consecutive
    ``integers`` calls on one stream give the same values as one call over
    all their rows, so the block size never changes the interval.  Each row
    is fitted from its group statistics to the same bits as
    :func:`estimate_theta` on the resampled dataset.  The surviving estimates
    fill one array, whose percentiles are taken in place.

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

    rows = min(replicates, max(1, BOOTSTRAP_BLOCK_ELEMENTS // (n_e + n_c)))
    draws_e, draws_c = np.empty((rows, n_e)), np.empty((rows, n_c))
    exposed, control = (np.random.default_rng(np.random.SeedSequence([seed, g])) for g in (0, 1))
    estimates = np.empty(replicates)
    used = 0
    for start in range(0, replicates, rows):
        take = min(rows, replicates - start)
        # every index is in range, so "wrap" changes no value; it spares the
        # buffered copy that take's default bounds check makes of ``out``
        d_e.take(exposed.integers(0, n_e, (take, n_e)), out=draws_e[:take], mode="wrap")
        d_c.take(control.integers(0, n_c, (take, n_c)), out=draws_c[:take], mode="wrap")
        thetas, degenerate, _ = _fit(draws_e[:take], draws_c[:take])
        kept = thetas[~degenerate]
        estimates[used : used + kept.size] = kept
        used += kept.size

    skipped = replicates - used
    if skipped > replicates // 2:
        raise InferenceError(
            f"{skipped} of {replicates} bootstrap replicates were degenerate; "
            "the dataset does not support resampling inference"
        )
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(
        estimates[:used], [100.0 * alpha, 100.0 * (1.0 - alpha)], overwrite_input=True
    )
    return float(lo), float(hi)

