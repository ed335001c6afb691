"""Synthetic fixed-interval data, the ANOVA baseline, and the study harness.

The synthetic behavioral policy draws an animal's action from a Gamma
distribution whose shape is itself random:

    exposed (s=1):  alpha = 2 * eps1,  eps1 ~ N(mu1=2, sigma1^2=1)
    control (s=0):  alpha = eps2,      eps2 ~ N(mu2=2, sigma2^2=4)
    action ~ Gamma(shape=alpha, rate=1)

A normal draw can make the shape nonpositive; the positivity rule here is
rejection: redraw eps until alpha > 0, i.e. the shape noise follows the
normal truncated to the positive half-line.  On average this makes exposed
animals more active (larger actions).

Two sampling designs are exposed, and the distinction matters:

* :func:`generate_dataset` draws fresh shape noise for every animal, so the
  observations are iid from one fixed compound policy, whose moments are
  closed forms.  This is the design the consistency and convergence probes need.
* :func:`run_monte_carlo` realizes the policy once per replicate dataset
  (one eps1 and one eps2 shared by all its animals, as :func:`draw_policy`
  and :func:`generate_study_dataset` draw them).  Group contrasts then vary
  dataset-to-dataset with the realized shapes, which is what produces
  headline fractions near 74% for both the tolerance estimate and the ANOVA
  slope at n=50; redrawing the noise per animal concentrates both fractions
  near 1 instead.

One block sampler, :func:`_draw_block`, draws both designs; the three public
generators are its one-row calls.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .core import Dataset, DivergenceSpec, _missing_group, action_divergences
from .errors import ConfigurationError, DivtolError, EstimationError, InputError, StudyError
from .estimator import (
    BOOTSTRAP_BLOCK_ELEMENTS,
    _fit,
    _group_objective,
    _require_seed,
    _require_theta,
    estimate_theta,
)

__all__ = [
    "PolicyConfig",
    "RealizedPolicy",
    "AnovaFit",
    "McConfig",
    "McResult",
    "SweepRow",
    "ProbeRow",
    "ProbeResult",
    "generate_dataset",
    "draw_policy",
    "generate_study_dataset",
    "fit_anova",
    "run_monte_carlo",
    "consistency_sweep",
    "objective_convergence_probe",
]

#: consecutive rejected shape draws before giving up (unreachable at defaults)
MAX_REJECTIONS = 10**6

#: resampled exposure vectors before giving up on a mixed assignment
MAX_ASSIGNMENT_RETRIES = 10**5


@dataclass(frozen=True)
class PolicyConfig:
    """Parameters of the synthetic behavioral policy.

    ``sigma1_sq`` and ``sigma2_sq`` are variances of the shape noise (their
    square roots are the standard deviations used for sampling).  The exposed
    shape is ``shape_multiplier_exposed * eps1`` redrawn until positive, so a
    negative multiplier truncates ``eps1`` to the negative half-line instead.
    Every field must be finite, and each group's shape must be positive with
    a probability ``mass = Phi(+-mu / sd)`` for which the chance that rejection
    sampling gives up on a shape, ``exp(-mass * MAX_REJECTIONS)``, is <= 1e-9.
    """

    mu1: float = 2.0
    sigma1_sq: float = 1.0
    mu2: float = 2.0
    sigma2_sq: float = 4.0
    shape_multiplier_exposed: float = 2.0
    rate: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ConfigurationError(f"policy parameters must be finite, got {self}")
        if self.sigma1_sq <= 0 or self.sigma2_sq <= 0:
            raise ConfigurationError("shape noise variances must be positive")
        if self.rate <= 0:
            raise ConfigurationError("rate must be positive")
        for s, group in ((1, "exposed"), (0, "control")):
            mu, sd, mult = self.shape_params(s)
            z = math.copysign(1.0, mult) * mu / (sd * math.sqrt(2.0))
            mass = 0.5 * math.erfc(-z) if mult else 0.0
            if mass * MAX_REJECTIONS < math.log(1e9):
                raise ConfigurationError(
                    f"the {group} shape is positive with probability {mass:.3g}, "
                    f"too small for {MAX_REJECTIONS} rejection draws to succeed reliably"
                )

    def shape_params(self, s: int) -> tuple[float, float, float]:
        """(mu, sd, multiplier) of the shape noise for exposure state s."""
        if s == 1:
            return self.mu1, math.sqrt(self.sigma1_sq), self.shape_multiplier_exposed
        return self.mu2, math.sqrt(self.sigma2_sq), 1.0


@dataclass(frozen=True)
class RealizedPolicy:
    """One realization of the random policy: the two Gamma shapes."""

    alpha_exposed: float
    alpha_control: float
    rate: float = 1.0


@dataclass(frozen=True)
class AnovaFit:
    """Two-group least-squares fit of action on exposure.

    For a binary regressor, ``b0`` is the control mean, ``b1`` the difference
    of group means, and ``sigma_sq`` the residual variance on n - 2 degrees
    of freedom (None when n < 3).
    """

    b0: float
    b1: float
    sigma_sq: float | None


def _require_design(n: int, p_exposed: float, error: type[DivtolError]) -> None:
    """Refuse fewer than two animals, and a ``p_exposed`` outside [0, 1] or rarely mixed.

    One try of the exposure assignment draws both groups with probability
    ``q = 1 - p^n - (1-p)^n``; as in :class:`PolicyConfig`, the chance that
    every one of ``MAX_ASSIGNMENT_RETRIES`` tries misses, ``exp(-q * tries)``,
    must be <= 1e-9.  At ``p`` in {0, 1} the one group is the design, and
    nothing is retried.
    """
    if n < 2:
        raise error(f"n must be >= 2, got {n}")
    if not 0.0 <= p_exposed <= 1.0:
        raise error(f"p_exposed must lie in [0, 1], got {p_exposed!r}")
    minor = min(p_exposed, 1.0 - p_exposed)
    q = -math.expm1(n * math.log1p(-minor)) - minor**n
    if minor and q * MAX_ASSIGNMENT_RETRIES < math.log(1e9):
        raise error(
            f"an exposure assignment of {n} animals at p_exposed={p_exposed!r} holds "
            f"both groups with probability q = {q:.3g}, too small for "
            f"{MAX_ASSIGNMENT_RETRIES} tries to succeed reliably"
        )


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo study parameters (defaults reproduce the n=50, M=2000 study).

    ``p_exposed`` lies in (0, 1), and with ``n_per_dataset`` it must make a
    mixed exposure assignment likely enough for the retries (:func:`_require_design`).
    """

    n_per_dataset: int = 50
    num_datasets: int = 2000
    p_exposed: float = 0.5
    seed: int = 0
    optimal_action: float = 0.0

    def __post_init__(self):
        if self.num_datasets < 1:
            raise ConfigurationError("num_datasets must be >= 1")
        if not 0.0 < self.p_exposed < 1.0:
            raise ConfigurationError("p_exposed must lie in (0, 1)")
        _require_design(self.n_per_dataset, self.p_exposed, ConfigurationError)
        _require_seed(self.seed, ConfigurationError)


@dataclass(frozen=True, eq=False)
class McResult:
    """Aggregated study output: headline fractions plus every surviving estimate.

    ``theta_estimates`` and ``b1_estimates`` are read-only float64 arrays,
    one entry per replicate whose objective was not degenerate.
    """

    frac_theta_below_half: float
    frac_b1_above_zero: float
    theta_estimates: np.ndarray
    b1_estimates: np.ndarray
    degenerate_count: int


@dataclass(frozen=True)
class SweepRow:
    n: int
    mean_theta: float
    sd_theta: float


@dataclass(frozen=True)
class ProbeRow:
    n: int
    mean_psi: float
    mean_scaled: float
    sd_scaled: float


@dataclass(frozen=True)
class ProbeResult:
    """sqrt(n)-scaled fluctuations per sample size around the objective's exact limit ``psi_0``."""

    psi_0: float
    rows: tuple[ProbeRow, ...] = field(default_factory=tuple)


#: gamma draws with tiny shapes can underflow to 0.0; the law's support is
#: strictly positive, so underflowed draws are floored here
_SMALLEST_ACTION = float(np.finfo(float).tiny)


def _gamma_actions(alphas: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Gamma(alphas, rate) draws, floored at :data:`_SMALLEST_ACTION`.

    numpy draws ``Generator.gamma(shape, scale)`` as ``scale * standard_gamma(shape)``
    element by element, so these are ``rng.gamma(alphas, 1 / rate)``'s bits without
    its two-parameter broadcast.
    """
    actions = rng.standard_gamma(alphas)
    actions *= 1.0 / rate
    return np.maximum(actions, _SMALLEST_ACTION, out=actions)


def _positive_shapes(cfg: PolicyConfig, s: int, size, rng: np.random.Generator) -> np.ndarray:
    """``size`` shapes of exposure state s, ``mult * N(mu, sd)``; nonpositive ones are redrawn."""
    mu, sd, mult = cfg.shape_params(s)
    shapes = mult * rng.normal(mu, sd, size)
    for _ in range(MAX_REJECTIONS):
        bad = shapes <= 0.0
        if not bad.any():
            return shapes
        shapes[bad] = mult * rng.normal(mu, sd, int(np.count_nonzero(bad)))
    raise ConfigurationError(
        f"gave up after {MAX_REJECTIONS} rejected shape draws "
        f"(mu={mu}, sd={sd}); the positive region has negligible mass"
    )


def _shape_moments(cfg: PolicyConfig, s: int) -> list[float]:
    """Raw moments 0-4 of state s's shape, ``N(mu, sd^2)`` scaled by mult and truncated to > 0.

    ``m_1 = mu + sd phi(mu/sd) / Phi(mu/sd)`` and ``m_k = mu m_{k-1} + (k-1) sd^2 m_{k-2}``.
    """
    mu, sd, mult = cfg.shape_params(s)
    mu, sd, z = mult * mu, abs(mult) * sd, math.copysign(1.0, mult) * mu / sd
    m = [1.0, mu + sd * math.sqrt(2 / math.pi) * math.exp(-z * z / 2) / math.erfc(-z / 2**0.5)]
    for k in range(2, 5):
        m.append(mu * m[-1] + (k - 1) * sd * sd * m[-2])
    return m


def _divergence_moments(cfg: PolicyConfig, s: int, optimal: float) -> tuple[float, float]:
    """E[D] and E[D^2], D = (a - optimal)^2, for an iid action a of exposure state s.

    ``E[a^k | alpha] = alpha (alpha+1) ... (alpha+k-1) / rate^k``; D's are binomial sums.
    """
    m = _shape_moments(cfg, s)
    action = [1.0] + [np.poly(-np.arange(k))[::-1] @ m[: k + 1] * cfg.rate**-k for k in range(1, 5)]
    return tuple(float(np.poly([optimal] * k)[::-1] @ action[: k + 1]) for k in (2, 4))


def _draw_mixed_states(
    rows: int, n: int, p_exposed: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """(rows, n) Bernoulli exposures, each row regenerated until both groups are present.

    Only the rows that lack a group are drawn again, together, and no row is
    regenerated more than ``MAX_ASSIGNMENT_RETRIES`` times.  Degenerate
    probabilities (p in {0, 1}) are returned as-is: a single-group assignment
    is then the intended law, not an accident.  Returns the states and the
    number of row regenerations performed.
    """
    exposed = rng.random((rows, n)) < p_exposed
    regenerations = 0
    if 0.0 < p_exposed < 1.0:
        # a row holds both groups unless its exposed count is 0 or n
        unmixed = np.flatnonzero(np.count_nonzero(exposed, axis=1) % n == 0)
        for _ in range(MAX_ASSIGNMENT_RETRIES):
            if not unmixed.size:
                break
            redrawn = rng.random((unmixed.size, n)) < p_exposed
            exposed[unmixed] = redrawn
            regenerations += unmixed.size
            unmixed = unmixed[np.count_nonzero(redrawn, axis=1) % n == 0]
        if unmixed.size:
            raise ConfigurationError(
                f"could not draw a mixed exposure assignment in {MAX_ASSIGNMENT_RETRIES} tries"
            )
    return exposed.astype(int), regenerations


def _draw_block(
    policy: PolicyConfig | RealizedPolicy, rows: int, n: int, p_exposed: float, rngs, iid=False
) -> tuple[np.ndarray, np.ndarray]:
    """The states and scalar actions of ``rows`` replicates of n animals, as (rows, n) arrays.

    ``rngs`` holds the shape, state and action generators.  The states are
    drawn first, then the shapes, exposed before control, then the Gamma
    actions, so a one-row call can pass one generator in all three roles.
    With ``iid`` each animal draws its own shape from the compound
    ``policy``; otherwise a row's animals share one shape per group, drawn
    per row from a :class:`PolicyConfig` or given by a :class:`RealizedPolicy`.
    """
    shapes_rng, states_rng, actions_rng = rngs
    states, _ = _draw_mixed_states(rows, n, p_exposed, states_rng)
    exposed = states == 1
    if iid:
        alphas = np.empty(states.shape)
        for s, mask in ((1, exposed), (0, ~exposed)):
            alphas[mask] = _positive_shapes(policy, s, np.count_nonzero(mask), shapes_rng)
    elif isinstance(policy, RealizedPolicy):
        alphas = np.where(exposed, policy.alpha_exposed, policy.alpha_control)
    else:
        shapes = [_positive_shapes(policy, s, (rows, 1), shapes_rng) for s in (1, 0)]
        alphas = np.where(exposed, *shapes)
    return states, _gamma_actions(alphas, policy.rate, actions_rng)


def generate_dataset(
    cfg: PolicyConfig, n: int, p_exposed: float, rng: np.random.Generator
) -> Dataset:
    """n iid scalar observations from the compound policy.

    Exposure is Bernoulli(p_exposed).  For ``p_exposed`` in (0, 1) an
    assignment leaving a group empty is regenerated, so both groups are
    present; at 0 or 1 the dataset holds one group, which no estimator can
    fit.  Refuses ``n`` below 2, and a ``p_exposed`` outside [0, 1] or too
    rarely mixed for the retries (:func:`_require_design`).
    """
    _require_design(n, p_exposed, InputError)
    states, actions = _draw_block(cfg, 1, n, p_exposed, (rng, rng, rng), iid=True)
    return Dataset.from_arrays(actions=actions.reshape(n, 1), states=states[0])


def draw_policy(cfg: PolicyConfig, rng: np.random.Generator) -> RealizedPolicy:
    """Realize the random policy once: one positive shape per group, the exposed first."""
    exposed, control = (float(_positive_shapes(cfg, s, 1, rng)[0]) for s in (1, 0))
    return RealizedPolicy(alpha_exposed=exposed, alpha_control=control, rate=cfg.rate)


def generate_study_dataset(
    policy: RealizedPolicy, n: int, p_exposed: float, rng: np.random.Generator
) -> Dataset:
    """n scalar observations from one realized policy (shapes shared within the dataset).

    Exposure is drawn, and the arguments checked, as in :func:`generate_dataset`.
    """
    _require_design(n, p_exposed, InputError)
    states, actions = _draw_block(policy, 1, n, p_exposed, (rng, rng, rng))
    return Dataset.from_arrays(actions=actions.reshape(n, 1), states=states[0])


def fit_anova(ds: Dataset) -> AnovaFit:
    """Least squares of a scalar action on the binary exposure.

    With a binary regressor this is the group-means solution exactly:
    intercept = control mean, slope = difference of group means.
    """
    if ds.dimension != 1:
        raise InputError("fit_anova requires scalar actions (dimension 1)")
    states = ds.states
    if missing := _missing_group(states):
        raise EstimationError(missing)
    a = ds.actions[:, 0]
    mean_control = float(a[states == 0].mean())
    mean_exposed = float(a[states == 1].mean())
    b0 = mean_control
    b1 = mean_exposed - mean_control
    n = len(ds)
    if n < 3:
        sigma_sq = None
    else:
        resid = a - (b0 + b1 * states)
        sigma_sq = float(np.dot(resid, resid) / (n - 2))
    return AnovaFit(b0=b0, b1=b1, sigma_sq=sigma_sq)


def _fit_rows(
    states: np.ndarray, actions: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit a (rows, n) block of replicates: (theta, degenerate, b1), one entry per row.

    Each row gets the bits that :func:`estimate_theta` and :func:`fit_anova`
    give on that replicate's dataset.  A stable sort puts each row's exposed
    animals first, each group in the dataset's order, and rows with the
    same number of exposed animals are fitted together.  Every row must hold
    both groups.
    """
    rows, n = actions.shape
    order = np.argsort(states == 0, axis=1, kind="stable")
    d = np.take_along_axis(d, order, axis=1)
    a = np.take_along_axis(actions, order, axis=1)
    n_e = np.count_nonzero(states, axis=1)
    theta, b1 = np.empty(rows), np.empty(rows)
    degenerate = np.empty(rows, dtype=bool)
    for k in np.unique(n_e).tolist():
        group = n_e == k
        d_k, a_k = d[group], a[group]
        theta[group], degenerate[group], _ = _fit(d_k[:, :k], d_k[:, k:])
        # the bits of fit_anova's difference of group means
        b1[group] = a_k[:, :k].sum(axis=1) / k - a_k[:, k:].sum(axis=1) / (n - k)
    return theta, degenerate, b1


def _fit_replicates(
    policy: PolicyConfig, count: int, n: int, p_exposed: float, entropy, spec, fit_block, iid=False
) -> tuple[np.ndarray, ...]:
    """Fit ``count`` replicates of n animals, one entry each per array ``fit_block`` returns.

    The replicates are drawn by :func:`_draw_block` from three generators,
    ``SeedSequence(entropy).spawn(3)``, in blocks of at most
    ``BOOTSTRAP_BLOCK_ELEMENTS`` entries (one row if n is larger), and
    ``fit_block(states, actions, d)`` fits each block at once.  The
    divergences ``d`` come from :func:`action_divergences`, which refuses
    them as it refuses a dataset's.
    """
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(entropy).spawn(3)]
    rows = max(1, BOOTSTRAP_BLOCK_ELEMENTS // n)
    fits = []
    for start in range(0, count, rows):
        states, actions = _draw_block(policy, min(rows, count - start), n, p_exposed, rngs, iid)
        d = action_divergences(actions[:, :, None], spec)
        fits.append(fit_block(states, actions, d))
    return tuple(map(np.concatenate, zip(*fits)))


def run_monte_carlo(cfg: McConfig, policy: PolicyConfig) -> McResult:
    """The simulation study: tolerance estimate vs ANOVA slope over replicates.

    Each replicate realizes the policy once (one shape per group, shared by
    its animals), draws its exposures and actions, estimates the tolerance
    with optimal action ``cfg.optimal_action`` under the squared L2
    divergence, and fits the two-group ANOVA.  Replicates with a degenerate
    objective are counted and skipped; the fractions are taken over the
    surviving replicates.  The replicates are drawn a block at a time from
    the three streams of ``SeedSequence(cfg.seed)`` (:func:`_fit_replicates`),
    and each is fitted to the same bits as :func:`estimate_theta` and
    :func:`fit_anova` on a dataset of its row.
    """
    spec = DivergenceSpec(optimal=np.array([cfg.optimal_action]))
    theta, degenerate, b1 = _fit_replicates(
        policy, cfg.num_datasets, cfg.n_per_dataset, cfg.p_exposed, cfg.seed, spec, _fit_rows
    )
    theta, b1 = theta[~degenerate], b1[~degenerate]
    if not theta.size:
        raise StudyError("every replicate produced a degenerate objective")
    theta.setflags(write=False)
    b1.setflags(write=False)
    return McResult(
        frac_theta_below_half=float(np.mean(theta < 0.5)),
        frac_b1_above_zero=float(np.mean(b1 > 0.0)),
        theta_estimates=theta,
        b1_estimates=b1,
        degenerate_count=int(np.count_nonzero(degenerate)),
    )


def _iid_study(
    policy: PolicyConfig, ns: list[int], replicates: int, seed: int, spec: DivergenceSpec, fit_block
) -> list[tuple[np.ndarray, ...]]:
    """:func:`_fit_replicates` for each n, on :func:`generate_dataset`'s design.

    The replicates of size n are drawn from the streams of
    ``SeedSequence([seed, n])``, so a repeated n gives the same rows.  The
    arguments are checked before anything is drawn.
    """
    if not ns or list(ns) != sorted(ns):
        raise InputError(f"ns must be non-empty and non-decreasing, got {ns!r}")
    if replicates < 2:
        raise InputError("replicates must be >= 2")
    _require_design(ns[0], 0.5, InputError)
    _require_seed(seed)
    return [
        _fit_replicates(policy, replicates, n, 0.5, [seed, n], spec, fit_block, iid=True)
        for n in ns
    ]


def consistency_sweep(
    policy: PolicyConfig,
    ns: list[int],
    replicates: int,
    seed: int,
    optimal_action: float = 0.0,
) -> list[SweepRow]:
    """Spread of the tolerance estimate as the sample size grows.

    Per sample size, fits ``replicates`` independent iid datasets and reports
    the mean and sample standard deviation of the estimates; a shrinking sd
    is the empirical signature of consistency.
    """
    spec = DivergenceSpec(optimal=np.array([optimal_action]))

    def estimates(states, actions, d):
        theta, degenerate, _ = _fit_rows(states, actions, d)
        if degenerate.any():
            # the first degenerate replicate, fitted alone, raises the estimator's error
            j = int(np.argmax(degenerate))
            estimate_theta(Dataset.from_arrays(actions=actions[j, :, None], states=states[j]), spec)
        return (theta,)

    fits = _iid_study(policy, ns, replicates, seed, spec, estimates)
    return [
        SweepRow(n=n, mean_theta=float(theta.mean()), sd_theta=float(theta.std(ddof=1)))
        for n, (theta,) in zip(ns, fits)
    ]


def objective_convergence_probe(
    policy: PolicyConfig,
    ns: list[int],
    replicates: int,
    theta_fixed: float,
    seed: int,
    optimal_action: float = 0.0,
) -> ProbeResult:
    """Fluctuations of the objective around its large-sample limit ``Psi_0``.

    Per sample size, the mean of the raw objective and the mean and sd of
    ``sqrt(n) * (Psi_n - Psi_0)``; a stable sd across sample sizes is consistent with an
    O_P(1) centered fluctuation.  ``Psi_0`` is the iid design's limit at ``p = 1/2``
    (:func:`_divergence_moments`), taken after the draws so that divergences too large to
    fit raise their error.  Each replicate's objective has the bits of
    :func:`variance_objective` on its dataset, from the group moments of a block of them.
    """
    theta = _require_theta(theta_fixed)
    spec = DivergenceSpec(optimal=np.array([optimal_action]))

    def objectives(states, actions, d):
        exposed = states == 1
        return (np.array([_group_objective(theta, r[e], r[~e]) for r, e in zip(d, exposed)]),)

    fits = _iid_study(policy, ns, replicates, seed, spec, objectives)
    (m_e, sq_e), (m_c, sq_c) = (_divergence_moments(policy, s, optimal_action) for s in (1, 0))
    loss = theta * m_e + (1 - theta) * m_c
    psi_0 = theta * theta * sq_e + (1 - theta) * (1 - theta) * sq_c - loss * loss / 2

    rows = []
    for n, (psis,) in zip(ns, fits):
        mean, root_n = float(psis.mean()), math.sqrt(n)
        rows.append(ProbeRow(n, mean, root_n * (mean - psi_0), root_n * float(psis.std(ddof=1))))
    return ProbeResult(psi_0=psi_0, rows=tuple(rows))
