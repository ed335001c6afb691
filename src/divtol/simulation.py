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
  observations are iid from one fixed compound policy.  This is the design
  the consistency and convergence probes need.
* :func:`run_monte_carlo` realizes the policy once per replicate dataset
  (one eps1 and one eps2 shared by all animals in that dataset, via
  :func:`draw_policy`).  Group contrasts then vary dataset-to-dataset with
  the realized shapes, which is what produces headline fractions near 74%
  for both the tolerance estimate and the ANOVA slope at n=50; redrawing
  the noise per animal concentrates both fractions near 1 instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, DivergenceSpec, action_divergences
from .errors import ConfigurationError, EstimationError, InputError, StudyError
from .estimator import (
    BOOTSTRAP_BLOCK_ELEMENTS,
    _bounded,
    _fit,
    _require_seed,
    estimate_theta,
    variance_objective,
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
    square roots are the standard deviations used for sampling).
    """

    mu1: float = 2.0
    sigma1_sq: float = 1.0
    mu2: float = 2.0
    sigma2_sq: float = 4.0
    shape_multiplier_exposed: float = 2.0
    rate: float = 1.0

    def __post_init__(self):
        if self.sigma1_sq <= 0 or self.sigma2_sq <= 0:
            raise ConfigurationError("shape noise variances must be positive")
        if self.rate <= 0:
            raise ConfigurationError("rate must be positive")

    def shape_params(self, s: int) -> tuple[float, float, float]:
        """(mu, sd, multiplier) of the shape noise for exposure state s."""
        if s == 1:
            return self.mu1, float(np.sqrt(self.sigma1_sq)), self.shape_multiplier_exposed
        return self.mu2, float(np.sqrt(self.sigma2_sq)), 1.0


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


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo study parameters (defaults reproduce the n=50, M=2000 study)."""

    n_per_dataset: int = 50
    num_datasets: int = 2000
    p_exposed: float = 0.5
    seed: int = 0
    optimal_action: float = 0.0

    def __post_init__(self):
        if self.n_per_dataset < 2:
            raise ConfigurationError("n_per_dataset must be >= 2")
        if self.num_datasets < 1:
            raise ConfigurationError("num_datasets must be >= 1")
        if not 0.0 < self.p_exposed < 1.0:
            raise ConfigurationError("p_exposed must lie in (0, 1)")
        _require_seed(self.seed, ConfigurationError)


@dataclass(frozen=True)
class McResult:
    """Aggregated study output: headline fractions plus the full estimate lists."""

    frac_theta_below_half: float
    frac_b1_above_zero: float
    theta_estimates: tuple[float, ...]
    b1_estimates: tuple[float, ...]
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
    """Centered, sqrt(n)-scaled objective fluctuations per sample size."""

    psi_hat_0: float
    rows: tuple[ProbeRow, ...] = field(default_factory=tuple)


def _draw_positive_shape(mu: float, sd: float, mult: float, rng: np.random.Generator) -> float:
    for _ in range(MAX_REJECTIONS):
        alpha = mult * rng.normal(mu, sd)
        if alpha > 0.0:
            return alpha
    raise ConfigurationError(
        f"gave up after {MAX_REJECTIONS} rejected shape draws "
        f"(mu={mu}, sd={sd}); the positive region has negligible mass"
    )


#: gamma draws with tiny shapes can underflow to 0.0; the law's support is
#: strictly positive, so underflowed draws are floored here
_SMALLEST_ACTION = float(np.finfo(float).tiny)


def _sample_actions(states: np.ndarray, cfg: PolicyConfig, rng: np.random.Generator) -> np.ndarray:
    """Vectorized iid sampler: one truncated-normal shape and one Gamma draw per animal."""
    n = states.shape[0]
    alphas = np.empty(n)
    for bit in (1, 0):
        mask = states == bit
        if not mask.any():
            continue
        mu, sd, mult = cfg.shape_params(bit)
        vals = mult * rng.normal(mu, sd, size=int(mask.sum()))
        for _ in range(MAX_REJECTIONS):
            bad = vals <= 0.0
            if not bad.any():
                break
            vals[bad] = mult * rng.normal(mu, sd, size=int(bad.sum()))
        else:
            raise ConfigurationError(
                "gave up resampling nonpositive shapes; check the policy parameters"
            )
        alphas[mask] = vals
    return np.maximum(rng.gamma(alphas, 1.0 / cfg.rate), _SMALLEST_ACTION)


def _draw_mixed_states(
    n: int, p_exposed: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Bernoulli exposure vector, regenerated until both groups are present.

    Degenerate probabilities (p in {0, 1}) are returned as-is: a single-group
    assignment is then the intended law, not an accident.  Returns the vector
    and the number of regenerations performed.
    """
    states = (rng.random(n) < p_exposed).astype(int)
    if p_exposed <= 0.0 or p_exposed >= 1.0:
        return states, 0
    regenerations = 0
    while states.min() == states.max():
        if regenerations >= MAX_ASSIGNMENT_RETRIES:
            raise ConfigurationError(
                f"could not draw a mixed exposure assignment in {MAX_ASSIGNMENT_RETRIES} tries"
            )
        states = (rng.random(n) < p_exposed).astype(int)
        regenerations += 1
    return states, regenerations


def generate_dataset(
    cfg: PolicyConfig, n: int, p_exposed: float, rng: np.random.Generator
) -> Dataset:
    """n iid scalar observations from the compound policy.

    Exposure is Bernoulli(p_exposed); assignments leaving a group empty are
    regenerated so the dataset stays estimable.
    """
    if n < 2:
        raise InputError(f"n must be >= 2, got {n}")
    if not 0.0 <= p_exposed <= 1.0:
        raise InputError(f"p_exposed must lie in [0, 1], got {p_exposed!r}")
    states, actions = _iid_row(cfg, n, p_exposed, rng)
    return Dataset.from_arrays(actions=actions[:, None], states=states)


def _iid_row(
    cfg: PolicyConfig, n: int, p_exposed: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The states and scalar actions that :func:`generate_dataset` draws."""
    states, _ = _draw_mixed_states(n, p_exposed, rng)
    return states, _sample_actions(states, cfg, rng)


def draw_policy(cfg: PolicyConfig, rng: np.random.Generator) -> RealizedPolicy:
    """Realize the random policy once: one positive shape per group."""
    mu1, sd1, mult1 = cfg.shape_params(1)
    mu2, sd2, mult2 = cfg.shape_params(0)
    return RealizedPolicy(
        alpha_exposed=_draw_positive_shape(mu1, sd1, mult1, rng),
        alpha_control=_draw_positive_shape(mu2, sd2, mult2, rng),
        rate=cfg.rate,
    )


def generate_study_dataset(
    policy: RealizedPolicy, n: int, p_exposed: float, rng: np.random.Generator
) -> Dataset:
    """n scalar observations from one realized policy (shapes shared within the dataset)."""
    if n < 2:
        raise InputError(f"n must be >= 2, got {n}")
    states, actions = _study_row(policy, n, p_exposed, rng)
    return Dataset.from_arrays(actions=actions[:, None], states=states)


def _study_row(
    policy: RealizedPolicy, n: int, p_exposed: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The states and scalar actions that :func:`generate_study_dataset` draws."""
    states, _ = _draw_mixed_states(n, p_exposed, rng)
    alphas = np.where(states == 1, policy.alpha_exposed, policy.alpha_control)
    return states, np.maximum(rng.gamma(alphas, 1.0 / policy.rate), _SMALLEST_ACTION)


def fit_anova(ds: Dataset) -> AnovaFit:
    """Least squares of a scalar action on the binary exposure.

    With a binary regressor this is the group-means solution exactly:
    intercept = control mean, slope = difference of group means.
    """
    if ds.dimension != 1:
        raise InputError("fit_anova requires scalar actions (dimension 1)")
    states = ds.states
    if states.min() == states.max():
        raise EstimationError("missing exposed or control group")
    a = ds.actions[:, 0]
    if not np.all(np.isfinite(a)):
        raise InputError("actions must be finite")
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
    states: np.ndarray, actions: np.ndarray, spec: DivergenceSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit a (rows, n) block of replicates: (theta, degenerate, b1), one entry per row.

    Each row gets the bits that :func:`estimate_theta` and :func:`fit_anova`
    give on that replicate's dataset.  The divergences come from
    :func:`action_divergences` and are refused as the estimator refuses
    them.  A stable sort puts each row's exposed animals first, each group
    in the dataset's order, and rows with the same number of exposed
    animals are fitted together.  Every row must hold both groups.
    """
    rows, n = actions.shape
    d = _bounded(action_divergences(actions.reshape(-1, 1), spec).reshape(rows, n))
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
    draw_row, count: int, n: int, spec: DivergenceSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit ``count`` replicates of n animals: (theta, degenerate, b1), one entry each.

    ``draw_row(i)`` returns replicate i's states and actions.  Only the draws
    are made one replicate at a time, in order: they fill the rows of a
    block of at most ``BOOTSTRAP_BLOCK_ELEMENTS`` entries (one row if n is
    larger), and :func:`_fit_rows` fits each block at once.
    """
    rows = max(1, BOOTSTRAP_BLOCK_ELEMENTS // n)
    states = np.empty((min(rows, count), n), dtype=int)
    actions = np.empty(states.shape)
    fits = []
    for start in range(0, count, rows):
        take = min(rows, count - start)
        for i in range(take):
            states[i], actions[i] = draw_row(start + i)
        fits.append(_fit_rows(states[:take], actions[:take], spec))
    theta, degenerate, b1 = map(np.concatenate, zip(*fits))
    return theta, degenerate, b1


def run_monte_carlo(cfg: McConfig, policy: PolicyConfig) -> McResult:
    """The simulation study: tolerance estimate vs ANOVA slope over replicates.

    Each replicate realizes the policy once, generates a dataset, estimates
    the tolerance with optimal action ``cfg.optimal_action`` under the
    squared L2 divergence, and fits the two-group ANOVA.  Replicates with a
    degenerate objective are counted and skipped; the fractions are taken
    over the surviving replicates.  The replicates are fitted a block at a
    time, each to the same bits as :func:`estimate_theta` and
    :func:`fit_anova` on its own :func:`generate_study_dataset` draw.
    """
    spec = DivergenceSpec(optimal=np.array([cfg.optimal_action]))
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.num_datasets)

    def draw_row(i):
        rng = np.random.default_rng(children[i])
        return _study_row(draw_policy(policy, rng), cfg.n_per_dataset, cfg.p_exposed, rng)

    theta, degenerate, b1 = _fit_replicates(draw_row, cfg.num_datasets, cfg.n_per_dataset, spec)
    theta, b1 = theta[~degenerate], b1[~degenerate]
    if not theta.size:
        raise StudyError("every replicate produced a degenerate objective")
    return McResult(
        frac_theta_below_half=float(np.mean(theta < 0.5)),
        frac_b1_above_zero=float(np.mean(b1 > 0.0)),
        theta_estimates=tuple(theta.tolist()),
        b1_estimates=tuple(b1.tolist()),
        degenerate_count=int(np.count_nonzero(degenerate)),
    )


def _row_rng(seed: int, n: int, replicate: int) -> np.random.Generator:
    # keyed on (seed, n, replicate) so a repeated n reproduces identical rows
    return np.random.default_rng(np.random.SeedSequence([seed, n, replicate]))


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
    if list(ns) != sorted(ns):
        raise InputError("ns must be non-decreasing")
    if replicates < 2:
        raise InputError("replicates must be >= 2")
    _require_seed(seed)
    spec = DivergenceSpec(optimal=np.array([optimal_action]))
    if ns and ns[0] < 2:
        raise InputError(f"n must be >= 2, got {ns[0]}")
    rows = []
    for n in ns:
        estimates, degenerate, _ = _fit_replicates(
            lambda j: _iid_row(policy, n, 0.5, _row_rng(seed, n, j)), replicates, n, spec
        )
        if degenerate.any():
            # refit the first degenerate replicate alone: it raises the estimator's error
            j = int(np.argmax(degenerate))
            estimate_theta(generate_dataset(policy, n, 0.5, _row_rng(seed, n, j)), spec)
        rows.append(
            SweepRow(n=n, mean_theta=float(estimates.mean()), sd_theta=float(estimates.std(ddof=1)))
        )
    return rows


def objective_convergence_probe(
    policy: PolicyConfig,
    ns: list[int],
    replicates: int,
    theta_fixed: float,
    seed: int,
    optimal_action: float = 0.0,
    oracle_n: int = 10**6,
) -> ProbeResult:
    """Fluctuations of the objective around its large-sample value.

    The objective at a fixed theta converges to a positive constant, so the
    probe centers it: it reports, per sample size, the mean of the raw
    objective and the mean and sd of ``sqrt(n) * (Psi_n - Psi_hat_0)``, where
    ``Psi_hat_0`` comes from a single size-``oracle_n`` replicate.  A stable
    sd across sample sizes is consistent with an O_P(1) centered fluctuation.
    """
    if not 0.0 <= theta_fixed <= 1.0:
        raise InputError(f"theta_fixed must lie in [0, 1], got {theta_fixed!r}")
    if list(ns) != sorted(ns):
        raise InputError("ns must be non-decreasing")
    if any(n < 2 for n in ns):
        raise InputError("every n must be >= 2")
    _require_seed(seed)

    spec = DivergenceSpec(optimal=np.array([optimal_action]))
    oracle_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    oracle = generate_dataset(policy, oracle_n, 0.5, oracle_rng)
    psi_hat_0 = variance_objective(theta_fixed, oracle, spec)

    rows = []
    for n in ns:
        psis = np.empty(replicates)
        for j in range(replicates):
            ds = generate_dataset(policy, n, 0.5, _row_rng(seed, n, j))
            psis[j] = variance_objective(theta_fixed, ds, spec)
        scaled = np.sqrt(n) * (psis - psi_hat_0)
        rows.append(
            ProbeRow(
                n=n,
                mean_psi=float(psis.mean()),
                mean_scaled=float(scaled.mean()),
                sd_scaled=float(scaled.std(ddof=1)),
            )
        )
    return ProbeResult(psi_hat_0=psi_hat_0, rows=tuple(rows))
