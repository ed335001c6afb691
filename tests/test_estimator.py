"""Pairwise objective, minimizer, curves, contrast, and bootstrap."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from divtol import (
    Dataset,
    DegenerateObjectiveError,
    DivergenceSpec,
    EstimationError,
    InferenceError,
    InputError,
    Norm,
    PolicyConfig,
    bootstrap_ci,
    dataset_divergences,
    estimate_theta,
    generate_dataset,
    pairwise_objective,
    reward_curves,
    variance_objective,
)
from divtol.core import action_divergences
import divtol.estimator as estimator
from divtol.estimator import (
    BOOTSTRAP_MAX_REPLICATES,
    DEGENERACY_RTOL,
    MAX_DIVERGENCE,
    MIN_GRID_STEP,
    PAIRWISE_MAX_N,
    grid_intervals,
)
from pairwise_oracle import grid_argmin
from policy_limits import theta_limit

SCALAR_AT_ONE = DivergenceSpec(optimal=np.array([1.0]))
SCALAR_AT_ZERO = DivergenceSpec(optimal=np.array([0.0]))


def two_mouse_dataset():
    return Dataset.from_arrays(actions=[[3.0], [2.0]], states=[1, 0])


def random_two_group_dataset(rng, n=None, d=1):
    n = n if n is not None else int(rng.integers(4, 40))
    states = np.zeros(n, dtype=int)
    states[rng.permutation(n)[: max(1, n // 2)]] = 1
    if states.all() or not states.any():
        states[0] ^= 1
    actions = rng.gamma(2.0, 2.0, size=(n, d))
    return Dataset.from_arrays(actions=actions, states=states)


def sign_change_crossing(thetas, diff):
    """Loop oracle: linear interpolation at the first sign change of sampled curves."""
    for k in range(len(thetas)):
        if diff[k] == 0.0:
            return float(thetas[k])
        if k > 0 and np.sign(diff[k]) != np.sign(diff[k - 1]):
            t0, t1, d0, d1 = thetas[k - 1], thetas[k], diff[k - 1], diff[k]
            return float(t0 + (t1 - t0) * d0 / (d0 - d1))
    return None


def reference_pairwise(theta, ds, spec):
    """Plain nested-loop oracle for the mean squared pairwise reward difference."""
    rewards = []
    for obs in ds.observations:
        d = sum((w * (a - o)) ** 2 for w, a, o in zip(
            spec.effective_weights(), obs.action, spec.optimal
        ))
        weight = theta if obs.state == 1 else 1.0 - theta
        rewards.append(-d * weight)
    n = len(rewards)
    total = 0.0
    for ri in rewards:
        for rj in rewards:
            total += (ri - rj) ** 2
    return total / n**2


class TestPairwiseObjective:
    def test_identical_mice_give_zero_everywhere(self):
        ds = Dataset.from_arrays(actions=[[2.0]] * 4, states=[1] * 4)
        for theta in (0.0, 0.3, 1.0):
            assert pairwise_objective(theta, ds, SCALAR_AT_ONE) == 0.0

    def test_zero_at_the_equalizing_theta(self):
        assert pairwise_objective(0.2, two_mouse_dataset(), SCALAR_AT_ONE) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(6)
        ds = random_two_group_dataset(rng, n=6)
        value = pairwise_objective(0.3, ds, SCALAR_AT_ONE)
        assert value == pytest.approx(reference_pairwise(0.3, ds, SCALAR_AT_ONE), rel=1e-12)

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(InputError):
            pairwise_objective(1.5, two_mouse_dataset(), SCALAR_AT_ONE)

    def test_non_finite_dataset_rejected(self):
        with pytest.raises(InputError, match="non-finite action"):
            ds = Dataset.from_arrays(actions=[[np.nan], [2.0]], states=[1, 0])
            pairwise_objective(0.5, ds, SCALAR_AT_ONE)


    def test_too_many_animals_rejected_before_the_matrix(self):
        n = PAIRWISE_MAX_N + 1
        ds = Dataset.from_arrays(actions=np.ones((n, 1)), states=np.arange(n) % 2)
        with pytest.raises(InputError, match="exceeds"):
            pairwise_objective(0.5, ds, SCALAR_AT_ONE)


class TestVarianceObjective:
    def test_singleton_is_zero(self):
        ds = Dataset.from_arrays(actions=[[5.0]], states=[1])
        assert variance_objective(0.4, ds, SCALAR_AT_ONE) == 0.0

    def test_two_point_rewards(self):
        # rewards -1 and -3 have variance 1, objective 2
        ds = Dataset.from_arrays(actions=[[1.0], [np.sqrt(3.0)]], states=[1, 1])
        assert variance_objective(1.0, ds, SCALAR_AT_ZERO) == pytest.approx(2.0, rel=1e-12)

    def test_variance_path_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ds = random_two_group_dataset(rng)
            theta = float(rng.random())
            expected = reference_pairwise(theta, ds, SCALAR_AT_ZERO)
            value = variance_objective(theta, ds, SCALAR_AT_ZERO)
            assert value == pytest.approx(expected, rel=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    actions=st.lists(
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False), min_size=2, max_size=20
    ),
    data=st.data(),
)
def test_pairwise_equals_twice_variance(theta, actions, data):
    states = data.draw(
        st.lists(st.sampled_from([0, 1]), min_size=len(actions), max_size=len(actions))
    )
    ds = Dataset.from_arrays(actions=[[a] for a in actions], states=states)
    a = pairwise_objective(theta, ds, SCALAR_AT_ONE)
    b = variance_objective(theta, ds, SCALAR_AT_ONE)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    c=st.floats(min_value=1e-6, max_value=1e6),
    norm=st.sampled_from(list(Norm)),
)
def test_estimate_is_invariant_to_the_scale_of_actions(seed, c, norm):
    # theta_e depends only on ratios of divergences, so scaling the actions
    # and the optimum together must leave it unchanged
    rng = np.random.default_rng(seed)
    ds = random_two_group_dataset(rng, d=3)
    optimal = rng.normal(size=3)
    theta = estimate_theta(ds, DivergenceSpec(optimal=optimal, norm=norm)).theta_e
    scaled = Dataset.from_arrays(actions=c * ds.actions, states=ds.states)
    spec = DivergenceSpec(optimal=c * optimal, norm=norm)
    assert estimate_theta(scaled, spec).theta_e == pytest.approx(theta, rel=1e-9)


@st.composite
def oracle_cases(draw):
    """Two-group datasets of 2-60 mice in d <= 3, either norm, with or without weights.

    In some, one whole group sits at the optimum, which puts the minimizer
    on a boundary: theta = 1 when the exposed mice do, theta = 0 when the
    controls do.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 3))
    states = np.zeros(n, dtype=int)
    states[: draw(st.integers(1, n - 1))] = 1
    rng.shuffle(states)
    actions = rng.gamma(2.0, 2.0, size=(n, d))
    optimal = rng.normal(size=d)
    at_optimum = draw(st.none() | st.sampled_from([0, 1]))
    if at_optimum is not None:
        actions[states == at_optimum] = optimal
    weights = rng.uniform(0.1, 3.0, size=d) if draw(st.booleans()) else None
    spec = DivergenceSpec(optimal=optimal, norm=draw(st.sampled_from(list(Norm))), weights=weights)
    return Dataset.from_arrays(actions=actions, states=states), spec, at_optimum


@settings(max_examples=150, deadline=None)
@given(case=oracle_cases())
def test_closed_form_matches_the_pairwise_grid_oracle(case):
    ds, spec, at_optimum = case
    theta = estimate_theta(ds, spec).theta_e
    oracle = grid_argmin(ds, spec)
    assert abs(theta - oracle) <= 2e-6
    if at_optimum is not None:
        assert theta == oracle == at_optimum


def test_small_actions_are_not_degenerate():
    # under an absolute tolerance floor, shrinking this dataset's actions by
    # 1e-4 made its objective count as flat
    ds = generate_dataset(PolicyConfig(), 50, 0.5, np.random.default_rng(0))
    theta = estimate_theta(ds, SCALAR_AT_ZERO).theta_e
    small = Dataset.from_arrays(actions=1e-4 * ds.actions, states=ds.states)
    assert estimate_theta(small, SCALAR_AT_ZERO).theta_e == pytest.approx(theta, rel=1e-9)


def reference_theta(ds, spec):
    """Oracle for the closed form: ``-cov(u, v) / var(u)`` of the reward decomposition.

    Each reward is ``u * theta + v`` with ``u = -D (2 s - 1)`` and
    ``v = -D (1 - s)``, so the objective is ``var(u) theta^2 + 2 cov(u, v)
    theta + var(v)`` (divisor-n moments).  Returns None where ``var(u)`` is
    within the degeneracy tolerance, and clamps the vertex to [0, 1].
    """
    d = dataset_divergences(ds, spec)
    s = ds.states
    u = -d * (2 * s - 1)
    v = -d * (1 - s)
    uc = u - u.mean()
    vc = v - v.mean()
    var_u = float(np.dot(uc, uc) / d.size)
    cov_uv = float(np.dot(uc, vc) / d.size)
    if var_u <= DEGENERACY_RTOL * float(np.max(d)) ** 2:
        return None
    return min(max(-cov_uv / var_u, 0.0), 1.0)


@st.composite
def fitting_cases(draw):
    """Two-group datasets in d <= 12 under either norm, some with mice at the optimum."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 400))
    d = draw(st.integers(1, 12))
    states = np.zeros(n, dtype=int)
    states[: draw(st.integers(1, n - 1))] = 1
    rng.shuffle(states)
    actions = rng.gamma(draw(st.sampled_from([0.3, 2.0])), 2.0, size=(n, d))
    optimal = rng.normal(size=d)
    at_optimum = draw(st.sampled_from(["none", "some", "exposed", "control", "all"]))
    mask = {
        "none": np.zeros(n, dtype=bool),
        "some": rng.random(n) < 0.5,
        "exposed": states == 1,
        "control": states == 0,
        "all": np.ones(n, dtype=bool),
    }[at_optimum]
    actions[mask] = optimal
    spec = DivergenceSpec(optimal=optimal, norm=draw(st.sampled_from(list(Norm))))
    return Dataset.from_arrays(actions=actions, states=states), spec


@settings(max_examples=300, deadline=None)
@given(case=fitting_cases())
def test_closed_form_agrees_with_the_reward_decomposition(case):
    ds, spec = case
    expected = reference_theta(ds, spec)
    if expected is None:
        with pytest.raises(DegenerateObjectiveError):
            estimate_theta(ds, spec)
        return
    result = estimate_theta(ds, spec)
    assert abs(result.theta_e - expected) <= 4e-15 * expected
    assert result.objective_at_min == variance_objective(result.theta_e, ds, spec)


@st.composite
def group_divergences(draw):
    """Nonnegative divergences of one group: 1-20 values in [1e-150, 1e150] or zero.

    Some groups are all zero, some have no spread (one value repeated).
    """
    size = draw(st.integers(1, 20))
    value = st.just(0.0) | st.floats(1e-150, 1e150)
    kind = draw(st.sampled_from(["mixed", "constant", "zero"]))
    if kind == "zero":
        return [0.0] * size
    if kind == "constant":
        return [draw(value)] * size
    return draw(st.lists(value, min_size=size, max_size=size))


def divergence_dataset(d_e, d_c, scale=0):
    """Dataset whose L1 divergences from 0 are exactly ``2**scale * D``."""
    d = np.ldexp(np.r_[d_e, d_c], scale)
    states = np.r_[np.ones(len(d_e), dtype=int), np.zeros(len(d_c), dtype=int)]
    return Dataset.from_arrays(actions=d[:, None], states=states)


L1_AT_ZERO = DivergenceSpec(optimal=[0.0], norm=Norm.L1)


@settings(max_examples=500, deadline=None)
@given(d_e=group_divergences(), d_c=group_divergences(), data=st.data())
def test_closed_form_needs_no_clamp(d_e, d_c, data):
    # A_e and A_c are nonnegative, so A_c / (A_e + A_c) lies in [0, 1] as computed
    ds = divergence_dataset(d_e, d_c)
    if not any(d_e + d_c):
        with pytest.raises(DegenerateObjectiveError):
            estimate_theta(ds, L1_AT_ZERO)
        return
    result = estimate_theta(ds, L1_AT_ZERO)
    theta = result.theta_e
    assert 0.0 <= theta <= 1.0

    # power-of-two scaling is exact while every value stays in [1e-150, 1e150]
    top = max(d_e + d_c)
    least = min(x for x in d_e + d_c if x > 0.0)
    hi = min(100, math.floor(math.log2(MAX_DIVERGENCE / top)))
    lo = max(-100, math.ceil(math.log2(1e-150 / least)))
    hi -= math.ldexp(top, hi) > MAX_DIVERGENCE
    lo += math.ldexp(least, lo) < 1e-150
    assume(lo <= hi)
    k = data.draw(st.integers(lo, hi), label="k")
    assert estimate_theta(divergence_dataset(d_e, d_c, k), L1_AT_ZERO).theta_e == theta

    if len(set(d_e)) == 1 and len(set(d_c)) == 1:
        # no within-group spread: the estimate is the reward curves' crossing
        crossing = reward_curves(ds, L1_AT_ZERO, [0.0, 1.0]).crossing_theta
        assert abs(theta - crossing) <= 2 * np.spacing(crossing)


@st.composite
def fit_blocks(draw):
    """Exposed and control blocks of divergences whose rows differ in scale.

    Each row is all zero, constant, nearly constant or spread, at a scale
    from 1e-9 to 1e9, so the block's largest divergence often lies many
    orders above a row's own, and the block bound flags rows that their own
    maximum does not.
    """
    n_e, n_c = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = np.empty((draw(st.integers(1, 8)), n_e + n_c))
    for row in block:
        kind = draw(st.sampled_from(["zero", "constant", "near-constant", "spread"]))
        scale = 10.0 ** draw(st.integers(-9, 9))
        if kind == "zero":
            row[:] = 0.0
        elif kind == "constant":
            row[:] = scale
        elif kind == "near-constant":
            spread = draw(st.sampled_from([1e-3, 1e-5, 1e-7]))
            row[:] = scale * (1.0 + spread * rng.random(row.size))
        else:
            row[:] = scale * rng.gamma(2.0, 1.0, row.size)
    return block[:, :n_e].copy(), block[:, n_e:].copy()


@settings(max_examples=300, deadline=None)
@given(block=fit_blocks())
# the block's bound, 3e9, flags the 1e-9 row; its own maximum does not
@example(block=(np.array([[1e9, 2e9], [1e-9, 3e-9], [0.0, 0.0]]), np.array([[3e9], [2e-9], [0.0]])))
def test_block_degeneracy_bound_keeps_each_rows_bits(block):
    d_e, d_c = block
    thetas, degenerate, _ = estimator._fit(d_e, d_c)
    for k in range(len(d_e)):
        theta, flag, _ = estimator._fit(d_e[k], d_c[k])
        assert thetas[k].tobytes() == np.float64(theta).tobytes()
        assert degenerate[k] == flag


def exact_objective(theta, d, states):
    """Psi_n(theta) in exact rational arithmetic on the float divergences and theta."""
    t = Fraction(theta)
    rewards = [-Fraction(x) * (t if s else 1 - t) for x, s in zip(d.tolist(), states.tolist())]
    mean = sum(rewards) / len(rewards)
    return 2 * sum((r - mean) ** 2 for r in rewards) / len(rewards)


@settings(max_examples=200, deadline=None)
@given(
    shift=st.integers(0, 140),
    spread=st.integers(0, 17),
    n_e=st.integers(1, 30),
    n_c=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.0, 1.0),
)
def test_objective_is_exact_to_1e_12_on_shifted_divergences(shift, spread, n_e, n_c, seed, theta):
    # divergences 10^shift + up to 10^(shift - spread): a large common part
    # that the objective at the minimum must not lose digits to
    rng = np.random.default_rng(seed)
    base = 10.0**shift
    ds = divergence_dataset(*np.split(base + base * 10.0**-spread * rng.random(n_e + n_c), [n_e]))
    values = [(theta, variance_objective(theta, ds, L1_AT_ZERO))]
    try:
        fitted = estimate_theta(ds, L1_AT_ZERO)
    except DegenerateObjectiveError:
        pass
    else:
        values.append((fitted.theta_e, fitted.objective_at_min))
    d = dataset_divergences(ds, L1_AT_ZERO)
    for t, value in values:
        exact = exact_objective(t, d, ds.states)
        assert abs(Fraction(value) - exact) <= 1e-12 * exact


class TestMaxDivergence:
    @pytest.mark.parametrize("top", [2 * MAX_DIVERGENCE, 1e200, 1.7e308])
    def test_divergences_beyond_the_bound_are_refused(self, top):
        ds = divergence_dataset([1.0, top], [2.0])
        with pytest.raises(InputError, match="at most 1e\\+150"):
            estimate_theta(ds, L1_AT_ZERO)
        with pytest.raises(InputError, match="at most 1e\\+150"):
            reward_curves(ds, L1_AT_ZERO, [0.0, 1.0])
        with pytest.raises(InputError, match="at most 1e\\+150"):
            bootstrap_ci(ds, L1_AT_ZERO, replicates=100, seed=0)
        with pytest.raises(InputError, match="at most 1e\\+150"):
            variance_objective(0.5, ds, L1_AT_ZERO)
        with pytest.raises(InputError, match="at most 1e\\+150"):
            dataset_divergences(ds, L1_AT_ZERO)
        # a block of replicates: the first row is accepted, the second names its maximum
        block = np.stack([np.ones_like(ds.actions), ds.actions])
        with pytest.raises(InputError, match=f"at most 1e\\+150, got {re.escape(repr(top))};"):
            action_divergences(block, L1_AT_ZERO)

    def test_the_bound_itself_is_accepted(self):
        ds = divergence_dataset([MAX_DIVERGENCE, MAX_DIVERGENCE], [0.5 * MAX_DIVERGENCE])
        result = estimate_theta(ds, L1_AT_ZERO)
        assert result.theta_e == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert all(np.isfinite(result.quadratic)) and np.isfinite(result.objective_at_min)
        assert 0.0 <= min(bootstrap_ci(ds, L1_AT_ZERO, replicates=100, seed=0)) <= 1.0


class TestEstimateTheta:
    def test_two_mouse_solution_is_exact(self):
        result = estimate_theta(two_mouse_dataset(), SCALAR_AT_ONE)
        assert result.theta_e == pytest.approx(0.2, abs=1e-15)
        assert result.quadratic == pytest.approx((6.25, -1.25, 0.25))

    def test_equal_divergences_give_half(self):
        ds = Dataset.from_arrays(actions=[[2.0], [2.0]], states=[1, 0])
        assert estimate_theta(ds, SCALAR_AT_ONE).theta_e == pytest.approx(0.5, abs=1e-12)

    def test_four_mouse_hand_check(self):
        # divergences 1, 4 exposed and 2, 3 control: minimizer at 13/30
        actions = [[2.0], [3.0], [1.0 + np.sqrt(2.0)], [1.0 + np.sqrt(3.0)]]
        ds = Dataset.from_arrays(actions=actions, states=[1, 1, 0, 0])
        result = estimate_theta(ds, SCALAR_AT_ONE)
        assert result.quadratic[0] == pytest.approx(7.5, rel=1e-12)
        assert result.quadratic[1] == pytest.approx(-3.25, rel=1e-12)
        assert result.theta_e == pytest.approx(13.0 / 30.0, abs=1e-9)

    def test_objective_at_min_matches_pairwise(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            ds = random_two_group_dataset(rng)
            result = estimate_theta(ds, SCALAR_AT_ZERO)
            check = pairwise_objective(result.theta_e, ds, SCALAR_AT_ZERO)
            assert abs(result.objective_at_min - check) <= 1e-10 * max(1.0, abs(check))

    def test_global_minimality_on_grid(self):
        rng = np.random.default_rng(10)
        grid = np.linspace(0.0, 1.0, 501)
        for _ in range(5):
            ds = random_two_group_dataset(rng)
            result = estimate_theta(ds, SCALAR_AT_ZERO)
            values = [variance_objective(t, ds, SCALAR_AT_ZERO) for t in grid]
            assert result.objective_at_min <= min(values) + 1e-9 * (1.0 + min(values))

    def test_scale_invariance_under_weight_rescaling(self):
        rng = np.random.default_rng(11)
        ds = random_two_group_dataset(rng, d=3)
        base = DivergenceSpec(optimal=np.zeros(3), weights=np.array([1.0, 2.0, 0.5]))
        theta_base = estimate_theta(ds, base).theta_e
        for c in (0.01, 7.0, 1e4):
            scaled = DivergenceSpec(
                optimal=np.zeros(3), weights=np.sqrt(c) * np.array([1.0, 2.0, 0.5])
            )
            assert estimate_theta(ds, scaled).theta_e == pytest.approx(theta_base, abs=1e-9)

    def test_exposed_at_optimum_hits_upper_boundary(self):
        ds = Dataset.from_arrays(actions=[[0.0], [0.0], [3.0], [2.0]], states=[1, 1, 0, 0])
        assert estimate_theta(ds, SCALAR_AT_ZERO).theta_e == 1.0

    def test_controls_at_optimum_hit_lower_boundary(self):
        ds = Dataset.from_arrays(actions=[[3.0], [2.0], [0.0], [0.0]], states=[1, 1, 0, 0])
        assert estimate_theta(ds, SCALAR_AT_ZERO).theta_e == 0.0

    @pytest.mark.parametrize(
        "step, intervals", [(MIN_GRID_STEP, 10**6), (0.005, 200), (0.25, 4), (0.1, 10), (1.0, 1)]
    )
    def test_steps_that_divide_one_are_accepted(self, step, intervals):
        assert grid_intervals(step) == intervals

    @pytest.mark.parametrize("step", [0.3, 0.4, 3e-6])
    def test_grid_step_that_does_not_divide_one_rejected(self, step):
        with pytest.raises(InputError, match="divide 1"):
            grid_intervals(step)

    def test_missing_group_raises(self):
        ds = Dataset.from_arrays(actions=[[1.0], [2.0]], states=[1, 1])
        with pytest.raises(EstimationError):
            estimate_theta(ds, SCALAR_AT_ONE)

    def test_all_optimal_actions_are_degenerate(self):
        ds = Dataset.from_arrays(actions=[[1.0], [1.0], [1.0]], states=[1, 0, 0])
        with pytest.raises(DegenerateObjectiveError):
            estimate_theta(ds, SCALAR_AT_ONE)


class TestRewardCurves:
    def test_zero_tolerance_endpoint(self):
        ds = two_mouse_dataset()
        curves = reward_curves(ds, SCALAR_AT_ONE, [0.0, 0.5, 1.0])
        assert curves.mean_reward_exposed[0] == 0.0
        assert curves.mean_reward_control[0] == pytest.approx(-1.0)
        assert curves.mean_reward_exposed[-1] == pytest.approx(-4.0)
        assert curves.mean_reward_control[-1] == 0.0

    def test_two_mouse_crossing(self):
        curves = reward_curves(two_mouse_dataset(), SCALAR_AT_ONE, np.linspace(0, 1, 101))
        assert curves.crossing_theta == pytest.approx(0.2, abs=1e-12)

    def test_single_pair_crossing_matches_estimate(self):
        rng = np.random.default_rng(13)
        grid = np.linspace(0.0, 1.0, 201)
        for _ in range(10):
            ds = Dataset.from_arrays(
                actions=rng.gamma(2.0, 2.0, size=(2, 1)), states=[1, 0]
            )
            theta = estimate_theta(ds, SCALAR_AT_ZERO).theta_e
            crossing = reward_curves(ds, SCALAR_AT_ZERO, grid).crossing_theta
            assert crossing == pytest.approx(theta, abs=2.0 / 200.0)

    def test_two_point_grid(self):
        curves = reward_curves(two_mouse_dataset(), SCALAR_AT_ONE, [0.0, 1.0])
        assert len(curves.thetas) == 2
        assert curves.crossing_theta == pytest.approx(0.2, abs=1e-12)

    def test_no_crossing_when_difference_keeps_its_sign(self):
        ds = two_mouse_dataset()
        curves = reward_curves(ds, SCALAR_AT_ONE, [0.5, 0.75, 1.0])
        assert curves.crossing_theta is None

    def test_crossing_matches_the_sign_change_scan(self):
        rng = np.random.default_rng(14)
        for k in range(200):
            ds = random_two_group_dataset(rng, d=1 + k % 3)
            grid = np.linspace(0.0, 1.0, 201) if k % 2 else np.sort(rng.random(8))
            spec = DivergenceSpec(optimal=np.zeros(ds.dimension))
            curves = reward_curves(ds, spec, grid)
            expected = sign_change_crossing(
                curves.thetas, curves.mean_reward_exposed - curves.mean_reward_control
            )
            if expected is None:
                assert curves.crossing_theta is None
            else:
                assert curves.crossing_theta == pytest.approx(expected, rel=1e-13)

    def test_coincident_curves_report_the_first_grid_value(self):
        ds = Dataset.from_arrays(actions=[[1.0], [1.0]], states=[1, 0])
        assert reward_curves(ds, SCALAR_AT_ONE, [0.25, 0.5]).crossing_theta == 0.25

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            reward_curves(two_mouse_dataset(), SCALAR_AT_ONE, [])

    def test_grid_outside_unit_interval_rejected(self):
        with pytest.raises(InputError):
            reward_curves(two_mouse_dataset(), SCALAR_AT_ONE, [0.0, 1.5])

    def test_missing_group_rejected(self):
        ds = Dataset.from_arrays(actions=[[1.0], [2.0]], states=[0, 0])
        with pytest.raises(EstimationError):
            reward_curves(ds, SCALAR_AT_ONE, [0.0, 1.0])

    def test_crossing_stays_within_the_regression_bound(self):
        # frozen from the max observed gap (0.1498) over these 20 fixtures
        bound = 0.15
        grid = np.linspace(0.0, 1.0, 201)
        weights = 60.0 - (np.arange(12) + 0.5) * 5.0
        for k in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([31337, k]))
            if k % 2 == 0:
                ds = generate_dataset(PolicyConfig(), 50, 0.5, rng)
                spec = SCALAR_AT_ZERO
            else:
                actions = rng.gamma(2.0, 2.0, size=(24, 12))
                states = np.r_[np.ones(12, dtype=int), np.zeros(12, dtype=int)]
                ds = Dataset.from_arrays(actions=actions, states=states)
                spec = DivergenceSpec(
                    optimal=np.r_[1.0, np.zeros(11)], weights=weights
                )
            theta = estimate_theta(ds, spec).theta_e
            crossing = reward_curves(ds, spec, grid).crossing_theta
            assert crossing is not None
            assert abs(crossing - theta) <= bound


def curve_contrast(ds, spec):
    """mean(D | exposed) - mean(D | control), read off the reward curves' ends.

    The exposed curve is ``-theta * mean(D | exposed)`` and the control curve
    ``-(1 - theta) * mean(D | control)``.
    """
    curves = reward_curves(ds, spec, [0.0, 1.0])
    return float(curves.mean_reward_control[0] - curves.mean_reward_exposed[1])


class TestGroupDivergenceContrast:
    """The group-mean divergences that set the slopes of the reward curves."""

    def test_symmetric_groups_give_zero(self):
        ds = Dataset.from_arrays(actions=[[3.0], [3.0]], states=[1, 0])
        assert curve_contrast(ds, SCALAR_AT_ONE) == 0.0

    def test_two_mouse_contrast(self):
        assert curve_contrast(two_mouse_dataset(), SCALAR_AT_ONE) == pytest.approx(3.0)

    def test_matches_two_pass_mean_oracle(self):
        rng = np.random.default_rng(14)
        ds = random_two_group_dataset(rng, n=20)
        exposed, control = [], []
        for obs in ds.observations:
            d = float((obs.action[0] - 0.0) ** 2)
            (exposed if obs.state == 1 else control).append(d)
        expected = sum(exposed) / len(exposed) - sum(control) / len(control)
        assert curve_contrast(ds, SCALAR_AT_ZERO) == pytest.approx(expected, rel=1e-12)

    def test_missing_group_rejected(self):
        ds = Dataset.from_arrays(actions=[[1.0], [2.0]], states=[1, 1])
        with pytest.raises(EstimationError):
            curve_contrast(ds, SCALAR_AT_ONE)


def stream_bootstrap(ds, spec, replicates, seed, level):
    """Per-replicate, dataset-rebuilding reference for the stratified bootstrap.

    Exposed indices come from the stream ``SeedSequence([seed, 0])`` and
    control indices from ``SeedSequence([seed, 1])``, both built once.  Rows
    are drawn one at a time, and each resampled dataset is rebuilt and fitted
    with :func:`estimate_theta`.  Returns None where :func:`bootstrap_ci`
    raises because more than half of the replicates were degenerate.
    """
    states = ds.states
    groups = (np.flatnonzero(states == 1), np.flatnonzero(states == 0))
    streams = [np.random.default_rng(np.random.SeedSequence([seed, g])) for g in (0, 1)]
    estimates = []
    for _ in range(replicates):
        take = np.concatenate(
            [idx[rng.integers(0, idx.size, idx.size)] for idx, rng in zip(groups, streams)]
        )
        resampled = Dataset.from_arrays(actions=ds.actions[take], states=states[take])
        try:
            estimates.append(estimate_theta(resampled, spec).theta_e)
        except DegenerateObjectiveError:
            continue
    if replicates - len(estimates) > replicates // 2:
        return None
    alpha = (1 - level) / 2
    lo, hi = np.percentile(estimates, [100 * alpha, 100 * (1 - alpha)])
    return float(lo), float(hi)


@st.composite
def resampling_cases(draw):
    """Datasets of 2-200 animals in d <= 3, some drawn from a few repeated mice.

    With repeated mice at the optimum, replicates that draw only those are
    degenerate, and B is often not a multiple of the block size.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 200))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    states = np.zeros(n, dtype=int)
    states[: draw(st.integers(1, n - 1))] = 1
    if draw(st.booleans()):
        pool = rng.gamma(2.0, 2.0, size=(3, d))
        pool[0] = 0.0  # a mouse at the optimum
        actions = pool[rng.choice(3, size=n, p=[0.8, 0.1, 0.1])]
    else:
        actions = rng.gamma(2.0, 2.0, size=(n, d))
    norm = draw(st.sampled_from(list(Norm)))
    spec = DivergenceSpec(optimal=np.zeros(d), norm=norm)
    replicates = draw(st.integers(100, 1000) | st.sampled_from([128, 129, 191, 192]))
    return Dataset.from_arrays(actions=actions, states=states), spec, replicates, seed


@settings(max_examples=40, deadline=None)
@given(case=resampling_cases(), level=st.sampled_from([0.5, 0.9, 0.95]))
def test_bootstrap_equals_the_per_replicate_reference_exactly(case, level):
    ds, spec, replicates, seed = case
    try:
        fast = bootstrap_ci(ds, spec, replicates=replicates, seed=seed, level=level)
    except InferenceError:
        fast = None
    assert fast == stream_bootstrap(ds, spec, replicates, seed, level)


@settings(max_examples=200, deadline=None)
@given(
    bound=st.integers(1, 300) | st.integers(2**31 - 5, 2**31 + 5) | st.integers(1, 2**31 + 5),
    width=st.integers(1, 40),
    pieces=st.lists(st.integers(1, 20), min_size=1, max_size=6),
    seed=st.integers(0, 2**63),
)
def test_row_pieces_of_one_stream_are_one_draw(bound, width, pieces, seed):
    # bootstrap_ci draws each group's rows from one stream in blocks, so this
    # is why the block size never changes its interval
    whole = np.random.default_rng(seed).integers(0, bound, (sum(pieces), width))
    rng = np.random.default_rng(seed)
    split = np.concatenate([rng.integers(0, bound, (rows, width)) for rows in pieces])
    np.testing.assert_array_equal(split, whole)


class TestBootstrap:
    def test_identical_mice_give_zero_width_interval(self):
        ds = Dataset.from_arrays(
            actions=[[3.0], [3.0], [2.0], [2.0]], states=[1, 1, 0, 0]
        )
        point = estimate_theta(ds, SCALAR_AT_ONE).theta_e
        lo, hi = bootstrap_ci(ds, SCALAR_AT_ONE, replicates=200, seed=5)
        assert lo == hi == pytest.approx(point, abs=1e-12)

    def test_fixed_seed_is_deterministic(self):
        rng = np.random.default_rng(15)
        ds = random_two_group_dataset(rng, n=16)
        first = bootstrap_ci(ds, SCALAR_AT_ZERO, replicates=300, seed=42)
        second = bootstrap_ci(ds, SCALAR_AT_ZERO, replicates=300, seed=42)
        assert first == second
        assert bootstrap_ci(ds, SCALAR_AT_ZERO, replicates=300, seed=43) != first

    def test_matches_object_rebuilding_reference(self):
        rng = np.random.default_rng(16)
        ds = random_two_group_dataset(rng, n=12)
        fast = bootstrap_ci(ds, SCALAR_AT_ZERO, replicates=200, seed=9, level=0.9)
        slow = stream_bootstrap(ds, SCALAR_AT_ZERO, replicates=200, seed=9, level=0.9)
        assert fast == slow

    @pytest.mark.parametrize("elements", [1, 7, 40, 97, 200, 40 * 333, 16384])
    def test_block_size_does_not_change_the_interval(self, elements, monkeypatch):
        # row blocks of 1, 1, 1, 2, 5, 333 and 409 replicates at n=40, against
        # the reference's rows drawn one at a time
        rng = np.random.default_rng(17)
        ds = random_two_group_dataset(rng, n=40, d=2)
        spec = DivergenceSpec(optimal=np.zeros(2), norm=Norm.L1)
        expected = stream_bootstrap(ds, spec, replicates=1000, seed=3, level=0.9)
        monkeypatch.setattr(estimator, "BOOTSTRAP_BLOCK_ELEMENTS", elements)
        assert bootstrap_ci(ds, spec, replicates=1000, seed=3, level=0.9) == expected

    @pytest.mark.parametrize("replicates", [100, 5000])
    def test_two_generators_per_call(self, replicates, monkeypatch):
        ds = random_two_group_dataset(np.random.default_rng(21), n=64)
        default_rng = np.random.default_rng
        built = []

        def counting_rng(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        bootstrap_ci(ds, SCALAR_AT_ZERO, replicates=replicates, seed=6)
        assert len(built) == 2

    @pytest.mark.parametrize(
        "n, elements, replicates, rows",
        [(64, 16384, 5000, 256), (40, 40 * 333, 1000, 333)],
    )
    def test_each_block_is_fitted_once(self, n, elements, replicates, rows, monkeypatch):
        # 19 blocks of 256 rows and one of 136, or 3 of 333 and one of 1
        fit = estimator._fit
        fitted = []

        def counting_fit(d_e, d_c):
            fitted.append(len(d_e))
            return fit(d_e, d_c)

        monkeypatch.setattr(estimator, "_fit", counting_fit)
        monkeypatch.setattr(estimator, "BOOTSTRAP_BLOCK_ELEMENTS", elements)
        ds = random_two_group_dataset(np.random.default_rng(19), n=n)
        bootstrap_ci(ds, SCALAR_AT_ZERO, replicates=replicates, seed=4)
        full, rest = divmod(replicates, rows)
        assert fitted == [rows] * full + [rest]

    def test_replicate_estimates_are_held_once(self):
        # 10^6 estimates take 7.6 MiB; a second copy of them would pass the bound
        ds = random_two_group_dataset(np.random.default_rng(20), n=4)
        tracemalloc.start()
        try:
            bootstrap_ci(ds, SCALAR_AT_ZERO, replicates=BOOTSTRAP_MAX_REPLICATES, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20

    def test_working_memory_is_bounded_at_large_n(self):
        rng = np.random.default_rng(18)
        ds = random_two_group_dataset(rng, n=50_000)
        tracemalloc.start()
        try:
            bootstrap_ci(ds, SCALAR_AT_ZERO, replicates=100, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a (100, 50_000) block of indices alone would take 40 MB
        assert peak < 10 * 2**20

    def test_too_few_replicates_rejected(self):
        with pytest.raises(InputError):
            bootstrap_ci(two_mouse_dataset(), SCALAR_AT_ONE, replicates=99, seed=1)

    def test_too_many_replicates_rejected_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a replicate")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(InputError, match="replicates"):
            bootstrap_ci(
                two_mouse_dataset(), SCALAR_AT_ONE, replicates=BOOTSTRAP_MAX_REPLICATES + 1, seed=1
            )

    def test_all_degenerate_replicates_raise(self):
        ds = Dataset.from_arrays(actions=[[1.0], [1.0], [1.0], [1.0]], states=[1, 1, 0, 0])
        with pytest.raises(InferenceError):
            bootstrap_ci(ds, SCALAR_AT_ONE, replicates=100, seed=1)

    def test_minority_of_degenerate_replicates_is_tolerated(self):
        # one informative exposed mouse: replicates missing it are skipped
        ds = Dataset.from_arrays(
            actions=[[0.0], [0.0], [0.0], [4.0], [0.0], [0.0]], states=[1, 1, 1, 1, 0, 0]
        )
        lo, hi = bootstrap_ci(ds, SCALAR_AT_ZERO, replicates=400, seed=2)
        assert 0.0 <= lo <= hi <= 1.0

    def test_coverage_of_the_large_sample_value(self):
        # tolerance the estimator converges to under the default policy
        theta_0 = theta_limit(PolicyConfig())
        # measured coverage of the stratified percentile interval at n=50 is
        # 0.870 +/- 0.011 (1000 outer trials); asserted to +/-5 pp
        covered = 0
        trials = 200
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([555, trial]))
            ds = generate_dataset(PolicyConfig(), 50, 0.5, rng)
            lo, hi = bootstrap_ci(ds, SCALAR_AT_ZERO, replicates=1000, seed=trial, level=0.95)
            covered += lo <= theta_0 <= hi
        assert 0.82 <= covered / trials <= 0.92
