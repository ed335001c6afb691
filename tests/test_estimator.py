"""Pairwise objective, minimizer, curves, contrast, and bootstrap."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divtol import (
    Dataset,
    DegenerateObjectiveError,
    DivergenceSpec,
    EstimationError,
    InferenceError,
    InputError,
    Method,
    Norm,
    PolicyConfig,
    bootstrap_ci,
    estimate_theta,
    generate_dataset,
    pairwise_objective,
    reward_curves,
    variance_objective,
)
import divtol.estimator as estimator
from divtol.estimator import (
    BOOTSTRAP_MAX_REPLICATES,
    DEFAULT_GRID_STEP,
    PAIRWISE_MAX_N,
    _minimize_quadratic,
    _scan_grid,
    grid_intervals,
)

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
        ds = Dataset.from_arrays(actions=[[np.nan], [2.0]], states=[1, 0])
        with pytest.raises(InputError):
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


def test_small_actions_are_not_degenerate():
    # under an absolute tolerance floor, shrinking this dataset's actions by
    # 1e-4 made its objective count as flat
    ds = generate_dataset(PolicyConfig(), 50, 0.5, np.random.default_rng(0))
    theta = estimate_theta(ds, SCALAR_AT_ZERO).theta_e
    small = Dataset.from_arrays(actions=1e-4 * ds.actions, states=ds.states)
    assert estimate_theta(small, SCALAR_AT_ZERO).theta_e == pytest.approx(theta, rel=1e-9)


class TestEstimateTheta:
    def test_two_mouse_solution_is_exact(self):
        result = estimate_theta(two_mouse_dataset(), SCALAR_AT_ONE)
        assert result.theta_e == pytest.approx(0.2, abs=1e-15)
        assert result.method is Method.CLOSED_FORM
        assert not result.clamped
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
        grid = estimate_theta(ds, SCALAR_AT_ONE, method=Method.GRID)
        assert grid.theta_e == pytest.approx(13.0 / 30.0, abs=2e-6)

    def test_grid_agrees_with_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ds = random_two_group_dataset(rng)
            a = estimate_theta(ds, SCALAR_AT_ZERO).theta_e
            b = estimate_theta(ds, SCALAR_AT_ZERO, method=Method.GRID).theta_e
            assert abs(a - b) <= 2e-6

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
        closed = estimate_theta(ds, SCALAR_AT_ZERO)
        grid = estimate_theta(ds, SCALAR_AT_ZERO, method=Method.GRID)
        assert closed.theta_e == 1.0
        assert grid.theta_e == 1.0

    def test_controls_at_optimum_hit_lower_boundary(self):
        ds = Dataset.from_arrays(actions=[[3.0], [2.0], [0.0], [0.0]], states=[1, 1, 0, 0])
        closed = estimate_theta(ds, SCALAR_AT_ZERO)
        grid = estimate_theta(ds, SCALAR_AT_ZERO, method=Method.GRID)
        assert closed.theta_e == 0.0
        assert grid.theta_e == 0.0

    def test_clamped_flag_implies_boundary(self):
        # the flag may only appear together with a boundary estimate
        rng = np.random.default_rng(12)
        for _ in range(50):
            ds = random_two_group_dataset(rng)
            result = estimate_theta(ds, SCALAR_AT_ZERO)
            if result.clamped:
                assert result.theta_e in (0.0, 1.0)

    def test_clamp_branches_on_the_quadratic_minimizer(self):
        # datasets cannot push the vertex outside [0, 1] (divergences are
        # nonnegative), so the clamp branches are pinned down directly
        assert _minimize_quadratic(1.0, 0.5) == (0.0, True)
        assert _minimize_quadratic(1.0, -1.5) == (1.0, True)
        assert _minimize_quadratic(1.0, -0.5) == (0.5, False)
        assert _scan_grid(1.0, 0.5, 1.0, 1e-4) == (0.0, True)
        assert _scan_grid(1.0, -1.5, 1.0, 1e-4) == (1.0, True)

    def test_grid_step_below_the_default_rejected(self):
        with pytest.raises(InputError):
            _scan_grid(1.0, -0.5, 1.0, 1e-9)
        with pytest.raises(InputError):
            estimate_theta(two_mouse_dataset(), SCALAR_AT_ONE, method=Method.GRID, grid_step=1e-9)

    @pytest.mark.parametrize(
        "step, intervals", [(DEFAULT_GRID_STEP, 10**6), (0.005, 200), (0.25, 4), (0.1, 10), (1.0, 1)]
    )
    def test_steps_that_divide_one_are_accepted(self, step, intervals):
        assert grid_intervals(step) == intervals

    @pytest.mark.parametrize("step", [0.3, 0.4, 3e-6])
    def test_grid_step_that_does_not_divide_one_rejected(self, step):
        with pytest.raises(InputError, match="divide 1"):
            grid_intervals(step)
        with pytest.raises(InputError, match="divide 1"):
            _scan_grid(1.0, -0.5, 1.0, step)
        with pytest.raises(InputError, match="divide 1"):
            estimate_theta(two_mouse_dataset(), SCALAR_AT_ONE, method=Method.GRID, grid_step=step)

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


def naive_bootstrap(ds, spec, replicates, seed, level):
    """Dataset-rebuilding reference implementation of the stratified bootstrap.

    Returns None where :func:`bootstrap_ci` raises because more than half of
    the replicates were degenerate.
    """
    states = ds.states
    exposed_idx = np.flatnonzero(states == 1)
    control_idx = np.flatnonzero(states == 0)
    estimates = []
    for k in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        take_e = rng.choice(exposed_idx, size=exposed_idx.size, replace=True)
        take_c = rng.choice(control_idx, size=control_idx.size, replace=True)
        take = np.concatenate([take_e, take_c])
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
    degenerate; n up to 200 spans several resampling blocks for the larger B.
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
    replicates = draw(st.integers(100, 700))
    return Dataset.from_arrays(actions=actions, states=states), spec, replicates, seed


@settings(max_examples=40, deadline=None)
@given(case=resampling_cases(), level=st.sampled_from([0.5, 0.9, 0.95]))
def test_bootstrap_equals_the_per_replicate_reference_exactly(case, level):
    ds, spec, replicates, seed = case
    try:
        fast = bootstrap_ci(ds, spec, replicates=replicates, seed=seed, level=level)
    except InferenceError:
        fast = None
    assert fast == naive_bootstrap(ds, spec, replicates, seed, level)


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
        slow = naive_bootstrap(ds, SCALAR_AT_ZERO, replicates=200, seed=9, level=0.9)
        assert fast == slow

    @pytest.mark.parametrize("elements", [1, 97, 40 * 333])
    def test_block_size_does_not_change_the_interval(self, elements, monkeypatch):
        # blocks of 1, 2 and 333 replicates at n=40; 1000 is a multiple of none of 333
        rng = np.random.default_rng(17)
        ds = random_two_group_dataset(rng, n=40, d=2)
        spec = DivergenceSpec(optimal=np.zeros(2), norm=Norm.L1)
        expected = bootstrap_ci(ds, spec, replicates=1000, seed=3, level=0.9)
        monkeypatch.setattr(estimator, "BOOTSTRAP_BLOCK_ELEMENTS", elements)
        assert bootstrap_ci(ds, spec, replicates=1000, seed=3, level=0.9) == expected

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
        # tolerance the estimator converges to under the default policy:
        # one n=10^6 draw seeded with SeedSequence([20240808])
        theta_0 = 0.2928772562613883
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
