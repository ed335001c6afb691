"""Synthetic policy sampling, the ANOVA baseline, and the study harness."""

import time
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

import divtol.simulation as simulation
from divtol import (
    Dataset,
    DegenerateObjectiveError,
    DivergenceSpec,
    EstimationError,
    InputError,
    McConfig,
    PolicyConfig,
    RealizedPolicy,
    StudyError,
    bootstrap_ci,
    consistency_sweep,
    draw_policy,
    estimate_theta,
    fit_anova,
    generate_dataset,
    generate_study_dataset,
    objective_convergence_probe,
    run_monte_carlo,
    variance_objective,
)
from divtol.errors import ConfigurationError
from divtol.estimator import BOOTSTRAP_BLOCK_ELEMENTS
from policy_limits import psi_limit, theta_limit


def fastest_of_three(call):
    """Wall seconds of the fastest of three identical calls of ``call``.

    A refusal takes microseconds; the fastest of three keeps a pause of the
    machine in one call from reading as slow work.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


class NoDraws:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was called before the design was refused")


def streams(entropy):
    """The three generators a study draws from: shapes, states and actions."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(entropy).spawn(3)]


def truncated_shape_mean(mu, sd, mult, rate=1.0):
    """Numeric-integration oracle: E[mult * eps | mult * eps > 0] / rate."""
    lo, hi = (0.0, mu + 12 * sd) if mult > 0 else (mu - 12 * sd, 0.0)
    mass = abs(stats.norm.cdf(hi, mu, sd) - stats.norm.cdf(lo, mu, sd))
    numerator = integrate.quad(lambda e: e * stats.norm.pdf(e, mu, sd), lo, hi)[0]
    return mult * numerator / mass / rate


def truncated_shape_moments(mu, sd, mult):
    """scipy's raw moments 1-4 of the shape mult * eps, eps ~ N(mu, sd^2) truncated to > 0."""
    lo, hi = (0.0, np.inf) if mult > 0 else (-np.inf, 0.0)
    law = stats.truncnorm((lo - mu) / sd, (hi - mu) / sd, loc=mu, scale=sd)
    return [mult**k * law.moment(k) for k in range(1, 5)]


def iid_row(cfg, n, p_exposed, seed):
    """One row of the block sampler's iid design: (states, actions) of n animals."""
    rng = np.random.default_rng(seed)
    states, actions = simulation._draw_block(cfg, 1, n, p_exposed, (rng, rng, rng), iid=True)
    return states[0], actions[0]


class TestSamplePolicy:
    def test_vanishing_noise_recovers_the_gamma_mean(self):
        _, draws = iid_row(PolicyConfig(sigma1_sq=1e-12), 20_000, 1.0, 0)
        assert draws.mean() == pytest.approx(4.0, abs=0.05)

    def test_exposed_mean_exceeds_control_mean(self):
        states, actions = iid_row(PolicyConfig(), 100_000, 0.5, 1)
        assert actions[states == 1].mean() > actions[states == 0].mean()

    @pytest.mark.parametrize(
        "cfg, state",
        [(PolicyConfig(), 1), (PolicyConfig(), 0), (PolicyConfig(rate=2.5), 1),
         (PolicyConfig(mu1=-1.0, shape_multiplier_exposed=-1.5), 1),
         (PolicyConfig(mu2=-1.0), 0)],
        ids=["exposed", "control", "rate-2.5", "negative-multiplier", "control-mostly-truncated"],
    )
    def test_vectorized_sampler_matches_integration_oracle(self, cfg, state):
        mu, sd, mult = cfg.shape_params(state)
        _, actions = iid_row(cfg, 10**6, float(state), 3)
        oracle = truncated_shape_mean(mu, sd, mult, cfg.rate)
        assert abs(actions.mean() - oracle) / oracle < 0.005
        # the closed-form shape moments behind the probe's limit
        moments = simulation._shape_moments(cfg, state)
        assert moments[0] == 1.0
        assert moments[1] == pytest.approx(oracle * cfg.rate, rel=1e-9)
        assert moments[1:] == pytest.approx(truncated_shape_moments(mu, sd, mult), rel=1e-13)

    def test_all_draws_positive(self):
        # mostly-negative shape noise, in both designs
        cfg = PolicyConfig(mu1=-1.0, mu2=-1.0)
        for iid in (True, False):
            _, actions = simulation._draw_block(cfg, 40, 250, 0.5, streams(4), iid)
            assert np.all(actions > 0.0)

    def test_realized_shapes_are_rejection_sampled_positive(self):
        # mostly-negative shape noise: only the rejection loop keeps shapes positive
        cfg = PolicyConfig(mu1=-1.0, mu2=-1.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            policy = draw_policy(cfg, rng)
            assert policy.alpha_exposed > 0.0 and policy.alpha_control > 0.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(sigma2_sq=0.0)
        with pytest.raises(ConfigurationError):
            PolicyConfig(rate=-1.0)

    @pytest.mark.parametrize(
        "fields",
        [{"shape_multiplier_exposed": 0.0}, {"mu1": np.nan}, {"rate": np.inf},
         {"sigma2_sq": np.inf}, {"mu1": -4.8}, {"mu1": -4.7}, {"mu2": -10.0},
         {"shape_multiplier_exposed": -1.0, "mu1": 20.0}],
        ids=["zero-multiplier", "nan-mu1", "inf-rate", "inf-sigma2", "exposed-mass-7.9e-7",
             "exposed-mass-1.3e-6", "control-mass-2.9e-7", "negative-multiplier-mass-2.8e-89"],
    )
    def test_a_policy_that_cannot_be_sampled_is_refused_at_once(self, fields):
        def refuse():
            with pytest.raises(ConfigurationError):
                PolicyConfig(**fields)

        assert fastest_of_three(refuse) < 0.05

    def test_a_negative_multiplier_truncates_on_the_other_side(self):
        # positive with probability 3.2e-5: the sampler gives up with chance exp(-31.7)
        PolicyConfig(mu1=-4.0)
        cfg = PolicyConfig(shape_multiplier_exposed=-1.0)
        rng = np.random.default_rng(6)
        shapes = [draw_policy(cfg, rng).alpha_exposed for _ in range(2000)]
        # alpha = -eps1 with eps1 ~ N(2, 1) kept below zero: E[alpha] = 0.3732
        assert min(shapes) > 0.0
        assert np.mean(shapes) == pytest.approx(truncated_shape_mean(-2.0, 1.0, 1.0), rel=0.1)


def old_draw_mixed_states(n, p_exposed, rng):
    """The assignment rule before the count test: regenerate while min == max."""
    states = (rng.random(n) < p_exposed).astype(int)
    regenerations = 0
    while states.min() == states.max():
        states = (rng.random(n) < p_exposed).astype(int)
        regenerations += 1
    return states, regenerations


class TestSamplerBits:
    """The sampler's shortcuts keep the bits of the numpy calls they replace."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("scale", [1.0, 1 / 3, 2.5])
    def test_gamma_is_standard_gamma_times_scale(self, scale, seed):
        shapes = np.repeat(np.geomspace(1e-3, 50.0, 400), 5)
        via_gamma = np.random.default_rng(seed).gamma(shapes, scale)
        via_standard = np.random.default_rng(seed).standard_gamma(shapes) * scale
        # shape 1e-3 underflows to 0 about half the time; the sampler floors those
        assert np.count_nonzero(via_gamma == 0.0) > 0
        assert via_gamma.tobytes() == via_standard.tobytes(), (
            f"numpy {np.__version__}: Generator.gamma(shape, scale) is no longer "
            "standard_gamma(shape) * scale bit for bit"
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("rate", [1.0, 3.0, 0.4])
    def test_actions_are_the_floored_gamma_draws(self, rate, seed):
        shapes = np.repeat(np.geomspace(1e-3, 50.0, 400), 5)
        drawn = simulation._gamma_actions(shapes, rate, np.random.default_rng(seed))
        replaced = np.maximum(
            np.random.default_rng(seed).gamma(shapes, 1.0 / rate), simulation._SMALLEST_ACTION
        )
        assert drawn.tobytes() == replaced.tobytes()

    @pytest.mark.parametrize("p_exposed", [0.05, 0.5])
    @pytest.mark.parametrize("n", [2, 3])
    def test_the_count_rule_draws_as_min_equals_max(self, n, p_exposed):
        regenerated = 0
        for seed in range(500):
            new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            states, regenerations = simulation._draw_mixed_states(1, n, p_exposed, new_rng)
            old_states, old_regenerations = old_draw_mixed_states(n, p_exposed, old_rng)
            assert states.dtype == old_states.dtype
            assert states.tolist() == [old_states.tolist()]
            assert regenerations == old_regenerations
            assert new_rng.random() == old_rng.random()
            regenerated += regenerations > 0
        assert regenerated > 100


class TestGenerateDataset:
    def test_small_dataset_has_both_groups(self):
        rng = np.random.default_rng(5)
        ds = generate_dataset(PolicyConfig(), 2, 0.5, rng)
        assert sorted(o.state for o in ds.observations) == [0, 1]

    def test_fixed_seed_reproduces_the_dataset(self):
        a = generate_dataset(PolicyConfig(), 20, 0.5, np.random.default_rng(6))
        b = generate_dataset(PolicyConfig(), 20, 0.5, np.random.default_rng(6))
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.states, b.states)

    def test_exposure_fraction_concentrates(self):
        rng = np.random.default_rng(7)
        ds = generate_dataset(PolicyConfig(), 100_000, 0.5, rng)
        assert abs(ds.states.mean() - 0.5) < 0.01

    def test_regenerated_assignment_is_reported(self):
        # seed 1's first two-mouse draw is single-group, forcing a redraw
        states, regenerations = simulation._draw_mixed_states(1, 2, 0.5, np.random.default_rng(1))
        assert regenerations >= 1
        assert sorted(states[0]) == [0, 1]
        ds = generate_dataset(PolicyConfig(), 2, 0.5, np.random.default_rng(1))
        np.testing.assert_array_equal(ds.states, states[0])

    def test_degenerate_assignment_probability_is_honored(self):
        # p exactly 0 or 1 is an intentional single-group design
        rng = np.random.default_rng(8)
        ds = generate_dataset(PolicyConfig(), 10, 1.0, rng)
        assert ds.states.min() == 1

    def test_too_small_n_rejected(self):
        with pytest.raises(InputError):
            generate_dataset(PolicyConfig(), 1, 0.5, np.random.default_rng(0))


#: designs that hold both groups with a probability q too small for the retries
RARELY_MIXED = [(2, 1.03e-4), (2, 1 - 1.03e-4), (10**7, 1e-12), (50, 1e-300), (10**7, 1e-300),
                (1000, 1e-300)]
#: each generator's first argument: the compound policy, or one realization of it
GENERATORS = {generate_dataset: PolicyConfig(), generate_study_dataset: RealizedPolicy(2.0, 2.0)}


@pytest.mark.parametrize("generate", GENERATORS, ids=lambda g: g.__name__)
class TestGeneratorDesign:
    """Both generators check their design by McConfig's rule, before drawing."""

    @pytest.mark.parametrize("n, p_exposed", RARELY_MIXED)
    def test_a_rarely_mixed_design_is_refused_at_once(self, generate, n, p_exposed):
        def refuse():
            with pytest.raises(InputError, match="probability q = "):
                generate(GENERATORS[generate], n, p_exposed, NoDraws())

        assert fastest_of_three(refuse) < 0.05

    @pytest.mark.parametrize("p_exposed", [1.5, -0.1, float("nan")])
    def test_p_exposed_outside_the_unit_interval_is_refused(self, generate, p_exposed):
        with pytest.raises(InputError, match=r"p_exposed must lie in \[0, 1\]"):
            generate(GENERATORS[generate], 10, p_exposed, np.random.default_rng(0))

    @pytest.mark.parametrize("p_exposed", [0.0, 1.0])
    def test_a_certain_assignment_gives_one_group(self, generate, p_exposed):
        ds = generate(GENERATORS[generate], 1000, p_exposed, np.random.default_rng(0))
        assert ds.states.tolist() == [int(p_exposed)] * 1000


class TestFitAnova:
    def test_group_means_solution(self):
        ds = Dataset.from_arrays(actions=[[4.0], [6.0], [1.0], [3.0]], states=[1, 1, 0, 0])
        fit = fit_anova(ds)
        assert fit.b0 == pytest.approx(2.0)
        assert fit.b1 == pytest.approx(3.0)
        assert fit.sigma_sq == pytest.approx(4.0 / 2.0)

    def test_flat_data_gives_zero_slope(self):
        ds = Dataset.from_arrays(actions=[[2.0]] * 4, states=[1, 1, 0, 0])
        assert fit_anova(ds).b1 == 0.0

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(4, 60))
            states = np.zeros(n, dtype=int)
            states[rng.permutation(n)[: n // 2 or 1]] = 1
            actions = rng.normal(3.0, 2.0, size=n)
            ds = Dataset.from_arrays(actions=actions[:, None], states=states)
            design = np.column_stack([np.ones(n), states])
            beta = np.linalg.lstsq(design, actions, rcond=None)[0]
            fit = fit_anova(ds)
            assert fit.b0 == pytest.approx(beta[0], abs=1e-9)
            assert fit.b1 == pytest.approx(beta[1], abs=1e-9)

    def test_slope_equals_difference_of_group_means(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            states = np.zeros(n, dtype=int)
            states[rng.permutation(n)[: n // 2 or 1]] = 1
            actions = rng.gamma(2.0, 2.0, size=n)
            ds = Dataset.from_arrays(actions=actions[:, None], states=states)
            expected = actions[states == 1].mean() - actions[states == 0].mean()
            assert abs(fit_anova(ds).b1 - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_two_point_fit_has_no_residual_variance(self):
        ds = Dataset.from_arrays(actions=[[4.0], [1.0]], states=[1, 0])
        assert fit_anova(ds).sigma_sq is None

    def test_missing_group_rejected(self):
        ds = Dataset.from_arrays(actions=[[4.0], [1.0]], states=[1, 1])
        with pytest.raises(EstimationError):
            fit_anova(ds)

    def test_vector_actions_rejected(self):
        ds = Dataset.from_arrays(actions=np.ones((4, 2)), states=[1, 1, 0, 0])
        with pytest.raises(InputError):
            fit_anova(ds)


def drawn_rows(policy, count, n, p_exposed, entropy, iid=False):
    """Each replicate's (states, actions), drawn a block at a time from the study's streams."""
    rngs = streams(entropy)
    rows = block_rows(n)
    for start in range(0, count, rows):
        block = simulation._draw_block(policy, min(rows, count - start), n, p_exposed, rngs, iid)
        yield from zip(*block)


def row_dataset(states, actions):
    return Dataset.from_arrays(actions=actions[:, None], states=states)


def per_replicate_monte_carlo(cfg, policy):
    """Oracle: the study's rows, each fitted alone by estimate_theta and fit_anova."""
    spec = DivergenceSpec(optimal=np.array([cfg.optimal_action]))
    thetas, b1s, degenerate = [], [], 0
    for row in drawn_rows(policy, cfg.num_datasets, cfg.n_per_dataset, cfg.p_exposed, cfg.seed):
        ds = row_dataset(*row)
        try:
            thetas.append(estimate_theta(ds, spec).theta_e)
        except DegenerateObjectiveError:
            degenerate += 1
            continue
        b1s.append(fit_anova(ds).b1)
    return thetas, b1s, degenerate


def per_replicate_sweep(policy, ns, replicates, seed, optimal_action):
    """Oracle: each iid row fitted alone by estimate_theta."""
    spec = DivergenceSpec(optimal=np.array([optimal_action]))
    rows = []
    for n in ns:
        drawn = drawn_rows(policy, replicates, n, 0.5, [seed, n], iid=True)
        estimates = np.array([estimate_theta(row_dataset(*row), spec).theta_e for row in drawn])
        rows.append((n, float(estimates.mean()), float(estimates.std(ddof=1))))
    return rows


def per_replicate_probe(policy, ns, replicates, theta_fixed, seed):
    """Oracle: each iid row's objective from variance_objective on its own dataset."""
    spec = DivergenceSpec(optimal=np.array([0.0]))
    psi_0 = psi_limit(policy, theta_fixed)
    rows = []
    for n in ns:
        drawn = drawn_rows(policy, replicates, n, 0.5, [seed, n], iid=True)
        psis = np.array([variance_objective(theta_fixed, row_dataset(*row), spec) for row in drawn])
        mean, root_n = float(psis.mean()), np.sqrt(n)
        rows.append((n, mean, root_n * (mean - psi_0), root_n * float(psis.std(ddof=1))))
    return psi_0, rows


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def block_rows(n):
    return max(1, BOOTSTRAP_BLOCK_ELEMENTS // n)


def half_exposed(rows, n, action):
    """A block whose rows each hold n // 2 exposed animals, every one at ``action``."""
    states = np.r_[np.ones(n // 2, dtype=int), np.zeros(n - n // 2, dtype=int)]
    return np.tile(states, (rows, 1)), np.full((rows, n), action)


class TestBlockFit:
    """The block-fitted study loops give the bits of each row fitted alone."""

    @pytest.mark.parametrize("n, datasets", [(2, 300), (3, 700), (50, 700), (1000, 40), (20000, 3)])
    def test_monte_carlo_matches_the_per_replicate_path(self, n, datasets):
        # the last block is partial, or every block is one row
        assert block_rows(n) == 1 or datasets % block_rows(n)
        cfg = McConfig(n_per_dataset=n, num_datasets=datasets, seed=n)
        result = run_monte_carlo(cfg, PolicyConfig())
        thetas, b1s, degenerate = per_replicate_monte_carlo(cfg, PolicyConfig())
        assert bits(result.theta_estimates) == bits(thetas)
        assert bits(result.b1_estimates) == bits(b1s)
        assert result.degenerate_count == degenerate == 0

    @pytest.mark.parametrize("optimal", [0.0, 1.5, -3.0])
    @pytest.mark.parametrize("p_exposed", [0.1, 0.5, 0.9])
    def test_monte_carlo_matches_across_designs(self, p_exposed, optimal):
        cfg = McConfig(
            n_per_dataset=50, num_datasets=400, p_exposed=p_exposed, seed=7, optimal_action=optimal
        )
        result = run_monte_carlo(cfg, PolicyConfig())
        thetas, b1s, _ = per_replicate_monte_carlo(cfg, PolicyConfig())
        assert bits(result.theta_estimates) == bits(thetas)
        assert bits(result.b1_estimates) == bits(b1s)
        assert result.frac_theta_below_half == float(np.mean(np.array(thetas) < 0.5))
        assert result.frac_b1_above_zero == float(np.mean(np.array(b1s) > 0.0))

    def test_degenerate_rows_are_skipped_in_place(self, monkeypatch):
        # about 30% of the rows put every animal at the optimum; both paths
        # draw through the same sampler, so they see the same replicates
        draw = simulation._draw_block

        def sometimes_optimal(*args):
            states, actions = draw(*args)
            return states, np.where(actions[:, :1] % 1.0 < 0.3, 1.5, actions)

        monkeypatch.setattr(simulation, "_draw_block", sometimes_optimal)
        cfg = McConfig(n_per_dataset=50, num_datasets=700, seed=3, optimal_action=1.5)
        result = run_monte_carlo(cfg, PolicyConfig())
        thetas, b1s, degenerate = per_replicate_monte_carlo(cfg, PolicyConfig())
        assert degenerate > 100
        assert result.degenerate_count == degenerate
        assert bits(result.theta_estimates) == bits(thetas)
        assert bits(result.b1_estimates) == bits(b1s)

    @pytest.mark.parametrize("optimal", [0.0, 1.5, -3.0])
    def test_sweep_matches_the_per_replicate_path(self, optimal):
        ns, replicates = [2, 3, 50, 800], 50
        assert all(replicates % block_rows(n) for n in ns[2:])
        rows = consistency_sweep(PolicyConfig(), ns, replicates, seed=5, optimal_action=optimal)
        oracle = per_replicate_sweep(PolicyConfig(), ns, replicates, 5, optimal)
        assert [(r.n, r.mean_theta, r.sd_theta) for r in rows] == oracle

    @pytest.mark.parametrize("theta_fixed", [0, 0.3, 1])
    @pytest.mark.parametrize("n, replicates", [(2, 300), (3, 700), (50, 400), (20000, 3)])
    def test_probe_matches_the_per_replicate_path(self, n, replicates, theta_fixed):
        # the last block is partial, or every block is one row
        assert block_rows(n) == 1 or replicates % block_rows(n)
        probe = objective_convergence_probe(PolicyConfig(), [n], replicates, theta_fixed, seed=n)
        psi_0, oracle = per_replicate_probe(PolicyConfig(), [n], replicates, theta_fixed, n)
        assert bits([probe.psi_0]) == bits([psi_0])
        got = [(r.n, bits([r.mean_psi, r.mean_scaled, r.sd_scaled])) for r in probe.rows]
        assert got == [(row[0], bits(row[1:])) for row in oracle]

    def test_probe_builds_no_dataset(self, monkeypatch):
        built = []
        post_init = Dataset.__post_init__

        def counting(self):
            post_init(self)
            built.append(len(self))

        monkeypatch.setattr(Dataset, "__post_init__", counting)
        # positive control: the counter sees a dataset the simulation builds
        generate_dataset(PolicyConfig(), 7, 0.5, np.random.default_rng(0))
        assert built == [7]
        built.clear()
        objective_convergence_probe(PolicyConfig(), [10, 40], 20, 0.3, seed=0)
        assert built == []

    def test_first_refused_replicate_names_its_divergence(self, monkeypatch):
        # about 5% of the rows get actions too large to square, each its own maximum
        draw = simulation._draw_block

        def sometimes_huge(*args):
            states, actions = draw(*args)
            return states, np.where(actions[:, :1] % 1.0 < 0.05, actions * 1e80, actions)

        monkeypatch.setattr(simulation, "_draw_block", sometimes_huge)
        cfg = McConfig(n_per_dataset=50, num_datasets=400, seed=0)
        with pytest.raises(InputError) as block:
            run_monte_carlo(cfg, PolicyConfig())
        with pytest.raises(InputError) as alone:
            per_replicate_monte_carlo(cfg, PolicyConfig())
        assert str(block.value) == str(alone.value)
        assert "at most 1e+150, got " in str(block.value)

    def test_degenerate_sweep_replicate_raises_the_estimator_error(self, monkeypatch):
        drawn = []

        def all_optimal(policy, rows, n, p_exposed, rngs, iid=False):
            drawn.append(n)
            return half_exposed(rows, n, 0.0)

        monkeypatch.setattr(simulation, "_draw_block", all_optimal)
        with pytest.raises(DegenerateObjectiveError, match="no curvature") as swept:
            consistency_sweep(PolicyConfig(), [10, 20], 5, seed=1)
        # the first degenerate block raises: nothing is drawn after it, or again
        assert drawn == [10]
        with pytest.raises(DegenerateObjectiveError) as alone:
            per_replicate_sweep(PolicyConfig(), [10], 5, 1, 0.0)
        assert str(swept.value) == str(alone.value)

    def test_sweep_rejects_a_single_animal_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulation, "_draw_block", no_draw)
        with pytest.raises(InputError, match="n must be >= 2, got 1"):
            consistency_sweep(PolicyConfig(), [1, 10], 5, seed=1)


def numpy_block(cfg, rows, n, p_exposed, rngs, iid):
    """One block of the studies' stream contract, restated in plain numpy calls."""
    shape_rng, state_rng, action_rng = rngs
    exposed = state_rng.random((rows, n)) < p_exposed
    while unmixed := [i for i, row in enumerate(exposed) if row.all() or not row.any()]:
        exposed[unmixed] = state_rng.random((len(unmixed), n)) < p_exposed

    def positive_shapes(s, size):
        mu, sd, mult = cfg.shape_params(s)
        shapes = mult * shape_rng.normal(mu, sd, size)
        while (bad := shapes <= 0.0).any():
            shapes[bad] = mult * shape_rng.normal(mu, sd, bad.sum())
        return shapes

    alphas = np.empty((rows, n))
    if iid:
        alphas[exposed] = positive_shapes(1, exposed.sum())
        alphas[~exposed] = positive_shapes(0, (~exposed).sum())
    else:
        exposed_shapes, control_shapes = positive_shapes(1, rows), positive_shapes(0, rows)
        alphas[:] = np.where(exposed, exposed_shapes[:, None], control_shapes[:, None])
    actions = action_rng.gamma(alphas, 1.0 / cfg.rate)
    return exposed.astype(int), np.maximum(actions, np.finfo(float).tiny)


class TestStreams:
    """Each study draws its replicates from three generators: shapes, states and actions."""

    @pytest.mark.parametrize("iid", [False, True], ids=["study", "iid"])
    @pytest.mark.parametrize(
        "cfg, n, p_exposed",
        # frequent regenerations, frequent rejections, a negative multiplier, the paper's design
        [(PolicyConfig(rate=2.5), 2, 0.05), (PolicyConfig(mu1=-1.0, mu2=-1.0), 3, 0.3),
         (PolicyConfig(shape_multiplier_exposed=-1.0), 10, 0.2), (PolicyConfig(), 50, 0.5)],
    )
    def test_a_block_is_these_numpy_calls(self, cfg, n, p_exposed, iid):
        ours, theirs = streams(11), streams(11)
        # consecutive blocks of several sizes continue the same three streams
        for rows in (40, 1, 17):
            states, actions = simulation._draw_block(cfg, rows, n, p_exposed, ours, iid)
            expected_states, expected_actions = numpy_block(cfg, rows, n, p_exposed, theirs, iid)
            assert states.tolist() == expected_states.tolist()
            assert bits(actions) == bits(expected_actions)
        assert [rng.random() for rng in ours] == [rng.random() for rng in theirs]

    @staticmethod
    def count_generators(monkeypatch):
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        return built

    @pytest.mark.parametrize("datasets", [400, 2000])
    def test_three_generators_per_monte_carlo_call(self, datasets, monkeypatch):
        built = self.count_generators(monkeypatch)
        run_monte_carlo(McConfig(num_datasets=datasets, seed=0), PolicyConfig())
        assert len(built) == 3

    def test_three_generators_per_sweep_sample_size(self, monkeypatch):
        built = self.count_generators(monkeypatch)
        consistency_sweep(PolicyConfig(), [50, 200, 800], 200, seed=0)
        assert len(built) == 9


class TestMonteCarlo:
    def test_single_replicate_is_deterministic(self):
        cfg = McConfig(num_datasets=1, seed=33)
        a = run_monte_carlo(cfg, PolicyConfig())
        b = run_monte_carlo(cfg, PolicyConfig())
        assert len(a.theta_estimates) == len(a.b1_estimates) == 1
        assert bits(a.theta_estimates) == bits(b.theta_estimates)
        assert bits(a.b1_estimates) == bits(b.b1_estimates)

    def test_fractions_are_bitwise_reproducible(self):
        cfg = McConfig(num_datasets=50, seed=21)
        a = run_monte_carlo(cfg, PolicyConfig())
        b = run_monte_carlo(cfg, PolicyConfig())
        assert a.frac_theta_below_half == b.frac_theta_below_half
        assert a.frac_b1_above_zero == b.frac_b1_above_zero
        assert bits(a.theta_estimates) == bits(b.theta_estimates)

    def test_direction_agreement_between_estimators(self):
        # exposures that raise activity should show up as theta < 0.5 and
        # b1 > 0 for mostly the same replicates
        result = run_monte_carlo(McConfig(seed=0), PolicyConfig())
        agreement = np.mean((result.theta_estimates < 0.5) == (result.b1_estimates > 0.0))
        assert agreement > 0.80

    def test_large_n_fraction_stays_in_band(self):
        # the replicate-level policy draw caps the fraction near 0.74 even at
        # n=1000 (observed 0.7375 at seed 0); growing n tightens within-
        # replicate noise but cannot push the fraction toward 1
        result = run_monte_carlo(McConfig(n_per_dataset=1000, seed=0), PolicyConfig())
        assert result.frac_theta_below_half > 0.70

    def test_all_degenerate_replicates_raise_study_error(self, monkeypatch):
        def all_optimal(policy, rows, n, p_exposed, rngs, iid=False):
            return half_exposed(rows, n, 0.0)

        monkeypatch.setattr(simulation, "_draw_block", all_optimal)
        with pytest.raises(StudyError):
            run_monte_carlo(McConfig(num_datasets=5, seed=1), PolicyConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            McConfig(p_exposed=1.0)
        with pytest.raises(ConfigurationError):
            McConfig(n_per_dataset=1)

    @pytest.mark.parametrize("n, p_exposed", RARELY_MIXED)
    def test_an_assignment_that_is_rarely_mixed_is_refused(self, n, p_exposed):
        # exp(-q * MAX_ASSIGNMENT_RETRIES) > 1e-9, where q = 1 - p^n - (1-p)^n
        def refuse():
            with pytest.raises(ConfigurationError, match="probability q = "):
                McConfig(n_per_dataset=n, p_exposed=p_exposed)

        assert fastest_of_three(refuse) < 0.05

    @pytest.mark.parametrize(
        "n, p_exposed",
        # the designs the tests, golden runs and benchmark draw, then the edges of the rule
        [(2, 0.05), (3, 0.05), (2, 0.5), (3, 0.5), (50, 0.1), (50, 0.5), (50, 0.9), (1000, 0.5),
         (20000, 0.5), (10**7, 0.5), (2, 1.04e-4), (2, 1 - 1.04e-4), (10**7, 1e-9)],
    )
    def test_every_design_in_use_constructs(self, n, p_exposed):
        McConfig(n_per_dataset=n, p_exposed=p_exposed)

    def test_working_memory_stays_bounded_at_many_datasets(self):
        # the draws are made a block of at most 16384 entries at a time
        cfg = McConfig(n_per_dataset=2, num_datasets=20_000, seed=0)
        run_monte_carlo(McConfig(n_per_dataset=2, num_datasets=10, seed=0), PolicyConfig())
        tracemalloc.start()
        try:
            run_monte_carlo(cfg, PolicyConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_the_result_holds_its_estimates_in_read_only_arrays(self):
        # two float64 arrays of 20000 hold 0.32 MB; tuples of Python floats would hold 1.28 MB
        cfg = McConfig(n_per_dataset=2, num_datasets=20_000, seed=0)
        run_monte_carlo(McConfig(n_per_dataset=2, num_datasets=10, seed=0), PolicyConfig())
        tracemalloc.start()
        try:
            result = run_monte_carlo(cfg, PolicyConfig())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 0.6e6, held
        survivors = (20_000 - result.degenerate_count,)
        for estimates in (result.theta_estimates, result.b1_estimates):
            assert estimates.dtype == np.float64 and estimates.shape == survivors
            with pytest.raises(ValueError, match="read-only"):
                estimates[0] = 0.5


class TestConsistencySweep:
    def test_spread_shrinks_with_sample_size(self):
        rows = consistency_sweep(PolicyConfig(), [50, 200, 800], 60, seed=17)
        sds = [r.sd_theta for r in rows]
        assert sds[0] > sds[1] > sds[2]

    def test_identical_seeds_reproduce_rows(self):
        a = consistency_sweep(PolicyConfig(), [50], 20, seed=3)
        b = consistency_sweep(PolicyConfig(), [50, 50], 20, seed=3)
        assert a[0] == b[0] == b[1]

    def test_single_n_gives_one_row(self):
        rows = consistency_sweep(PolicyConfig(), [50], 10, seed=3)
        assert len(rows) == 1 and rows[0].n == 50

    def test_decreasing_ns_rejected(self):
        with pytest.raises(InputError):
            consistency_sweep(PolicyConfig(), [200, 50], 10, seed=3)


class TestConvergenceProbe:
    def test_constant_actions_give_zero_objective_everywhere(self, monkeypatch):
        def constant(policy, rows, n, p_exposed, rngs, iid=False):
            return half_exposed(rows, n, 3.0)

        monkeypatch.setattr(simulation, "_draw_block", constant)
        probe = objective_convergence_probe(PolicyConfig(), [10, 20], 5, theta_fixed=0.5, seed=1)
        # the centre is the policy's limit, which the constant actions do not follow
        assert probe.psi_0 == psi_limit(PolicyConfig(), 0.5) > 0.0
        for row in probe.rows:
            assert row.mean_psi == 0.0
            assert row.mean_scaled == -np.sqrt(row.n) * probe.psi_0
            assert row.sd_scaled == 0.0

    def test_rows_depend_only_on_seed_n_and_replicates(self):
        probe_a = objective_convergence_probe(PolicyConfig(), [100, 400], 10, 0.3, seed=2)
        probe_b = objective_convergence_probe(PolicyConfig(), [400], 10, 0.3, seed=2)
        assert probe_a.rows[1] == probe_b.rows[0]

    def test_invalid_theta_rejected(self):
        with pytest.raises(InputError):
            objective_convergence_probe(PolicyConfig(), [100], 5, theta_fixed=1.5, seed=0)

    @pytest.mark.parametrize("replicates", [0, 1])
    def test_fewer_than_two_replicates_rejected(self, replicates):
        with pytest.raises(InputError, match="replicates must be >= 2"):
            objective_convergence_probe(PolicyConfig(), [10], replicates, 0.3, 0)

    def test_single_animal_sample_size_rejected_before_sampling(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("exposures drawn before the sample sizes were checked")

        monkeypatch.setattr(simulation, "_draw_block", no_draw)
        with pytest.raises(InputError):
            objective_convergence_probe(PolicyConfig(), [1, 10], 2, 0.3, 0)

    @pytest.mark.parametrize(
        "cfg, optimal", [(PolicyConfig(), 1e80), (PolicyConfig(rate=1e-80), 0.0)]
    )
    def test_no_sample_sizes_are_refused_before_the_limit(self, cfg, optimal):
        # with no draws to refuse them, these limits would overflow
        with pytest.raises(InputError, match=r"ns must be non-empty and non-decreasing, got \[\]"):
            objective_convergence_probe(cfg, [], 2, 0.3, 0, optimal_action=optimal)

    def test_an_optimum_too_far_to_square_is_refused_by_the_draws(self):
        # the limit is taken after the draws, whose divergences near 1e160 are refused
        with pytest.raises(InputError, match=r"divergences must be finite and at most 1e\+150"):
            objective_convergence_probe(PolicyConfig(), [10], 2, 0.3, 0, optimal_action=1e80)

    def test_the_objective_is_unbiased_for_its_finite_sample_mean(self):
        # iid rewards: E[Psi_n] = (1 - 1/n) Psi_0, with standard error sd_scaled / sqrt(n * R)
        replicates = 200
        probe = objective_convergence_probe(PolicyConfig(), [100, 400, 1600], replicates, 0.3, 0)
        assert probe.psi_0 == pytest.approx(289.6452828745844, rel=1e-12)
        for row in probe.rows:
            se = row.sd_scaled / np.sqrt(row.n * replicates)
            assert abs(row.mean_psi - (1 - 1 / row.n) * probe.psi_0) <= 4 * se, row

    def test_working_memory_stays_bounded(self):
        # the limit is a closed form: no large oracle sample is held
        objective_convergence_probe(PolicyConfig(), [10], 2, 0.3, seed=0)
        tracemalloc.start()
        try:
            objective_convergence_probe(PolicyConfig(), [100, 400, 1600], 200, 0.3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, peak


@pytest.mark.parametrize(
    "cfg, optimal",
    [(PolicyConfig(), 0.0), (PolicyConfig(rate=2.5), 1.0),
     (PolicyConfig(mu1=-1.0, shape_multiplier_exposed=-1.5), 0.5)],
    ids=["defaults", "rate-2.5", "negative-multiplier"],
)
def test_closed_form_limits_match_large_iid_draws(cfg, optimal):
    # 50 replicates of 20000 animals each, for the objective at 0.3 and for the estimate
    n, replicates = 20_000, 50
    probe = objective_convergence_probe(cfg, [n], replicates, 0.3, seed=11, optimal_action=optimal)
    (row,) = probe.rows
    assert probe.psi_0 == psi_limit(cfg, 0.3, optimal)
    z_psi = (row.mean_psi - (1 - 1 / n) * probe.psi_0) / (row.sd_scaled / np.sqrt(n * replicates))
    (sweep,) = consistency_sweep(cfg, [n], replicates, seed=12, optimal_action=optimal)
    z_theta = (sweep.mean_theta - theta_limit(cfg, optimal)) / (sweep.sd_theta / np.sqrt(replicates))
    assert abs(z_psi) <= 4 and abs(z_theta) <= 4, (z_psi, z_theta)


def test_estimates_concentrate_below_half_under_default_policy():
    # iid sampling: larger actions for exposed animals mean the exposed
    # group tolerates divergence (from zero activity) more
    rng = np.random.default_rng(19)
    ds = generate_dataset(PolicyConfig(), 5_000, 0.5, rng)
    spec = DivergenceSpec(optimal=np.array([0.0]))
    assert estimate_theta(ds, spec).theta_e < 0.5


SEEDED_CALLS = {
    "bootstrap_ci": lambda seed: bootstrap_ci(
        generate_dataset(PolicyConfig(), 20, 0.5, np.random.default_rng(0)),
        DivergenceSpec(optimal=np.array([0.0])), replicates=100, seed=seed,
    ),
    "McConfig": lambda seed: McConfig(seed=seed),
    "consistency_sweep": lambda seed: consistency_sweep(PolicyConfig(), [10], 2, seed=seed),
    "objective_convergence_probe": lambda seed: objective_convergence_probe(
        PolicyConfig(), [10], 2, theta_fixed=0.3, seed=seed
    ),
}


@pytest.mark.parametrize("seed", [-1, 1.5, None], ids=["negative", "fractional", "none"])
@pytest.mark.parametrize("call", SEEDED_CALLS)
def test_a_seed_numpy_cannot_take_is_a_divtol_error(call, seed):
    error = ConfigurationError if call == "McConfig" else InputError
    with pytest.raises(error, match="seed must be a nonnegative integer"):
        SEEDED_CALLS[call](seed)
