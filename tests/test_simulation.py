"""Synthetic policy sampling, the ANOVA baseline, and the study harness."""

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
)
from divtol.errors import ConfigurationError
from divtol.estimator import BOOTSTRAP_BLOCK_ELEMENTS


def truncated_shape_mean(mu, sd, mult, rate=1.0):
    """Numeric-integration oracle: E[mult * eps | mult * eps > 0] / rate."""
    mass = 1.0 - stats.norm.cdf(0.0, mu, sd)
    numerator = integrate.quad(lambda e: e * stats.norm.pdf(e, mu, sd), 0.0, mu + 12 * sd)[0]
    return mult * numerator / mass / rate


class TestSamplePolicy:
    def test_vanishing_noise_recovers_the_gamma_mean(self):
        cfg = PolicyConfig(sigma1_sq=1e-12)
        rng = np.random.default_rng(0)
        draws = simulation._sample_actions(np.ones(20_000, dtype=int), cfg, rng)
        assert draws.mean() == pytest.approx(4.0, abs=0.05)

    def test_exposed_mean_exceeds_control_mean(self):
        cfg = PolicyConfig()
        rng = np.random.default_rng(1)
        states = np.r_[np.ones(50_000, dtype=int), np.zeros(50_000, dtype=int)]
        actions = simulation._sample_actions(states, cfg, rng)
        assert actions[:50_000].mean() > actions[50_000:].mean()

    def test_vectorized_sampler_matches_integration_oracle(self):
        cfg = PolicyConfig()
        rng = np.random.default_rng(3)
        for state, (mu, sd, mult) in ((1, (2.0, 1.0, 2.0)), (0, (2.0, 2.0, 1.0))):
            states = np.full(10**6, state, dtype=int)
            actions = simulation._sample_actions(states, cfg, rng)
            oracle = truncated_shape_mean(mu, sd, mult)
            assert abs(actions.mean() - oracle) / oracle < 0.005

    def test_all_draws_positive(self):
        cfg = PolicyConfig()
        rng = np.random.default_rng(4)
        states = np.r_[np.ones(5_000, dtype=int), np.zeros(5_000, dtype=int)]
        assert np.all(simulation._sample_actions(states, cfg, rng) > 0.0)

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
        states, regenerations = simulation._draw_mixed_states(2, 0.5, np.random.default_rng(1))
        assert regenerations >= 1
        assert sorted(states) == [0, 1]
        ds = generate_dataset(PolicyConfig(), 2, 0.5, np.random.default_rng(1))
        np.testing.assert_array_equal(ds.states, states)

    def test_degenerate_assignment_probability_is_honored(self):
        # p exactly 0 or 1 is an intentional single-group design
        rng = np.random.default_rng(8)
        ds = generate_dataset(PolicyConfig(), 10, 1.0, rng)
        assert ds.states.min() == 1

    def test_too_small_n_rejected(self):
        with pytest.raises(InputError):
            generate_dataset(PolicyConfig(), 1, 0.5, np.random.default_rng(0))


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


def per_replicate_monte_carlo(cfg, policy):
    """Oracle: one dataset, estimate_theta and fit_anova per replicate, in spawn order."""
    spec = DivergenceSpec(optimal=np.array([cfg.optimal_action]))
    thetas, b1s, degenerate = [], [], 0
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.num_datasets):
        rng = np.random.default_rng(child)
        realized = draw_policy(policy, rng)
        ds = generate_study_dataset(realized, cfg.n_per_dataset, cfg.p_exposed, rng)
        try:
            thetas.append(estimate_theta(ds, spec).theta_e)
        except DegenerateObjectiveError:
            degenerate += 1
            continue
        b1s.append(fit_anova(ds).b1)
    return thetas, b1s, degenerate


def per_replicate_sweep(policy, ns, replicates, seed, optimal_action):
    """Oracle: one iid dataset and one estimate_theta call per replicate."""
    spec = DivergenceSpec(optimal=np.array([optimal_action]))
    rows = []
    for n in ns:
        datasets = (
            generate_dataset(policy, n, 0.5, simulation._row_rng(seed, n, j))
            for j in range(replicates)
        )
        estimates = np.array([estimate_theta(ds, spec).theta_e for ds in datasets])
        rows.append((n, float(estimates.mean()), float(estimates.std(ddof=1))))
    return rows


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


def block_rows(n):
    return max(1, BOOTSTRAP_BLOCK_ELEMENTS // n)


class TestBlockFit:
    """The block-fitted study loops give the per-replicate path's bits."""

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
        # some replicates put every animal at the optimum; both paths draw
        # through the same row helper, so they see the same replicates
        draw = simulation._study_row

        def sometimes_optimal(policy, n, p_exposed, rng):
            states, actions = draw(policy, n, p_exposed, rng)
            return states, np.full(n, 1.5) if rng.random() < 0.3 else actions

        monkeypatch.setattr(simulation, "_study_row", sometimes_optimal)
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

    def test_first_refused_replicate_names_its_divergence(self, monkeypatch):
        # a few replicates get actions too large to square, each its own maximum
        draw = simulation._study_row

        def sometimes_huge(policy, n, p_exposed, rng):
            states, actions = draw(policy, n, p_exposed, rng)
            return states, actions * 1e80 if rng.random() < 0.05 else actions

        monkeypatch.setattr(simulation, "_study_row", sometimes_huge)
        cfg = McConfig(n_per_dataset=50, num_datasets=400, seed=0)
        with pytest.raises(InputError) as block:
            run_monte_carlo(cfg, PolicyConfig())
        with pytest.raises(InputError) as alone:
            per_replicate_monte_carlo(cfg, PolicyConfig())
        assert str(block.value) == str(alone.value)
        assert "at most 1e+150, got " in str(block.value)

    def test_degenerate_sweep_replicate_raises_the_estimator_error(self, monkeypatch):
        def all_optimal(cfg, n, p_exposed, rng):
            states = np.r_[np.ones(n // 2, dtype=int), np.zeros(n - n // 2, dtype=int)]
            return states, np.zeros(n)

        monkeypatch.setattr(simulation, "_iid_row", all_optimal)
        with pytest.raises(DegenerateObjectiveError, match="no curvature"):
            consistency_sweep(PolicyConfig(), [10], 5, seed=1)

    def test_sweep_rejects_a_single_animal_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulation, "_iid_row", no_draw)
        with pytest.raises(InputError, match="n must be >= 2, got 1"):
            consistency_sweep(PolicyConfig(), [1, 10], 5, seed=1)


class TestMonteCarlo:
    def test_single_replicate_is_deterministic(self):
        cfg = McConfig(num_datasets=1, seed=33)
        a = run_monte_carlo(cfg, PolicyConfig())
        b = run_monte_carlo(cfg, PolicyConfig())
        assert len(a.theta_estimates) == len(a.b1_estimates) == 1
        assert a.theta_estimates == b.theta_estimates
        assert a.b1_estimates == b.b1_estimates

    def test_fractions_are_bitwise_reproducible(self):
        cfg = McConfig(num_datasets=50, seed=21)
        a = run_monte_carlo(cfg, PolicyConfig())
        b = run_monte_carlo(cfg, PolicyConfig())
        assert a.frac_theta_below_half == b.frac_theta_below_half
        assert a.frac_b1_above_zero == b.frac_b1_above_zero
        assert a.theta_estimates == b.theta_estimates

    def test_direction_agreement_between_estimators(self):
        # exposures that raise activity should show up as theta < 0.5 and
        # b1 > 0 for mostly the same replicates
        result = run_monte_carlo(McConfig(seed=0), PolicyConfig())
        theta = np.array(result.theta_estimates)
        b1 = np.array(result.b1_estimates)
        agreement = np.mean((theta < 0.5) == (b1 > 0.0))
        assert agreement > 0.80

    def test_large_n_fraction_stays_in_band(self):
        # the replicate-level policy draw caps the fraction near 0.74 even at
        # n=1000 (observed 0.7375 at seed 0); growing n tightens within-
        # replicate noise but cannot push the fraction toward 1
        result = run_monte_carlo(McConfig(n_per_dataset=1000, seed=0), PolicyConfig())
        assert result.frac_theta_below_half > 0.70

    def test_all_degenerate_replicates_raise_study_error(self, monkeypatch):
        def all_optimal(policy, n, p_exposed, rng):
            states = np.r_[np.ones(n // 2, dtype=int), np.zeros(n - n // 2, dtype=int)]
            return states, np.zeros(n)

        monkeypatch.setattr(simulation, "_study_row", all_optimal)
        with pytest.raises(StudyError):
            run_monte_carlo(McConfig(num_datasets=5, seed=1), PolicyConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            McConfig(p_exposed=1.0)
        with pytest.raises(ConfigurationError):
            McConfig(n_per_dataset=1)


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
        def constant(policy, n, p_exposed, rng):
            states = np.r_[np.ones(n // 2, dtype=int), np.zeros(n - n // 2, dtype=int)]
            return Dataset.from_arrays(actions=np.full((n, 1), 3.0), states=states)

        monkeypatch.setattr(simulation, "generate_dataset", constant)
        probe = objective_convergence_probe(
            PolicyConfig(), [10, 20], 5, theta_fixed=0.5, seed=1, oracle_n=100
        )
        assert probe.psi_hat_0 == 0.0
        for row in probe.rows:
            assert row.mean_psi == 0.0
            assert row.mean_scaled == 0.0
            assert row.sd_scaled == 0.0

    def test_rows_depend_only_on_seed_n_and_replicates(self):
        probe_a = objective_convergence_probe(
            PolicyConfig(), [100, 400], 10, theta_fixed=0.3, seed=2, oracle_n=10_000
        )
        probe_b = objective_convergence_probe(
            PolicyConfig(), [400], 10, theta_fixed=0.3, seed=2, oracle_n=10_000
        )
        assert probe_a.rows[1] == probe_b.rows[0]

    def test_invalid_theta_rejected(self):
        with pytest.raises(InputError):
            objective_convergence_probe(PolicyConfig(), [100], 5, theta_fixed=1.5, seed=0)

    def test_single_animal_sample_size_rejected_before_sampling(self, monkeypatch):
        def no_draw(n, p_exposed, rng):
            raise AssertionError("exposures drawn before the sample sizes were checked")

        monkeypatch.setattr(simulation, "_draw_mixed_states", no_draw)
        with pytest.raises(InputError):
            objective_convergence_probe(PolicyConfig(), [1, 10], 2, 0.3, 0, oracle_n=100)


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
        PolicyConfig(), [10], 2, theta_fixed=0.3, seed=seed, oracle_n=100
    ),
}


@pytest.mark.parametrize("seed", [-1, 1.5, None], ids=["negative", "fractional", "none"])
@pytest.mark.parametrize("call", SEEDED_CALLS)
def test_a_seed_numpy_cannot_take_is_a_divtol_error(call, seed):
    error = ConfigurationError if call == "McConfig" else InputError
    with pytest.raises(error, match="seed must be a nonnegative integer"):
        SEEDED_CALLS[call](seed)
