"""Divergence metrics, the reward law, and dataset validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divtol import (
    Dataset,
    DivergenceSpec,
    InputError,
    Norm,
    dataset_divergences,
    pairwise_objective,
    validate_dataset,
    variance_objective,
)
from divtol.estimator import _rewards

SIXTY_MINUS_MIDPOINTS = 60.0 - (np.arange(12) + 0.5) * 5.0


def vector_spec(norm=Norm.L2_SQUARED, weights=None):
    optimal = np.r_[1.0, np.zeros(11)]
    return DivergenceSpec(optimal=optimal, norm=norm, weights=weights)


def reference_divergence(action, spec):
    """Scalar oracle for :func:`dataset_divergences`: one action at a time."""
    r = spec.effective_weights() * (np.asarray(action, dtype=float) - spec.optimal)
    if spec.norm is Norm.L2_SQUARED:
        return float(np.dot(r, r))
    return float(np.sum(np.abs(r)))


def one_divergence(action, spec):
    ds = Dataset.from_arrays(actions=[np.atleast_1d(action)], states=[1])
    return float(dataset_divergences(ds, spec)[0])


def rewards(theta, ds, spec):
    """The rewards the estimator minimizes over."""
    return _rewards(theta, dataset_divergences(ds, spec), ds.states)


def full_weight_rewards(ds, spec):
    """Each animal's reward at full weight (theta 1 if exposed, 0 if control)."""
    return _rewards(ds.states, dataset_divergences(ds, spec), ds.states)


class TestDivergence:
    def test_zero_at_optimal(self):
        spec = vector_spec(weights=SIXTY_MINUS_MIDPOINTS)
        assert one_divergence(spec.optimal, spec) == 0.0

    def test_scalar_squared_distance(self):
        spec = DivergenceSpec(optimal=np.array([1.0]))
        assert one_divergence(3.0, spec) == 4.0

    def test_weighted_unit_bump(self):
        # a unit bump in the second bin picks up exactly that bin's weight
        spec = vector_spec(weights=SIXTY_MINUS_MIDPOINTS)
        action = spec.optimal.copy()
        action[1] += 1.0
        assert one_divergence(action, spec) == pytest.approx(52.5**2, rel=1e-12)
        assert one_divergence(action, spec) == reference_divergence(action, spec)

    def test_l1_applies_weights_inside_absolute_value(self):
        spec = DivergenceSpec(
            optimal=np.array([0.0, 0.0]), norm=Norm.L1, weights=np.array([2.0, 3.0])
        )
        assert one_divergence([1.0, -1.0], spec) == 5.0
        assert reference_divergence([1.0, -1.0], spec) == 5.0

    def test_dimension_mismatch_rejected(self):
        spec = DivergenceSpec(optimal=np.array([1.0, 0.0]))
        with pytest.raises(InputError):
            one_divergence(1.0, spec)

    def test_non_finite_action_rejected(self):
        spec = DivergenceSpec(optimal=np.array([1.0]))
        with pytest.raises(InputError):
            one_divergence(np.nan, spec)

    def test_vectorized_matches_per_observation(self):
        rng = np.random.default_rng(3)
        ds = Dataset.from_arrays(
            actions=rng.normal(size=(7, 12)), states=rng.integers(0, 2, size=7)
        )
        for norm in Norm:
            spec = vector_spec(norm=norm, weights=SIXTY_MINUS_MIDPOINTS)
            batch = dataset_divergences(ds, spec)
            single = [reference_divergence(o.action, spec) for o in ds.observations]
            np.testing.assert_allclose(batch, single, rtol=1e-12)


class TestObjectiveReward:
    """The objective reward ``-D`` is each animal's reward at full weight."""

    def test_zero_at_optimal(self):
        spec = DivergenceSpec(optimal=np.array([2.0]))
        ds = Dataset.from_arrays(actions=[[2.0], [2.0]], states=[1, 0])
        assert full_weight_rewards(ds, spec).tolist() == [0.0, 0.0]
        for theta in (0.0, 0.3, 1.0):
            assert rewards(theta, ds, spec).tolist() == [0.0, 0.0]

    def test_ordering_matches_closeness_to_optimal(self):
        # one unit away beats two units away, in either group
        spec = DivergenceSpec(optimal=np.array([0.0]))
        for state in (0, 1):
            ds = Dataset.from_arrays(actions=[[1.0], [2.0]], states=[state, state])
            near, far = full_weight_rewards(ds, spec)
            assert near > far

    def test_negated_divergence_against_plain_loop(self):
        rng = np.random.default_rng(4)
        spec = vector_spec(weights=SIXTY_MINUS_MIDPOINTS)
        ds = Dataset.from_arrays(actions=rng.normal(size=(20, 12)), states=rng.integers(0, 2, 20))
        expected = [
            -sum((w * (x - o)) ** 2 for w, x, o in zip(SIXTY_MINUS_MIDPOINTS, a, spec.optimal))
            for a in ds.actions
        ]
        np.testing.assert_allclose(full_weight_rewards(ds, spec), expected, rtol=1e-12)


class TestSubjectiveReward:
    def test_equal_rewards_across_groups(self):
        # divergence 1 at full weight equals divergence 4 at quarter weight
        spec = DivergenceSpec(optimal=np.array([0.0]))
        ds = Dataset.from_arrays(actions=[[1.0], [2.0], [2.0]], states=[1, 1, 0])
        assert rewards(1.0, ds, spec)[0] == -1.0
        assert rewards(0.25, ds, spec)[1] == -1.0
        assert rewards(0.75, ds, spec)[2] == -1.0

    def test_zero_tolerance_weight_ignores_action(self):
        # at theta 0 the exposed actions do not change the objective
        spec = DivergenceSpec(optimal=np.array([0.0]))
        controls = [[1.0], [4.0]]
        near = Dataset.from_arrays(actions=[[0.5], *controls], states=[1, 0, 0])
        far = Dataset.from_arrays(actions=[[123.0], *controls], states=[1, 0, 0])
        assert rewards(0.0, far, spec)[0] == 0.0
        assert variance_objective(0.0, near, spec) == variance_objective(0.0, far, spec)
        assert pairwise_objective(0.0, near, spec) == pairwise_objective(0.0, far, spec)

    def test_two_group_equality_at_one_fifth(self):
        spec = DivergenceSpec(optimal=np.array([1.0]))
        ds = Dataset.from_arrays(actions=[[3.0], [2.0]], states=[1, 0])
        np.testing.assert_allclose(rewards(0.2, ds, spec), [-0.8, -0.8])
        assert variance_objective(0.2, ds, spec) == pytest.approx(0.0, abs=1e-15)
        assert pairwise_objective(0.2, ds, spec) == pytest.approx(0.0, abs=1e-15)


class TestRewardModel:
    """The reward law the estimator runs: ``-D * theta`` or ``-D * (1 - theta)``."""

    def test_theta_c_is_complement(self):
        spec = DivergenceSpec(optimal=np.array([0.0]))
        ds = Dataset.from_arrays(actions=[[2.0], [2.0]], states=[1, 0])
        exposed, control = rewards(0.3, ds, spec)
        assert exposed == pytest.approx(-0.3 * 4.0)
        assert control == pytest.approx(-0.7 * 4.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_out_of_range_rejected(self, bad):
        spec = DivergenceSpec(optimal=np.array([0.0]))
        ds = Dataset.from_arrays(actions=[[2.0], [1.0]], states=[1, 0])
        for objective in (variance_objective, pairwise_objective):
            with pytest.raises(InputError):
                objective(bad, ds, spec)


class TestValidateDataset:
    def test_clean_two_group_dataset(self):
        ds = Dataset.from_arrays(actions=[[1.0], [2.0]], states=[1, 0])
        assert validate_dataset(ds).ok

    def test_missing_control_group(self):
        ds = Dataset.from_arrays(actions=[[1.0], [2.0]], states=[1, 1])
        report = validate_dataset(ds)
        assert any("missing control group" in v for v in report.violations)

    def test_missing_exposed_group(self):
        ds = Dataset.from_arrays(actions=[[1.0], [2.0]], states=[0, 0])
        report = validate_dataset(ds)
        assert any("missing exposed group" in v for v in report.violations)

    def test_non_finite_action_reported(self):
        ds = Dataset.from_arrays(actions=[[np.inf], [2.0]], states=[1, 0])
        report = validate_dataset(ds)
        assert any("non-finite action" in v for v in report.violations)

    def test_singleton_reported(self):
        ds = Dataset.from_arrays(actions=[[1.0]], states=[1])
        report = validate_dataset(ds)
        assert any("fewer than two" in v for v in report.violations)


class TestConstruction:
    def test_observation_state_must_be_binary(self):
        ds = Dataset.from_arrays(actions=[[1.0], [2.0]], states=np.array([1.0, 0.0]))
        assert [(o.state, type(o.state)) for o in ds.observations] == [(1, int), (0, int)]
        with pytest.raises(InputError):
            Dataset.from_arrays(actions=[[1.0], [2.0]], states=[1, 2])

    def test_action_must_be_one_dimensional(self):
        with pytest.raises(InputError):
            Dataset.from_arrays(actions=np.ones((2, 2, 2)), states=[1, 0])
        with pytest.raises(InputError):
            DivergenceSpec(optimal=np.ones((2, 2)))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(InputError):
            DivergenceSpec(optimal=np.array([0.0]), weights=np.array([-1.0]))

    def test_weights_length_must_match(self):
        with pytest.raises(InputError):
            DivergenceSpec(optimal=np.array([0.0, 1.0]), weights=np.array([1.0]))

    def test_ragged_actions_rejected(self):
        # a dataset is one (n, d) matrix, so rows of unequal length cannot exist
        with pytest.raises(InputError):
            Dataset.from_arrays(actions=[[1.0, 2.0], [3.0, 4.0, 5.0]], states=[1, 0])

    def test_scalar_actions_become_one_column(self):
        ds = Dataset.from_arrays(actions=[3.0, 2.0, 1.0], states=[1, 0, 1], ids=["a", "b", "c"])
        assert ds.actions.shape == (3, 1) and ds.dimension == 1
        assert ds.ids == ("a", "b", "c")
        assert ds.states.tolist() == [1, 0, 1]

    def test_default_ids_are_built_on_first_access(self):
        ds = Dataset.from_arrays(actions=[[1.0], [np.nan], [2.0]], states=[1, 0, 0])
        assert vars(ds)["_ids"] is None
        assert ds.ids == ("m0", "m1", "m2")
        assert ds.ids is ds.ids
        assert ds.observations[1].id == "m1"
        assert validate_dataset(ds).violations == ("non-finite action: observation 'm1'",)

    @pytest.mark.parametrize(
        "actions, states, ids",
        [
            ([], [], None),
            ([[1.0], [2.0]], [1, 2], None),
            ([[1.0], [2.0]], [0.5, 1], None),
            ([[1.0], [2.0]], [1], None),
            ([[1.0], [2.0]], [1, 0], ["only-one"]),
            (np.ones((2, 0)), [1, 0], None),
        ],
    )
    def test_dataset_invariants_enforced_at_construction(self, actions, states, ids):
        with pytest.raises(InputError):
            Dataset.from_arrays(actions=actions, states=states, ids=ids)

    def test_dataset_columns_are_read_only_and_owned(self):
        mine = np.ones((3, 2))
        ds = Dataset.from_arrays(actions=mine, states=np.array([1, 0, 1]))
        mine[0, 0] = 9.0
        assert ds.actions[0, 0] == 1.0
        with pytest.raises(ValueError):
            ds.actions[0, 0] = 2.0
        with pytest.raises(ValueError):
            ds.states[0] = 0

    def test_action_arrays_are_read_only(self):
        ds = Dataset.from_arrays(actions=[[1.0], [2.0]], states=[1, 0])
        obs = ds.observations[0]
        with pytest.raises(ValueError):
            obs.action[0] = 2.0
        spec = DivergenceSpec(optimal=np.array([1.0]), weights=np.array([2.0]))
        with pytest.raises(ValueError):
            spec.optimal[0] = 2.0
        with pytest.raises(ValueError):
            spec.weights[0] = 1.0

    def test_caller_arrays_are_not_frozen_or_aliased(self):
        mine = np.array([1.0, 2.0])
        ds = Dataset.from_arrays(actions=[mine], states=[1])
        spec = DivergenceSpec(optimal=mine)
        mine[0] = 9.0
        assert ds.observations[0].action[0] == 1.0
        assert spec.optimal[0] == 1.0


# magnitudes are kept either exactly zero or >= 1e-6 so products cannot
# underflow to zero and spoil the "zero iff" direction
_clear_of_underflow = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=100.0, allow_nan=False),
    st.floats(min_value=-100.0, max_value=-1e-6, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    action=st.lists(_clear_of_underflow, min_size=1, max_size=8),
    norm=st.sampled_from([Norm.L2_SQUARED, Norm.L1]),
    data=st.data(),
)
def test_divergence_nonnegative_and_zero_iff_weighted_residual_vanishes(action, norm, data):
    d = len(action)
    optimal = data.draw(st.lists(_clear_of_underflow, min_size=d, max_size=d))
    weights = data.draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)),
            min_size=d,
            max_size=d,
        )
    )
    spec = DivergenceSpec(optimal=np.array(optimal), norm=norm, weights=np.array(weights))
    value = one_divergence(np.array(action), spec)
    assert value >= 0.0
    assert value == pytest.approx(reference_divergence(action, spec), rel=1e-12)
    residual = np.array(weights) * (np.array(action) - np.array(optimal))
    if np.all(residual == 0.0):
        assert value == 0.0
    elif value == 0.0:
        assert np.all(residual == 0.0)


_actions = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=2, max_size=8
)


@st.composite
def _labelled_actions(draw):
    actions = draw(_actions)
    states = draw(st.lists(st.sampled_from([0, 1]), min_size=len(actions), max_size=len(actions)))
    return Dataset.from_arrays(actions=actions, states=states)


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False), ds=_labelled_actions())
def test_group_symmetry_of_subjective_reward(theta, ds):
    # flipping every state and theta -> 1 - theta swaps the roles of the groups
    spec = DivergenceSpec(optimal=np.array([1.0]))
    flipped = Dataset.from_arrays(actions=ds.actions, states=1 - ds.states)
    scale = 1.0 + float(np.max(dataset_divergences(ds, spec)))
    np.testing.assert_allclose(
        rewards(theta, ds, spec), rewards(1.0 - theta, flipped, spec), rtol=0, atol=1e-12 * scale
    )
    assert variance_objective(theta, ds, spec) == pytest.approx(
        variance_objective(1.0 - theta, flipped, spec), rel=1e-9, abs=1e-12 * scale**2
    )


@settings(max_examples=100, deadline=None)
@given(ds=_labelled_actions(), data=st.data())
def test_half_tolerance_treats_groups_identically(ds, data):
    # at theta 0.5 the objective does not depend on the state labels
    spec = DivergenceSpec(optimal=np.array([1.0]))
    n = len(ds)
    relabelled = Dataset.from_arrays(
        actions=ds.actions, states=data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    )
    np.testing.assert_array_equal(rewards(0.5, ds, spec), -0.5 * dataset_divergences(ds, spec))
    assert variance_objective(0.5, ds, spec) == variance_objective(0.5, relabelled, spec)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    b=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    states=st.sampled_from([[1, 1], [1, 0], [0, 1], [0, 0]]),
)
def test_objective_reward_reverses_divergence_ordering(a, b, states):
    spec = DivergenceSpec(optimal=np.array([0.7]))
    ds = Dataset.from_arrays(actions=[a, b], states=states)
    da, db = dataset_divergences(ds, spec)
    ra, rb = full_weight_rewards(ds, spec)
    if da < db:
        assert ra > rb
    elif da > db:
        assert ra < rb
    else:
        assert ra == rb
