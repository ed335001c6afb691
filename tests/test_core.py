"""Divergence metrics, reward evaluation, and dataset validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divtol import (
    Dataset,
    DivergenceSpec,
    InputError,
    Norm,
    Observation,
    RewardModel,
    dataset_divergences,
    divergence,
    objective_reward,
    subjective_reward,
    validate_dataset,
)

SIXTY_MINUS_MIDPOINTS = 60.0 - (np.arange(12) + 0.5) * 5.0


def vector_spec(norm=Norm.L2_SQUARED, weights=None):
    optimal = np.r_[1.0, np.zeros(11)]
    return DivergenceSpec(optimal=optimal, norm=norm, weights=weights)


class TestDivergence:
    def test_zero_at_optimal(self):
        spec = vector_spec(weights=SIXTY_MINUS_MIDPOINTS)
        assert divergence(spec.optimal, spec) == 0.0

    def test_scalar_squared_distance(self):
        spec = DivergenceSpec(optimal=np.array([1.0]))
        assert divergence(np.array([3.0]), spec) == 4.0

    def test_weighted_unit_bump(self):
        # a unit bump in the second bin picks up exactly that bin's weight
        spec = vector_spec(weights=SIXTY_MINUS_MIDPOINTS)
        action = spec.optimal.copy()
        action[1] += 1.0
        assert divergence(action, spec) == pytest.approx(52.5**2, rel=1e-12)
        assert divergence(action, spec) == pytest.approx(2756.25, rel=1e-12)

    def test_l1_applies_weights_inside_absolute_value(self):
        spec = DivergenceSpec(
            optimal=np.array([0.0, 0.0]), norm=Norm.L1, weights=np.array([2.0, 3.0])
        )
        assert divergence(np.array([1.0, -1.0]), spec) == 5.0

    def test_dimension_mismatch_rejected(self):
        spec = DivergenceSpec(optimal=np.array([1.0, 0.0]))
        with pytest.raises(InputError):
            divergence(np.array([1.0]), spec)

    def test_non_finite_action_rejected(self):
        spec = DivergenceSpec(optimal=np.array([1.0]))
        with pytest.raises(InputError):
            divergence(np.array([np.nan]), spec)

    def test_vectorized_matches_per_observation(self):
        rng = np.random.default_rng(3)
        ds = Dataset.from_arrays(
            actions=rng.normal(size=(7, 12)), states=rng.integers(0, 2, size=7)
        )
        spec = vector_spec(norm=Norm.L1, weights=SIXTY_MINUS_MIDPOINTS)
        batch = dataset_divergences(ds, spec)
        single = [divergence(o.action, spec) for o in ds.observations]
        np.testing.assert_allclose(batch, single, rtol=1e-12)


class TestObjectiveReward:
    def test_zero_at_optimal(self):
        spec = DivergenceSpec(optimal=np.array([2.0]))
        assert objective_reward(np.array([2.0]), spec) == 0.0

    def test_ordering_matches_closeness_to_optimal(self):
        # one unit away beats two units away
        spec = DivergenceSpec(optimal=np.array([0.0]))
        assert objective_reward(np.array([1.0]), spec) > objective_reward(np.array([2.0]), spec)

    def test_negated_divergence_against_plain_loop(self):
        rng = np.random.default_rng(4)
        spec = vector_spec(weights=SIXTY_MINUS_MIDPOINTS)
        for _ in range(20):
            a = rng.normal(size=12)
            expected = -sum(
                (w * (x - o)) ** 2
                for w, x, o in zip(SIXTY_MINUS_MIDPOINTS, a, spec.optimal)
            )
            assert objective_reward(a, spec) == pytest.approx(expected, rel=1e-12)


class TestSubjectiveReward:
    def test_equal_rewards_across_groups(self):
        # divergence 1 at full weight equals divergence 4 at quarter weight
        spec = DivergenceSpec(optimal=np.array([0.0]))
        near = Observation("near", 1, np.array([1.0]))
        far = Observation("far", 1, np.array([2.0]))
        assert subjective_reward(RewardModel(1.0), near, spec) == -1.0
        assert subjective_reward(RewardModel(0.25), far, spec) == -1.0

    def test_zero_tolerance_weight_ignores_action(self):
        spec = DivergenceSpec(optimal=np.array([0.0]))
        obs = Observation("m", 1, np.array([123.0]))
        assert subjective_reward(RewardModel(0.0), obs, spec) == 0.0

    def test_two_group_equality_at_one_fifth(self):
        spec = DivergenceSpec(optimal=np.array([1.0]))
        exposed = Observation("e", 1, np.array([3.0]))
        control = Observation("c", 0, np.array([2.0]))
        model = RewardModel(0.2)
        assert subjective_reward(model, exposed, spec) == pytest.approx(-0.8)
        assert subjective_reward(model, control, spec) == pytest.approx(-0.8)


class TestRewardModel:
    def test_theta_c_is_complement(self):
        assert RewardModel(0.3).theta_c == pytest.approx(0.7)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(InputError):
            RewardModel(bad)


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
        with pytest.raises(InputError):
            Observation("m", 2, np.array([1.0]))

    def test_action_must_be_one_dimensional(self):
        with pytest.raises(InputError):
            Observation("m", 1, np.ones((2, 2)))

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
        obs = Observation("m", 1, np.array([1.0]))
        with pytest.raises(ValueError):
            obs.action[0] = 2.0

    def test_caller_arrays_are_not_frozen_or_aliased(self):
        mine = np.array([1.0, 2.0])
        obs = Observation("m", 1, mine)
        mine[0] = 9.0
        assert obs.action[0] == 1.0


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
    value = divergence(np.array(action), spec)
    assert value >= 0.0
    residual = np.array(weights) * (np.array(action) - np.array(optimal))
    if np.all(residual == 0.0):
        assert value == 0.0
    elif value == 0.0:
        assert np.all(residual == 0.0)


@settings(max_examples=100, deadline=None)
@given(
    theta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    action=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
def test_group_symmetry_of_subjective_reward(theta, action):
    # reweighting theta -> 1 - theta swaps the roles of the two groups
    spec = DivergenceSpec(optimal=np.array([1.0]))
    exposed = Observation("e", 1, np.array([action]))
    control = Observation("c", 0, np.array([action]))
    lhs = subjective_reward(RewardModel(theta), exposed, spec)
    rhs = subjective_reward(RewardModel(1.0 - theta), control, spec)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(action=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), state=st.sampled_from([0, 1]))
def test_half_tolerance_treats_groups_identically(action, state):
    spec = DivergenceSpec(optimal=np.array([1.0]))
    obs = Observation("m", state, np.array([action]))
    expected = -0.5 * divergence(obs.action, spec)
    assert subjective_reward(RewardModel(0.5), obs, spec) == pytest.approx(expected)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    b=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
def test_objective_reward_reverses_divergence_ordering(a, b):
    spec = DivergenceSpec(optimal=np.array([0.7]))
    da, db = divergence(np.array([a]), spec), divergence(np.array([b]), spec)
    ra, rb = objective_reward(np.array([a]), spec), objective_reward(np.array([b]), spec)
    if da < db:
        assert ra > rb
    elif da > db:
        assert ra < rb
    else:
        assert ra == rb
