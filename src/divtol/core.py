"""Domain types, divergence metrics, and reward evaluation.

The central quantity is the divergence of an observed action vector ``a``
from a configured optimal action ``a*``:

    L2_SQUARED:  D(a) = sum_j (w_j * (a_j - a*_j))**2
    L1:          D(a) = sum_j |w_j * (a_j - a*_j)|

with optional nonnegative per-component weights ``w`` (all ones by default).
The objective reward of an action is ``-D(a)``; the subjective reward scales
that divergence by a group tolerance: an exposed animal (state 1) with
tolerance parameter ``theta_e`` receives ``-D * theta_e`` and a control
(state 0) receives ``-D * (1 - theta_e)``.  Everything downstream (the
pairwise objective, the simulation study, the CLI) is built on these
functions.

All values here are immutable after construction and the functions are pure,
so they are safe to share across concurrent workers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InputError

__all__ = [
    "Norm",
    "Observation",
    "Dataset",
    "DivergenceSpec",
    "RewardModel",
    "ValidationReport",
    "divergence",
    "objective_reward",
    "subjective_reward",
    "dataset_divergences",
    "validate_dataset",
]


class Norm(Enum):
    """Supported divergence norms (weights apply inside the norm)."""

    L2_SQUARED = "l2"
    L1 = "l1"


def _as_action_array(value, name: str) -> np.ndarray:
    # owned copy: freezing a caller-supplied array in place would be a
    # surprising side effect
    arr = np.array(value, dtype=float, ndmin=1)
    if arr.ndim != 1:
        raise InputError(f"{name} must be a scalar or 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise InputError(f"{name} must have at least one component")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Observation:
    """One animal: an opaque id, a binary exposure state, and an action vector.

    ``state`` is 1 for exposed and 0 for control.  The action may be a scalar
    (stored as a length-1 vector) or a vector, e.g. per-bin mean press counts.
    This is the single-animal value type of :func:`subjective_reward`;
    :class:`Dataset` stores its animals as columns instead.
    """

    id: str
    state: int
    action: np.ndarray

    def __post_init__(self):
        if self.state not in (0, 1):
            raise InputError(f"state must be 0 or 1, got {self.state!r}")
        object.__setattr__(self, "state", int(self.state))
        object.__setattr__(self, "action", _as_action_array(self.action, "action"))

    @property
    def dimension(self) -> int:
        return self.action.shape[0]


@dataclass(frozen=True, eq=False, repr=False)
class Dataset:
    """n animals stored as columns: ids, exposure states and an action matrix.

    ``states`` is a read-only int array of shape (n,) with values in {0, 1};
    ``actions`` is a read-only float array of shape (n, dimension) that the
    dataset owns.  Build datasets with :meth:`from_arrays`; the whole input is
    validated once, at construction.  Non-finite actions are accepted here so
    that :func:`validate_dataset` can report them.
    """

    _ids: tuple[str, ...] | None
    _states: np.ndarray
    _actions: np.ndarray

    def __post_init__(self):
        try:
            acts = np.array(self._actions, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"actions must form an (n, d) numeric array: {exc}") from exc
        if acts.ndim == 1:
            acts = acts[:, None]  # one scalar action per animal
        if acts.ndim != 2:
            raise InputError(
                f"each action must be a scalar or 1-D vector, got actions of shape {acts.shape}"
            )
        n = acts.shape[0]
        if n == 0:
            raise InputError("dataset must contain at least one observation")
        if acts.shape[1] == 0:
            raise InputError("action must have at least one component")
        raw = np.asarray(self._states)
        if raw.ndim != 1 or raw.shape[0] != n:
            raise InputError("actions and states must have equal length")
        if raw.dtype.kind not in "biuf" or not np.all((raw == 0) | (raw == 1)):
            raise InputError("states must be 0 or 1")
        if self._ids is not None:
            ids = tuple(self._ids)
            if len(ids) != n:
                raise InputError(f"got {len(ids)} ids for {n} observations")
            object.__setattr__(self, "_ids", ids)
        states = raw.astype(int)
        states.setflags(write=False)
        acts.setflags(write=False)
        object.__setattr__(self, "_states", states)
        object.__setattr__(self, "_actions", acts)

    def __len__(self) -> int:
        return self._states.shape[0]

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, dimension={self.dimension})"

    @property
    def ids(self) -> tuple[str, ...]:
        """Animal ids; the default ``m0, m1, ...`` is built on first access."""
        if self._ids is None:
            object.__setattr__(self, "_ids", tuple(f"m{i}" for i in range(len(self))))
        return self._ids

    @property
    def dimension(self) -> int:
        return self._actions.shape[1]

    @property
    def states(self) -> np.ndarray:
        """Exposure indicators as a read-only int array of shape (n,)."""
        return self._states

    @property
    def actions(self) -> np.ndarray:
        """Read-only action matrix of shape (n, dimension)."""
        return self._actions

    @property
    def observations(self) -> "_ObservationView":
        """Per-animal view; each :class:`Observation` is built on access."""
        return _ObservationView(self)

    @classmethod
    def from_arrays(
        cls,
        actions: Sequence | np.ndarray,
        states: Sequence[int] | np.ndarray,
        ids: Sequence[str] | None = None,
    ) -> "Dataset":
        """Build a dataset from parallel action/state sequences or arrays.

        Actions are an (n, d) array-like, or n scalars that become length-1
        vectors; ids default to ``m0, m1, ...``.
        """
        return cls(ids, states, actions)


class _ObservationView(Sequence):
    """A dataset's animals as :class:`Observation` values, each built on access."""

    def __init__(self, ds: Dataset):
        self._ds = ds

    def __len__(self) -> int:
        return len(self._ds)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        ds = self._ds
        return Observation(ds.ids[i], int(ds.states[i]), ds.actions[i])


@dataclass(frozen=True)
class DivergenceSpec:
    """Fully defines the divergence: optimal action, norm, and weights.

    Weights rescale each component of ``a - a*`` before the norm is applied;
    they default to all ones so scalar experiments need no weight input.
    """

    optimal: np.ndarray
    norm: Norm = Norm.L2_SQUARED
    weights: np.ndarray | None = None

    def __post_init__(self):
        opt = _as_action_array(self.optimal, "optimal")
        if not np.all(np.isfinite(opt)):
            raise InputError("optimal action must be finite")
        object.__setattr__(self, "optimal", opt)
        if not isinstance(self.norm, Norm):
            raise InputError(f"norm must be a Norm member, got {self.norm!r}")
        if self.weights is not None:
            w = _as_action_array(self.weights, "weights")
            if not np.all(np.isfinite(w)):
                raise InputError("weights must be finite")
            if np.any(w < 0):
                raise InputError("weights must be nonnegative")
            if w.shape != opt.shape:
                raise InputError(
                    f"weights length {w.shape[0]} does not match optimal length {opt.shape[0]}"
                )
            object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return self.optimal.shape[0]

    def effective_weights(self) -> np.ndarray:
        return self.weights if self.weights is not None else np.ones(self.dimension)


@dataclass(frozen=True)
class RewardModel:
    """The exposed group's tolerance parameter, constrained to [0, 1].

    The control group's tolerance is always the complement ``1 - theta_e``
    and is never stored separately.
    """

    theta_e: float

    def __post_init__(self):
        t = float(self.theta_e)
        if not np.isfinite(t) or not 0.0 <= t <= 1.0:
            raise InputError(f"theta_e must lie in [0, 1], got {self.theta_e!r}")
        object.__setattr__(self, "theta_e", t)

    @property
    def theta_c(self) -> float:
        return 1.0 - self.theta_e


def _weighted_residual(action, spec: DivergenceSpec) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(action, dtype=float))
    if arr.ndim != 1 or arr.shape != spec.optimal.shape:
        raise InputError(
            f"action length {arr.shape} does not match optimal length {spec.optimal.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InputError("action must be finite")
    return spec.effective_weights() * (arr - spec.optimal)


def divergence(action, spec: DivergenceSpec) -> float:
    """Weighted divergence of an action from the optimal action.

    Nonnegative; zero exactly when every weighted component of ``a - a*``
    vanishes.
    """
    r = _weighted_residual(action, spec)
    if spec.norm is Norm.L2_SQUARED:
        return float(np.dot(r, r))
    return float(np.sum(np.abs(r)))


def objective_reward(action, spec: DivergenceSpec) -> float:
    """Group-free reward: the negated divergence from optimality."""
    return -divergence(action, spec)


def subjective_reward(model: RewardModel, obs: Observation, spec: DivergenceSpec) -> float:
    """Divergence scaled by the group tolerance.

    Exposed animals (state 1) are weighted by ``theta_e``, controls by
    ``1 - theta_e``; higher tolerance for divergence means a smaller weight,
    hence a reward closer to zero for the same divergence.
    """
    d = divergence(obs.action, spec)
    weight = model.theta_e if obs.state == 1 else model.theta_c
    return -d * weight


def dataset_divergences(ds: Dataset, spec: DivergenceSpec) -> np.ndarray:
    """Per-observation divergences as a float array of shape (n,).

    Vectorized equivalent of calling :func:`divergence` per observation.
    """
    if spec.dimension != ds.dimension:
        raise InputError(
            f"spec dimension {spec.dimension} does not match dataset dimension {ds.dimension}"
        )
    acts = ds.actions
    if not np.all(np.isfinite(acts)):
        raise InputError("actions must be finite")
    resid = spec.effective_weights()[None, :] * (acts - spec.optimal[None, :])
    if spec.norm is Norm.L2_SQUARED:
        return np.einsum("ij,ij->i", resid, resid)
    return np.sum(np.abs(resid), axis=1)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_dataset`: an empty report means estimable."""

    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_dataset(ds: Dataset) -> ValidationReport:
    """Report every violation of the dataset invariants.

    Checks, without raising: finiteness of actions, a minimum of two
    observations, and the presence of both exposure groups.  Shape and state
    invariants are enforced when the dataset is built.
    """
    violations = [
        f"non-finite action: observation {ds.ids[i]!r}"
        for i in np.flatnonzero(~np.isfinite(ds.actions).all(axis=1))
    ]
    if len(ds) < 2:
        violations.append("fewer than two observations")
    states = ds.states
    if states.max() != 1:
        violations.append("missing exposed group")
    if states.min() != 0:
        violations.append("missing control group")
    return ValidationReport(violations=tuple(violations))
