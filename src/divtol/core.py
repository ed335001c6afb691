"""Domain types, the divergence metric, and dataset validation.

The central quantity is the divergence of an observed action vector ``a``
from a configured optimal action ``a*``:

    L2_SQUARED:  D(a) = sum_j (w_j * (a_j - a*_j))**2
    L1:          D(a) = sum_j |w_j * (a_j - a*_j)|

with optional nonnegative per-component weights ``w`` (all ones by default).
:func:`dataset_divergences` computes it for every animal of a
:class:`Dataset` at once.  The rewards that scale it by a group tolerance
(``-D * theta_e`` for exposed animals, ``-D * (1 - theta_e)`` for controls)
are formed in :mod:`divtol.estimator`.

All values here are immutable after construction and the functions are pure,
so they are safe to share across concurrent workers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InputError

__all__ = [
    "Norm",
    "Observation",
    "Dataset",
    "DivergenceSpec",
    "ValidationReport",
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


class Observation(NamedTuple):
    """One animal: one row of a :class:`Dataset`, as its view yields it.

    ``state`` is 1 for exposed and 0 for control; ``action`` is the dataset's
    read-only action row.  The dataset has validated both, so nothing is
    checked or copied here.
    """

    id: str
    state: int
    action: np.ndarray


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


def dataset_divergences(ds: Dataset, spec: DivergenceSpec) -> np.ndarray:
    """Per-observation divergences as a float array of shape (n,).

    Nonnegative; zero exactly where every weighted component of ``a - a*``
    vanishes.  Not finite where a divergence is too large for a float.
    """
    if spec.dimension != ds.dimension:
        raise InputError(
            f"spec dimension {spec.dimension} does not match dataset dimension {ds.dimension}"
        )
    acts = ds.actions
    if not np.all(np.isfinite(acts)):
        raise InputError("actions must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
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
