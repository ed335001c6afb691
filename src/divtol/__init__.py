"""Tolerance-for-divergence estimation for fixed-interval operant experiments.

Instead of modeling the behavioral policy (how an animal's actions depend on
its exposure), this package models the reward: each action's divergence from
a configured optimal action, scaled by a per-group tolerance parameter
``theta_e`` in [0, 1] with the control group at ``1 - theta_e``.  Minimizing
the mean squared difference of subjective rewards over all animal pairs
yields the estimate; ``theta_e < 0.5`` means the exposed group tolerates
divergence from optimality more than the controls.
"""

from .core import (
    Dataset,
    DivergenceSpec,
    Norm,
    Observation,
    dataset_divergences,
    validate_dataset,
)
from .errors import (
    ConfigurationError,
    DataError,
    DegenerateObjectiveError,
    DivtolError,
    EstimationError,
    InferenceError,
    InputError,
    LinkageError,
    ParseError,
    SchemaError,
    StudyError,
)
from .estimator import (
    CurveSamples,
    EstimateResult,
    bootstrap_ci,
    estimate_theta,
    pairwise_objective,
    reward_curves,
    variance_objective,
)
from .ingest import (
    Events,
    Sessions,
    StudyLayout,
    assemble_dataset,
    average_sessions,
    bin_events,
    parse_binned_counts,
    parse_events,
    parse_exposures,
)
from .simulation import (
    AnovaFit,
    McConfig,
    McResult,
    PolicyConfig,
    ProbeResult,
    ProbeRow,
    RealizedPolicy,
    SweepRow,
    consistency_sweep,
    draw_policy,
    fit_anova,
    generate_dataset,
    generate_study_dataset,
    objective_convergence_probe,
    run_monte_carlo,
)

__version__ = "0.1.0"
