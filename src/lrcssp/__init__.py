"""Optimistic learning of linear contextual stochastic shortest paths."""

from .errors import (
    ConfigError,
    ImproperPolicyError,
    LrcsspError,
    NonConvergenceError,
    ProtocolError,
    StructuralError,
)
from .ssp import (
    GOAL,
    SspInstance,
    expected_hitting_time,
    policy_evaluation,
    value_iteration,
)
from .linear_model import (
    GeneratorSpec,
    LinearCsspModel,
    context_sequence,
    generate_instance,
    induce_ssp,
    validate_context,
)
from .estimation import (
    Estimates,
    SaStatistics,
    capped_simplex_projection,
    dynamics_radius,
    loss_radius,
    project_to_stochastic,
)
from .learner import (
    EpisodeLog,
    LearnerConfig,
    RunLog,
    auto_epsilon,
    evi_plan,
    run,
)
from .harness import (
    ExperimentConfig,
    baseline_context_blind,
    compute_regret,
    hpe_diagnostics,
    oracle_values,
    run_experiment,
)

__version__ = "0.1.0"
