"""Exact variance analysis and optimal baselines for multi-agent policy
gradients on finite Markov games.

The package computes, in closed form, the per-timestep variance of four
gradient-estimator families (centralized signal, per-agent marginal signal,
counterfactual-baseline signal, and the variance-optimal-baseline signal),
verifies the decomposition identities and bounds behind them by brute-force
enumeration, and trains tabular actors with any of the baselines swapped
into the advantage slot. Everything is deterministic given a seed.
"""

from .baselines import (
    BaselineKind,
    BaselineTag,
    coma_baseline,
    ob_surrogate_discrete,
    ob_surrogate_gaussian,
)
from .estimators import (
    EstimatorKind,
    EstimatorTag,
    default_horizon,
    exact_policy_gradient,
    marginal_q_rows,
    param_dim,
    rollout,
    signal_table,
)
from .games import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    MarkovGame,
    load_game,
    parse_game,
    random_game,
    save_game,
    serialize_game,
)
from .policies import (
    DegeneratePolicy,
    JointPolicy,
    SoftmaxPolicy,
    check_policy_fits,
    gaussian_log_prob_grad,
    joint_action_prob_table,
    load_policy,
    policy_from_dict,
    policy_to_dict,
    random_softmax_policy,
    save_policy,
    score_geometry,
    softmax_probs,
    uniform_policy,
    x_measure_softmax,
)
from .toy import ToyReport, run_toy, toy_game, toy_policy
from .training import (
    ContinuousOneStepTask,
    CriticConfig,
    CriticState,
    DivergenceError,
    PPOConfig,
    TrainConfig,
    TrainHistory,
    TrainResult,
    config_from_dict,
    config_to_dict,
    init_critic,
    load_checkpoint,
    save_checkpoint,
    td_learn_q,
    train,
    train_gaussian,
)
from .values import (
    SingularSystem,
    ValueTables,
    advantage_decomposition,
    agent_subset,
    marginal_q_lattice,
    policy_transition,
    solve_values,
    state_distributions,
)
from .variance import (
    BoundConstants,
    BoundReport,
    ExcessVarianceBounds,
    StepMoments,
    VarianceReport,
    advantage_variance_bound,
    advantage_variance_identity,
    baseline_excess_variance,
    bound_constants,
    build_variance_report,
    centralized_gap_bound,
    coma_gap_bound,
    excess_variance_bounds,
    expected_score_norm_sq,
    gap_bounds,
    local_variance,
    mc_variance,
    per_timestep_variances,
    step_moments,
)

__version__ = "0.1.0"
