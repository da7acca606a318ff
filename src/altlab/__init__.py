"""Turn-taking benchmark: an episodic race game, alternation metrics,
independent Q-learning, and an experiment harness."""

from .analysis import (
    CALT_RATIO_OFFSET,
    ComparisonRecord,
    PAEquivalent,
    RegressionFit,
    ScalingConfig,
    alt_ratio_from_calt,
    compare,
    coordination_score,
    episodes_for,
    fit_alt_ratio_regression,
    pa_equivalent,
    relative_change,
    synth_pa_mixture,
)
from .errors import (
    AltlabError,
    ComparisonError,
    ConfigError,
    DataError,
    FitError,
    InsufficientDataError,
    SchemaVersionError,
)
from .game import (
    Action,
    EpisodeOutcome,
    GameConfig,
    GameState,
    RewardScheme,
    StateType,
    assign_rewards,
    encode_state,
    initial_state,
    is_terminal,
    next_prev_winners,
    run_episode,
    step,
)
from .harness import (
    ExperimentSpec,
    RunResult,
    SweepResult,
    derive_seed,
    load_run_result,
    read_episode_log,
    run_baseline,
    run_training,
    sweep,
    write_episode_log,
)
from .metrics import (
    VARIANTS,
    MetricPanel,
    alt_score,
    alt_scores,
    compute_panel,
    efficiency,
    fairness,
    reward_fairness,
    tt_fairness,
    window_betas,
)
from .policies import (
    QLearningConfig,
    QLearningPolicy,
    QTable,
    RandomPolicy,
    TrainRun,
    epsilon_at,
    q_update,
    random_action,
    run_random,
    select_action,
    train_run,
)

__version__ = "1.0.0"
