"""Turn-taking benchmark: an episodic race game, alternation metrics,
independent Q-learning, and an experiment harness."""

from .analysis import compare, episodes_for, synth_pa_mixture
from .errors import (
    AltlabError,
    ComparisonError,
    ConfigError,
    DataError,
    InsufficientDataError,
    SchemaVersionError,
)
from .game import GameConfig, RewardScheme, StateType
from .metrics import alt_score, compute_panel
from .policies import QLearningConfig, run_random, train_run

__version__ = "1.0.0"
