"""Agent policies: uniform random and independent tabular Q-learning.

Each learning agent keeps its own Q-table over encoded observations;
agents never read one another's tables.  Exploration follows a linear
epsilon schedule that is synchronized across agents within an episode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .game import (
    Action,
    EpisodeOutcome,
    GameConfig,
    next_prev_winners,
    run_episode,
)


@dataclass(frozen=True)
class QLearningConfig:
    """Tabular Q-learning hyperparameters.

    Epsilon decays linearly from ``epsilon_initial`` to ``epsilon_min``,
    reaching the floor after ``decay_end_fraction`` of the run.
    """

    gamma: float = 0.999
    alpha: float = 0.3
    epsilon_initial: float = 0.9
    epsilon_min: float = 0.004
    decay_end_fraction: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.epsilon_min <= self.epsilon_initial <= 1.0:
            raise ConfigError(
                f"need 0 <= epsilon_min <= epsilon_initial <= 1, got "
                f"{self.epsilon_min}, {self.epsilon_initial}"
            )
        if not 0.0 < self.decay_end_fraction <= 1.0:
            raise ConfigError(
                f"decay_end_fraction must be in (0, 1], got {self.decay_end_fraction}"
            )


class QTable:
    """Action-value table with an implicit 0.0 default.

    Lookups of unseen state-action pairs return the default without
    inserting anything, so the table only grows on updates.
    """

    default_value = 0.0

    def __init__(self) -> None:
        self._rows: dict[tuple[int, ...], list[float]] = {}

    def get(self, key: tuple[int, ...], action: Action) -> float:
        row = self._rows.get(key)
        return row[action] if row is not None else self.default_value

    def max_value(self, key: tuple[int, ...]) -> float:
        row = self._rows.get(key)
        return max(row) if row is not None else self.default_value

    def set(self, key: tuple[int, ...], action: Action, value: float) -> None:
        row = self._rows.get(key)
        if row is None:
            row = [self.default_value, self.default_value]
            self._rows[key] = row
        row[action] = value

    def __len__(self) -> int:
        return len(self._rows)

    def items(self):
        return self._rows.items()

    def max_abs_value(self) -> float:
        return max((abs(v) for row in self._rows.values() for v in row), default=0.0)

    def dump(self, path) -> None:
        """Write one ``state -> (q_stay, q_move)`` line per visited state."""
        with open(path, "w", encoding="utf-8") as fh:
            for key in sorted(self._rows):
                q_stay, q_move = self._rows[key]
                fh.write(f"{','.join(map(str, key))} {q_stay!r} {q_move!r}\n")


def random_action(rng: np.random.Generator) -> Action:
    """Uniform draw over Stay and Move."""
    return Action(int(rng.integers(0, 2)))


def epsilon_at(episode_index: int, total_episodes: int, cfg: QLearningConfig | None = None) -> float:
    """Exploration rate for the given episode of a run.

    Linear from ``epsilon_initial`` at episode 0 down to ``epsilon_min``
    at ``floor(decay_end_fraction * total_episodes)``, constant after.
    """
    cfg = cfg or QLearningConfig()
    if total_episodes < 1:
        raise ConfigError(f"total_episodes must be >= 1, got {total_episodes}")
    if not 0 <= episode_index < total_episodes:
        raise ConfigError(
            f"episode_index {episode_index} outside run of {total_episodes} episodes"
        )
    decay_end = math.floor(cfg.decay_end_fraction * total_episodes)
    if episode_index >= decay_end or decay_end == 0:
        return cfg.epsilon_min
    frac = episode_index / decay_end
    return cfg.epsilon_initial + (cfg.epsilon_min - cfg.epsilon_initial) * frac


def select_action(
    q: QTable, key: tuple[int, ...], epsilon: float, rng: np.random.Generator
) -> Action:
    """Epsilon-greedy action; exact Q ties are broken uniformly."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return random_action(rng)
    q_stay = q.get(key, Action.STAY)
    q_move = q.get(key, Action.MOVE)
    if q_stay == q_move:
        return random_action(rng)
    return Action.MOVE if q_move > q_stay else Action.STAY


def q_update(
    q: QTable,
    key: tuple[int, ...],
    action: Action,
    reward: float,
    next_key: tuple[int, ...],
    terminal: bool,
    cfg: QLearningConfig,
) -> QTable:
    """One-step Q-learning update; terminal transitions bootstrap to 0."""
    if not math.isfinite(reward):
        raise DataError(f"non-finite reward {reward!r}")
    target = reward if terminal else reward + cfg.gamma * q.max_value(next_key)
    old = q.get(key, action)
    q.set(key, action, old + cfg.alpha * (target - old))
    return q


class RandomPolicy:
    """Acts uniformly at random and learns nothing."""

    def act(self, key, epsilon, rng) -> Action:
        return random_action(rng)

    def observe(self, key, action, reward, next_key, terminal) -> None:
        pass


class QLearningPolicy:
    """Independent learner over its own Q-table.

    Set ``learning`` to False to freeze the table (greedy evaluation).
    """

    def __init__(self, cfg: QLearningConfig, table: QTable | None = None) -> None:
        self.cfg = cfg
        self.q = table if table is not None else QTable()
        self.learning = True

    def act(self, key, epsilon, rng) -> Action:
        return select_action(self.q, key, epsilon, rng)

    def observe(self, key, action, reward, next_key, terminal) -> None:
        if self.learning:
            q_update(self.q, key, action, reward, next_key, terminal, self.cfg)


@dataclass
class TrainRun:
    """Training output: the episode log, one Q-table per agent, and the
    arrival bits to carry into any follow-on episodes."""

    outcomes: list[EpisodeOutcome]
    tables: list[QTable]
    final_prev_winners: tuple[int, ...]


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def run_random(cfg: GameConfig, total_episodes: int, seed_or_rng=0) -> list[EpisodeOutcome]:
    """Episode log of ``total_episodes`` played by uniform-random agents."""
    if total_episodes < 1:
        raise ConfigError(f"total_episodes must be >= 1, got {total_episodes}")
    rng = _as_rng(seed_or_rng)
    policies = [RandomPolicy() for _ in range(cfg.n_agents)]
    outcomes: list[EpisodeOutcome] = []
    prev: tuple[int, ...] = (0,) * cfg.n_agents
    for e in range(total_episodes):
        outcome = run_episode(policies, prev, cfg, rng, epsilon=1.0, episode_index=e)
        outcomes.append(outcome)
        prev = next_prev_winners(outcome, cfg)
    return outcomes


def train_run(
    cfg: GameConfig,
    qcfg: QLearningConfig,
    total_episodes: int,
    seed_or_rng=0,
) -> TrainRun:
    """Train independent Q-learners for ``total_episodes`` episodes.

    All agents share the decayed epsilon of the current episode and
    update their own tables on every step.
    """
    if total_episodes < 1:
        raise ConfigError(f"total_episodes must be >= 1, got {total_episodes}")
    rng = _as_rng(seed_or_rng)
    policies = [QLearningPolicy(qcfg) for _ in range(cfg.n_agents)]
    outcomes: list[EpisodeOutcome] = []
    prev: tuple[int, ...] = (0,) * cfg.n_agents
    for e in range(total_episodes):
        eps = epsilon_at(e, total_episodes, qcfg)
        outcome = run_episode(policies, prev, cfg, rng, epsilon=eps, episode_index=e)
        outcomes.append(outcome)
        prev = next_prev_winners(outcome, cfg)
    bound = cfg.r_high / (1.0 - qcfg.gamma)
    for p in policies:
        if not p.q.max_abs_value() <= bound:
            raise DataError(f"Q-values escaped the discounted-return bound {bound}")
    return TrainRun(
        outcomes=outcomes,
        tables=[p.q for p in policies],
        final_prev_winners=prev,
    )
