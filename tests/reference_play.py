"""Reference play: altlab's scalar step path as it stood before the one
episode loop, kept verbatim as a test oracle.

``altlab.policies.play`` must reproduce these functions draw for draw:
the same outcomes, Q-tables, final arrival bits and generator state.
Only the imports and ``greedy_eval`` (the loop that ``harness.run``
plays after Q-learning) are new around the moved code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Protocol, Sequence

import numpy as np

from altlab.errors import ConfigError, DataError
from altlab.game import EpisodeOutcome, GameConfig, StateType, assign_rewards
from altlab.policies import QLearningConfig, TrainRun, epsilon_at


class Action(IntEnum):
    """Per-agent action: hold position or advance one cell."""

    STAY = 0
    MOVE = 1


@dataclass(frozen=True)
class GameState:
    """Within-episode state: joint positions, previous-episode arrival
    bits, and the number of steps taken so far."""

    positions: tuple[int, ...]
    prev_winners: tuple[int, ...]
    step: int = 0


def initial_state(cfg: GameConfig, prev_winners: Sequence[int] | None = None) -> GameState:
    """Fresh episode start: all agents at cell 0.

    ``prev_winners`` carries the arrival bits of the preceding episode;
    omit it (or pass all zeros) at the start of a run or after a capped
    episode.
    """
    if prev_winners is None:
        bits = (0,) * cfg.n_agents
    else:
        bits = tuple(int(b) for b in prev_winners)
        if len(bits) != cfg.n_agents or any(b not in (0, 1) for b in bits):
            raise ConfigError(f"prev_winners must be {cfg.n_agents} bits, got {prev_winners!r}")
    return GameState(positions=(0,) * cfg.n_agents, prev_winners=bits, step=0)


def step(state: GameState, actions: Sequence[Action], cfg: GameConfig) -> GameState:
    """Apply one joint action: every Move advances its agent one cell.

    Must not be called once the episode is terminal.
    """
    if len(actions) != cfg.n_agents:
        raise ConfigError(
            f"joint action has {len(actions)} entries for {cfg.n_agents} agents"
        )
    positions = tuple(
        p + 1 if a == Action.MOVE else p for p, a in zip(state.positions, actions)
    )
    if any(p > cfg.path_length for p in positions):
        raise ConfigError("step applied to a terminal state")
    return GameState(positions=positions, prev_winners=state.prev_winners, step=state.step + 1)


def is_terminal(state: GameState, cfg: GameConfig) -> bool:
    """True once any agent has arrived or the step cap is reached."""
    return any(p >= cfg.path_length for p in state.positions) or state.step >= cfg.step_cap


def arrivals(state: GameState, cfg: GameConfig) -> frozenset[int]:
    """Agents currently on the final cell."""
    return frozenset(i for i, p in enumerate(state.positions) if p >= cfg.path_length)


def encode_state(state: GameState, cfg: GameConfig) -> tuple[int, ...]:
    """Observation key of a state.

    Both encodings are symmetric across agents, so one key serves every
    agent.
    """
    if cfg.state_type is StateType.TYPE_A:
        return state.positions
    return state.positions + state.prev_winners


class AgentPolicy(Protocol):
    """Minimal interface the episode driver needs from a policy."""

    def act(self, key: tuple[int, ...], epsilon: float, rng: np.random.Generator) -> Action:
        ...

    def observe(
        self,
        key: tuple[int, ...],
        action: Action,
        reward: float,
        next_key: tuple[int, ...],
        terminal: bool,
    ) -> None:
        ...


def run_episode(
    policies: Sequence[AgentPolicy],
    prev_winners: Sequence[int] | None,
    cfg: GameConfig,
    rng: np.random.Generator,
    epsilon: float = 0.0,
    episode_index: int = 0,
) -> EpisodeOutcome:
    """Play one episode to termination and return its outcome.

    Every step, each agent acts on its own encoded observation, the
    joint action is applied, and each agent observes its transition
    (reward is zero except at termination).  Policies are queried in
    agent order against a single shared ``rng`` stream, which makes a
    full episode reproducible from the generator state.
    """
    if len(policies) != cfg.n_agents:
        raise ConfigError(f"got {len(policies)} policies for {cfg.n_agents} agents")
    state = initial_state(cfg, prev_winners)
    zero_rewards = (0.0,) * cfg.n_agents
    while True:
        key = encode_state(state, cfg)
        actions = tuple(p.act(key, epsilon, rng) for p in policies)
        state = step(state, actions, cfg)
        terminal = is_terminal(state, cfg)
        arrival_ids = arrivals(state, cfg) if terminal else frozenset()
        rewards = assign_rewards(arrival_ids, cfg) if terminal else zero_rewards
        next_key = encode_state(state, cfg)
        for i, p in enumerate(policies):
            p.observe(key, actions[i], rewards[i], next_key, terminal)
        if terminal:
            break
    return EpisodeOutcome(
        episode_index=episode_index,
        arrivals=arrival_ids,
        rewards=rewards,
        steps_used=state.step,
    )


def next_prev_winners(outcome: EpisodeOutcome, cfg: GameConfig) -> tuple[int, ...]:
    """Arrival bit-vector to carry into the next episode.

    Capped episodes carry all zeros; every arriver's bit is set,
    including tie participants.
    """
    return tuple(1 if i in outcome.arrivals else 0 for i in range(cfg.n_agents))


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


def greedy_eval(
    cfg: GameConfig,
    qcfg: QLearningConfig,
    trained: TrainRun,
    episodes: int,
    rng: np.random.Generator,
) -> list[EpisodeOutcome]:
    """The greedy evaluation that followed training: frozen tables at the floor epsilon."""
    eval_policies = [QLearningPolicy(qcfg, table) for table in trained.tables]
    for p in eval_policies:
        p.learning = False
    eval_outcomes = []
    prev = trained.final_prev_winners
    for e in range(episodes):
        outcome = run_episode(
            eval_policies, prev, cfg, rng, epsilon=qcfg.epsilon_min, episode_index=e
        )
        eval_outcomes.append(outcome)
        prev = next_prev_winners(outcome, cfg)
    return eval_outcomes
