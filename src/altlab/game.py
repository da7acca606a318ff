"""Episodic multi-agent race game with terminal-only rewards.

Each of n agents moves along its own track of ``path_length`` cells.  On
every step each agent either advances one cell (Move) or holds (Stay).
The episode ends as soon as at least one agent reaches the final cell, or
when ``step_cap`` steps have elapsed with no arrival (a capped episode).
Rewards are paid only at episode end: a sole arriver collects ``r_high``,
a partial tie of k agents (1 < k < n) pays each arriver a diluted
``r_low``, and an all-agent tie or a capped episode pays nothing.

Two observation encodings are supported.  Type A exposes the joint
position vector.  Type B appends a bit per agent indicating who arrived
in the previous episode, which lets policies condition on whose "turn"
it was last time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Protocol, Sequence

import numpy as np

from .errors import ConfigError, DataError


class Action(IntEnum):
    """Per-agent action: hold position or advance one cell."""

    STAY = 0
    MOVE = 1


class StateType(str, Enum):
    """Observation encoding: positions only (A) or positions plus
    previous-episode arrival bits (B)."""

    TYPE_A = "A"
    TYPE_B = "B"


class RewardScheme(str, Enum):
    """Dilution rule for partial ties: inverse-linear (r_high / n) or
    inverse-quadratic (r_high / n^2)."""

    ILF = "ilf"
    IQF = "iqf"


@dataclass(frozen=True)
class GameConfig:
    """Immutable parameters of one game instance.

    Attributes:
        n_agents: Number of agents, at least 2.
        state_type: Observation encoding fed to policies.
        reward_scheme: Partial-tie dilution rule.
        path_length: Cells an agent must advance to arrive.
        r_high: Payoff for a sole arriver.
        step_cap: Steps after which an episode with no arrival is cut off.
    """

    n_agents: int
    state_type: StateType = StateType.TYPE_A
    reward_scheme: RewardScheme = RewardScheme.ILF
    path_length: int = 2
    r_high: float = 100.0
    step_cap: int = 1000

    def __post_init__(self) -> None:
        if self.n_agents < 2:
            raise ConfigError(f"n_agents must be >= 2, got {self.n_agents}")
        if self.path_length < 1:
            raise ConfigError(f"path_length must be >= 1, got {self.path_length}")
        if self.step_cap < self.path_length:
            raise ConfigError(
                f"step_cap {self.step_cap} cannot be below path_length {self.path_length}"
            )
        if not self.r_high > 0:
            raise ConfigError(f"r_high must be positive, got {self.r_high}")

    @property
    def r_low(self) -> float:
        """Per-arriver payoff in a partial tie."""
        if self.reward_scheme is RewardScheme.ILF:
            return self.r_high / self.n_agents
        return self.r_high / (self.n_agents * self.n_agents)


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


def assign_rewards(arrival_ids: frozenset[int], cfg: GameConfig) -> tuple[float, ...]:
    """Terminal payoff vector for a given arrival set.

    A sole arriver gets ``r_high``; each member of a partial tie gets
    ``r_low``; an all-agent tie or an empty arrival set pays zero to
    everyone.
    """
    if any(i < 0 or i >= cfg.n_agents for i in arrival_ids):
        raise ConfigError(f"arrival ids {sorted(arrival_ids)} out of range for n={cfg.n_agents}")
    k = len(arrival_ids)
    rewards = [0.0] * cfg.n_agents
    if k == 1:
        rewards[next(iter(arrival_ids))] = cfg.r_high
    elif 1 < k < cfg.n_agents:
        for i in arrival_ids:
            rewards[i] = cfg.r_low
    return tuple(rewards)


def encode_state(state: GameState, agent: int, cfg: GameConfig) -> tuple[int, ...]:
    """Observation key for one agent.

    Both encodings are symmetric across agents, so the key is identical
    for every agent in a given state; the ``agent`` argument exists so
    asymmetric encodings could slot in later.
    """
    if agent < 0 or agent >= cfg.n_agents:
        raise ConfigError(f"agent {agent} out of range for n={cfg.n_agents}")
    if cfg.state_type is StateType.TYPE_A:
        return state.positions
    return state.positions + state.prev_winners


@dataclass(frozen=True)
class EpisodeOutcome:
    """End-of-episode record: who arrived, who won outright, the payoff
    vector, steps used, and whether the step cap cut the episode off."""

    episode_index: int
    arrivals: frozenset[int]
    exclusive_winner: int | None
    rewards: tuple[float, ...]
    steps_used: int
    capped: bool

    def to_record(self) -> dict:
        """JSON-ready dict with canonical field names."""
        return {
            "episode": self.episode_index,
            "arrivals": sorted(self.arrivals),
            "exclusive_winner": self.exclusive_winner,
            "rewards": list(self.rewards),
            "steps": self.steps_used,
            "capped": self.capped,
        }

    @staticmethod
    def from_record(record: dict) -> "EpisodeOutcome":
        """Parse and validate a dict produced by :meth:`to_record`."""
        try:
            arrival_ids = frozenset(int(i) for i in record["arrivals"])
            winner = record["exclusive_winner"]
            outcome = EpisodeOutcome(
                episode_index=int(record["episode"]),
                arrivals=arrival_ids,
                exclusive_winner=None if winner is None else int(winner),
                rewards=tuple(float(r) for r in record["rewards"]),
                steps_used=int(record["steps"]),
                capped=bool(record["capped"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed episode record: {exc}") from exc
        if not all(math.isfinite(r) and r >= 0.0 for r in outcome.rewards):
            raise DataError(f"rewards must be finite and >= 0, got {list(outcome.rewards)}")
        if outcome.steps_used < 1:
            raise DataError(f"steps must be >= 1, got {outcome.steps_used}")
        if outcome.capped and outcome.arrivals:
            raise DataError("capped episode cannot have arrivals")
        if len(outcome.arrivals) == 1:
            if outcome.exclusive_winner not in outcome.arrivals:
                raise DataError("exclusive_winner does not match the sole arrival")
        elif outcome.exclusive_winner is not None:
            raise DataError("exclusive_winner set on a non-exclusive episode")
        return outcome


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
        # Symmetric encodings: one key serves every agent this step.
        key = encode_state(state, 0, cfg)
        actions = tuple(p.act(key, epsilon, rng) for p in policies)
        state = step(state, actions, cfg)
        terminal = is_terminal(state, cfg)
        arrival_ids = arrivals(state, cfg) if terminal else frozenset()
        rewards = assign_rewards(arrival_ids, cfg) if terminal else zero_rewards
        next_key = encode_state(state, 0, cfg)
        for i, p in enumerate(policies):
            p.observe(key, actions[i], rewards[i], next_key, terminal)
        if terminal:
            break
    winner = next(iter(arrival_ids)) if len(arrival_ids) == 1 else None
    return EpisodeOutcome(
        episode_index=episode_index,
        arrivals=arrival_ids,
        exclusive_winner=winner,
        rewards=rewards,
        steps_used=state.step,
        capped=not arrival_ids,
    )


def next_prev_winners(outcome: EpisodeOutcome, cfg: GameConfig) -> tuple[int, ...]:
    """Arrival bit-vector to carry into the next episode.

    Capped episodes carry all zeros; every arriver's bit is set,
    including tie participants.
    """
    return tuple(1 if i in outcome.arrivals else 0 for i in range(cfg.n_agents))
