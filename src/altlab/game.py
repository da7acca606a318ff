"""Rules of the episodic multi-agent race game with terminal-only rewards.

Each of n agents moves along its own track of ``path_length`` cells.  On
every step each agent either advances one cell (Move) or holds (Stay).
The episode ends as soon as at least one agent reaches the final cell, or
when ``step_cap`` steps have elapsed with no arrival (a capped episode).
Rewards are paid only at episode end (:func:`assign_rewards`): a sole
arriver collects ``r_high``, a partial tie of k agents (1 < k < n) pays
each arriver a diluted ``r_low``, and an all-agent tie or a capped
episode pays nothing.

Two observation encodings are supported.  Type A exposes the joint
position vector.  Type B appends a bit per agent indicating who arrived
in the previous episode, which lets policies condition on whose "turn"
it was last time.  The episode loop that plays these rules is
:func:`altlab.policies.play`; this module holds the configuration, the
reward rule and the :class:`EpisodeOutcome` record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, DataError


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
        if not 0 < self.r_high < math.inf:
            raise ConfigError(f"r_high must be positive and finite, got {self.r_high}")

    @property
    def r_low(self) -> float:
        """Per-arriver payoff in a partial tie."""
        if self.reward_scheme is RewardScheme.ILF:
            return self.r_high / self.n_agents
        return self.r_high / (self.n_agents * self.n_agents)


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
        # A sole winner or a partial tie pays its arrivers one equal share;
        # a full tie or a capped episode pays nobody.
        rewards, n, k = outcome.rewards, len(outcome.rewards), len(outcome.arrivals)
        if 0 < k < n:
            shares = {rewards[i] if 0 <= i < n else 0.0 for i in outcome.arrivals}
            paid = len(shares) == 1 and min(shares) > 0.0 and rewards.count(0.0) == n - k
        else:
            paid = not any(rewards)
        if not paid:
            raise DataError(
                f"rewards {list(outcome.rewards)} do not pay the arrivals "
                f"{sorted(outcome.arrivals)} one equal share each"
            )
        return outcome
