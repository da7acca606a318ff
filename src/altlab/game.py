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
reward rule, the :class:`EpisodeOutcome` record, whose exclusive winner
and ``capped`` flag follow from its arrivals, and :class:`EpisodeLog`, the
in-memory log: each distinct (arrivals, rewards) body once, and an int32
body id and step count per episode.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
        # Enum members and plain ints, not bools: a config of strings or numpy ints equals its twin.
        for name, read in (("state_type", StateType), ("reward_scheme", RewardScheme),
                           *((k, operator.index) for k in ("n_agents", "path_length", "step_cap"))):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, read(None if isinstance(value, bool) else value))
            except (TypeError, ValueError):
                raise ConfigError(f"{name} cannot be {value!r}") from None
        if self.n_agents < 2:
            raise ConfigError(f"n_agents must be >= 2, got {self.n_agents}")
        if not 1 <= self.path_length < 2**31:  # no episode is shorter: steps must fit int32
            raise ConfigError(f"path_length must be >= 1 and < 2**31, got {self.path_length}")
        if self.step_cap < self.path_length:
            raise ConfigError(
                f"step_cap {self.step_cap} cannot be below path_length {self.path_length}"
            )
        # A partial tie pays r_low, which must not round to zero.
        if not (0 < self.r_high < math.inf and self.r_low > 0):
            raise ConfigError(f"r_high {self.r_high} must be finite with r_low > 0")

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
    n, k = cfg.n_agents, len(arrival_ids)
    if k and (min(arrival_ids) < 0 or max(arrival_ids) >= n):
        raise ConfigError(f"arrival ids {sorted(arrival_ids)} out of range for n={n}")
    rewards = [0.0] * n
    if k == 1:
        rewards[next(iter(arrival_ids))] = cfg.r_high
    elif 1 < k < n:
        r_low = cfg.r_low
        for i in arrival_ids:
            rewards[i] = r_low
    return tuple(rewards)


@dataclass(frozen=True)
class EpisodeOutcome:
    """End-of-episode record: who arrived, the payoff vector and the steps
    used.  The exclusive winner and ``capped`` follow from the arrivals."""

    episode_index: int
    arrivals: frozenset[int]
    rewards: tuple[float, ...]
    steps_used: int

    @property
    def exclusive_winner(self) -> int | None:
        """The sole arriver; None when nobody or several agents arrived."""
        return next(iter(self.arrivals)) if len(self.arrivals) == 1 else None

    @property
    def capped(self) -> bool:
        """Whether the step cap ended the episode: nobody arrived."""
        return not self.arrivals

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
        """Parse and validate a dict produced by :meth:`to_record`: JSON
        integers (not bools or floats) for the episode, steps and arrivals,
        distinct arrival ids, numbers for the rewards, and the winner and
        ``capped`` they imply."""
        try:
            episode, arrivals, rewards, steps = (
                record[key] for key in ("episode", "arrivals", "rewards", "steps")
            )
            if not (type(arrivals) is type(rewards) is list
                    and all(type(i) is int for i in (episode, steps, *arrivals))
                    and all(type(r) in (int, float) for r in rewards)):
                raise TypeError("episode, steps and arrivals must be integers, rewards numbers")
            outcome = EpisodeOutcome(episode, frozenset(arrivals), tuple(map(float, rewards)), steps)
            stated = (record["exclusive_winner"], record["capped"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise DataError(f"malformed episode record: {exc}") from exc
        if len(outcome.arrivals) != len(arrivals):
            raise DataError(f"arrivals {arrivals} list an agent more than once")
        # repr tells 1 from 1.0 and true, and false from 0.
        if repr(stated) != repr((outcome.exclusive_winner, outcome.capped)):
            raise DataError(
                f"exclusive_winner and capped {stated} contradict the arrivals {sorted(arrivals)}"
            )
        if not all(math.isfinite(r) and r >= 0.0 for r in outcome.rewards):
            raise DataError(f"rewards must be finite and >= 0, got {list(outcome.rewards)}")
        if outcome.steps_used < 1:
            raise DataError(f"steps must be >= 1, got {outcome.steps_used}")
        if outcome.steps_used >= 2**31:
            raise DataError(f"steps {outcome.steps_used} do not fit the int32 steps column")
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


def _accept_bodies(texts: list[str], capped: list[bool]) -> list[tuple] | None:
    """Bodies ``(arrivals, rewards)`` of brace-free body texts in the writer's
    layout, whose lines state ``capped``; None unless all are accepted.

    An accept filter: it must never accept a record that
    :meth:`EpisodeOutcome.from_record` refuses, nor give another body (reprs
    included).  It takes sorted in-range integer arrivals, the winner and
    ``capped`` they imply, and finite float rewards paid as the game pays;
    anything else, integer rewards say, is left to ``from_record``.
    """
    try:  # one object per text, with the body's three keys in order
        records = json.loads("[{" + "},{".join(texts) + "}]")
        if len(records) != len(texts) or {*map(tuple, records)} != {
                ("arrivals", "exclusive_winner", "rewards")}:
            return None
        arrivals, winners, rewards = zip(*map(dict.values, records))
        flat, paid = [*itertools.chain(*arrivals)], [*itertools.chain(*rewards)]
        ids = np.fromiter(flat, np.int64, len(flat))
    except (TypeError, ValueError, OverflowError, RecursionError):
        return None
    if ({*map(type, arrivals), *map(type, rewards)} != {list} or {*map(type, flat)} - {int}
            or {*map(type, paid)} - {float} or {*map(type, winners)} - {int, type(None)}
            or winners != tuple(a[0] if len(a) == 1 else None for a in arrivals)):
        return None
    k, n = (np.fromiter(map(len, x), np.intp, len(x)) for x in (arrivals, rewards))
    body, start, paid = np.repeat(np.arange(len(k)), k), np.cumsum(n) - n, np.array(paid, float)
    if not (np.all((0 <= ids) & (ids < n[body])) and np.all(np.diff(ids)[np.diff(body) == 0] > 0)
            and np.array_equal(capped, k == 0) and np.all(np.isfinite(paid))):
        return None
    # A sole win or partial tie pays its arrivers the first one's share (> 0), no one else.
    pays, share, due = (0 < k) & (k < n), np.zeros(len(k)), np.zeros(len(paid))
    share[pays] = paid[start[pays] + ids[(np.cumsum(k) - k)[pays]]]
    due[start[body] + ids] = share[body]
    if np.all(share[pays] > 0.0) and np.array_equal(paid, due):
        return list(zip(map(tuple, arrivals), map(tuple, rewards)))
    return None


def _body_id(index: dict, arrivals, rewards: tuple[float, ...]) -> int:
    """Id of the body (sorted ``arrivals``, ``rewards``) in ``index`` (key ->
    (id, body)), added if new.  Rewards are keyed by ``repr``, which keeps
    -0.0 apart from 0.0."""
    body = (tuple(sorted(arrivals)), rewards)
    return index.setdefault((body[0], repr(rewards)), (len(index), body))[0]


class EpisodeLog(Sequence):
    """An episode log held as columns.

    Episode e has the body ``bodies[ids[e]]``, a pair ``(arrivals,
    rewards)`` with the arrivals as a sorted tuple, and ``steps[e]``
    steps; ``ids`` and ``steps`` are read-only int32 arrays.  Indexing
    builds an :class:`EpisodeOutcome` on demand, a slice is a list of them,
    and a log equals a list (or a log) of the same outcomes.
    """

    __slots__ = ("bodies", "ids", "steps")

    def __init__(self, bodies, ids, steps) -> None:
        self.bodies = tuple(bodies)
        self.ids, self.steps = np.array(ids, dtype=np.int32), np.array(steps, dtype=np.int32)
        self.ids.flags.writeable = self.steps.flags.writeable = False
        if self.ids.ndim != 1 or self.ids.shape != self.steps.shape:
            raise ValueError("need one body id and one step count per episode")

    @classmethod
    def from_outcomes(cls, outcomes) -> "EpisodeLog":
        """The log of ``outcomes``, indexed by position; a log is returned as is."""
        if isinstance(outcomes, EpisodeLog):
            return outcomes
        index: dict = {}
        ids, steps = [], []
        for ep in outcomes:
            ids.append(_body_id(index, ep.arrivals, ep.rewards))
            steps.append(ep.steps_used)
        return cls([body for _, body in index.values()], ids, steps)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[e] for e in range(*index.indices(len(self)))]
        e = range(len(self))[index]
        arrivals, rewards = self.bodies[self.ids[e]]
        return EpisodeOutcome(e, frozenset(arrivals), rewards, int(self.steps[e]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (EpisodeLog, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def columns(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-body arrival matrix bool[B, n] and reward matrix float[B, n]:
        index them with ``ids``.  A body whose arrivals or rewards do not
        fit n agents raises DataError."""
        if n < 2:
            raise ConfigError(f"need at least 2 agents, got {n}")
        arrivals, paid = zip(*self.bodies) if self.bodies else ((), ())
        try:  # an id beyond int64 overflows; rewards of another length do not reshape
            flat = np.fromiter(itertools.chain.from_iterable(arrivals), np.int64)
            rewards = np.array(paid, dtype=float).reshape(len(paid), n)
            if not np.all((0 <= flat) & (flat < n)):
                raise ValueError
        except (OverflowError, ValueError):
            b = next(b for b, (a, r) in enumerate(self.bodies)
                     if len(r) != n or not all(0 <= i < n for i in a))
            raise DataError(
                f"episode {int(np.argmax(self.ids == b))}: arrivals {list(arrivals[b])} "
                f"and {len(paid[b])} rewards do not fit {n} agents"
            ) from None
        arrived = np.zeros((len(paid), n), dtype=bool)
        arrived[np.repeat(np.arange(len(paid)), list(map(len, arrivals))), flat] = True
        return arrived, rewards
