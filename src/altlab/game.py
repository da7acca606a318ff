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

The same log on disk is ``log.jsonl``, one :meth:`EpisodeOutcome.to_record`
object per line.  Its writer formats each body's text once, and the text after
the episode head once per distinct (body, steps) pair; both directions build
each head ``{"episode":E,`` from a table of the 1,000 values of E mod 1000.
Its reader looks up blocks of lines in that layout by the text after the
episode head and checks each block's new body texts together; any other block
is validated line by line, through :meth:`EpisodeOutcome.from_record`.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

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


def settle_fields(config) -> None:
    """Set each int, float and enum field of the frozen dataclass ``config``
    to its plain value, so that a config of strings or numpy numbers equals
    its twin and its snapshot reads back as itself.  A bool, a string in a
    numeric field or a fraction in an int one is a :class:`ConfigError`."""
    readers = {"int": operator.index, "float": float, "StateType": StateType,
               "RewardScheme": RewardScheme}
    for field in fields(config):
        if (read := readers.get(field.type)) is not None:
            value = getattr(config, field.name)
            try:  # refused before reading: a bool, and a string that float() would parse
                if isinstance(value, bool) or read is float and not isinstance(value, numbers.Real):
                    raise TypeError
                object.__setattr__(config, field.name, read(value))
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{field.name} cannot be {value!r}") from None


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
        settle_fields(self)
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


# json.dumps would build a new encoder for every record.
_encode = json.JSONEncoder(separators=(",", ":")).encode

# The text after '{"episode":E,' in the writer's layout: a body text, then
# canonical steps.  A body text's only quoted strings are its three keys, so a
# line has each of its six keys once and its body text alone sets their values;
# it holds no braces, so body texts join and split at '},{', one object each.
_CANONICAL_TAIL = re.compile(
    r'("arrivals":[^"{}]*"exclusive_winner":[^"{}]*"rewards":[^"{}]*)'
    r',"steps":([1-9][0-9]{0,8}),"capped":(true|false)\}\n?'
)
_BLOCK = 1 << 18  # characters of whole lines the reader holds at once
_LOWC = [f"{j}," for j in range(1000)]
_PADC = [f"{j:03}," for j in range(1000)]


def _heads(k: int) -> tuple[str, list[str]]:
    """Episode E = 1000 * k + j has the head '{"episode":E,' = prefix + table[j]."""
    return '{"episode":' + (str(k) if k else ""), _PADC if k else _LOWC


def _body_texts(bodies: Sequence[tuple]) -> list[str]:
    """The text between each body's braces in a log line: one encoding of all
    the bodies, cut at the '},{' between them."""
    if not bodies:
        return []
    return _encode([
        {"arrivals": sorted(arrivals),
         "exclusive_winner": arrivals[0] if len(arrivals) == 1 else None,
         "rewards": list(rewards)}
        for arrivals, rewards in bodies
    ])[2:-2].split("},{")


def write_episode_log(outcomes: Sequence[EpisodeOutcome], path: Path) -> None:
    log = EpisodeLog.from_outcomes(outcomes)
    bodies = _body_texts(log.bodies)
    # The text after the episode head for each distinct (body id, steps)
    # pair, in the order of its code.  Lines 1000 * k .. 1000 * k + 999 are one
    # join of k's head prefix, the table entry of each line and its tail.
    codes, pairs = np.unique(log.ids.astype(np.int64) << 32 | log.steps.view(np.uint32),
                             return_inverse=True)
    tails = [
        f'{bodies[b]},"steps":{steps},"capped":{"false" if log.bodies[b][0] else "true"}}}\n'
        for b, steps in zip((codes >> 32).tolist(), codes.astype(np.uint32).view(np.int32).tolist())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for k, start in enumerate(range(0, len(log), 1000)):
            chosen, (pre, table) = pairs[start : start + 1000].tolist(), _heads(k)
            parts = [pre] * (3 * len(chosen))
            parts[1::3] = table[: len(chosen)]
            parts[2::3] = map(tails.__getitem__, chosen)
            fh.write("".join(parts))


def read_episode_log(path: Path) -> EpisodeLog:
    """Episodes of a log.jsonl file; the ``episode`` field must count up from 0.

    Lines are read in blocks, and each line is looked up by the text after its
    episode head.  In a block in the writer's layout, numbered in sequence, a
    new such text is matched once and the new body texts accepted together by
    ``_accept_bodies``; any other block is parsed and validated line by line.
    """
    codes, blocks, count, lineno = _Codes(), [], 0, 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            while lines := fh.readlines(_BLOCK):
                if (tails := _cut_heads(lines, count)) is not None and codes.add(tails):
                    block = np.fromiter(map(codes.__getitem__, tails), "<i8", len(lines))
                else:
                    block = []
                    for at, line in enumerate(lines, start=lineno + 1):
                        if not (line := line.strip()):
                            continue
                        try:  # ValueError: bad JSON, or an integer of over 4,300 digits
                            record = json.loads(line)
                        except (ValueError, RecursionError) as exc:  # or too deep a nesting
                            raise DataError(f"{path}: line {at}: invalid JSON: {exc}") from exc
                        try:
                            outcome = EpisodeOutcome.from_record(record)
                        except DataError as exc:
                            raise DataError(f"{path}: line {at}: {exc}") from exc
                        if outcome.episode_index != count + len(block):
                            raise DataError(
                                f"{path}: line {at}: episode {outcome.episode_index} out of "
                                f"sequence, expected {count + len(block)}"
                            )
                        body = _body_id(codes.index, outcome.arrivals, outcome.rewards)
                        block.append(body << 32 | outcome.steps_used)
                blocks.append(np.asarray(block, dtype="<i8"))
                count, lineno = count + len(block), lineno + len(lines)
                del lines, tails  # so that the next block is read without this one
    except (OSError, UnicodeError) as exc:
        raise DataError(f"{path}: unreadable log: {exc}") from exc
    # Each little-endian code is two int32 words: its steps, then its body id.
    words = np.concatenate([np.zeros(0, "<i8"), *blocks]).view("<i4")
    return EpisodeLog([body for _, body in codes.index.values()], words[1::2], words[::2])


def _cut_heads(lines: list[str], first: int) -> list[str] | None:
    """The text after '{"episode":E,' of each line, with E counting up from
    ``first``; None if a line starts otherwise.  Runs end at each power of ten
    below 1,000 and at each multiple of 1,000, so a run's heads have one width
    and one prefix, and are compared at once with one join of the table."""
    tails, end = [], first + len(lines)
    while first < end:
        k, j = divmod(first, 1000)
        stop = min(end, 1000 * k + 1000 if k else 10 ** len(str(j)))
        pre, table = _heads(k)
        width, run = len(pre) + len(table[j]), lines[len(tails) : len(tails) + stop - first]
        heads = pre + pre.join(table[j : stop - 1000 * k])
        if "".join(map(operator.itemgetter(slice(width)), run)) != heads:
            return None
        tails += map(operator.itemgetter(slice(width, None)), run)
        first = stop
    return tails


def _accept_bodies(texts: list[str], capped: list[bool]) -> list[tuple] | None:
    """Bodies ``(arrivals, rewards)`` of body texts in the writer's layout,
    whose lines state ``capped``; None unless all are accepted.

    An accept filter: it must never accept a record that
    :meth:`EpisodeOutcome.from_record` refuses, nor give another body (reprs
    included).  It takes sorted in-range integer arrivals, the winner and
    ``capped`` they imply, and finite rewards paid as the game pays, an integer
    read as ``from_record`` reads it; anything else is left to ``from_record``.
    """
    try:  # one object per text, with the body's three keys in order
        records = json.loads("[{" + "},{".join(texts) + "}]")
        if len(records) != len(texts) or {*map(tuple, records)} != {
                ("arrivals", "exclusive_winner", "rewards")}:
            return None
        arrivals, winners, rewards = zip(*map(dict.values, records))
        flat, stated = [*itertools.chain(*arrivals)], [*itertools.chain(*rewards)]
        ids, paid = np.fromiter(flat, np.int64, len(flat)), np.array(stated, float)
    except (TypeError, ValueError, OverflowError, RecursionError):
        return None
    if ({*map(type, arrivals), *map(type, rewards)} != {list} or {*map(type, flat)} - {int}
            or (kinds := {*map(type, stated)}) - {int, float}
            or {*map(type, winners)} - {int, type(None)}
            or winners != tuple(a[0] if len(a) == 1 else None for a in arrivals)):
        return None
    k, n = (np.fromiter(map(len, x), np.intp, len(x)) for x in (arrivals, rewards))
    body, start = np.repeat(np.arange(len(k)), k), np.cumsum(n) - n
    if not (np.all((0 <= ids) & (ids < n[body])) and np.all(np.diff(ids)[np.diff(body) == 0] > 0)
            and np.array_equal(capped, k == 0) and np.all(np.isfinite(paid))):
        return None
    # A sole win or partial tie pays its arrivers the first one's share (> 0), no one else.
    pays, share, due = (0 < k) & (k < n), np.zeros(len(k)), np.zeros(len(paid))
    share[pays] = paid[start[pays] + ids[(np.cumsum(k) - k)[pays]]]
    due[start[body] + ids] = share[body]
    if np.all(share[pays] > 0.0) and np.array_equal(paid, due):
        if int in kinds:  # read as from_record reads them, as floats
            rewards = [[*map(float, r)] for r in rewards]
        return list(zip(map(tuple, arrivals), map(tuple, rewards)))
    return None


class _Codes(dict):
    """Tail -> body id << 32 | steps, for the text after the episode head of
    each line of a block in the writer's layout."""

    def __init__(self) -> None:
        super().__init__()
        self.index: dict = {}  # body key -> (id, body), as in EpisodeLog.from_outcomes
        self.known: dict[tuple[str, str], int] = {}  # (body text, capped) -> body id

    def add(self, tails: list[str]) -> bool:
        """Code a block's new tails in order of first appearance, or add
        nothing and return False unless ``_accept_bodies`` takes them all."""
        new = [*dict.fromkeys(itertools.filterfalse(self.__contains__, tails))]
        if not all(matches := [*map(_CANONICAL_TAIL.fullmatch, new)]):
            return False
        fresh = [*dict.fromkeys(k for m in matches if (k := m.group(1, 3)) not in self.known)]
        if fresh:
            texts, capped = zip(*fresh)
            if (bodies := _accept_bodies(texts, [c == "true" for c in capped])) is None:
                return False
            for key, body in zip(fresh, bodies):
                self.known[key] = _body_id(self.index, *body)
        self.update((t, self.known[m.group(1, 3)] << 32 | int(m[2])) for t, m in zip(new, matches))
        return True
