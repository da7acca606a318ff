"""Agent play: uniform random and independent tabular Q-learning.

:func:`play` runs every episode altlab simulates.  Its generators are
PCG64 (altlab makes them with ``default_rng``; any other bit generator is
a :class:`ConfigError`), and it reads their draws from blocks of raw
64-bit words.  numpy's ``random()`` is ``(w >> 11) * 2**-53`` of the next
word ``w``, so ``random() < eps`` holds exactly when
``w < ceil(min(eps, 1) * 2**53) << 11``; ``integers(0, 2)`` is bit 31 of
the next 32-bit half, where a fresh word gives its low half and keeps the
high half in ``has_uint32`` / ``uinteger``.  When play ends (also when a
step raises), the generator steps back over the words drawn but not used:
every value, and the final state, are those of scalar calls.
Play returns an :class:`~altlab.game.EpisodeLog` with one body per arrival
set met, so :func:`assign_rewards` runs once per arrival set.

Random play never looks at the state: :func:`_play_random` reads the
coins of at least ``_CHUNK`` steps at once, bits 31 and 63 of each word,
and finds every episode's end with a cumulative sum over the block.

Epsilon-greedy training and frozen greedy evaluation go step by step.  A
Q-agent's table is a plain dict from observation key (the positions tuple,
plus the previous-arrival bits for Type B) to ``[q_stay, q_move]``; an
unseen key reads as all zeros.  Training inserts a key at ``[0.0, 0.0]``
when it first meets it, and the step from that key updates it unless the
step raises; greedy play inserts none.  Each agent reads and writes only
its own table, so :func:`_play_q` keeps every agent's row of a key in one
list, and before each step it tops its unread words up to the 2n a step
can use.  Exploration follows a linear epsilon schedule that is shared by
all agents within an episode.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .game import EpisodeLog, GameConfig, StateType, assign_rewards

_CHUNK = 4096  # words per generator call; random play reads at least this many steps


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


def play(
    cfg: GameConfig,
    episodes: int,
    rng: np.random.Generator,
    bits: Sequence[int],
    tables: list[dict] | None = None,
    epsilons: Sequence[float] | None = None,
    qcfg: QLearningConfig | None = None,
) -> tuple[EpisodeLog, tuple[int, ...]]:
    """Play ``episodes`` episodes, starting from the previous-arrival ``bits``.

    Without ``tables`` every agent moves uniformly at random.  With them
    (one dict per agent, none shared), agent i acts epsilon-greedily on
    ``tables[i]`` at ``epsilons[e]`` in episode e (0 when None) and, when
    ``qcfg`` is given, makes one Q-learning update per step (terminal
    steps bootstrap to 0).  Each
    step, agents draw from ``rng`` in agent order: a random agent one
    ``integers(0, 2)``; a Q-agent one ``random()`` coin if epsilon > 0,
    then one ``integers(0, 2)`` if it explores or its Q-values tie
    exactly.  Returns the episode log and the bits for the next episode.
    """
    n = cfg.n_agents
    bits = tuple(bits)
    if episodes < 1 or len(bits) != n or not set(bits) <= {0, 1}:
        raise ConfigError(f"need episodes >= 1 and {n} arrival bits, got {episodes}, {bits}")
    if tables is not None and len({id(t) for t in tables}) != n:
        raise ConfigError(f"need {n} Q-tables, one per agent and none shared, got {len(tables)}")
    if tables is None and (epsilons is not None or qcfg is not None):
        raise ConfigError("epsilons and qcfg need Q-tables")
    if epsilons is not None and len(epsilons) != episodes:
        raise ConfigError(f"got {len(epsilons)} epsilons for {episodes} episodes")
    words = _Words(rng)
    try:
        if tables is None:
            return _play_random(cfg, episodes, words)
        return _play_q(cfg, episodes, words, bits, tables, epsilons, qcfg)
    finally:
        words.close()


class _Words:
    """A PCG64 generator's draw position: the unread words of the last block
    of ``_CHUNK`` and numpy's buffered half.  The kernels read and write it
    themselves; :meth:`close` hands it back to the generator."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.bg = rng.bit_generator
        if not isinstance(self.bg, np.random.PCG64):
            raise ConfigError(f"need a PCG64 generator, got {type(self.bg).__name__}")
        state = self.bg.state
        self.has_uint32, self.uinteger = state["has_uint32"], state["uinteger"]
        self._rest = iter(())  # the unread words of the last block

    def read_coins(self, block: np.ndarray, used: int) -> None:
        """Random play read ``used`` coins of ``block``, at least one: the words
        after theirs are unread; the last word's high half is then buffered
        (odd count) or spent."""
        self._rest = iter(block[(used + 1) // 2 :])
        self.has_uint32, self.uinteger = used % 2, int(block[(used - 1) // 2]) >> 32

    def close(self) -> None:
        # PCG64 advances modulo its period 2**128, so this steps back over the unread words.
        self.bg.advance(2**128 - operator.length_hint(self._rest))
        self.bg.state = self.bg.state | {"has_uint32": self.has_uint32, "uinteger": self.uinteger}


def _coin_threshold(eps: float) -> int:
    """The raw words ``w < threshold`` are those whose ``random()`` is below
    ``eps``; 0 when ``eps`` is not above 0 (or is NaN), which draws no coin."""
    return math.ceil(min(eps, 1.0) * 2.0**53) << 11 if eps > 0.0 else 0


def _play_q(cfg, episodes, words, bits, tables, epsilons, qcfg):
    """Q-agent play.  A step makes one lookup in ``index``: the rows at the
    next key serve both the update's bootstrap and the next step."""
    n, length, cap = cfg.n_agents, cfg.path_length, cfg.step_cap
    type_b = cfg.state_type is StateType.TYPE_B
    learn = qcfg is not None
    alpha, gamma = (qcfg.alpha, qcfg.gamma) if learn else (None, None)
    # key -> every table's row of key.  Learning inserts them when the key is
    # first met, as the step from it updates them; greedy play inserts none.
    index: dict[tuple, list] = {}

    def rows_at(key):
        rows = [t.setdefault(key, [0.0, 0.0]) if learn else t.get(key, (0.0, 0.0)) for t in tables]
        index[key] = rows
        return rows

    kinds: dict[frozenset, tuple] = {}  # arrival set -> (body id, rewards, next bits)
    bodies, ids, steps_column = [], [], []
    rest, has, half = words._rest, words.has_uint32, words.uinteger
    draw, need, hint, add = rest.__next__, 2 * n, operator.length_hint, operator.add
    try:
        for e in range(episodes):
            thr = _coin_threshold(0.0 if epsilons is None else epsilons[e])
            pos, steps = [0] * n, 0
            key = (*pos, *bits) if type_b else tuple(pos)
            rows = index.get(key) or rows_at(key)
            while True:
                if hint(rest) < need:
                    rest = iter([*rest, *words.bg.random_raw(max(_CHUNK, need)).tolist()])
                    draw = rest.__next__
                acts = []
                for q_stay, q_move in rows:
                    if not (thr and draw() < thr or q_stay == q_move):
                        acts.append(q_move > q_stay)  # a bool indexes the row as 0 or 1
                    elif has:
                        has = 0  # numpy keeps the spent half in uinteger
                        acts.append(half >> 31)
                    else:
                        w = draw()
                        has, half = 1, w >> 32
                        acts.append(w >> 31 & 1)
                pos = list(map(add, pos, acts))
                steps += 1
                if length in pos or steps >= cap:
                    won = frozenset(i for i, p in enumerate(pos) if p == length)
                    if won not in kinds:
                        rewards = assign_rewards(won, cfg)
                        kinds[won] = (len(bodies), rewards, tuple(int(i in won) for i in range(n)))
                        bodies.append((tuple(sorted(won)), rewards))
                    body, rewards, bits = kinds[won]
                    if learn:
                        for row, a, r in zip(rows, acts, rewards):
                            row[a] += alpha * (r - row[a])
                    break
                next_key = (*pos, *bits) if type_b else tuple(pos)
                next_rows = index.get(next_key) or rows_at(next_key)
                if learn:
                    # The target leaves out the zero reward: 0.0 + x and x
                    # differ only in the sign of a zero, which no update keeps.
                    for row, (q_stay, q_move), a in zip(rows, next_rows, acts):
                        row[a] += alpha * (gamma * (q_move if q_move > q_stay else q_stay) - row[a])
                key, rows = next_key, next_rows
            ids.append(body)
            steps_column.append(steps)
    finally:
        words._rest, words.has_uint32, words.uinteger = rest, has, half
    return EpisodeLog(bodies, ids, steps_column), bits


def _play_random(cfg, episodes, words):
    """Random play.  An episode that runs past a block carries its coins into
    the next, so memory stays at one block plus at most ``step_cap`` steps."""
    n, length, cap = cfg.n_agents, cfg.path_length, cfg.step_cap
    kinds: dict[bytes, int] = {}  # arrival pattern -> body id
    bodies, ids, steps_column = [], [], []
    pending = np.array([words.uinteger >> 31] if words.has_uint32 else [], dtype=np.uint64)
    while True:
        block = words.bg.random_raw((_CHUNK * n + 1) // 2)
        coins = np.concatenate((pending, (block[:, None] >> np.uint64([31, 63]) & 1).ravel()))
        rows = len(coins) // n
        moves = coins[: rows * n].reshape(rows, n)
        # pos[i, j]: agent i's moves in the block's first j steps, so an
        # episode from step s to step j leaves it at pos[i, j] - pos[i, s].
        pos = np.zeros((n, rows + 1), dtype=np.int32)
        np.cumsum(moves.T, axis=1, dtype=np.int32, out=pos[:, 1:])
        # ends[s]: where an episode starting at s ends, rows + 1 or more
        # when the block is too short to tell.
        ends = np.arange(rows) + min(cap, rows + 1)
        for agent in pos:
            np.minimum(ends, np.searchsorted(agent, agent[:-1] + length), out=ends)
        starts, s, stop = [], 0, ends.tolist()
        need = episodes - len(ids)
        while len(starts) < need and s < rows and stop[s] <= rows:
            starts.append(s)
            s = stop[s]
        first = np.array(starts, dtype=np.intp)
        last = ends[first]
        hits = (pos[:, last] - pos[:, first]).T == length
        for row, start, end in zip(hits, starts, last.tolist()):
            used = end * n - len(pending)
            key = row.tobytes()
            if key not in kinds:
                won = tuple(np.flatnonzero(row).tolist())
                try:
                    rewards = assign_rewards(frozenset(won), cfg)
                except BaseException:
                    words.read_coins(block, used)  # stop after the raising episode
                    raise
                kinds[key] = len(bodies)
                bodies.append((won, rewards))
            ids.append(kinds[key])
            steps_column.append(end - start)
        if len(ids) == episodes:
            words.read_coins(block, used)
            won = bodies[ids[-1]][0]
            return EpisodeLog(bodies, ids, steps_column), tuple(int(i in won) for i in range(n))
        pending = coins[s * n :]


@dataclass
class TrainRun:
    """Training output: the episode log, one Q-table per agent, and the
    arrival bits to carry into any follow-on episodes."""

    outcomes: EpisodeLog
    tables: list[dict[tuple[int, ...], list[float]]]
    final_prev_winners: tuple[int, ...]


def run_random(cfg: GameConfig, total_episodes: int, seed_or_rng=0) -> EpisodeLog:
    """Episode log of ``total_episodes`` played by uniform-random agents."""
    return play(cfg, total_episodes, np.random.default_rng(seed_or_rng), (0,) * cfg.n_agents)[0]


def train_run(cfg: GameConfig, qcfg: QLearningConfig, total_episodes: int, seed_or_rng=0) -> TrainRun:
    """Train independent Q-learners for ``total_episodes`` episodes.

    All agents share the decayed epsilon of the current episode and
    update their own tables on every step.
    """
    tables: list[dict] = [{} for _ in range(cfg.n_agents)]
    epsilons = [epsilon_at(e, total_episodes, qcfg) for e in range(total_episodes)]
    rng = np.random.default_rng(seed_or_rng)  # returns a Generator unchanged
    outcomes, bits = play(cfg, total_episodes, rng, (0,) * cfg.n_agents, tables, epsilons, qcfg)
    bound = cfg.r_high / (1.0 - qcfg.gamma)
    rows = itertools.chain.from_iterable(table.values() for table in tables)
    values = np.fromiter(itertools.chain.from_iterable(rows), dtype=float)
    # A NaN fails the comparison as well.
    if not np.all(np.abs(values) <= bound):
        raise DataError(f"Q-values escaped the discounted-return bound {bound}")
    return TrainRun(outcomes=outcomes, tables=tables, final_prev_winners=bits)
