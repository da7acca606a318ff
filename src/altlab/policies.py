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
coins of at least ``_CHUNK`` steps at once, bits 31 and 63 of each word.
A cumulative sum over the block and a gather from each agent's moves give
the step at which an agent starting at any step would arrive, so the
episode starts follow by pointer doubling (:func:`_episode_starts`).  Body
ids are per block too: each episode's arrival row packs into one key of
whole 64-bit words, and a key not met before gets the next id, in order of
first appearance, from one :func:`assign_rewards` call.

Epsilon-greedy training and frozen greedy evaluation go step by step.  The
Q-agents share one store, a dict from observation key (the positions
tuple, plus the previous-arrival bits for Type B) to a flat list of 2n
floats, ``[q_stay_0, q_move_0, ..., q_stay_{n-1}, q_move_{n-1}]``; agent i
reads and writes only its pair (:func:`agent_table`), and an unseen key
reads as all zeros.  Training inserts a key's zeros when it first meets
the key, and the step from that key updates them unless the step raises;
greedy play inserts none.  Before each step, the kernel tops its unread
words up to the 2n a step can use.  Exploration follows a linear epsilon
schedule that is shared by all agents within an episode; its coin
thresholds are computed ``_CHUNK`` episodes at a time
(:func:`_coin_thresholds`).

The Q-play kernel is Python source generated for each (n, state type,
learning) shape by :func:`_q_kernel`, which writes every per-agent loop
out as straight-line code on local variables, compiles it once and keeps
it in an ``lru_cache``.  It makes the same draws and float operations, in
the same order, as a loop over the agents would.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .game import EpisodeLog, GameConfig, StateType, assign_rewards, settle_fields

_CHUNK = 4096  # words per generator call; random play reads at least this many steps
_BOUND_SLICE = 1 << 16  # Q-values per slice of train_run's bound check


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
        settle_fields(self)
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


def _epsilon_schedule(total_episodes: int, cfg: QLearningConfig) -> np.ndarray:
    """``epsilon_at(e, total_episodes, cfg)`` for every episode e of a run,
    bit for bit: numpy makes the same float operations in the same order."""
    if total_episodes < 1:
        raise ConfigError(f"total_episodes must be >= 1, got {total_episodes}")
    decay_end = math.floor(cfg.decay_end_fraction * total_episodes)
    schedule = np.full(total_episodes, cfg.epsilon_min, dtype=float)
    frac = np.arange(decay_end) / decay_end
    schedule[:decay_end] = cfg.epsilon_initial + (cfg.epsilon_min - cfg.epsilon_initial) * frac
    return schedule


def play(
    cfg: GameConfig,
    episodes: int,
    rng: np.random.Generator,
    bits: Sequence[int],
    tables: dict | None = None,
    epsilons: Sequence[float] | None = None,
    qcfg: QLearningConfig | None = None,
) -> tuple[EpisodeLog, tuple[int, ...]]:
    """Play ``episodes`` episodes, starting from the previous-arrival ``bits``.

    Without ``tables`` every agent moves uniformly at random.  With a Q-store
    (one dict of rows of 2n values), agent i acts epsilon-greedily on its pair
    of each row at ``epsilons[e]`` in episode e (0 when None) and, when
    ``qcfg`` is given, makes one Q-learning update per step (terminal steps
    bootstrap to 0).  Each step, agents draw from ``rng`` in agent order: a
    random agent one ``integers(0, 2)``; a Q-agent one ``random()`` coin if
    epsilon > 0, then one ``integers(0, 2)`` if it explores or its Q-values
    tie exactly.  Returns the episode log and the bits for the next episode.
    """
    n = cfg.n_agents
    bits = tuple(bits)
    if episodes < 1 or len(bits) != n or not set(bits) <= {0, 1}:
        raise ConfigError(f"need episodes >= 1 and {n} arrival bits, got {episodes}, {bits}")
    if tables is not None and (type(tables) is not dict or {*map(len, tables.values())} - {2 * n}):
        raise ConfigError(f"need one Q-store dict whose rows hold {2 * n} values, a pair per agent")
    if tables is None and (epsilons is not None or qcfg is not None):
        raise ConfigError("epsilons and qcfg need Q-tables")
    if epsilons is not None and len(epsilons) != episodes:
        raise ConfigError(f"got {len(epsilons)} epsilons for {episodes} episodes")
    words = _Words(rng)
    try:
        if tables is None:
            return _play_random(cfg, episodes, words)
        kernel = _q_kernel(n, cfg.state_type is StateType.TYPE_B, qcfg is not None)
        return kernel(cfg, episodes, words, bits, tables, epsilons, qcfg)
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


def _coin_thresholds(epsilons: Sequence[float] | None, episodes: int) -> Iterator[list[int]]:
    """Each episode's coin threshold, one list per ``_CHUNK`` episodes: the raw
    words ``w < threshold`` are those whose ``random()`` is below its epsilon;
    0 when that is not above 0 (or is NaN, or there are no ``epsilons``),
    which draws no coin.  Scaling by 2**53 and ``ceil`` are exact in floats."""
    for first in range(0, episodes, _CHUNK):
        size = min(_CHUNK, episodes - first)
        eps = np.zeros(size) if epsilons is None else np.asarray(epsilons[first : first + size], dtype=float)
        scaled = np.where(eps > 0.0, np.ceil(np.minimum(eps, 1.0) * 2.0**53), 0.0)  # no NaN reaches the int cast
        yield [t << 11 for t in scaled.astype(np.int64).tolist()]


@functools.lru_cache(maxsize=64)
def _q_kernel(n: int, type_b: bool, learn: bool):
    """Q-agent play for one (n, state type, learning) shape, compiled once,
    with every per-agent loop written out: agent i's pair is ``s{i}, m{i}``,
    its action ``a{i}`` and its position ``p{i}``.  A step makes one lookup
    in ``store``: the row at the next key serves both the update's bootstrap
    and the next step.  The kernel reads ``assign_rewards`` and ``_CHUNK``
    from this module when it runs.

    Agent i's update writes its new value from ``s{i}`` or ``m{i}``, not from
    the row, which is exact: only agent i's own update writes agent i's pair,
    and every pair of ``next_row`` is read before the first update, so the
    pair still holds ``s{i}, m{i}`` also when ``next_row`` is ``row``."""

    def each(text, sep=", "):  # text per agent: {i} its index, {k} its pair's first slot
        return sep.join(text.format(i=i, k=2 * i) for i in range(n))

    # A tie or explore bit is the buffered half if there is one (numpy keeps
    # the spent half in uinteger), else bit 31 of a fresh word, whose high
    # half is then buffered.
    draw_bit = """
                    elif has: has, a{i} = 0, half >> 31
                    else: w = draw(); has, half, a{i} = 1, w >> 32, w >> 31 & 1"""
    explore = each("""
                    if not (draw() < thr or s{i} == m{i}): a{i} = 1 if m{i} > s{i} else 0""" + draw_bit, "")
    greedy = each("""
                    if s{i} != m{i}: a{i} = 1 if m{i} > s{i} else 0""" + draw_bit, "")
    fetch = "fetch(key) or insert(key, [0.0] * need)" if learn else "fetch(key, zeros)"
    key = f"key = ({each('p{i}')},{each('b{i}') if type_b else ''})"
    unpack = f"\n            {each('b{i}')}, = bits" if type_b else ""
    terminal = bootstrap = ""
    if learn:
        update = """
%(pad)sif a{i}: row[{k} + 1] = m{i} + alpha * (%(x)s - m{i})
%(pad)selse: row[{k}] = s{i} + alpha * (%(x)s - s{i})"""
        terminal = f"""
                    {each('r{i}')}, = rewards""" + each(update % {"pad": " " * 20, "x": "r{i}"}, "")
        # The target leaves out the zero reward: 0.0 + x and x differ only
        # in the sign of a zero, which no update keeps.
        bootstrap = f"""
                {each('t{i}, u{i}')}, = next_row""" + each(
            update % {"pad": " " * 16, "x": "gamma * (u{i} if u{i} > t{i} else t{i})"}, ""
        )
    src = f"""
def _play_q(cfg, episodes, words, bits, store, epsilons, qcfg):
    length, cap, need, fetch, insert = cfg.path_length, cfg.step_cap, {2 * n}, store.get, store.setdefault
    alpha, gamma, zeros = (qcfg.alpha, qcfg.gamma, None) if qcfg else (None, None, (0.0,) * need)
    kinds, bodies, ids, steps_column = {{}}, [], [], []  # arrival flags -> (body id, rewards, next bits)
    rest, has, half, hint = words._rest, words.has_uint32, words.uinteger, operator.length_hint
    draw = rest.__next__
    try:
        for thr in itertools.chain.from_iterable(_coin_thresholds(epsilons, episodes)):
            {each('p{i}', ' = ')} = steps = 0{unpack}
            {key}
            row = {fetch}
            while True:
                if hint(rest) < need:
                    rest = iter([*rest, *words.bg.random_raw(max(_CHUNK, need)).tolist()])
                    draw = rest.__next__
                {each('s{i}, m{i}')}, = row
                if thr:{explore}
                else:{greedy}
                {each('p{i} += a{i}', '; ')}
                steps += 1
                if {each('p{i} == length', ' or ')} or steps >= cap:
                    arrived = ({each('p{i} == length')},)
                    known = kinds.get(arrived)
                    if known is None:
                        won = frozenset(i for i, hit in enumerate(arrived) if hit)
                        known = kinds[arrived] = (len(bodies), assign_rewards(won, cfg), tuple(map(int, arrived)))
                        bodies.append((tuple(sorted(won)), known[1]))
                    body, rewards, bits = known{terminal}
                    break
                {key}
                next_row = {fetch}{bootstrap}
                row = next_row
            ids.append(body)
            steps_column.append(steps)
    finally:
        words._rest, words.has_uint32, words.uinteger = rest, has, half
    return EpisodeLog(bodies, ids, steps_column), bits
"""
    namespace: dict = {}
    name = f"<altlab Q-kernel n={n} {'B' if type_b else 'A'} {'learning' if learn else 'greedy'}>"
    exec(compile(src, name, "exec"), globals(), namespace)
    return namespace["_play_q"]


def _episode_starts(ends: np.ndarray, need: int) -> tuple[np.ndarray, int]:
    """The first ``need`` or fewer episode starts of a block of ``rows =
    len(ends)`` steps, from step 0, and the next start.  An episode from step
    s ends at ``ends[s] > s``; the starts stop at the block's end or before
    an episode that ends past it.  Pointer doubling: ``jump`` goes 2**k
    episodes on, and ``chain`` holds the first 2**k starts."""
    rows = len(ends)
    jump = np.full(rows + 2, rows + 1, dtype=np.intp)  # rows + 1: past the last start
    jump[:rows] = np.where(ends <= rows, ends, rows + 1)
    chain = np.zeros(1, dtype=np.intp)
    while len(chain) <= need and chain[-1] <= rows:
        chain = np.concatenate((chain, jump[chain]))
        jump = jump[jump]
    chain = chain[chain <= rows]
    k = min(need, len(chain) - 1)
    return chain[:k], int(chain[k])


def _play_random(cfg, episodes, words):
    """Random play.  An episode that runs past a block carries its coins into
    the next, so memory stays at one block plus at most ``step_cap`` steps."""
    n, length, cap = cfg.n_agents, cfg.path_length, cfg.step_cap
    kinds: dict = {}  # packed arrival row (an int, or bytes past 64 agents) -> body id
    bodies, ids, steps_column, count = [], [], [], 0
    pending = np.array([words.uinteger >> 31] if words.has_uint32 else [], dtype=np.uint8)
    while True:
        block = words.bg.random_raw((_CHUNK * n + 1) // 2)
        # Bit 31 of each 32-bit half, low half first: the top bit of bytes 3 and 7.
        coins = np.concatenate((pending, block.astype("<u8", copy=False).view(np.uint8)[3::4] >> 7))
        rows = len(coins) // n
        # flat: agent after agent, the steps of its moves, then step rows,
        # past the block, as i * (rows + 1) + step.  before[i, s]: agent i's
        # moves in the first s steps, so from step s its length-th move is
        # its move number before[i, s] + length - 1, or past the block.
        ahead = np.ones((n, rows + 1), dtype=bool)
        ahead[:, :rows] = coins[: rows * n].reshape(rows, n).T
        flat = np.flatnonzero(ahead)
        before = np.zeros((n, rows + 1), dtype=np.int32)
        np.cumsum(ahead[:, :rows], axis=1, dtype=np.int32, out=before[:, 1:])
        past = np.cumsum(before[:, -1] + 1) - 1  # where in flat each agent's step rows is
        nth = past - before[:, -1] + (length - 1)  # and its length-th move from step 0
        # reach[i, s]: the step count at which agent i, starting at step s,
        # arrives; rows + 1 when the block is too short to tell.
        reach = np.empty((n, rows), dtype=np.int32)
        for i, (moved, at, end) in enumerate(zip(before[:, :-1], nth, past)):
            arrive = flat[np.minimum(moved + at, end)]
            np.subtract(arrive, i * (rows + 1) - 1, out=reach[i], casting="unsafe")
        # ends[s]: where an episode starting at s ends, rows + 1 or more
        # when the block is too short to tell.
        ends = np.minimum(reach.min(axis=0), np.arange(rows) + min(cap, rows + 1))
        first, s = _episode_starts(ends, episodes - count)
        last = ends[first]
        hits = (reach[:, first] == last).T  # hits[e, i]: agent i arrived in episode e
        # Each arrival row packs into whole 64-bit words: one uint64 up to
        # 64 agents, which np.unique sorts faster than void bytes.
        keys = np.zeros((len(first), -(-n // 64) * 8), dtype=np.uint8)
        keys[:, : (n + 7) // 8] = np.packbits(hits, axis=1)
        keys = keys.view(np.uint64 if n <= 64 else (np.void, keys.shape[1])).ravel()
        keys, seen, inverse = np.unique(keys, return_index=True, return_inverse=True)
        # A key not met before gets the next id, in order of first appearance.
        code = [*map(kinds.get, keys := keys.tolist())]
        for k in np.argsort(seen).tolist():
            if code[k] is None:
                won = tuple(np.flatnonzero(hits[seen[k]]).tolist())
                try:
                    rewards = assign_rewards(frozenset(won), cfg)
                except BaseException:
                    words.read_coins(block, int(last[seen[k]]) * n - len(pending))  # stop after it
                    raise
                code[k] = kinds[keys[k]] = len(bodies)
                bodies.append((won, rewards))
        ids.append(np.array(code, dtype=np.int32)[inverse])
        steps_column.append(last - first)
        count += len(first)
        if count == episodes:
            words.read_coins(block, int(last[-1]) * n - len(pending))
            won = bodies[ids[-1][-1]][0]
            log = EpisodeLog(bodies, np.concatenate(ids), np.concatenate(steps_column))
            return log, tuple(int(i in won) for i in range(n))
        pending = coins[s * n :]


def agent_table(store: dict, i: int) -> dict[tuple[int, ...], list[float]]:
    """Agent ``i``'s Q-table, ``{key: [q_stay, q_move]}``, in the store's key order."""
    return {key: row[2 * i : 2 * i + 2] for key, row in store.items()}


@dataclass
class TrainRun:
    """Training output: the episode log, the Q-store, and the arrival bits to carry on."""

    outcomes: EpisodeLog
    tables: dict[tuple[int, ...], list[float]]
    final_prev_winners: tuple[int, ...]


def run_random(cfg: GameConfig, total_episodes: int, seed_or_rng=0) -> EpisodeLog:
    """Episode log of ``total_episodes`` played by uniform-random agents."""
    return play(cfg, total_episodes, np.random.default_rng(seed_or_rng), (0,) * cfg.n_agents)[0]


def train_run(cfg: GameConfig, qcfg: QLearningConfig, total_episodes: int, seed_or_rng=0) -> TrainRun:
    """Train independent Q-learners for ``total_episodes`` episodes.

    All agents share the decayed epsilon of the current episode and
    update their own values on every step.
    """
    store: dict = {}
    epsilons = _epsilon_schedule(total_episodes, qcfg)
    rng = np.random.default_rng(seed_or_rng)  # returns a Generator unchanged
    outcomes, bits = play(cfg, total_episodes, rng, (0,) * cfg.n_agents, store, epsilons, qcfg)
    bound = cfg.r_high / (1.0 - qcfg.gamma)
    values = itertools.chain.from_iterable(store.values())
    # Checked a slice at a time, so no copy of every value; a NaN fails the comparison as well.
    while (chunk := np.fromiter(itertools.islice(values, _BOUND_SLICE), dtype=float)).size:
        if not np.all(np.abs(chunk) <= bound):
            raise DataError(f"Q-values escaped the discounted-return bound {bound}")
    return TrainRun(outcomes=outcomes, tables=store, final_prev_winners=bits)
