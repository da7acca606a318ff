"""Agent play: uniform random and independent tabular Q-learning.

:func:`play` runs every episode altlab simulates, on one of two paths.

Random play never looks at the state, so its draws do not depend on it:
:func:`_play_random` takes the n coins of each step from the generator in
blocks of ``_CHUNK`` steps, as ``integers(0, 2, size=(_CHUNK, n))``.  That
call yields the same values, and leaves the generator in the same state,
as ``_CHUNK * n`` scalar ``integers(0, 2)`` calls, so the blocks follow
the per-agent, per-step draw order that :func:`play` documents.  A
cumulative sum over the block finds every episode's end with numpy; only
the walk from one episode's start to the next is a Python loop.  When the
last episode ends, the generator is rewound to the start of its block and
redrawn for the rows used, so the caller's generator ends exactly where
per-step draws would leave it.

Epsilon-greedy training and frozen greedy evaluation go step by step.  A
Q-agent's table is a plain dict from observation key (the positions tuple,
plus the previous-arrival bits for Type B) to ``[q_stay, q_move]``; an
unseen key reads as all zeros and is only inserted by an update.  Each
agent reads and writes only its own table.  Exploration follows a linear
epsilon schedule that is shared by all agents within an episode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .game import EpisodeOutcome, GameConfig, StateType, assign_rewards

_CHUNK = 4096  # random-play steps drawn per generator call


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
) -> tuple[list[EpisodeOutcome], tuple[int, ...]]:
    """Play ``episodes`` episodes, starting from the previous-arrival ``bits``.

    Without ``tables`` every agent moves uniformly at random.  With them,
    agent i acts epsilon-greedily on ``tables[i]`` at ``epsilons[e]`` in
    episode e (0 when None) and, when ``qcfg`` is given, makes one
    Q-learning update per step (terminal steps bootstrap to 0).  Each
    step, agents draw from ``rng`` in agent order: a random agent one
    ``integers(0, 2)``; a Q-agent one ``random()`` coin if epsilon > 0,
    then one ``integers(0, 2)`` if it explores or its Q-values tie
    exactly.  Random play takes those draws in blocks (:func:`_play_random`);
    the values and the generator's final state are the same.  Returns the
    outcomes and the bits for the next episode.
    """
    n, length, cap = cfg.n_agents, cfg.path_length, cfg.step_cap
    bits = tuple(bits)
    if episodes < 1 or len(bits) != n or not set(bits) <= {0, 1}:
        raise ConfigError(f"need episodes >= 1 and {n} arrival bits, got {episodes}, {bits}")
    if tables is None:
        return _play_random(cfg, episodes, rng)
    if len(tables) != n:
        raise ConfigError(f"got {len(tables)} Q-tables for {n} agents")
    type_b = cfg.state_type is StateType.TYPE_B
    draw, coin = rng.integers, rng.random
    zeros = (0.0,) * n
    outcomes = []
    for e in range(episodes):
        eps = 0.0 if epsilons is None else epsilons[e]
        pos, steps = [0] * n, 0
        while True:
            key = (*pos, *bits) if type_b else tuple(pos)
            acts = []
            for table in tables:
                row = table.get(key)
                if eps > 0.0 and coin() < eps or row is None or row[0] == row[1]:
                    acts.append(int(draw(0, 2)))
                else:
                    acts.append(1 if row[1] > row[0] else 0)
            pos = [p + a for p, a in zip(pos, acts)]
            steps += 1
            done = length in pos or steps >= cap
            won = frozenset(i for i, p in enumerate(pos) if p == length) if done else None
            rewards = assign_rewards(won, cfg) if done else zeros
            if qcfg is not None:
                next_key = (*pos, *bits) if type_b else tuple(pos)
                for table, a, r in zip(tables, acts, rewards):
                    nxt = None if done else table.get(next_key)
                    target = r + qcfg.gamma * max(nxt) if nxt else r
                    row = table.setdefault(key, [0.0, 0.0])
                    row[a] += qcfg.alpha * (target - row[a])
            if done:
                break
        winner = next(iter(won)) if len(won) == 1 else None
        outcomes.append(EpisodeOutcome(e, won, winner, rewards, steps, not won))
        bits = tuple(int(i in won) for i in range(n))
    return outcomes, bits


def _play_random(
    cfg: GameConfig, episodes: int, rng: np.random.Generator
) -> tuple[list[EpisodeOutcome], tuple[int, ...]]:
    """Random play of ``episodes`` episodes, drawn in blocks of ``_CHUNK`` steps.

    The steps of an episode that runs past a block are carried to the
    front of the next one, so memory stays at one block plus at most
    ``step_cap`` rows.
    """
    n, length, cap = cfg.n_agents, cfg.path_length, cfg.step_cap
    kinds: dict[bytes, tuple] = {}  # arrival pattern -> (won, winner, rewards, capped)
    outcomes: list[EpisodeOutcome] = []
    pending = np.zeros((0, n), dtype=np.int64)  # the steps of an unfinished episode
    while True:
        snapshot = rng.bit_generator.state
        moves = np.concatenate((pending, rng.integers(0, 2, size=(_CHUNK, n))))
        rows = len(moves)
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
        need = episodes - len(outcomes)
        while len(starts) < need and s < rows and stop[s] <= rows:
            starts.append(s)
            s = stop[s]
        first = np.array(starts, dtype=np.intp)
        last = ends[first]
        hits = (pos[:, last] - pos[:, first]).T == length
        for row, steps in zip(hits, (last - first).tolist()):
            key = row.tobytes()
            if key not in kinds:
                won = frozenset(np.flatnonzero(row).tolist())
                winner = next(iter(won)) if len(won) == 1 else None
                kinds[key] = (won, winner, assign_rewards(won, cfg), not won)
            won, winner, rewards, capped = kinds[key]
            outcomes.append(EpisodeOutcome(len(outcomes), won, winner, rewards, steps, capped))
        if len(outcomes) == episodes:
            # Leave the generator where per-step draws would: after the rows used.
            rng.bit_generator.state = snapshot
            rng.integers(0, 2, size=(s - len(pending), n))
            won = outcomes[-1].arrivals
            return outcomes, tuple(int(i in won) for i in range(n))
        pending = moves[s:]


@dataclass
class TrainRun:
    """Training output: the episode log, one Q-table per agent, and the
    arrival bits to carry into any follow-on episodes."""

    outcomes: list[EpisodeOutcome]
    tables: list[dict[tuple[int, ...], list[float]]]
    final_prev_winners: tuple[int, ...]


def run_random(cfg: GameConfig, total_episodes: int, seed_or_rng=0) -> list[EpisodeOutcome]:
    """Episode log of ``total_episodes`` played by uniform-random agents."""
    return play(cfg, total_episodes, np.random.default_rng(seed_or_rng), (0,) * cfg.n_agents)[0]


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
    tables: list[dict] = [{} for _ in range(cfg.n_agents)]
    epsilons = [epsilon_at(e, total_episodes, qcfg) for e in range(total_episodes)]
    rng = np.random.default_rng(seed_or_rng)  # returns a Generator unchanged
    outcomes, bits = play(cfg, total_episodes, rng, (0,) * cfg.n_agents, tables, epsilons, qcfg)
    bound = cfg.r_high / (1.0 - qcfg.gamma)
    if not max((abs(v) for t in tables for row in t.values() for v in row), default=0.0) <= bound:
        raise DataError(f"Q-values escaped the discounted-return bound {bound}")
    return TrainRun(outcomes=outcomes, tables=tables, final_prev_winners=bits)
