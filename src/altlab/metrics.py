"""Alternation metrics over sliding batches, plus traditional outcome metrics.

An episode log of length nu is scanned with overlapping batches of n
consecutive episodes (n = agent count), giving b = nu - n + 1 batches.
Each batch yields counting statistics:

    f    distinct agents with at least one arrival in the batch
         (tie participants included)
    tau  total arrivals in the batch, summed over episodes
    w    episodes in the batch with an exclusive winner
    g    agents with exactly one exclusive win in the batch

Six per-batch alternation scores are derived from these counts, each in
[0, 1] with 1 attained exactly by perfect alternation (every agent wins
exclusively once per batch):

    falt   f / tau
    qfalt  (f / tau)^2
    ealt   w * f / n^2
    qealt  (w * f / n^2)^2
    calt   [sum_l (n - y_l)] * qfalt / (n * (n - 1)), clamped to <= 1
    aalt   g / tau

where y_l counts the arrivals of episode l, so the tie-sum
sum_l (n - y_l) equals n^2 - tau.  A batch with no arrivals (all capped)
scores 0 on all six.  A run-level score is the mean over all batches.

Every batch count is a difference of two cumulative sums over per-episode
columns (arrivals per agent, exclusive wins per agent), so one vectorized
pass scores every batch of a log.

Traditional metrics summarize whole logs: win-count fairness, reward
efficiency, turn-taking fairness over per-agent total arrivals, and
reward fairness.  Ratios with a zero denominator are undefined and
reported as None.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, InsufficientDataError
from .game import EpisodeOutcome

VARIANTS = ("falt", "qfalt", "ealt", "qealt", "calt", "aalt")


def _columns(
    episodes: Sequence[EpisodeOutcome], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrival matrix bool[nu, n], exclusive-winner index int[nu] (-1 for
    none) and reward matrix float[nu, n] of a log, built in one pass."""
    if n < 2:
        raise ConfigError(f"need at least 2 agents, got {n}")
    counts: list[int] = []
    ids: list[int] = []
    winners: list[int] = []
    rewards: list[tuple[float, ...]] = []
    for ep in episodes:
        if len(ep.rewards) != n:
            raise DataError(
                f"episode {ep.episode_index}: {len(ep.rewards)} rewards for {n} agents"
            )
        counts.append(len(ep.arrivals))
        ids += ep.arrivals
        winners.append(-1 if ep.exclusive_winner is None else ep.exclusive_winner)
        rewards.append(ep.rewards)
    for what, values, low in (("arrival", ids, 0), ("exclusive winner", winners, -1)):
        if values and not (low <= min(values) and max(values) < n):
            bad = next(v for v in values if not low <= v < n)
            raise DataError(f"{what} id {bad} out of range for {n} agents")
    nu = len(counts)
    arrived = np.zeros((nu, n), dtype=bool)
    arrived[np.repeat(np.arange(nu), counts), ids] = True
    return arrived, np.array(winners, dtype=np.intp), np.array(rewards, dtype=float).reshape(nu, n)


def _window_sums(x: np.ndarray, n: int) -> np.ndarray:
    """Sums over every run of n consecutive rows of x."""
    # int32 holds every count of a log that fits in memory (< 2**31 arrivals).
    c = np.zeros((len(x) + 1, *x.shape[1:]), dtype=np.int32)
    np.cumsum(x, axis=0, dtype=np.int32, out=c[1:])
    return c[n:] - c[:-n]


def _betas(arrived: np.ndarray, winner: np.ndarray, n: int) -> dict[str, np.ndarray]:
    if len(winner) < n:
        raise InsufficientDataError(
            f"log of {len(winner)} episodes is shorter than the batch size {n}"
        )
    f = (_window_sums(arrived, n) > 0).sum(axis=1)
    g = (_window_sums(winner[:, None] == np.arange(n), n) == 1).sum(axis=1)
    tau = _window_sums(arrived.sum(axis=1), n)
    w = _window_sums(winner >= 0, n)
    some = tau > 0
    falt = np.divide(f, tau, out=np.zeros(len(tau)), where=some)
    qfalt = falt * falt
    ealt = w * f / (n * n)
    # Dividing the integer tie-sum first keeps perfect-alternation and
    # fixed-rotation batches exact (the tie-sum is n * (n - 1) there).
    # Capped episodes push it higher, hence the clamp.
    calt = np.where(some, np.minimum(1.0, ((n * n - tau) / (n * (n - 1))) * qfalt), 0.0)
    return {
        "falt": falt,
        "qfalt": qfalt,
        "ealt": ealt,
        "qealt": ealt * ealt,
        "calt": calt,
        "aalt": np.divide(g, tau, out=np.zeros(len(tau)), where=some),
    }


def window_betas(episodes: Sequence[EpisodeOutcome], n: int) -> dict[str, np.ndarray]:
    """Per-batch score of every variant; entry i scores episodes i .. i + n - 1."""
    arrived, winner, _ = _columns(episodes, n)
    return _betas(arrived, winner, n)


def _shifted_mean(values: np.ndarray) -> float:
    # Mean as base + mean deviation: exact when all values coincide,
    # which run-level scores of perfectly alternating logs rely on.
    base = float(values[0])
    return base + math.fsum((values - base).tolist()) / len(values)


def alt_scores(episodes: Sequence[EpisodeOutcome], n: int) -> dict[str, float]:
    """All six run-level alternation scores in a single scan of the log."""
    return {v: _shifted_mean(b) for v, b in window_betas(episodes, n).items()}


def alt_score(episodes: Sequence[EpisodeOutcome], n: int, variant: str) -> float:
    """Run-level score of one variant (falt, qfalt, ealt, qealt, calt, aalt)."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return _shifted_mean(window_betas(episodes, n)[variant])


def _min_max_ratio(values: np.ndarray) -> float | None:
    top = values.max()
    if top == 0:
        return None
    return float(values.min() / top)


def _fairness_ratios(
    arrived: np.ndarray, winner: np.ndarray, rewards: np.ndarray, n: int
) -> dict[str, float | None]:
    # Summing down axis 0 adds each agent's payoffs in episode order.
    return {
        "fairness": _min_max_ratio(np.bincount(winner[winner >= 0], minlength=n)),
        "tt_fairness": _min_max_ratio(arrived.sum(axis=0)),
        "reward_fairness": _min_max_ratio(rewards.sum(axis=0)),
    }


def fairness(episodes: Sequence[EpisodeOutcome], n: int) -> float | None:
    """min_i w_i / max_i w_i over exclusive win counts; None if nobody won."""
    return _fairness_ratios(*_columns(episodes, n), n)["fairness"]


def tt_fairness(episodes: Sequence[EpisodeOutcome], n: int) -> float | None:
    """min_i t_i / max_i t_i over per-agent total arrivals; None if none."""
    return _fairness_ratios(*_columns(episodes, n), n)["tt_fairness"]


def reward_fairness(episodes: Sequence[EpisodeOutcome], n: int) -> float | None:
    """min_i p_i / max_i p_i over accumulated payoffs; None if all zero."""
    return _fairness_ratios(*_columns(episodes, n), n)["reward_fairness"]


def efficiency(
    episodes: Sequence[EpisodeOutcome], r_high: float, nu: int | None = None
) -> float:
    """Total collected reward over the nu * r_high optimum.

    Capped episodes collect nothing but still count toward nu.
    """
    if not r_high > 0:
        raise ConfigError(f"r_high must be positive, got {r_high}")
    episodes = list(episodes)
    if nu is None:
        nu = len(episodes)
    if nu < 1:
        raise InsufficientDataError("efficiency needs at least one episode")
    total = math.fsum(r for ep in episodes for r in ep.rewards)
    return total / (nu * r_high)


@dataclass(frozen=True)
class MetricPanel:
    """All run-level metrics of one episode log."""

    nu: int
    batches: int
    fairness: float | None
    efficiency: float
    tt_fairness: float | None
    reward_fairness: float | None
    falt: float
    qfalt: float
    ealt: float
    qealt: float
    calt: float
    aalt: float

    def as_dict(self) -> dict:
        return asdict(self)


def compute_panel(episodes: Sequence[EpisodeOutcome], n: int, r_high: float) -> MetricPanel:
    """Alternation scores plus traditional metrics for one log."""
    episodes = list(episodes)
    arrived, winner, rewards = _columns(episodes, n)
    betas = _betas(arrived, winner, n)
    return MetricPanel(
        nu=len(episodes),
        batches=len(episodes) - n + 1,
        efficiency=efficiency(episodes, r_high),
        **_fairness_ratios(arrived, winner, rewards, n),
        **{v: _shifted_mean(b) for v, b in betas.items()},
    )
