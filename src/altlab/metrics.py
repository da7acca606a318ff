"""Alternation metrics over sliding batches, plus traditional outcome metrics.

An episode log of length nu is scanned with overlapping batches of n
consecutive episodes (n = agent count), giving b = nu - n + 1 batches.
Each batch yields counting statistics:

    f    distinct agents with at least one arrival in the batch
         (tie participants included)
    tau  total arrivals in the batch, summed over episodes
    w    episodes in the batch with exactly one arrival (an exclusive win)
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
pass scores every batch of a log.  The columns are gathered from the
:class:`~altlab.game.EpisodeLog` body table by body id; a plain list of
outcomes is first made a log with ``EpisodeLog.from_outcomes``.

Traditional metrics summarize whole logs: reward efficiency and three
fairness ratios min_i x_i / max_i x_i over per-agent exclusive wins
(fairness), arrivals (tt_fairness) and payoffs (reward_fairness).  A
ratio whose max is 0 is undefined and reported as None.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, InsufficientDataError
from .game import EpisodeLog, EpisodeOutcome

VARIANTS = ("falt", "qfalt", "ealt", "qealt", "calt", "aalt")


def _window_sums(x: np.ndarray, n: int) -> np.ndarray:
    """Sums over every run of n consecutive rows of x."""
    # int32 holds every count of a log that fits in memory (< 2**31 arrivals).
    c = np.zeros((len(x) + 1, *x.shape[1:]), dtype=np.int32)
    np.cumsum(x, axis=0, dtype=np.int32, out=c[1:])
    return c[n:] - c[:-n]


def _betas(arrived: np.ndarray, n: int) -> dict[str, np.ndarray]:
    if len(arrived) < n:
        raise InsufficientDataError(
            f"log of {len(arrived)} episodes is shorter than the batch size {n}"
        )
    y = arrived.sum(axis=1)
    f = (_window_sums(arrived, n) > 0).sum(axis=1)
    g = (_window_sums(arrived & (y == 1)[:, None], n) == 1).sum(axis=1)
    tau = _window_sums(y, n)
    w = _window_sums(y == 1, n)
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
    log = EpisodeLog.from_outcomes(episodes)
    return _betas(log.columns(n)[0][log.ids], n)


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


def efficiency(episodes: Sequence[EpisodeOutcome], r_high: float) -> float:
    """Total collected reward over the nu * r_high optimum.

    Capped episodes collect nothing but still count toward nu.
    """
    if not r_high > 0:
        raise ConfigError(f"r_high must be positive, got {r_high}")
    log = EpisodeLog.from_outcomes(episodes)
    if not log:
        raise InsufficientDataError("efficiency needs at least one episode")
    optimum = len(log) * r_high
    if not math.isfinite(optimum):
        raise ConfigError(f"{len(log)} episodes at r_high {r_high} overflow the optimum")
    values, paid = _reward_counts(log)
    return _exact_total(values, np.bincount(log.ids, minlength=len(log.bodies)) @ paid) / optimum


def _reward_counts(log: EpisodeLog) -> tuple[list[float], np.ndarray]:
    """The distinct nonzero rewards of a log, and how many of each every
    body pays: int64[B, V]."""
    paid = [Counter(filter(None, rewards)) for _, rewards in log.bodies]
    values = list(dict.fromkeys(r for counts in paid for r in counts))
    counts = np.array([[c[r] for r in values] for c in paid], dtype=np.int64)
    return values, counts.reshape(len(paid), len(values))


def _exact_total(values: list[float], counts: np.ndarray) -> float:
    """``math.fsum`` of ``counts[v]`` copies of each ``values[v]``: summed
    exactly and rounded once."""
    try:
        return float(sum(Fraction(r) * count for r, count in zip(values, counts.tolist())))
    except (OverflowError, ValueError) as exc:
        raise DataError(f"total reward overflows or is not finite: {exc}") from exc


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
    log = EpisodeLog.from_outcomes(episodes)
    arrived, rewards = log.columns(n)
    arrived = arrived[log.ids]
    betas = _betas(arrived, n)
    # Summing down axis 0 adds each agent's payoffs in episode order.
    return MetricPanel(
        nu=len(log),
        batches=len(log) - n + 1,
        fairness=_min_max_ratio(arrived[arrived.sum(axis=1) == 1].sum(axis=0)),
        efficiency=efficiency(log, r_high),
        tt_fairness=_min_max_ratio(arrived.sum(axis=0)),
        reward_fairness=_min_max_ratio(rewards[log.ids].sum(axis=0)),
        **{v: _shifted_mean(b) for v, b in betas.items()},
    )
