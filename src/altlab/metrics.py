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

Every count is a difference of two rows of one prefix sum over per-episode
columns.  One pass, a slice of batches at a time, packs each batch's (f, tau,
w, g) into one int64 code (so n is at most ``MAX_AGENTS``, 6,207), and each
formula runs once per distinct code.  A log's scores are summed exactly from
the histogram of its codes and rounded once, like efficiency's total.
Per-batch scores (:func:`window_betas`) are gathered from the per-code values;
the training curve (:func:`trailing_windows`) gathers calt alone, and a
window's calt is its mean over the batches wholly inside the window.  The
columns are gathered from the :class:`~altlab.game.EpisodeLog` body table by
body id; a plain list of outcomes is first made a log with
``EpisodeLog.from_outcomes``.

Traditional metrics summarize whole logs: reward efficiency and three
fairness ratios min_i x_i / max_i x_i over per-agent exclusive wins
(fairness), arrivals (tt_fairness) and payoffs (reward_fairness).  A
ratio whose max is 0 is undefined and reported as None.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, InsufficientDataError
from .game import EpisodeLog, EpisodeOutcome

VARIANTS = ("falt", "qfalt", "ealt", "qealt", "calt", "aalt")
MAX_AGENTS = 6207  # the largest n with (n + 1)**3 * (n**2 + 1) <= 2**63: packed tuples fit int64
_SUM_SLICE = 1 << 14  # batches or episodes per slice of the batch counts and payoff sums


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """Row e sums rows 0 .. e - 1 of x, for e = 0 .. len(x)."""
    # int32 holds every count of a log that fits in memory: an episode
    # arrives or pays at most n times, so every sum stays below 2**31.
    c = np.zeros((len(x) + 1, *x.shape[1:]), dtype=np.int32)
    np.cumsum(x, axis=0, dtype=np.int32, out=c[1:])
    return c


def _window_sums(x: np.ndarray, n: int) -> np.ndarray:
    """Sums over every run of n consecutive rows of x."""
    c = _prefix_sums(x)
    return c[n:] - c[:-n]


def _counts(arrived: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """(f, tau, w, g) of every batch of the arrival matrix bool[nu, n]."""
    if len(arrived) < n:
        raise InsufficientDataError(
            f"log of {len(arrived)} episodes is shorter than the batch size {n}"
        )
    per_row = np.ones(n, dtype=np.int64)  # a matrix product counts each row's True entries
    y = arrived @ per_row
    f = (_window_sums(arrived, n) > 0) @ per_row
    g = (_window_sums(arrived & (y == 1)[:, None], n) == 1) @ per_row
    return f, _window_sums(y, n), _window_sums(y == 1, n), g


def _formulas(codes: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """The six scores of packed (f, tau, w, g) codes, element by element."""
    rest, tau = np.divmod(codes, n * n + 1)
    f, w, g = rest // (n + 1) ** 2, rest // (n + 1) % (n + 1), rest % (n + 1)
    some = tau > 0
    falt = np.divide(f, tau, out=np.zeros(len(tau)), where=some)
    qfalt = falt * falt
    ealt = w * f / (n * n)
    # Dividing the integer tie-sum first keeps perfect-alternation and
    # fixed-rotation batches exact (the tie-sum is n * (n - 1) there).
    # Capped episodes push it higher, hence the clamp.
    calt = np.where(some, np.minimum(1.0, ((n * n - tau) / (n * (n - 1))) * qfalt), 0.0)
    aalt = np.divide(g, tau, out=np.zeros(len(tau)), where=some)
    return dict(zip(VARIANTS, (falt, qfalt, ealt, ealt * ealt, calt, aalt)))


def _batch_codes(arrived: np.ndarray, n: int) -> np.ndarray:
    """Each batch's (f, tau, w, g) of the arrival matrix bool[nu, n], packed
    as one int64, counted ``_SUM_SLICE`` batches at a time."""
    if n > MAX_AGENTS:
        raise ConfigError(f"batch counts of {n} agents overflow int64: n is at most {MAX_AGENTS}")
    packed = np.empty(max(0, len(arrived) - n + 1), dtype=np.int64)
    for start in range(0, max(1, len(packed)), _SUM_SLICE):  # once at least: a short log raises
        f, tau, w, g = _counts(arrived[start : start + _SUM_SLICE + n - 1], n)
        packed[start : start + len(tau)] = ((f * (n + 1) + w) * (n + 1) + g) * (n * n + 1) + tau
    return packed


def _distinct_batches(log: EpisodeLog, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct :func:`_batch_codes` of a log, sorted, and each batch's index among them."""
    return np.unique(_batch_codes(log.columns(n)[0][log.ids], n), return_inverse=True)


def window_betas(episodes: Sequence[EpisodeOutcome], n: int) -> dict[str, np.ndarray]:
    """Per-batch score of every variant; entry i scores episodes i .. i + n - 1."""
    tuples, batch = _distinct_batches(EpisodeLog.from_outcomes(episodes), n)
    return {v: x[batch] for v, x in _formulas(tuples, n).items()}


def _shifted_mean(values: np.ndarray) -> float:
    # Mean as base + mean deviation: exact when all values coincide,
    # which run-level scores of perfectly alternating logs rely on.
    base = float(values[0])
    return base + math.fsum((values - base).tolist()) / len(values)


def batch_counts(arrived: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The distinct :func:`_batch_codes` of the arrival matrix bool[nu, n], sorted,
    how many batches have each, and batch 0's index among them."""
    packed = _batch_codes(arrived, n)
    tuples, counts = np.unique(packed, return_counts=True)
    return tuples, counts, int(np.searchsorted(tuples, packed[0]))


def scores(tuples: np.ndarray, counts: np.ndarray, first: int, n: int) -> dict[str, float]:
    """Run-level scores of a :func:`batch_counts` histogram, bit for bit the
    ``_shifted_mean`` of the per-batch scores: fsum is correctly rounded too."""
    batches, per_tuple = int(counts.sum()), _formulas(tuples, n)
    return {v: float(x[first]) + _exact_total(x - x[first], counts) / batches
            for v, x in per_tuple.items()}


def alt_scores(episodes: Sequence[EpisodeOutcome], n: int) -> dict[str, float]:
    """All six run-level alternation scores in a single scan of the log."""
    log = EpisodeLog.from_outcomes(episodes)
    return scores(*batch_counts(log.columns(n)[0][log.ids], n), n)


def alt_score(episodes: Sequence[EpisodeOutcome], n: int, variant: str) -> float:
    """Run-level score of one variant (falt, qfalt, ealt, qealt, calt, aalt)."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return alt_scores(episodes, n)[variant]


def _min_max_ratio(values: np.ndarray) -> float | None:
    top = values.max()
    return None if top == 0 else float(values.min() / top)


def efficiency(episodes: Sequence[EpisodeOutcome], r_high: float) -> float:
    """Total collected reward over the nu * r_high optimum.

    Capped episodes collect nothing but still count toward nu.  A log
    that pays a sole arriver other than ``r_high``, or pays more than
    ``r_high`` in one episode, was played at another ``r_high`` and
    raises DataError.
    """
    if not r_high > 0:
        raise ConfigError(f"r_high must be positive, got {r_high}")
    log = EpisodeLog.from_outcomes(episodes)
    if not log:
        raise InsufficientDataError("efficiency needs at least one episode")
    optimum = len(log) * r_high
    if not math.isfinite(optimum):
        raise ConfigError(f"{len(log)} episodes at r_high {r_high} overflow the optimum")
    values, paid = _paid(log)
    total = _exact_total(values, np.bincount(log.ids, minlength=len(log.bodies)) @ paid)
    for arrivals, rewards in log.bodies:
        if math.fsum(rewards) > r_high or (len(arrivals) == 1 and rewards[arrivals[0]] != r_high):
            raise DataError(
                f"rewards {list(rewards)} for arrivals {list(arrivals)} contradict r_high {r_high}"
            )
    return total / optimum


def _paid(log: EpisodeLog) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rewards of a log, and how many of each every body pays."""
    sizes = [len(rewards) for _, rewards in log.bodies]
    flat = np.fromiter(itertools.chain.from_iterable(r for _, r in log.bodies), float, sum(sizes))
    values, column = np.unique(flat, return_inverse=True)  # a zero adds nothing to a total
    counts = np.zeros((len(sizes), len(values)), dtype=np.int32)
    np.add.at(counts, (np.repeat(np.arange(len(sizes)), sizes), column), 1)
    return values, counts


def _exact_total(values: Sequence[float], counts: Sequence) -> float | list[float]:
    """``math.fsum`` of ``counts[v]`` copies of each ``values[v]``; given a matrix
    of counts, the list of each row's.  Each value is m * 2**(e - 53), an integer
    over 2**(53 - low); int / int division rounds each integer sum once, correctly."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise DataError(f"total reward is not finite: {values.tolist()}")
    fractions, exponents = np.frexp(values)
    low = int(exponents.min(initial=0))
    terms = list(zip(np.ldexp(fractions, 53).astype(np.int64).tolist(), (exponents - low).tolist()))
    try:
        totals = [sum(c * m << shift for c, (m, shift) in zip(row, terms)) / (1 << (53 - low))
                  for row in np.atleast_2d(counts).tolist()]
    except OverflowError as exc:
        raise DataError(f"total reward overflows: {exc}") from exc
    return totals if np.ndim(counts) == 2 else totals[0]


def trailing_windows(
    episodes: Sequence[EpisodeOutcome], n: int, r_high: float, ends: Sequence[int], width: int
) -> list[tuple[float | None, float | None]]:
    """``(calt, efficiency)`` of episodes ``max(0, end - width) .. end - 1``
    for each end in ``ends``, each equal to the score of that slice of the
    log; ``(None, None)`` for a window of fewer than n episodes."""
    log = EpisodeLog.from_outcomes(episodes)
    tuples, batch = _distinct_batches(log, n)
    batch_calt = _formulas(tuples, n)["calt"][batch]
    values, paid = _paid(log)
    paid, ends = _prefix_sums(paid[log.ids]), np.asarray(ends, dtype=np.intp)
    starts = np.maximum(0, ends - width)
    totals = _exact_total(values, paid[ends] - paid[starts])
    return [  # a window's calt is the mean over the batches wholly inside it
        (None, None) if end - start < n
        else (_shifted_mean(batch_calt[start : end - n + 1]), total / ((end - start) * r_high))
        for start, end, total in zip(starts.tolist(), ends.tolist(), totals)
    ]


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
        return {field.name: getattr(self, field.name) for field in fields(self)}


def _payoff_sums(rewards: np.ndarray, ids: np.ndarray, size: int = _SUM_SLICE) -> np.ndarray:
    """Each agent's payoffs summed in episode order, the bits of
    ``rewards[ids].sum(axis=0)``, gathered ``size`` episodes at a time.

    Summing down axis 0 adds row after row, so each slice's sum starts
    from the previous one, put in place of its first row.  The first slice
    is summed on its own, to start as the one-pass sum starts: a row of
    zeros put in front would add 0.0 + -0.0, which is 0.0.
    """
    total = rewards[ids[:size]].sum(axis=0)
    for start in range(size, len(ids), size):
        block = rewards[ids[start - 1 : start + size]]
        block[0] = total
        total = block.sum(axis=0)
    return total


def compute_panel(episodes: Sequence[EpisodeOutcome], n: int, r_high: float) -> MetricPanel:
    """Alternation scores plus traditional metrics for one log."""
    log = EpisodeLog.from_outcomes(episodes)
    arrived, rewards = log.columns(n)
    means = scores(*batch_counts(arrived[log.ids], n), n)
    uses, sole = np.bincount(log.ids, minlength=len(arrived)), arrived.sum(axis=1) == 1
    return MetricPanel(
        nu=len(log),
        batches=len(log) - n + 1,
        fairness=_min_max_ratio(uses[sole] @ arrived[sole]),
        efficiency=efficiency(log, r_high),
        tt_fairness=_min_max_ratio(uses @ arrived),
        reward_fairness=_min_max_ratio(_payoff_sums(rewards, log.ids)),
        **means,
    )
