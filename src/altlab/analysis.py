"""Baseline comparisons, alternation-ratio mapping, and sample-size scaling.

Observed scores are judged against a random-policy reference two ways
(:func:`compare`): relative change (percent above or below the reference)
and a coordination score that normalizes the gap to the headroom between
the reference and 1, the score of perfect alternation.  Any variant's
score also maps exactly to an alternation ratio, the fraction of agents in
a fixed rotation that scores the same (:func:`alt_ratio`: identity for
falt and ealt, square root for qfalt, qealt and calt, (score + 1) / 2 for
aalt, undefined at aalt 0), restated as agents in a perfect rotation by
:func:`pa_equivalent`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComparisonError, ConfigError
from .game import EpisodeLog
from .metrics import VARIANTS

# Offset subtracted before the square root so a score that is zero up to
# accumulated rounding still maps to a ratio of exactly zero.
CALT_RATIO_OFFSET = 1.879e-10


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ComparisonError(f"{name} must be finite, got {value}")


def relative_change(observed: float, random_ref: float) -> float:
    """Percent change of an observed score over the random reference."""
    _require_finite(observed=observed, reference=random_ref)
    if not random_ref > 0:
        raise ComparisonError(
            f"relative change needs a positive reference, got {random_ref}"
        )
    return (observed - random_ref) / random_ref * 100.0


def coordination_score(observed: float, random_ref: float) -> float:
    """Percent of the headroom between random and 1, the score of perfect
    alternation on every metric, that was achieved.

    100 means a perfect score, 0 no better than random, negative below it.
    """
    _require_finite(observed=observed, reference=random_ref)
    if not 0.0 <= random_ref < 1.0:
        raise ComparisonError(f"reference must be in [0, 1), got {random_ref}")
    return (observed - random_ref) / (1.0 - random_ref) * 100.0


def compare(observed: float, random_ref: float) -> tuple[float, float]:
    """Both views of one observed score: ``(relative_change, coordination_score)``."""
    return relative_change(observed, random_ref), coordination_score(observed, random_ref)


def alt_ratio_from_calt(calt: float) -> float:
    """Alternation ratio sqrt(calt - offset), clamped to 0 below the offset.

    A fixed rotation of x out of n agents scores calt = (x / n)^2, so
    the square root recovers x / n.
    """
    shifted = calt - CALT_RATIO_OFFSET
    if shifted <= 0.0:
        return 0.0
    return math.sqrt(shifted)


def alt_ratio(variant: str, score: float) -> float | None:
    """The rotating fraction x / n of a fixed rotation that scores ``score``.

    A fixed rotation of x of n agents scores falt = ealt = x / n,
    qfalt = qealt = calt = (x / n)^2 and aalt = max(0, 2x - n) / n; each
    branch inverts one.  Every x <= n / 2 scores aalt 0, so that ratio is
    None.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if not 0.0 <= score <= 1.0:
        raise ComparisonError(f"{variant} score must be in [0, 1], got {score}")
    if variant == "calt":
        return alt_ratio_from_calt(score)
    if variant == "aalt":
        return (score + 1.0) / 2.0 if score > 0.0 else None
    return math.sqrt(score) if variant in ("qfalt", "qealt") else score


@dataclass(frozen=True)
class PAEquivalent:
    """Alternation ratio restated as agents-in-rotation and percent of perfect."""

    pa_equiv_agents: float
    pct_of_perfect: float


def pa_equivalent(alt_ratio: float, n: int) -> PAEquivalent:
    """Scale an alternation ratio to the equivalent rotating-agent count."""
    if n < 2:
        raise ConfigError(f"need at least 2 agents, got {n}")
    if not 0.0 <= alt_ratio <= 1.0:
        raise ConfigError(f"alt_ratio must be in [0, 1], got {alt_ratio}")
    return PAEquivalent(pa_equiv_agents=n * alt_ratio, pct_of_perfect=100.0 * alt_ratio)


def synth_pa_mixture(
    x: int, n: int, nu: int, r_high: float = 100.0
) -> EpisodeLog:
    """Synthetic log where agents 0..x-1 rotate exclusive wins in fixed order.

    The remaining n - x agents never arrive.  With x = n this is perfect
    alternation; x = 0 (nobody ever moves) is disallowed because every
    episode would be capped.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 agents, got {n}")
    if not 1 <= x <= n:
        raise ConfigError(f"rotating-agent count must be in [1, {n}], got {x}")
    if nu < n:
        raise ConfigError(f"need at least n={n} episodes, got {nu}")
    bodies = [((w,), tuple(r_high if i == w else 0.0 for i in range(n))) for w in range(x)]
    return EpisodeLog(bodies, np.arange(nu) % x, np.full(nu, 2))


def episodes_for(n: int, base: int = 1000) -> int:
    """Training budget floor(base * (n/2)^2 * (1 + ln(n!/2))).

    Grows with both the joint-state count and the number of distinct
    rotation orders to discover.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 agents, got {n}")
    if base < 1:
        raise ConfigError(f"base must be >= 1, got {base}")
    if n > 170:  # n!/2 leaves the float range at n = 171: refused before the factorial
        raise ConfigError(f"the training budget at n={n} overflows")
    try:  # base * growth leaves it at a huge base
        growth = (n / 2.0) ** 2 * (1.0 + math.log(math.factorial(n) / 2.0))
        return math.floor(base * growth)
    except OverflowError:
        raise ConfigError(f"the training budget at n={n} overflows") from None
