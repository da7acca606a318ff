"""Baseline comparisons, alternation-ratio mapping, and sample-size scaling.

Observed scores are judged against a random-policy reference two ways:
relative change (percent above or below the reference) and a
coordination score that normalizes the gap to the headroom between the
reference and a perfect score.  The calt score additionally maps
through a square root to an alternation ratio, interpreted as the
equivalent fraction of agents participating in a perfect rotation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ComparisonError, ConfigError, FitError
from .game import EpisodeLog
from .metrics import VARIANTS, alt_score

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


def coordination_score(observed: float, random_ref: float, perfect: float = 1.0) -> float:
    """Percent of the headroom between random and perfect that was achieved.

    100 means the perfect score was reached, 0 means no better than
    random, negative means below random.
    """
    _require_finite(observed=observed, reference=random_ref, perfect=perfect)
    if not random_ref >= 0:
        raise ComparisonError(f"reference must be non-negative, got {random_ref}")
    if not perfect > random_ref:
        raise ComparisonError(
            f"perfect score {perfect} must exceed the reference {random_ref}"
        )
    return (observed - random_ref) / (perfect - random_ref) * 100.0


@dataclass(frozen=True)
class ComparisonRecord:
    """One score compared against its random baseline."""

    variant: str
    observed: float
    random_ref: float
    rel_change_pct: float
    coord_score_pct: float


def compare(
    variant: str, observed: float, random_ref: float, perfect: float = 1.0
) -> ComparisonRecord:
    """Bundle both comparison views of one observed score."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return ComparisonRecord(
        variant=variant,
        observed=observed,
        random_ref=random_ref,
        rel_change_pct=relative_change(observed, random_ref),
        coord_score_pct=coordination_score(observed, random_ref, perfect),
    )


def alt_ratio_from_calt(calt: float) -> float:
    """Alternation ratio sqrt(calt - offset), clamped to 0 below the offset.

    A fixed rotation of x out of n agents scores calt = (x / n)^2, so
    the square root recovers x / n.
    """
    shifted = calt - CALT_RATIO_OFFSET
    if shifted <= 0.0:
        return 0.0
    return math.sqrt(shifted)


@dataclass(frozen=True)
class PAEquivalent:
    """Alternation ratio restated as agents-in-rotation and percent of perfect."""

    alt_ratio: float
    pa_equiv_agents: float
    pct_of_perfect: float


def pa_equivalent(alt_ratio: float, n: int) -> PAEquivalent:
    """Scale an alternation ratio to the equivalent rotating-agent count."""
    if n < 2:
        raise ConfigError(f"need at least 2 agents, got {n}")
    if not 0.0 <= alt_ratio <= 1.0:
        raise ConfigError(f"alt_ratio must be in [0, 1], got {alt_ratio}")
    return PAEquivalent(
        alt_ratio=alt_ratio,
        pa_equiv_agents=n * alt_ratio,
        pct_of_perfect=100.0 * alt_ratio,
    )


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


@dataclass(frozen=True)
class RegressionFit:
    """Power-law map from a run-level score to an alternation ratio."""

    variant: str
    scale: float
    exponent: float
    n_range: tuple[int, int]
    max_fit_error: float

    def predict(self, value: float) -> float:
        if value <= 0.0:
            return 0.0
        return self.scale * value**self.exponent

    def to_json(self) -> str:
        return json.dumps(
            {
                "variant": self.variant,
                "scale": self.scale,
                "exponent": self.exponent,
                "n_min": self.n_range[0],
                "n_max": self.n_range[1],
                "max_fit_error": self.max_fit_error,
            },
            indent=2,
        )


def fit_alt_ratio_regression(
    variant: str,
    n_range: tuple[int, int] = (2, 10),
    samples: Sequence[tuple[int, int, float]] | None = None,
) -> RegressionFit:
    """Fit ratio = scale * value^exponent on fixed-rotation mixtures.

    Samples are (x, n, score) triples; by default one for every 1 <= x <= n
    across ``n_range``, scored on 10 * n episodes.  The fit is least squares
    in log-log space, so for calt it recovers the square-root mapping.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    lo, hi = n_range
    if not 2 <= lo <= hi <= 40:
        raise ConfigError(f"n_range must satisfy 2 <= lo <= hi <= 40, got {n_range}")
    if samples is None:
        samples = [
            (x, n, alt_score(synth_pa_mixture(x, n, 10 * n), n, variant))
            for n in range(lo, hi + 1)
            for x in range(1, n + 1)
        ]
    points = [(value, x / n) for x, n, value in samples if value > 0.0]
    if len(points) < 3:
        raise FitError(f"need at least 3 positive samples, got {len(points)}")
    log_v = np.log([v for v, _ in points])
    log_r = np.log([r for _, r in points])
    exponent, intercept = np.polyfit(log_v, log_r, 1)
    fit = RegressionFit(
        variant=variant,
        scale=float(math.exp(intercept)),
        exponent=float(exponent),
        n_range=(lo, hi),
        max_fit_error=0.0,
    )
    return replace(fit, max_fit_error=float(max(abs(fit.predict(v) - r) for v, r in points)))


def episodes_for(n: int, base: int = 1000) -> int:
    """Training budget floor(base * (n/2)^2 * (1 + ln(n!/2))).

    Grows with both the joint-state count and the number of distinct
    rotation orders to discover.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 agents, got {n}")
    if base < 1:
        raise ConfigError(f"base must be >= 1, got {base}")
    try:  # n!/2 leaves the float range at n = 171, base * growth at a huge base
        growth = (n / 2.0) ** 2 * (1.0 + math.log(math.factorial(n) / 2.0))
        return math.floor(base * growth)
    except OverflowError:
        raise ConfigError(f"the training budget at n={n} overflows") from None
