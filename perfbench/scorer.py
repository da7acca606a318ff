"""Reference scorer for altlab episode logs, written without altlab.

A log is an arrival matrix ``A`` of shape ``(nu, n)``: ``A[e, i]`` is true
when agent ``i`` reached the goal in episode ``e``.  Every statistic of a
window of ``n`` consecutive episodes is the difference of two cumulative
sums over ``A``, so a whole log is scored with a few numpy calls instead
of altlab's rolling counters.  The benchmark compares every panel altlab
prints or writes against this scorer.
"""

from __future__ import annotations

import json
import math
from itertools import product

import numpy as np

VARIANTS = ("falt", "qfalt", "ealt", "qealt", "calt", "aalt")
TRADITIONAL = ("fairness", "efficiency", "tt_fairness", "reward_fairness")
PANEL_KEYS = ("nu", "batches") + TRADITIONAL + VARIANTS

# Relative tolerance between altlab and this scorer: both compute the same
# ratios of integer counts, but sum rewards and window means in another order.
REL_TOL = 1e-9


def _window_sums(x: np.ndarray, n: int) -> np.ndarray:
    """Sums over every run of ``n`` consecutive rows of ``x``."""
    c = np.cumsum(x, axis=0, dtype=np.int64)
    c = np.concatenate([np.zeros((1,) + c.shape[1:], dtype=np.int64), c])
    return c[n:] - c[:-n]


def _mean(values: np.ndarray) -> float:
    # Base plus mean deviation: exact when every window scores the same,
    # which is what makes rotation logs score their closed form exactly.
    base = float(values[0])
    return base + math.fsum((values - base).tolist()) / len(values)


def window_scores(arrivals: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """Per-window values of the six alternation scores."""
    a = np.asarray(arrivals, dtype=bool)
    if a.ndim != 2 or a.shape[1] != n or n < 2:
        raise ValueError(f"need an arrival matrix with {n} >= 2 columns, got {a.shape}")
    if a.shape[0] < n:
        raise ValueError(f"log of {a.shape[0]} episodes is shorter than the window {n}")
    k = a.sum(axis=1)
    exclusive = k == 1
    counts = _window_sums(a, n)
    f = (counts > 0).sum(axis=1)
    tau = counts.sum(axis=1)
    w = _window_sums(exclusive, n)
    g = (_window_sums(a & exclusive[:, None], n) == 1).sum(axis=1)
    tie_sum = _window_sums(n - k, n)
    empty = tau == 0
    safe_tau = np.where(empty, 1, tau)
    falt = np.where(empty, 0.0, f / safe_tau)
    ealt = w * f / (n * n)
    calt = np.where(empty, 0.0, np.minimum(1.0, (tie_sum / (n * (n - 1))) * (falt * falt)))
    return {
        "falt": falt,
        "qfalt": falt * falt,
        "ealt": ealt,
        "qealt": ealt * ealt,
        "calt": calt,
        "aalt": np.where(empty, 0.0, g / safe_tau),
    }


def alt_scores(arrivals: np.ndarray, n: int) -> dict[str, float]:
    """Run-level scores: the mean of each per-window score."""
    return {v: _mean(vals) for v, vals in window_scores(arrivals, n).items()}


def reward_per_arriver(k: np.ndarray, n: int, r_high: float, scheme: str) -> np.ndarray:
    """Payoff of each arriver in each episode, from its arrival count ``k``."""
    r_low = r_high / n if scheme == "ilf" else r_high / (n * n)
    return np.where(k == 1, r_high, np.where((k > 1) & (k < n), r_low, 0.0))


def _min_max(values: np.ndarray) -> float | None:
    top = values.max()
    return None if top == 0 else float(values.min() / top)


def efficiency(arrivals: np.ndarray, n: int, r_high: float = 100.0, scheme: str = "ilf") -> float:
    """Collected reward over the ``nu * r_high`` optimum."""
    a = np.asarray(arrivals, dtype=bool)
    k = a.sum(axis=1)
    total = math.fsum((k * reward_per_arriver(k, n, r_high, scheme)).tolist())
    return total / (len(a) * r_high)


def panel(arrivals: np.ndarray, n: int, r_high: float = 100.0, scheme: str = "ilf") -> dict:
    """Every value of an altlab metric panel, keyed as altlab names them."""
    a = np.asarray(arrivals, dtype=bool)
    k = a.sum(axis=1)
    pay = reward_per_arriver(k, n, r_high, scheme)
    return {
        "nu": len(a),
        "batches": len(a) - n + 1,
        "fairness": _min_max((a & (k == 1)[:, None]).sum(axis=0)),
        "efficiency": efficiency(a, n, r_high, scheme),
        "tt_fairness": _min_max(a.sum(axis=0)),
        "reward_fairness": _min_max(np.array([math.fsum(col) for col in (a * pay[:, None]).T])),
        **alt_scores(a, n),
    }


def close(expected, got, rel: float = REL_TOL) -> bool:
    """Equality up to ``rel``; ``None`` (an undefined ratio) only matches itself."""
    if expected is None or got is None:
        return expected is None and got is None
    return math.isclose(expected, got, rel_tol=rel, abs_tol=rel)


def mismatches(expected: dict, got: dict, keys=PANEL_KEYS, rel: float = REL_TOL) -> list[str]:
    """Keys on which two panels disagree, with both values."""
    return [
        f"{key}: expected {expected[key]!r}, got {got.get(key)!r}"
        for key in keys
        if key not in got or not close(expected[key], got[key], rel)
    ]


def parse_value(text: str):
    """A panel value as altlab prints or writes it."""
    text = text.strip()
    return None if text in ("", "undefined", "None") else float(text)


def read_arrivals(path, n: int) -> np.ndarray:
    """Arrival matrix of a ``log.jsonl``; only the ``arrivals`` field is read."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line)["arrivals"])
    a = np.zeros((len(rows), n), dtype=bool)
    for e, ids in enumerate(rows):
        if any(not 0 <= i < n for i in ids):
            raise ValueError(f"{path}: episode {e}: arrival ids {ids} out of range for n={n}")
        a[e, ids] = True
    return a


def rotation(nu: int, n: int, x: int) -> np.ndarray:
    """Agents ``0 .. x-1`` win exclusively in turn; the rest never arrive."""
    a = np.zeros((nu, n), dtype=bool)
    a[np.arange(nu), np.arange(nu) % x] = True
    return a


def rotation_expected(n: int, x: int) -> dict[str, float]:
    """Closed-form scores of :func:`rotation` that altlab must hit exactly.

    A window holds ``n`` exclusive wins by ``x`` distinct agents, so
    falt = x/n and the tie discount is 1, giving calt = (x/n)^2; a perfect
    rotation (x = n) scores 1.0 on all six.
    """
    if x == n:
        return {v: 1.0 for v in VARIANTS} | {"efficiency": 1.0}
    return {"calt": (x / n) ** 2, "efficiency": 1.0}


def two_agent_random_expectations() -> dict[str, float]:
    """Expected n = 2 scores under uniform random play.

    An agent's arrival time on a two-cell track is the second success of
    fair coin flips, so each episode is an exclusive win by either agent
    with probability 11/27 or a tie with probability 5/27.  A window is two
    independent episodes, so the expectation runs over nine pairs.
    """
    kinds = {"A": ((True, False), 11 / 27), "B": ((False, True), 11 / 27), "T": ((True, True), 5 / 27)}
    expected = dict.fromkeys(VARIANTS, 0.0)
    for first, second in product(kinds, repeat=2):
        p = kinds[first][1] * kinds[second][1]
        scores = alt_scores(np.array([kinds[first][0], kinds[second][0]]), 2)
        for v in VARIANTS:
            expected[v] += p * scores[v]
    expected["efficiency"] = 22 / 27
    return expected


def random_tolerance(episodes: int) -> float:
    """Six standard errors of an n = 2 run-level score over ``episodes``.

    Every score lies in [0, 1], so a window's variance is at most 1/4, and
    a window overlaps only its two neighbours, so the mean over the log has
    a variance of at most 3 / (4 * episodes).
    """
    return 6.0 * math.sqrt(0.75 / episodes)
