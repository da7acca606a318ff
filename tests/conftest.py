"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the package's own metric code paths:
window statistics are recounted directly per slice, scores are averaged
with exact Fraction arithmetic, and the two-agent random-play
expectations are derived by enumerating the per-episode outcome
distribution in closed form.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

from altlab.errors import DataError
from altlab.game import EpisodeOutcome, GameConfig, StateType

# Q-table rows [q_stay, q_move] that make a greedy agent stay or move.
STAY_ROW = (1.0, 0.0)
MOVE_ROW = (0.0, 1.0)


def make_outcome(
    episode: int,
    n: int,
    arrivals: set[int],
    r_high: float = 100.0,
    scheme: str = "ilf",
    steps: int = 2,
) -> EpisodeOutcome:
    """Build an outcome with rewards derived from the arrival set."""
    k = len(arrivals)
    if k == 1:
        winner = next(iter(arrivals))
        rewards = tuple(r_high if i == winner else 0.0 for i in range(n))
    elif 1 < k < n:
        low = r_high / n if scheme == "ilf" else r_high / (n * n)
        rewards = tuple(low if i in arrivals else 0.0 for i in range(n))
    else:
        rewards = (0.0,) * n
    return EpisodeOutcome(
        episode_index=episode,
        arrivals=frozenset(arrivals),
        rewards=rewards,
        steps_used=steps,
    )


def read_log_oracle(path) -> list[EpisodeOutcome]:
    """A log.jsonl read line by line: ``json.loads`` and
    ``EpisodeOutcome.from_record`` of every non-blank line, whose episode
    number must be its position.  Errors name the line."""
    outcomes = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                outcome = EpisodeOutcome.from_record(json.loads(line.strip()))
            except (json.JSONDecodeError, DataError) as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
            if outcome.episode_index != len(outcomes):
                raise DataError(f"line {lineno}: episode {outcome.episode_index} out of sequence")
            outcomes.append(outcome)
    return outcomes


def forced_tables(cfg: GameConfig, *rows) -> dict:
    """A Q-store that holds every agent's row at every reachable key, so that
    at epsilon 0 each agent always takes its row's preferred action."""
    cells = [range(cfg.path_length + 1)] * cfg.n_agents
    if cfg.state_type is StateType.TYPE_B:
        cells += [range(2)] * cfg.n_agents
    return {key: [q for row in rows for q in row] for key in product(*cells)}


def relabel_outcomes(outcomes, perm: dict[int, int]) -> list[EpisodeOutcome]:
    """Apply an agent-id permutation to every episode of a log."""
    relabeled = []
    for ep in outcomes:
        inverse = {new: old for old, new in perm.items()}
        relabeled.append(
            EpisodeOutcome(
                episode_index=ep.episode_index,
                arrivals=frozenset(perm[a] for a in ep.arrivals),
                rewards=tuple(ep.rewards[inverse[i]] for i in range(len(ep.rewards))),
                steps_used=ep.steps_used,
            )
        )
    return relabeled


def naive_window_betas(window, n: int) -> dict[str, Fraction]:
    """Per-window scores recomputed from scratch with exact arithmetic."""
    tau = sum(len(ep.arrivals) for ep in window)
    if tau == 0:
        return {v: Fraction(0) for v in ("falt", "qfalt", "ealt", "qealt", "calt", "aalt")}
    distinct = set()
    for ep in window:
        distinct |= ep.arrivals
    f = len(distinct)
    winners = [ep.exclusive_winner for ep in window if ep.exclusive_winner is not None]
    w = len(winners)
    g = sum(1 for agent in set(winners) if winners.count(agent) == 1)
    tie_sum = sum(n - len(ep.arrivals) for ep in window)
    falt = Fraction(f, tau)
    ealt = Fraction(w * f, n * n)
    calt = min(Fraction(1), Fraction(tie_sum, n * (n - 1)) * falt * falt)
    return {
        "falt": falt,
        "qfalt": falt * falt,
        "ealt": ealt,
        "qealt": ealt * ealt,
        "calt": calt,
        "aalt": Fraction(g, tau),
    }


def naive_alt_scores(outcomes, n: int) -> dict[str, Fraction]:
    """Exact run-level scores: mean per-window score over all windows."""
    assert len(outcomes) >= n
    sums = {v: Fraction(0) for v in ("falt", "qfalt", "ealt", "qealt", "calt", "aalt")}
    b = len(outcomes) - n + 1
    for start in range(b):
        betas = naive_window_betas(outcomes[start : start + n], n)
        for v, val in betas.items():
            sums[v] += val
    return {v: total / b for v, total in sums.items()}


def two_agent_random_expectations() -> dict[str, Fraction]:
    """Closed-form expected scores for two uniform-random agents.

    With a two-cell track, an agent's arrival time is the second success
    of fair coin flips, so per episode the joint outcome is: exclusive
    win by either agent with probability 11/27 each, simultaneous tie
    with probability 5/27.  Episodes are independent, so the expected
    window score is the expectation over the 9 two-episode combinations.
    """
    p_excl = Fraction(11, 27)
    p_tie = Fraction(5, 27)
    combos = []
    for first in ("A", "B", "T"):
        for second in ("A", "B", "T"):
            p = (p_tie if first == "T" else p_excl) * (p_tie if second == "T" else p_excl)
            window = []
            for idx, kind in enumerate((first, second)):
                arrivals = {0, 1} if kind == "T" else {0 if kind == "A" else 1}
                window.append(make_outcome(idx, 2, arrivals))
            combos.append((p, naive_window_betas(window, 2)))
    assert sum(p for p, _ in combos) == 1
    expectations = {
        v: sum(p * betas[v] for p, betas in combos)
        for v in ("falt", "qfalt", "ealt", "qealt", "calt", "aalt")
    }
    expectations["efficiency"] = 2 * p_excl
    return expectations
