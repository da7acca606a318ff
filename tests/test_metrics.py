"""Alternation and traditional metrics against independent oracles."""

import hashlib
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_outcome,
    naive_alt_scores,
    naive_window_betas,
    relabel_outcomes,
)

from altlab.analysis import synth_pa_mixture
from altlab.errors import ConfigError, DataError, InsufficientDataError
from altlab.game import (
    EpisodeLog, EpisodeOutcome, GameConfig, RewardScheme, StateType, _encode, write_episode_log,
)
from altlab.harness import ExperimentSpec, run
from altlab import metrics
from altlab.metrics import (
    MAX_AGENTS,
    VARIANTS,
    _exact_total,
    _payoff_sums,
    _shifted_mean,
    alt_score,
    alt_scores,
    batch_counts,
    compute_panel,
    efficiency,
    scores,
    trailing_windows,
    window_betas,
)
from altlab.policies import QLearningConfig, run_random, train_run


@st.composite
def outcome_logs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    nu = draw(st.integers(min_value=n, max_value=30))
    episodes = []
    for i in range(nu):
        if draw(st.integers(0, 9)) == 0:
            arrivals = set()
        else:
            arrivals = draw(
                st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
            )
        episodes.append(make_outcome(i, n, arrivals))
    return n, episodes


def betas_of_counts(f, tau, w, g, n):
    """Per-window scores of the counts (f, tau, w, g), by the README formulas."""
    falt = f / tau
    ealt = w * f / (n * n)
    return {
        "falt": falt,
        "qfalt": falt * falt,
        "ealt": ealt,
        "qealt": ealt * ealt,
        "calt": min(1.0, ((n * n - tau) / (n * (n - 1))) * (falt * falt)),
        "aalt": g / tau,
    }


def only_window(window, n):
    betas = window_betas(window, n)
    assert all(len(b) == 1 for b in betas.values())
    return {v: b[0] for v, b in betas.items()}


def test_batch_stats_counts():
    # three episodes for three agents: win by 0, tie {0,1}, win by 0
    window = [
        make_outcome(0, 3, {0}),
        make_outcome(1, 3, {0, 1}),
        make_outcome(2, 3, {0}),
    ]
    assert only_window(window, 3) == betas_of_counts(f=2, tau=4, w=2, g=0, n=3)


def test_batch_stats_requires_exact_window():
    with pytest.raises(InsufficientDataError):
        window_betas([make_outcome(0, 2, {0})], 2)
    # a log of exactly n episodes is one batch
    assert all(len(b) == 1 for b in window_betas([make_outcome(0, 2, {0})] * 2, 2).values())


def test_beta_values_hand_computed():
    # f = 3 distinct arrivers, tau = 4 arrivals, w = 2 exclusive episodes,
    # g = 2 agents with one exclusive win each
    window = [
        make_outcome(0, 3, {0}),
        make_outcome(1, 3, {1, 2}),
        make_outcome(2, 3, {1}),
    ]
    betas = only_window(window, 3)
    assert betas == betas_of_counts(f=3, tau=4, w=2, g=2, n=3)
    assert betas["falt"] == pytest.approx(0.75)
    assert betas["qfalt"] == pytest.approx(0.5625)
    assert betas["ealt"] == pytest.approx(2 / 3)
    assert betas["qealt"] == pytest.approx(4 / 9)
    # tie_sum = (3-1) + (3-2) + (3-1) = 5
    assert betas["calt"] == pytest.approx(5 * 0.5625 / 6)
    assert betas["aalt"] == pytest.approx(0.5)


def test_empty_batch_scores_zero():
    capped = [make_outcome(0, 2, set()), make_outcome(1, 2, set())]
    assert only_window(capped, 2) == dict.fromkeys(VARIANTS, 0.0)


def test_calt_is_clamped_when_capped_episodes_inflate_ties():
    # capped episode contributes n to the tie sum, pushing the raw value
    # past 1 next to an exclusive win
    window = [make_outcome(0, 2, set()), make_outcome(1, 2, {0})]
    betas = only_window(window, 2)
    assert betas["falt"] == 1.0  # tau == f == 1, so the raw calt is 3 / 2
    assert betas["calt"] == 1.0


def test_window_betas_short_log_and_bad_n():
    with pytest.raises(InsufficientDataError):
        window_betas([make_outcome(0, 3, {0})], 3)
    with pytest.raises(ConfigError):
        window_betas([make_outcome(0, 1, {0})], 1)


@pytest.mark.parametrize(
    "episode",
    [
        EpisodeOutcome(0, frozenset({2}), (0.0, 100.0), 2),
        EpisodeOutcome(0, frozenset({-1}), (0.0, 100.0), 2),
        EpisodeOutcome(0, frozenset({0}), (100.0, 0.0, 0.0), 2),
    ],
    ids=["arrival-too-high", "arrival-negative", "reward-length"],
)
def test_columns_reject_ids_and_rewards_that_do_not_fit_n(episode):
    log = [make_outcome(0, 2, {1}), episode, make_outcome(2, 2, {1})]
    with pytest.raises(DataError):
        compute_panel(log, 2, 100.0)
    with pytest.raises(DataError):
        window_betas(log, 2)


@given(outcome_logs())
@settings(max_examples=80, deadline=None)
def test_rolling_windows_match_direct_slices(data):
    n, episodes = data
    rolled = window_betas(episodes, n)
    for i in range(len(episodes) - n + 1):
        assert {v: b[i] for v, b in rolled.items()} == only_window(episodes[i : i + n], n)


@given(outcome_logs())
@settings(max_examples=80, deadline=None)
def test_scores_match_exact_fraction_oracle(data):
    n, episodes = data
    ours = alt_scores(episodes, n)
    oracle = naive_alt_scores(episodes, n)
    for variant in VARIANTS:
        assert ours[variant] == pytest.approx(float(oracle[variant]), abs=1e-12)


@given(outcome_logs())
@settings(max_examples=80, deadline=None)
def test_scores_are_bounded(data):
    n, episodes = data
    betas = window_betas(episodes, n)
    assert np.all((0.0 <= betas["falt"]) & (betas["falt"] <= 1.0))
    assert np.all(betas["qfalt"] <= betas["falt"])
    assert np.all((0.0 <= betas["ealt"]) & (betas["ealt"] <= 1.0))
    assert np.all(betas["qealt"] <= betas["ealt"])
    assert np.all((0.0 <= betas["calt"]) & (betas["calt"] <= 1.0))
    assert np.all((0.0 <= betas["aalt"]) & (betas["aalt"] <= 1.0))
    for value in alt_scores(episodes, n).values():
        assert 0.0 <= value <= 1.0


@given(outcome_logs(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_scores_invariant_under_agent_relabeling(data, rnd):
    n, episodes = data
    ids = list(range(n))
    rnd.shuffle(ids)
    perm = dict(zip(range(n), ids))
    shuffled = relabel_outcomes(episodes, perm)
    assert alt_scores(shuffled, n) == alt_scores(episodes, n)
    panel, relabeled = compute_panel(episodes, n, 100.0), compute_panel(shuffled, n, 100.0)
    assert relabeled.fairness == panel.fairness
    assert relabeled.tt_fairness == panel.tt_fairness
    assert relabeled.reward_fairness == panel.reward_fairness


@given(outcome_logs())
@settings(max_examples=50, deadline=None)
def test_fairness_ratios_match_sequential_tallies(data):
    # Reference: per-agent tallies accumulated episode by episode, which
    # fixes the order in which each agent's payoffs are added.
    n, episodes = data
    wins, turns, payoffs = [0] * n, [0] * n, [0.0] * n
    for ep in episodes:
        if ep.exclusive_winner is not None:
            wins[ep.exclusive_winner] += 1
        for agent in ep.arrivals:
            turns[agent] += 1
        for agent, r in enumerate(ep.rewards):
            payoffs[agent] += r

    def ratio(values):
        return min(values) / max(values) if max(values) else None

    panel = compute_panel(episodes, n, 100.0)
    assert panel.fairness == ratio(wins)
    assert panel.tt_fairness == ratio(turns)
    assert panel.reward_fairness == ratio(payoffs)
    for value in (panel.fairness, panel.tt_fairness, panel.reward_fairness):
        assert value is None or type(value) is float


@pytest.mark.parametrize("n", [2, 3, 4])
def test_perfect_alternation_scores_one(n):
    log = synth_pa_mixture(n, n, 8 * n)
    assert all(v == 1.0 for v in alt_scores(log, n).values())


@pytest.mark.parametrize("n", [2, 3, 5])
def test_breaking_one_episode_degrades_alternation(n):
    log = synth_pa_mixture(n, n, 6 * n)
    clean = alt_scores(log, n)
    broken = list(log)
    broken[len(log) // 2] = make_outcome(len(log) // 2, n, set(range(n)))
    degraded = alt_scores(broken, n)
    for variant in ("calt", "ealt", "aalt"):
        assert degraded[variant] < clean[variant]


def test_monopoly_and_all_tie_fixtures():
    monopoly = [make_outcome(i, 2, {0}) for i in range(12)]
    scores = alt_scores(monopoly, 2)
    assert scores["calt"] == 0.25
    assert scores["falt"] == 0.5
    assert scores["ealt"] == 0.5
    assert scores["aalt"] == 0.0

    ties = [make_outcome(i, 2, {0, 1}) for i in range(12)]
    scores = alt_scores(ties, 2)
    assert scores["calt"] == 0.0
    assert scores["ealt"] == 0.0
    assert scores["falt"] == 0.5
    assert efficiency(ties, 100.0) == 0.0
    assert compute_panel(ties, 2, 100.0).fairness is None


def test_alt_score_variant_validation():
    log = synth_pa_mixture(2, 2, 10)
    assert alt_score(log, 2, "calt") == 1.0
    with pytest.raises(ConfigError):
        alt_score(log, 2, "nope")


def test_fairness_counts_exclusive_wins_only():
    log = [
        make_outcome(0, 2, {0}),
        make_outcome(1, 2, {0}),
        make_outcome(2, 2, {1}),
        make_outcome(3, 2, {0, 1}),
    ]
    assert compute_panel(log, 2, 100.0).fairness == pytest.approx(0.5)


def test_tt_fairness_counts_all_arrivals():
    log = [make_outcome(0, 2, {0}), make_outcome(1, 2, {0, 1})]
    # arrivals: agent 0 twice, agent 1 once
    panel = compute_panel(log, 2, 100.0)
    assert panel.tt_fairness == pytest.approx(0.5)
    # only agent 0 ever wins exclusively
    assert panel.fairness == 0.0


def test_reward_fairness_and_undefined_cases():
    # agent 2 is never paid
    log = [make_outcome(0, 3, {0}), make_outcome(1, 3, {1}), make_outcome(2, 3, set())]
    assert compute_panel(log, 3, 100.0).reward_fairness == 0.0
    ties = [make_outcome(e, 2, {0, 1}) for e in range(2)]
    assert compute_panel(ties, 2, 100.0).reward_fairness is None
    capped = [make_outcome(e, 2, set()) for e in range(2)]
    assert compute_panel(capped, 2, 100.0).tt_fairness is None


def test_efficiency_counts_capped_episodes_in_denominator():
    log = [make_outcome(0, 2, {0}), make_outcome(1, 2, set())]
    assert efficiency(log, 100.0) == pytest.approx(0.5)
    partial = [make_outcome(0, 3, {0}), make_outcome(1, 3, {0, 1})]
    assert efficiency(partial, 100.0) == pytest.approx((100.0 + 200.0 / 3) / 200.0)


def test_efficiency_validation():
    with pytest.raises(ConfigError):
        efficiency([make_outcome(0, 2, {0})], 0.0)
    with pytest.raises(InsufficientDataError):
        efficiency([], 100.0)
    # an optimum or a total that overflows is refused, never an OverflowError
    with pytest.raises(ConfigError, match="overflow"):
        efficiency([make_outcome(e, 2, {0}) for e in range(2)], 1e308)
    with pytest.raises(DataError, match="overflow"):
        efficiency([make_outcome(e, 2, {0}, r_high=1e308) for e in range(2)], 1.0)


def test_efficiency_rejects_payoffs_of_another_r_high():
    log = [make_outcome(i, 3, {i % 3}) for i in range(6)]
    assert efficiency(log, 100.0) == 1.0
    # Sole winners paid 100: above r_high 10 in total, and not r_high 200.
    for r_high in (10.0, 200.0):
        with pytest.raises(DataError, match="contradict r_high"):
            efficiency(log, r_high)
        with pytest.raises(DataError, match="contradict r_high"):
            compute_panel(log, 3, r_high)
    # A partial tie paid 60 each, with no sole winner, pays 120 in one episode.
    overpaid = [*log, EpisodeOutcome(6, frozenset({0, 1}), (60.0, 60.0, 0.0), 2)]
    with pytest.raises(DataError, match="contradict r_high"):
        efficiency(overpaid, 100.0)


def test_compute_panel_is_consistent_with_parts():
    n = 3
    log = [make_outcome(i, n, {i % n}) for i in range(10)]
    log[4] = make_outcome(4, n, {0, 1})
    panel = compute_panel(log, n, 100.0)
    assert panel.nu == 10
    assert panel.batches == 8
    scores = alt_scores(log, n)
    for variant in VARIANTS:
        assert getattr(panel, variant) == scores[variant]
    assert panel.efficiency == efficiency(log, 100.0)
    assert set(panel.as_dict()) == {
        "nu",
        "batches",
        "fairness",
        "efficiency",
        "tt_fairness",
        "reward_fairness",
        *VARIANTS,
    }


def test_constant_window_mean_is_exact():
    # every window scores the same awkward float; the run mean must not
    # pick up summation error
    n = 4
    log = synth_pa_mixture(3, n, 40)
    per_window = naive_window_betas(log[:n], n)
    assert alt_score(log, n, "calt") == float(
        per_window["calt"].numerator
    ) / float(per_window["calt"].denominator)
    assert alt_score(log, n, "calt") == (3 / 4) ** 2
    assert alt_score(log, n, "falt") == 0.75


# Golden values: repr of every panel field of seeded random-play logs.
# The third log (path_length = step_cap = 5) caps about 70 % of its
# episodes, so it holds an all-capped window and many clamped calt
# windows.  Any change to the scoring arithmetic shows up here.
GOLDEN_PANELS = [
    (
        GameConfig(2),
        21,
        {
            "nu": "400",
            "batches": "399",
            "fairness": "0.9872611464968153",
            "efficiency": "0.78",
            "tt_fairness": "0.9918367346938776",
            "reward_fairness": "0.9872611464968153",
            "falt": "0.7096908939014202",
            "qfalt": "0.5439292676134782",
            "ealt": "0.6303258145363408",
            "qealt": "0.4630325814536341",
            "calt": "0.452729044834308",
            "aalt": "0.41938178780284047",
        },
    ),
    (
        GameConfig(5, state_type=StateType.TYPE_B),
        22,
        {
            "nu": "400",
            "batches": "396",
            "fairness": "0.8333333333333334",
            "efficiency": "0.725",
            "tt_fairness": "0.8926174496644296",
            "reward_fairness": "0.9169435215946844",
            "falt": "0.5286418407630529",
            "qfalt": "0.29182829005586086",
            "ealt": "0.3986868686868687",
            "qealt": "0.19676363636363636",
            "calt": "0.24758531654402247",
            "aalt": "0.2108711504544838",
        },
    ),
    (
        GameConfig(10, path_length=5, step_cap=5),
        23,
        {
            "nu": "400",
            "batches": "391",
            "fairness": "0.25",
            "efficiency": "0.25975",
            "tt_fairness": "0.25",
            "reward_fairness": "0.25",
            "falt": "0.8800795680591077",
            "qfalt": "0.8036041663042028",
            "ealt": "0.08677749360613811",
            "qealt": "0.013655498721227621",
            "calt": "0.8148400261876088",
            "aalt": "0.6066861527219584",
        },
    ),
]


@pytest.mark.parametrize("cfg, seed, expected", GOLDEN_PANELS, ids=["n2-A", "n5-B", "n10-capped"])
def test_golden_panels_of_seeded_random_logs(cfg, seed, expected):
    log = run_random(cfg, 400, seed)
    panel = compute_panel(log, cfg.n_agents, cfg.r_high)
    assert {k: repr(v) for k, v in panel.as_dict().items()} == expected


def test_golden_training_curve_calt(tmp_path):
    spec = ExperimentSpec(
        game=GameConfig(5), episodes=600, seed=24, run_id="golden", qcfg=QLearningConfig()
    )
    calts = [p.windowed_calt for p in run(spec, tmp_path).curve]
    assert len(calts) == 200
    assert calts[:3] == [None, 0.24502797067901233, 0.38425417296548253]
    assert calts[-1] == 0.034505276878064046
    digest = hashlib.sha256("\n".join(map(repr, calts)).encode()).hexdigest()
    assert digest == "80785b488cd56a3a37822124e1cc3543d96ce5576923f1b5c5bb7951b39052d8"


@pytest.mark.parametrize(
    "cfg, play",
    [
        (GameConfig(3), lambda cfg: run_random(cfg, 700, 31)),
        (GameConfig(10, path_length=5, step_cap=5), lambda cfg: run_random(cfg, 400, 23)),
        (
            GameConfig(10, state_type=StateType.TYPE_B, reward_scheme=RewardScheme.IQF),
            lambda cfg: train_run(cfg, QLearningConfig(), 1500, 32).outcomes,
        ),
    ],
    ids=["random", "capped", "n10-B-trained"],
)
def test_trailing_windows_score_their_slices(cfg, play):
    log = play(cfg)
    n, r_high, nu = cfg.n_agents, cfg.r_high, len(log)
    panel = compute_panel(log, n, r_high)
    assert trailing_windows(log, n, r_high, [nu], nu) == [(panel.calt, panel.efficiency)]
    ends = [1, n - 1, n, n + 1, 57, 250, nu - 1, nu]
    for width in (1, n - 1, n, 100, 500):
        for end, got in zip(ends, trailing_windows(log, n, r_high, ends, width)):
            start = max(0, end - width)
            if end - start < n:
                assert got == (None, None)
            else:
                window = log[start:end]
                assert got == (alt_score(window, n, "calt"), efficiency(window, r_high))


@st.composite
def scored_logs(draw):
    """Random, capped, rotation and perfect-alternation-mixture logs at n = 2 .. 12,
    and the hand-drawn logs of ``outcome_logs``."""
    kind = draw(st.sampled_from(["random", "capped", "rotation", "pa", "drawn"]))
    if kind == "drawn":
        return draw(outcome_logs())
    n = draw(st.integers(2, 12))
    nu = draw(st.integers(n, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "random":
        return n, run_random(GameConfig(n), nu, seed)
    if kind == "capped":
        return n, run_random(GameConfig(n, path_length=5, step_cap=5), nu, seed)
    x = draw(st.integers(1, n))
    if kind == "pa":
        return n, synth_pa_mixture(x, n, nu)
    # x agents in a drawn order, with a few episodes turned into ties or caps
    order = draw(st.permutations(range(n)))[:x]
    episodes = [make_outcome(e, n, {order[e % x]}) for e in range(nu)]
    for e in draw(st.lists(st.integers(0, nu - 1), max_size=4)):
        episodes[e] = make_outcome(e, n, draw(st.sets(st.integers(0, n - 1), max_size=n)))
    return n, episodes


def histogram_scores(episodes, n):
    log = EpisodeLog.from_outcomes(episodes)
    return scores(*batch_counts(log.columns(n)[0][log.ids], n), n)


def assert_scores_match_per_batch_means(episodes, n):
    # The per-batch path: _shifted_mean of every batch's score.
    oracle = {v: repr(_shifted_mean(b)) for v, b in window_betas(episodes, n).items()}
    panel = compute_panel(episodes, n, 100.0).as_dict()
    for ours in (histogram_scores(episodes, n), alt_scores(episodes, n), panel):
        assert {v: repr(ours[v]) for v in VARIANTS} == oracle


@given(scored_logs())
@settings(max_examples=150, deadline=None)
def test_histogram_scores_equal_per_batch_means_bit_for_bit(data):
    n, episodes = data
    assert_scores_match_per_batch_means(episodes, n)


def test_one_tuple_histogram_of_a_long_log():
    n, nu = 7, 200_000
    log = synth_pa_mixture(n, n, nu)
    tuples, counts, first = batch_counts(log.columns(n)[0][log.ids], n)
    assert first == 0 and counts.tolist() == [nu - n + 1]
    assert tuples.tolist() == [((n * (n + 1) + n) * (n + 1) + n) * (n * n + 1) + n]
    assert_scores_match_per_batch_means(log, n)
    assert set(alt_scores(log, n).values()) == {1.0}


def test_packed_counts_stop_at_the_int64_limit():
    n = MAX_AGENTS
    top = (n + 1) ** 3 * (n * n + 1) - 1  # f = w = g = n and tau = n**2
    assert top < 2**63 <= (n + 2) ** 3 * ((n + 1) ** 2 + 1) - 1
    # The largest tuple at the limit unpacks to its counts.
    means = scores(np.array([top], dtype=np.int64), np.array([3]), 0, n)
    assert means == {"falt": 1 / n, "qfalt": (1 / n) ** 2, "ealt": 1.0, "qealt": 1.0,
                     "calt": 0.0, "aalt": 1 / n}
    with pytest.raises(ConfigError, match=f"at most {MAX_AGENTS}"):
        batch_counts(np.zeros((0, n + 1), dtype=bool), n + 1)
    with pytest.raises(ConfigError, match=f"at most {MAX_AGENTS}"):
        window_betas([], n + 1)
    with pytest.raises(ConfigError, match=f"at most {MAX_AGENTS}"):
        trailing_windows([], n + 1, 100.0, [], 5)


def exact_oracle(values, counts):
    """The correctly rounded value of sum(count * value), which ``math.fsum``
    of the expanded copies returns."""
    return float(sum(Fraction(v) * c for v, c in zip(values, counts)))


finite = st.floats(allow_nan=False, allow_infinity=False)
tiny = st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False)


@given(st.lists(st.tuples(st.one_of(finite, tiny), st.integers(0, 40)), max_size=12))
@settings(max_examples=300, deadline=None)
def test_exact_total_equals_fsum_of_the_expanded_copies(terms):
    values, counts = [v for v, _ in terms], [c for _, c in terms]
    try:
        expected = math.fsum(v for v, c in terms for _ in range(c))
    except OverflowError:  # fsum can overflow midway; the exact sum is then refused or finite
        try:
            expected = exact_oracle(values, counts)
        except OverflowError:
            with pytest.raises(DataError, match="overflow"):
                _exact_total(values, counts)
            return
    assert _exact_total(values, counts) == expected
    assert _exact_total(np.array(values, dtype=float), np.array(counts)) == expected
    # A matrix of counts gives each row's total, and no rows give no totals.
    rows = np.array([counts, counts[::-1], [c // 2 for c in counts]], dtype=np.int64)
    try:
        per_row = [_exact_total(values, row) for row in rows]
    except DataError:
        with pytest.raises(DataError, match="overflow"):
            _exact_total(values, rows)
    else:
        assert _exact_total(values, rows) == per_row
    assert _exact_total(values, rows[:0]) == []


@given(st.lists(st.tuples(st.one_of(finite, tiny), st.integers(0, 2**31)), max_size=12))
@settings(max_examples=300, deadline=None)
def test_exact_total_of_large_counts_is_the_rounded_exact_sum(terms):
    values, counts = [v for v, _ in terms], [c for _, c in terms]
    try:
        expected = exact_oracle(values, counts)
    except OverflowError:
        with pytest.raises(DataError, match="overflow"):
            _exact_total(values, counts)
        return
    assert _exact_total(values, np.array(counts, dtype=np.int64)) == expected


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_exact_total_refuses_values_that_are_not_finite(bad):
    with pytest.raises(DataError, match="not finite"):
        _exact_total([1.0, bad], [1, 1])
    with pytest.raises(DataError, match="not finite"):
        _exact_total([1.0, bad], [[1, 1]])


def _sliced_batch_counts(arrived, n, size):
    with mock.patch.object(metrics, "_SUM_SLICE", size):
        tuples, counts, first = batch_counts(arrived, n)
    return tuples.tolist(), counts.tolist(), first


def _sliced_windows(episodes, n, size):
    """The bytes of every per-batch score, and a curve of every width-(n + 1)
    window and of the whole log, with ``size`` batches per slice."""
    ends = list(range(len(episodes) + 1))
    with mock.patch.object(metrics, "_SUM_SLICE", size):
        betas = {v: x.tobytes() for v, x in window_betas(episodes, n).items()}
        curve = trailing_windows(episodes, n, 100.0, ends, n + 1)
        whole = trailing_windows(episodes, n, 100.0, [len(episodes)], len(episodes))
    return betas, repr(curve), repr(whole)


@pytest.mark.parametrize("size", [1, 2, 7])
@pytest.mark.parametrize("n", [2, 3, 10])
def test_batch_counts_in_slices_equal_the_one_slice_counts(n, size):
    # Logs of n batches' worth, of one batch, and of one batch less and one
    # more than a slice boundary, with capped rows and full ties among them.
    rng = np.random.default_rng(n * 100 + size)
    logs = [rng.random((nu, n)) < 0.3 for nu in (n, n - 1 + 3 * size - 1, n - 1 + 3 * size + 1)]
    logs[0][0] = False
    logs[1][-1] = True
    if n == 10:
        log = run_random(GameConfig(n_agents=10), 1000, seed_or_rng=size)
        logs.append(log.columns(n)[0][log.ids])
    for arrived in logs:
        whole = _sliced_batch_counts(arrived, n, len(arrived))
        assert sum(whole[1]) == len(arrived) - n + 1
        assert _sliced_batch_counts(arrived, n, size) == whole, len(arrived)
        # The per-batch scores and the curve read the same sliced counts.
        episodes = [make_outcome(e, n, set(np.flatnonzero(row).tolist()))
                    for e, row in enumerate(arrived)]
        one_slice = _sliced_windows(episodes, n, len(arrived))
        assert _sliced_windows(episodes, n, size) == one_slice, len(arrived)
    with pytest.raises(InsufficientDataError, match="shorter than the batch size"):
        _sliced_batch_counts(logs[0][1:], n, size)
    with pytest.raises(InsufficientDataError, match="shorter than the batch size"):
        _sliced_windows([make_outcome(0, n, {0})] * (n - 1), n, size)


@pytest.mark.parametrize("seed", range(5))
def test_payoff_sums_in_slices_keep_the_one_pass_bits(seed):
    # Payoffs spread over 13 orders of magnitude, so a sum taken in any
    # other order would round differently; agent 0 is paid only -0.0.
    rng = np.random.default_rng(seed)
    rewards = rng.standard_normal((9, 4)) * 10.0 ** rng.integers(-5, 8, size=(9, 4))
    rewards[:, 0] = -0.0
    ids = rng.integers(0, 9, size=500).astype(np.int32)
    whole = _payoff_sums(rewards, ids, size=len(ids))
    assert whole.tobytes() == rewards[ids].sum(axis=0).tobytes()
    for size in (1, 2, 7):
        assert _payoff_sums(rewards, ids, size).tobytes() == whole.tobytes(), size


# -- The payoff table against the flat-rewards oracle ------------------------


def oracle_paid(log):
    """The distinct rewards of a log, and how many of each every body pays, as
    one ``np.add.at`` over the rewards chained body by body."""
    sizes = [len(rewards) for _, rewards in log.bodies]
    flat = np.fromiter(itertools.chain.from_iterable(r for _, r in log.bodies), float, sum(sizes))
    values, column = np.unique(flat, return_inverse=True)
    counts = np.zeros((len(sizes), len(values)), dtype=np.int32)
    np.add.at(counts, (np.repeat(np.arange(len(sizes)), sizes), column), 1)
    return values, counts


def oracle_efficiency(episodes, r_high):
    log = EpisodeLog.from_outcomes(episodes)
    values, paid = oracle_paid(log)
    total = _exact_total(values, np.bincount(log.ids, minlength=len(log.bodies)) @ paid)
    return total / (len(log) * r_high)


def oracle_trailing_windows(episodes, n, r_high, ends, width):
    """Each batch's calt from the sorted distinct batch codes, and the payoffs
    from ``oracle_paid``."""
    log = EpisodeLog.from_outcomes(episodes)
    tuples, batch = np.unique(metrics._batch_codes(log.columns(n)[0][log.ids], n),
                              return_inverse=True)
    batch_calt = metrics._formulas(tuples, n)["calt"][batch]
    values, paid = oracle_paid(log)
    paid, ends = metrics._prefix_sums(paid[log.ids]), np.asarray(ends, dtype=np.intp)
    starts = np.maximum(0, ends - width)
    totals = _exact_total(values, paid[ends] - paid[starts])
    return [
        (None, None) if end - start < n
        else (_shifted_mean(batch_calt[start : end - n + 1]), total / ((end - start) * r_high))
        for start, end, total in zip(starts.tolist(), ends.tolist(), totals)
    ]


def _hex(value):
    return None if value is None else float(value).hex()


def test_scores_of_a_thousand_bodies_equal_the_flat_rewards_oracle():
    # Random play at n = 10 under both schemes: over a thousand distinct bodies.
    outcomes = [ep for scheme in RewardScheme
                for ep in run_random(GameConfig(10, reward_scheme=scheme), 10_000, 5)]
    log = EpisodeLog.from_outcomes(outcomes)
    assert len(log.bodies) >= 1000
    panel = compute_panel(log, 10, 100.0)
    assert _hex(panel.efficiency) == _hex(oracle_efficiency(log, 100.0))
    assert _hex(efficiency(log, 100.0)) == _hex(panel.efficiency)
    ends = [1, 9, 10, 11, 500, 9_999, 10_000, 10_001, 19_999, 20_000]
    for width in (10, 1000, 20_000):
        got = trailing_windows(log, 10, 100.0, ends, width)
        want = oracle_trailing_windows(log, 10, 100.0, ends, width)
        assert [tuple(map(_hex, w)) for w in got] == [tuple(map(_hex, w)) for w in want]


@pytest.mark.parametrize(
    "rewards",
    [
        [(100, 0), (0, 100), (100.0, 0.0), (50, 50)],
        [(np.float64(100.0), 0.0), (100.0, 0.0), (0.0, np.float64(100.0))],
        [(100.0, -0.0), (100.0, 0.0), (-0.0, 100.0), (-0.0, -0.0)],
        [(100, -0.0), (np.float64(50.0), np.float64(50.0)), (0, 0), (0.0, 0.0), (100.0, 0.0)],
    ],
    ids=["int", "np.float64", "negative-zero", "mixed"],
)
def test_efficiency_and_the_writer_of_library_rewards_equal_the_oracles(tmp_path, rewards):
    # Each body a sole win of agent 0 or 1 (or a tie), its rewards built by hand.
    outcomes = [
        EpisodeOutcome(e, frozenset(i for i in (0, 1) if r[i]) or frozenset(), r, 2)
        for e, r in enumerate(rewards * 3)
    ]
    assert _hex(efficiency(outcomes, 100.0)) == _hex(oracle_efficiency(outcomes, 100.0))
    path = tmp_path / "log.jsonl"
    write_episode_log(outcomes, path)
    assert path.read_text(encoding="utf-8") == "".join(
        _encode(o.to_record()) + "\n" for o in outcomes)
    log = EpisodeLog.from_outcomes(outcomes)
    assert [repr(r) for _, r in log.bodies] == list(dict.fromkeys(map(repr, rewards)))
