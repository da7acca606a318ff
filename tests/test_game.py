"""Core game mechanics: transitions, termination, rewards, encodings.

Moves are forced through frozen Q-tables played greedily at epsilon 0
(``forced_tables`` in conftest), so every episode below is determined.
"""

import itertools
import math
import re

import numpy as np
import pytest

from conftest import MOVE_ROW, STAY_ROW, forced_tables

from altlab.errors import ConfigError, DataError
from altlab.game import (
    EpisodeOutcome,
    GameConfig,
    RewardScheme,
    StateType,
    assign_rewards,
)
from altlab.harness import ExperimentSpec
from altlab.policies import QLearningConfig, agent_table, play, run_random, train_run


def play_forced(cfg, *rows, bits=None):
    """One episode in which agent i always takes the action ``rows[i]`` prefers."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    tables = forced_tables(cfg, *rows)
    (outcome,), next_bits = play(cfg, 1, rng, bits or (0,) * cfg.n_agents, tables)
    # A greedy choice without a tie draws nothing.
    assert rng.bit_generator.state == state
    return outcome, next_bits


def test_config_validation():
    with pytest.raises(ConfigError):
        GameConfig(n_agents=1)
    with pytest.raises(ConfigError):
        GameConfig(n_agents=2, path_length=0)
    with pytest.raises(ConfigError):
        GameConfig(n_agents=2, path_length=5, step_cap=4)
    # The steps column is int32, and no episode is shorter than path_length.
    with pytest.raises(ConfigError, match=r"< 2\*\*31"):
        GameConfig(n_agents=2, path_length=2**31, step_cap=2**31)
    assert GameConfig(n_agents=2, path_length=2**31 - 1, step_cap=2**31 - 1).path_length == 2**31 - 1
    for r_high in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            GameConfig(n_agents=2, r_high=r_high)
    # A partial tie's share must not round to zero.
    with pytest.raises(ConfigError):
        GameConfig(n_agents=3, reward_scheme=RewardScheme.IQF, r_high=5e-324)
    assert GameConfig(n_agents=3, reward_scheme=RewardScheme.IQF, r_high=1e-300).r_low > 0
    # Plain strings read through the enums and integers must be integers:
    # a bool, a float or a string is refused, a numpy integer becomes an int.
    for kwargs in (
        dict(state_type="Z"),
        dict(reward_scheme="ILF"),
        dict(state_type=None),
        dict(n_agents=2.5),
        dict(n_agents=True),
        dict(path_length="2"),
        dict(step_cap=1000.0),
    ):
        with pytest.raises(ConfigError):
            GameConfig(**{"n_agents": 2, **kwargs})
    typed = GameConfig(n_agents=2, state_type=StateType.TYPE_B, reward_scheme=RewardScheme.IQF)
    plain = GameConfig(
        n_agents=np.int64(2), state_type="B", reward_scheme="iqf", step_cap=np.int32(1000)
    )
    assert plain == typed and hash(plain) == hash(typed) and repr(plain) == repr(typed)
    assert plain.state_type is StateType.TYPE_B and type(plain.n_agents) is int
    # A Type B game given as "B" trains on keys with the arrival bits.
    assert {len(key) for key in train_run(plain, QLearningConfig(), 20, 0).tables} == {4}
    # A huge finite payoff is a valid game, but a run whose total payoff or
    # Q-value bound overflows is not.
    huge = GameConfig(n_agents=2, r_high=1e307)
    ExperimentSpec(huge, 10, 0, "r")
    with pytest.raises(ConfigError, match="total payoff"):
        ExperimentSpec(huge, 20, 0, "r")
    with pytest.raises(ConfigError, match="Q-value bound"):
        ExperimentSpec(huge, 10, 0, "r", QLearningConfig())
    ExperimentSpec(huge, 10, 0, "r", QLearningConfig(gamma=0.0))


def test_r_low_by_scheme():
    ilf = GameConfig(n_agents=3, reward_scheme=RewardScheme.ILF)
    iqf = GameConfig(n_agents=3, reward_scheme=RewardScheme.IQF)
    assert ilf.r_low == pytest.approx(100.0 / 3)
    assert iqf.r_low == pytest.approx(100.0 / 9)
    assert GameConfig(n_agents=3, reward_scheme="ilf").r_low == ilf.r_low
    assert GameConfig(n_agents=3, reward_scheme="iqf").r_low == iqf.r_low


def test_step_advances_movers_only():
    # Each agent's row at the joint position picks its move: (M, S, M) from
    # the start, then (S, M, M) from (1, 0, 1), so only agent 2 reaches
    # cell 2 on the second step.
    cfg = GameConfig(n_agents=3)
    tables = {
        (0, 0, 0): [*MOVE_ROW, *STAY_ROW, *MOVE_ROW],
        (1, 0, 1): [*STAY_ROW, *MOVE_ROW, *MOVE_ROW],
    }
    (outcome,), bits = play(cfg, 1, np.random.default_rng(0), (0, 0, 0), tables)
    assert outcome.arrivals == frozenset({2})
    assert outcome.steps_used == 2
    assert bits == (0, 0, 1)


def test_step_rejects_wrong_arity_and_terminal_states():
    # Arrival bits or Q-tables for the wrong number of agents are refused.
    cfg = GameConfig(n_agents=2)
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        play(cfg, 1, rng, (0,))
    with pytest.raises(ConfigError):
        play(cfg, 1, rng, (0, 0), forced_tables(cfg, MOVE_ROW))
    # No terminal state is ever stepped: an episode ends on the step of the
    # first arrival, so on a one-cell track every episode takes one step.
    cfg = GameConfig(n_agents=2, path_length=1)
    log, _ = play(cfg, 3, rng, (0, 0), forced_tables(cfg, MOVE_ROW, STAY_ROW))
    assert [(ep.steps_used, ep.arrivals) for ep in log] == [(1, frozenset({0}))] * 3


def test_is_terminal_on_arrival_and_cap():
    cfg = GameConfig(n_agents=2, path_length=3, step_cap=10)
    arrived, _ = play_forced(cfg, MOVE_ROW, STAY_ROW)
    assert (arrived.steps_used, arrived.capped) == (3, False)
    capped, _ = play_forced(cfg, STAY_ROW, STAY_ROW)
    assert (capped.steps_used, capped.capped) == (10, True)


def test_arrivals_set():
    cfg = GameConfig(n_agents=3)
    outcome, _ = play_forced(cfg, MOVE_ROW, STAY_ROW, MOVE_ROW)
    assert outcome.arrivals == frozenset({0, 2})
    assert outcome.rewards == (cfg.r_low, 0.0, cfg.r_low)


def test_assign_rewards_exclusive_partial_full_none():
    cfg = GameConfig(n_agents=3)
    assert assign_rewards(frozenset({1}), cfg) == (0.0, 100.0, 0.0)
    partial = assign_rewards(frozenset({0, 1}), cfg)
    assert partial == pytest.approx((100.0 / 3, 100.0 / 3, 0.0))
    assert assign_rewards(frozenset({0, 1, 2}), cfg) == (0.0, 0.0, 0.0)
    assert assign_rewards(frozenset(), cfg) == (0.0, 0.0, 0.0)
    iqf = GameConfig(n_agents=3, reward_scheme=RewardScheme.IQF)
    assert assign_rewards(frozenset({0, 1}), iqf) == pytest.approx(
        (100.0 / 9, 100.0 / 9, 0.0)
    )
    with pytest.raises(ConfigError):
        assign_rewards(frozenset({5}), cfg)


@pytest.mark.parametrize("scheme", list(RewardScheme))
@pytest.mark.parametrize("n", range(2, 7))
def test_assign_rewards_pays_every_arrival_set_by_the_rule(n, scheme):
    cfg = GameConfig(n_agents=n, reward_scheme=scheme, r_high=100.0)
    share = 100.0 / n if scheme is RewardScheme.ILF else 100.0 / (n * n)
    for k in range(n + 1):
        for arrived in itertools.combinations(range(n), k):
            if k == 1:
                want = tuple(100.0 if i in arrived else 0.0 for i in range(n))
            elif 1 < k < n:
                want = tuple(share if i in arrived else 0.0 for i in range(n))
            else:
                want = (0.0,) * n
            # repr tells 0.0 from -0.0 and a float from an int.
            assert repr(assign_rewards(frozenset(arrived), cfg)) == repr(want)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("bad", ["negative", "n"])
def test_assign_rewards_refuses_ids_outside_zero_to_n(n, bad):
    arrived = frozenset({0, -1}) if bad == "negative" else frozenset({n, 1})
    text = f"arrival ids {sorted(arrived)} out of range for n={n}"
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
        assign_rewards(arrived, GameConfig(n_agents=n))


def test_encode_state_type_a_and_b():
    # Learned keys are the positions, plus the previous-arrival bits for Type B.
    for state_type, first_key in ((StateType.TYPE_A, (0, 0)), (StateType.TYPE_B, (0, 0, 1, 0))):
        cfg = GameConfig(n_agents=2, state_type=state_type)
        tables = {}
        play(cfg, 1, np.random.default_rng(3), (1, 0), tables, qcfg=QLearningConfig())
        keys = set(tables)
        assert first_key in keys
        assert all(len(k) == len(first_key) and k[2:] == first_key[2:] for k in keys)


def test_initial_state_defaults_and_validation():
    # A run starts with every agent at cell 0 and no previous arrivals.
    cfg = GameConfig(n_agents=2, state_type=StateType.TYPE_B)
    trained = train_run(cfg, QLearningConfig(), 1, seed_or_rng=0)
    assert (0, 0, 0, 0) in trained.tables
    rng = np.random.default_rng(0)
    for bits in ((1,), (2, 0)):
        with pytest.raises(ConfigError):
            play(cfg, 1, rng, bits)


def test_run_episode_full_tie():
    outcome, _ = play_forced(GameConfig(n_agents=2), MOVE_ROW, MOVE_ROW)
    assert outcome.arrivals == frozenset({0, 1})
    assert outcome.exclusive_winner is None
    assert outcome.rewards == (0.0, 0.0)
    assert outcome.steps_used == 2
    assert not outcome.capped


def test_run_episode_exclusive_winner():
    outcome, _ = play_forced(GameConfig(n_agents=2), MOVE_ROW, STAY_ROW)
    assert outcome.arrivals == frozenset({0})
    assert outcome.exclusive_winner == 0
    assert outcome.rewards == (100.0, 0.0)
    assert outcome.steps_used == 2


def test_run_episode_capped_when_nobody_moves():
    outcome, _ = play_forced(GameConfig(n_agents=2, step_cap=7), STAY_ROW, STAY_ROW)
    assert outcome.capped
    assert outcome.arrivals == frozenset()
    assert outcome.rewards == (0.0, 0.0)
    assert outcome.steps_used == 7


def test_run_episode_policy_count_mismatch():
    cfg = GameConfig(n_agents=2)
    with pytest.raises(ConfigError):
        play(cfg, 1, np.random.default_rng(0), (0, 0), forced_tables(cfg, MOVE_ROW))


def test_observations_reach_policies():
    # Type B, previous arrivals (0, 1): agent 0 moves and wins alone in two
    # steps.  Each agent updates only the two keys it acted on: the first,
    # which carries the previous-arrival bits, pays zero and bootstraps
    # from the next key; the terminal one pays the winner r_high and the
    # other agent nothing.
    cfg = GameConfig(n_agents=2, state_type=StateType.TYPE_B)
    store = forced_tables(cfg, MOVE_ROW, STAY_ROW)
    before = [agent_table(store, i) for i in range(2)]
    play(cfg, 1, np.random.default_rng(0), (0, 1), store, qcfg=QLearningConfig())
    tables = [agent_table(store, i) for i in range(2)]
    first, last = (0, 0, 0, 1), (1, 0, 0, 1)
    changed = [{k for k in t if t[k] != old[k]} for t, old in zip(tables, before)]
    assert changed == [{first, last}, {first, last}]
    # alpha 0.3, gamma 0.999: 1 + 0.3 * (0.999 * 1 - 1), then 1 + 0.3 * (100 - 1)
    assert tables[0][first] == [0.0, pytest.approx(0.9997)]
    assert tables[0][last] == [0.0, pytest.approx(30.7)]
    # the other agent's terminal row: 1 + 0.3 * (0 - 1)
    assert tables[1][last] == [pytest.approx(0.7), 0.0]


def test_run_random_is_deterministic_per_seed():
    cfg = GameConfig(n_agents=3)
    a = run_random(cfg, 200, seed_or_rng=11)
    b = run_random(cfg, 200, seed_or_rng=11)
    c = run_random(cfg, 200, seed_or_rng=12)
    assert a == b
    assert a != c
    assert [ep.episode_index for ep in a] == list(range(200))


def test_reward_totals_match_arrival_pattern():
    cfg = GameConfig(n_agents=3, reward_scheme=RewardScheme.IQF)
    for ep in run_random(cfg, 300, seed_or_rng=5):
        k = len(ep.arrivals)
        total = math.fsum(ep.rewards)
        if k == 1:
            assert total == pytest.approx(cfg.r_high)
        elif 1 < k < cfg.n_agents:
            assert total == pytest.approx(k * cfg.r_low)
        else:
            assert total == 0.0
        for agent, r in enumerate(ep.rewards):
            assert (r > 0) == (agent in ep.arrivals and k < cfg.n_agents)


def test_two_agent_exclusive_fraction_matches_enumeration():
    cfg = GameConfig(n_agents=2)
    log = run_random(cfg, 10_000, seed_or_rng=3)
    exclusive = sum(1 for ep in log if ep.exclusive_winner is not None) / len(log)
    assert exclusive == pytest.approx(22 / 27, abs=0.015)
    assert not any(ep.capped for ep in log)


def test_record_round_trip():
    outcome = EpisodeOutcome(
        episode_index=4,
        arrivals=frozenset({2, 0}),
        rewards=(100.0 / 3, 0.0, 100.0 / 3),
        steps_used=6,
    )
    record = outcome.to_record()
    assert record["arrivals"] == [0, 2]
    assert EpisodeOutcome.from_record(record) == outcome

    capped = EpisodeOutcome(9, frozenset(), (0.0, 0.0), 1000)
    assert EpisodeOutcome.from_record(capped.to_record()) == capped


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("steps"),
        lambda r: r.update(arrivals="x"),
        lambda r: r.update(capped=True),
        lambda r: r.update(exclusive_winner=1),
        lambda r: r.update(arrivals=[0, 1], exclusive_winner=0),
        lambda r: r.update(arrivals=[0, 2], exclusive_winner=None, rewards=[50.0, 0.0, 40.0]),
        lambda r: r.update(steps=1.5),
        lambda r: r.update(episode=True),
        lambda r: r.update(arrivals=[1], exclusive_winner=1.0, rewards=[0.0, 100.0]),
        lambda r: r.update(arrivals=[], exclusive_winner=None, rewards=[0.0, 0.0], capped="x"),
        lambda r: r.update(arrivals=[], exclusive_winner=None, rewards=[0.0, 0.0], capped=False),
        lambda r: r.update(rewards=[10**400, 0.0]),
        lambda r: r.update(arrivals=[0, 0]),
    ],
)
def test_record_validation_rejects_malformed(mutate):
    record = EpisodeOutcome(0, frozenset({0}), (100.0, 0.0), 2).to_record()
    mutate(record)
    with pytest.raises(DataError):
        EpisodeOutcome.from_record(record)


def test_next_prev_winners_bits():
    # Every arriver's bit is set, tie members included; a capped episode
    # carries all zeros.
    cfg = GameConfig(n_agents=3, step_cap=4)
    assert play_forced(cfg, MOVE_ROW, STAY_ROW, MOVE_ROW)[1] == (1, 0, 1)
    assert play_forced(cfg, STAY_ROW, STAY_ROW, STAY_ROW, bits=(1, 0, 1))[1] == (0, 0, 0)
