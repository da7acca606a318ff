"""Random and Q-learning play: schedules, draws, updates, training runs."""

import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_play as ref
from conftest import MOVE_ROW, STAY_ROW, forced_tables, two_agent_random_expectations

from altlab import game, policies
from altlab.errors import ConfigError, DataError
from altlab.game import GameConfig, StateType
from altlab.metrics import alt_score
from altlab.policies import QLearningConfig, agent_table, epsilon_at, play, run_random, train_run


def moves(log, n):
    """Each agent's one action per episode, in draw order, for a
    one-cell track with a one-step cap: the arrivals are the movers."""
    return [int(i in ep.arrivals) for ep in log for i in range(n)]


def test_qlearning_config_validation():
    with pytest.raises(ConfigError):
        QLearningConfig(gamma=1.0)
    with pytest.raises(ConfigError):
        QLearningConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        QLearningConfig(epsilon_min=0.5, epsilon_initial=0.4)
    with pytest.raises(ConfigError):
        QLearningConfig(decay_end_fraction=0.0)


def test_epsilon_schedule_frozen_points():
    assert epsilon_at(0, 1000) == pytest.approx(0.9)
    assert epsilon_at(375, 1000) == pytest.approx(0.452)
    assert epsilon_at(750, 1000) == pytest.approx(0.004)
    assert epsilon_at(999, 1000) == pytest.approx(0.004)


def test_epsilon_schedule_monotone_and_bounded():
    total = 4721
    values = [epsilon_at(e, total) for e in range(total)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.9)
    assert min(values) == pytest.approx(0.004)
    # the floor is reached exactly at 75% of the run
    decay_end = int(0.75 * total)
    assert values[decay_end] == pytest.approx(0.004)
    assert values[decay_end - 1] > 0.004


def test_epsilon_schedule_rejects_out_of_range():
    with pytest.raises(ConfigError):
        epsilon_at(-1, 100)
    with pytest.raises(ConfigError):
        epsilon_at(100, 100)
    with pytest.raises(ConfigError):
        epsilon_at(0, 0)


def test_random_action_uniform_and_reproducible():
    cfg = GameConfig(n_agents=2, path_length=1, step_cap=1)
    draws = np.array(moves(run_random(cfg, 50_000, seed_or_rng=123), 2))
    assert draws.mean() == pytest.approx(0.5, abs=0.005)
    # adjacent draws are uncorrelated
    corr = np.corrcoef(draws[:-1], draws[1:])[0, 1]
    assert abs(corr) < 0.01
    # one integers(0, 2) draw per agent per step, in agent order
    rng = np.random.default_rng(123)
    assert list(draws[:1000]) == [int(rng.integers(0, 2)) for _ in range(1000)]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("offset", [0, 1])
def test_block_coin_draws_equal_scalar_draws(seed, offset):
    # Random play draws its coins as integers(0, 2, size=...) blocks; numpy
    # must give the values and final state of as many scalar calls, also
    # from a generator with half a 64-bit word buffered (offset 1).
    for size in (1, 2, 3, 10, 2 * 4096 + 1):
        block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        block.integers(0, 2, size=offset)
        for _ in range(offset):
            scalar.integers(0, 2)
        drawn = block.integers(0, 2, size=size)
        assert drawn.dtype == np.int64
        assert drawn.tolist() == [int(scalar.integers(0, 2)) for _ in range(size)]
        assert block.bit_generator.state == scalar.bit_generator.state


EPSILONS = [0.0, 5e-324, 0.004, 0.9, 1.0, 1.5, math.inf, math.nan]


def coin_below(word, eps):
    return (word >> 11) * 2.0**-53 < eps


@pytest.mark.parametrize("eps", EPSILONS)
def test_coin_threshold_at_its_edges(eps):
    # The words either side of the threshold fall either side of eps; at
    # eps 0 and NaN the threshold is 0, so every word is at or above it.
    threshold = policies._coin_threshold(eps)
    for word in (threshold - 2, threshold - 1, threshold, threshold + 1, 0, 2**64 - 1):
        if 0 <= word < 2**64:
            assert (word < threshold) == coin_below(word, eps), word


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EPSILONS), st.integers(0, 2**64 - 1))
def test_coin_threshold_equals_the_float_comparison(eps, word):
    assert (word < policies._coin_threshold(eps)) == coin_below(word, eps)


@pytest.mark.parametrize("eps", [0.0, math.nan])
def test_no_coin_is_drawn_at_epsilon_zero_or_nan(eps):
    # Greedy rows with no ties draw nothing, so the generator stays put.
    cfg, rng = GameConfig(n_agents=3, path_length=3), np.random.default_rng(8)
    before = rng.bit_generator.state
    assert policies._coin_threshold(eps) == 0
    tables = forced_tables(cfg, MOVE_ROW, STAY_ROW, MOVE_ROW)
    log, _ = play(cfg, 4, rng, (0, 0, 0), tables, [eps] * 4)
    assert [ep.arrivals for ep in log] == [frozenset({0, 2})] * 4
    assert rng.bit_generator.state == before


def test_play_refuses_a_non_pcg64_generator():
    rng = np.random.Generator(np.random.MT19937(3))
    before = rng.bit_generator.state
    cfg = GameConfig(n_agents=2)
    with pytest.raises(ConfigError, match="PCG64"):
        play(cfg, 5, rng, (0, 0))
    with pytest.raises(ConfigError, match="PCG64"):
        train_run(cfg, QLearningConfig(), 5, rng)
    after = rng.bit_generator.state
    assert after["state"]["pos"] == before["state"]["pos"]
    assert np.array_equal(after["state"]["key"], before["state"]["key"])


def test_play_refuses_arguments_it_cannot_use():
    # Epsilons and a Q-learning config without Q-tables, epsilons that do
    # not give one per episode, per-agent tables instead of one store, or a
    # store row that is not one (stay, move) pair per agent, fail before the
    # generator is touched.
    cfg, rng = GameConfig(n_agents=2), np.random.default_rng(4)
    before = rng.bit_generator.state
    tables = {}
    for kwargs in (
        dict(qcfg=QLearningConfig()),
        dict(epsilons=[0.5] * 5),
        dict(qcfg=QLearningConfig(), epsilons=[0.5] * 5),
        dict(tables=tables, epsilons=[0.5] * 4),
        dict(tables=tables, epsilons=[0.5] * 6),
        dict(tables=[{}, {}]),
        dict(tables={(0, 0): [0.0] * 4, (1, 0): [0.0] * 3}),
        dict(tables={(0, 0): [0.0] * 5}),
    ):
        with pytest.raises(ConfigError):
            play(cfg, 5, rng, (0, 0), **kwargs)
        assert rng.bit_generator.state == before, kwargs
    assert tables == {}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_raising_step_leaves_the_generator_where_the_reference_does(seed):
    # The first tie's reward raises, on both sides, in the middle of a
    # training run and of the greedy play after one; each generator must
    # stop after the draws of the raising step.
    cfg = GameConfig(n_agents=3, path_length=2, step_cap=4)
    qcfg = QLearningConfig()

    def rewards_until_a_tie(won, cfg):
        if len(won) > 1:
            raise RuntimeError("tie")
        return game.assign_rewards(won, cfg)

    def raises_on_a_tie(run, *args):
        with mock.patch.object(policies, "assign_rewards", rewards_until_a_tie), mock.patch.object(
            ref, "assign_rewards", rewards_until_a_tie
        ), pytest.raises(RuntimeError, match="tie"):
            run(*args)

    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    raises_on_a_tie(train_run, cfg, qcfg, 500, new_rng)
    raises_on_a_tie(ref.train_run, cfg, qcfg, 500, old_rng)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state

    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    new, old = train_run(cfg, qcfg, 3000, new_rng), ref.train_run(cfg, qcfg, 3000, old_rng)
    eval_eps = [qcfg.epsilon_min] * 300
    raises_on_a_tie(play, cfg, 300, new_rng, new.final_prev_winners, new.tables, eval_eps)
    raises_on_a_tie(ref.greedy_eval, cfg, qcfg, old, 300, old_rng)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state

    # Random play, in blocks of the real size and of 7 steps: the generator
    # stops after the raising episode, half-word buffer included.
    for chunk in (policies._CHUNK, 7):
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(policies, "_CHUNK", chunk):
            raises_on_a_tie(run_random, cfg, 500, new_rng)
        raises_on_a_tie(ref.run_random, cfg, 500, old_rng)
        new, old = new_rng.bit_generator.state, old_rng.bit_generator.state
        assert (new["state"], new["has_uint32"], new["uinteger"]) == (
            old["state"], old["has_uint32"], old["uinteger"]
        )


def test_select_action_greedy_and_tie_break():
    cfg = GameConfig(n_agents=2)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    log, _ = play(cfg, 100, rng, (0, 0), forced_tables(cfg, MOVE_ROW, STAY_ROW))
    assert all(ep.exclusive_winner == 0 for ep in log)
    assert rng.bit_generator.state == state
    # Unseen keys read as an exact tie, broken by the random agent's draw.
    tied, _ = play(cfg, 5000, np.random.default_rng(1), (0, 0), {})
    assert tied == run_random(cfg, 5000, seed_or_rng=1)


def test_select_action_explores_at_full_epsilon():
    cfg = GameConfig(n_agents=2, path_length=1, step_cap=1)
    tables = forced_tables(cfg, STAY_ROW, STAY_ROW)
    log, _ = play(cfg, 5000, np.random.default_rng(2), (0, 0), tables, [1.0] * 5000)
    draws = moves(log, 2)
    assert np.mean(draws) == pytest.approx(0.5, abs=0.02)
    # each agent flips the exploration coin, then draws its action
    rng = np.random.default_rng(2)
    expected = []
    for _ in draws:
        rng.random()
        expected.append(int(rng.integers(0, 2)))
    assert draws == expected


def test_q_update_frozen_example():
    # Agent 0 moves from (0, 0) while agent 1 stays; agent 0's update reads
    # its own row at (1, 0): target = 0 + 0.999 * 20 = 19.98; new = 10 + 0.3 * 9.98
    cfg = GameConfig(n_agents=2, step_cap=3)
    tables = forced_tables(cfg, STAY_ROW, STAY_ROW)
    tables[(0, 0)][:2] = [0.0, 10.0]
    tables[(1, 0)][:2] = [20.0, 0.0]
    play(cfg, 1, np.random.default_rng(0), (0, 0), tables, qcfg=QLearningConfig())
    assert agent_table(tables, 0)[(0, 0)] == [0.0, pytest.approx(12.994)]


def test_q_update_terminal_bootstraps_to_zero():
    # Agent 0 arrives alone in one step; its terminal target is the reward
    # 100, not a bootstrap from its row at the next key.
    cfg = GameConfig(n_agents=2, path_length=1)
    tables = forced_tables(cfg, MOVE_ROW, STAY_ROW)
    tables[(0, 0)][:2] = [-1.0, 0.0]
    tables[(1, 0)][:2] = [0.0, 1000.0]
    play(cfg, 1, np.random.default_rng(0), (0, 0), tables, qcfg=QLearningConfig())
    assert agent_table(tables, 0)[(0, 0)] == [-1.0, pytest.approx(30.0)]


def test_q_update_rejects_non_finite_reward():
    # The only reward source is r_high, so a non-finite reward is refused
    # when the game is configured, before any Q update could see it.
    for r_high in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ConfigError):
            train_run(GameConfig(n_agents=2, r_high=r_high), QLearningConfig(), 1)


def test_qtable_default_lookup_does_not_insert():
    # Unseen keys read as zeros without being inserted; only updates add rows.
    cfg = GameConfig(n_agents=2)
    tables = {}
    play(cfg, 20, np.random.default_rng(5), (0, 0), tables, [0.5] * 20)
    assert tables == {}
    play(cfg, 1, np.random.default_rng(5), (0, 0), tables, qcfg=QLearningConfig())
    assert len(tables) > 0


def test_train_run_shapes_and_determinism():
    cfg = GameConfig(n_agents=2)
    qcfg = QLearningConfig()
    a = train_run(cfg, qcfg, 300, seed_or_rng=7)
    b = train_run(cfg, qcfg, 300, seed_or_rng=7)
    assert len(a.outcomes) == 300
    assert a.outcomes == b.outcomes
    assert {len(row) for row in a.tables.values()} == {4}
    # every key's row is an independent object
    assert len({id(row) for row in a.tables.values()}) == len(a.tables)
    assert a.tables == b.tables and list(a.tables) == list(b.tables)
    assert len(a.final_prev_winners) == 2


def test_trained_q_values_respect_return_bound():
    cfg = GameConfig(n_agents=2)
    qcfg = QLearningConfig()
    result = train_run(cfg, qcfg, 1000, seed_or_rng=9)
    bound = cfg.r_high / (1.0 - qcfg.gamma)
    assert all(abs(v) <= bound for row in result.tables.values() for v in row)
    assert len(result.tables) > 0


def test_train_run_raises_when_q_values_escape_the_bound(monkeypatch):
    cfg = GameConfig(n_agents=2)
    qcfg = QLearningConfig()
    bound = cfg.r_high / (1.0 - qcfg.gamma)
    real_play = policies.play

    def escaping_play(cfg, episodes, rng, bits, tables, *rest):
        result = real_play(cfg, episodes, rng, bits, tables, *rest)
        tables[(0, 0)][:2] = [bound * 1.01, 0.0]
        return result

    monkeypatch.setattr(policies, "play", escaping_play)
    with pytest.raises(DataError, match="bound"):
        train_run(cfg, qcfg, 20, seed_or_rng=9)

    # The values are checked a slice at a time: a bad value in the last,
    # partly filled slice of 3 still raises.
    monkeypatch.setattr(policies, "_BOUND_SLICE", 3)
    for bad in (bound * 1.01, -bound * 1.01, math.nan):
        def late_play(cfg, episodes, rng, bits, tables, *rest):
            result = real_play(cfg, episodes, rng, bits, tables, *rest)
            tables[(9, 9)] = [0.0, 0.0, 0.0, bad]
            assert sum(map(len, tables.values())) % 3 != 0
            return result

        monkeypatch.setattr(policies, "play", late_play)
        with pytest.raises(DataError, match="bound"):
            train_run(cfg, qcfg, 20, seed_or_rng=9)


def test_train_run_raises_on_a_nan_q_value(monkeypatch):
    # The NaN is not the first value, where a max() over the values skips it.
    cfg = GameConfig(n_agents=2)
    real_play = policies.play

    def nan_play(cfg, episodes, rng, bits, tables, *rest):
        result = real_play(cfg, episodes, rng, bits, tables, *rest)
        tables[(9, 9)] = [0.0, 0.0, 0.0, float("nan")]
        return result

    monkeypatch.setattr(policies, "play", nan_play)
    with pytest.raises(DataError, match="bound"):
        train_run(cfg, QLearningConfig(), 20, seed_or_rng=9)


def test_pinned_epsilon_training_matches_random_play():
    # with epsilon held at 1.0 throughout, training behaves like the
    # random baseline up to sampling noise
    cfg = GameConfig(n_agents=2)
    pinned = QLearningConfig(epsilon_initial=1.0, epsilon_min=1.0)
    trained = train_run(cfg, pinned, 10_000, seed_or_rng=21)
    expected = two_agent_random_expectations()
    for variant in ("falt", "ealt", "calt", "aalt"):
        score = alt_score(trained.outcomes, 2, variant)
        assert score == pytest.approx(float(expected[variant]), abs=0.02), variant


def test_frozen_policy_stops_learning():
    # Without qcfg the tables are read, never written.
    cfg = GameConfig(n_agents=2)
    trained = train_run(cfg, QLearningConfig(), 200, seed_or_rng=3)
    frozen = copy.deepcopy(trained.tables)
    rng = np.random.default_rng(4)
    play(cfg, 50, rng, trained.final_prev_winners, trained.tables, [0.5] * 50)
    assert trained.tables == frozen


def test_agent_table_round_trips_the_store_in_key_order():
    cfg = GameConfig(n_agents=3, state_type=StateType.TYPE_B, path_length=2)
    rows = (MOVE_ROW, STAY_ROW, (0.5, -0.25))
    store = forced_tables(cfg, *rows)
    tables = [agent_table(store, i) for i in range(3)]
    for table, row in zip(tables, rows):
        assert list(table) == list(store)
        assert all(pair == list(row) for pair in table.values())
    assert {key: [q for t in tables for q in t[key]] for key in tables[0]} == store


def test_ten_agent_training_keeps_one_flat_row_per_key():
    # One row of 2n floats per key, and exactly the keys each of the
    # reference's per-agent tables holds.
    cfg, qcfg = GameConfig(n_agents=10, state_type=StateType.TYPE_B), QLearningConfig()
    store = train_run(cfg, qcfg, 500, seed_or_rng=1).tables
    assert all(
        type(row) is list and len(row) == 20 and all(type(q) is float for q in row)
        for row in store.values()
    )
    assert [len(table) for table in ref.train_run(cfg, qcfg, 500, 1).tables] == [len(store)] * 10


def test_run_random_rejects_empty_run():
    with pytest.raises(ConfigError):
        run_random(GameConfig(n_agents=2), 0)
