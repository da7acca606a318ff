"""Core game mechanics: transitions, termination, rewards, encodings."""

import math

import numpy as np
import pytest

from altlab.errors import ConfigError, DataError
from altlab.game import (
    Action,
    EpisodeOutcome,
    GameConfig,
    GameState,
    RewardScheme,
    StateType,
    arrivals,
    assign_rewards,
    encode_state,
    initial_state,
    is_terminal,
    next_prev_winners,
    run_episode,
    step,
)
from altlab.policies import run_random


class FixedPolicy:
    def __init__(self, action):
        self.action = action

    def act(self, key, epsilon, rng):
        return self.action

    def observe(self, key, action, reward, next_key, terminal):
        pass


def test_config_validation():
    with pytest.raises(ConfigError):
        GameConfig(n_agents=1)
    with pytest.raises(ConfigError):
        GameConfig(n_agents=2, path_length=0)
    with pytest.raises(ConfigError):
        GameConfig(n_agents=2, path_length=5, step_cap=4)
    with pytest.raises(ConfigError):
        GameConfig(n_agents=2, r_high=0.0)


def test_r_low_by_scheme():
    ilf = GameConfig(n_agents=3, reward_scheme=RewardScheme.ILF)
    iqf = GameConfig(n_agents=3, reward_scheme=RewardScheme.IQF)
    assert ilf.r_low == pytest.approx(100.0 / 3)
    assert iqf.r_low == pytest.approx(100.0 / 9)


def test_step_advances_movers_only():
    cfg = GameConfig(n_agents=3)
    state = initial_state(cfg)
    state = step(state, (Action.MOVE, Action.STAY, Action.MOVE), cfg)
    assert state.positions == (1, 0, 1)
    assert state.step == 1
    state = step(state, (Action.STAY, Action.MOVE, Action.MOVE), cfg)
    assert state.positions == (1, 1, 2)
    assert state.step == 2


def test_step_rejects_wrong_arity_and_terminal_states():
    cfg = GameConfig(n_agents=2)
    state = initial_state(cfg)
    with pytest.raises(ConfigError):
        step(state, (Action.MOVE,), cfg)
    terminal = GameState(positions=(2, 0), prev_winners=(0, 0), step=2)
    with pytest.raises(ConfigError):
        step(terminal, (Action.MOVE, Action.MOVE), cfg)


def test_is_terminal_on_arrival_and_cap():
    cfg = GameConfig(n_agents=2, step_cap=10)
    assert not is_terminal(GameState((1, 1), (0, 0), step=5), cfg)
    assert is_terminal(GameState((2, 0), (0, 0), step=3), cfg)
    assert is_terminal(GameState((1, 0), (0, 0), step=10), cfg)


def test_arrivals_set():
    cfg = GameConfig(n_agents=3)
    assert arrivals(GameState((2, 1, 2), (0, 0, 0), 4), cfg) == frozenset({0, 2})


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


def test_encode_state_type_a_and_b():
    cfg_a = GameConfig(n_agents=2, state_type=StateType.TYPE_A)
    cfg_b = GameConfig(n_agents=2, state_type=StateType.TYPE_B)
    state = GameState(positions=(0, 1), prev_winners=(1, 0), step=3)
    assert encode_state(state, cfg_a) == (0, 1)
    assert encode_state(state, cfg_b) == (0, 1, 1, 0)


def test_initial_state_defaults_and_validation():
    cfg = GameConfig(n_agents=2)
    state = initial_state(cfg)
    assert state.positions == (0, 0)
    assert state.prev_winners == (0, 0)
    assert state.step == 0
    assert initial_state(cfg, (1, 0)).prev_winners == (1, 0)
    with pytest.raises(ConfigError):
        initial_state(cfg, (1,))
    with pytest.raises(ConfigError):
        initial_state(cfg, (2, 0))


def test_run_episode_full_tie():
    cfg = GameConfig(n_agents=2)
    rng = np.random.default_rng(0)
    outcome = run_episode([FixedPolicy(Action.MOVE)] * 2, None, cfg, rng)
    assert outcome.arrivals == frozenset({0, 1})
    assert outcome.exclusive_winner is None
    assert outcome.rewards == (0.0, 0.0)
    assert outcome.steps_used == 2
    assert not outcome.capped


def test_run_episode_exclusive_winner():
    cfg = GameConfig(n_agents=2)
    rng = np.random.default_rng(0)
    outcome = run_episode(
        [FixedPolicy(Action.MOVE), FixedPolicy(Action.STAY)], None, cfg, rng
    )
    assert outcome.arrivals == frozenset({0})
    assert outcome.exclusive_winner == 0
    assert outcome.rewards == (100.0, 0.0)
    assert outcome.steps_used == 2


def test_run_episode_capped_when_nobody_moves():
    cfg = GameConfig(n_agents=2, step_cap=7)
    rng = np.random.default_rng(0)
    outcome = run_episode([FixedPolicy(Action.STAY)] * 2, None, cfg, rng)
    assert outcome.capped
    assert outcome.arrivals == frozenset()
    assert outcome.rewards == (0.0, 0.0)
    assert outcome.steps_used == 7


def test_run_episode_policy_count_mismatch():
    cfg = GameConfig(n_agents=2)
    with pytest.raises(ConfigError):
        run_episode([FixedPolicy(Action.MOVE)], None, cfg, np.random.default_rng(0))


def test_observations_reach_policies():
    seen = []

    class Recorder(FixedPolicy):
        def observe(self, key, action, reward, next_key, terminal):
            seen.append((key, action, reward, next_key, terminal))

    cfg = GameConfig(n_agents=2, state_type=StateType.TYPE_B)
    run_episode(
        [Recorder(Action.MOVE), Recorder(Action.STAY)],
        (0, 1),
        cfg,
        np.random.default_rng(0),
    )
    # two steps, two agents
    assert len(seen) == 4
    first_key = seen[0][0]
    assert first_key == (0, 0, 0, 1)
    # non-terminal transitions pay zero; the final one pays the winner
    assert seen[0][2] == 0.0 and seen[1][2] == 0.0
    assert seen[2][4] and seen[3][4]
    assert seen[2][2] == 100.0 and seen[3][2] == 0.0


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
        exclusive_winner=None,
        rewards=(100.0 / 3, 0.0, 100.0 / 3),
        steps_used=6,
        capped=False,
    )
    record = outcome.to_record()
    assert record["arrivals"] == [0, 2]
    assert EpisodeOutcome.from_record(record) == outcome

    capped = EpisodeOutcome(9, frozenset(), None, (0.0, 0.0), 1000, True)
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
    ],
)
def test_record_validation_rejects_malformed(mutate):
    record = EpisodeOutcome(0, frozenset({0}), 0, (100.0, 0.0), 2, False).to_record()
    mutate(record)
    with pytest.raises(DataError):
        EpisodeOutcome.from_record(record)


def test_next_prev_winners_bits():
    cfg = GameConfig(n_agents=3)
    tie = EpisodeOutcome(0, frozenset({0, 2}), None, (0.0, 0.0, 0.0), 3, False)
    assert next_prev_winners(tie, cfg) == (1, 0, 1)
    capped = EpisodeOutcome(1, frozenset(), None, (0.0, 0.0, 0.0), 1000, True)
    assert next_prev_winners(capped, cfg) == (0, 0, 0)
