"""Random and Q-learning policies: schedules, updates, training runs."""

import numpy as np
import pytest

from conftest import two_agent_random_expectations

from altlab.errors import ConfigError, DataError
from altlab.game import Action, GameConfig
from altlab.metrics import alt_score
from altlab.policies import (
    QLearningConfig,
    QLearningPolicy,
    QTable,
    RandomPolicy,
    epsilon_at,
    q_update,
    random_action,
    run_random,
    select_action,
    train_run,
)


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
    rng = np.random.default_rng(123)
    draws = np.array([int(random_action(rng)) for _ in range(100_000)])
    assert draws.mean() == pytest.approx(0.5, abs=0.005)
    # adjacent draws are uncorrelated
    corr = np.corrcoef(draws[:-1], draws[1:])[0, 1]
    assert abs(corr) < 0.01
    rng2 = np.random.default_rng(123)
    again = [int(random_action(rng2)) for _ in range(1000)]
    assert again == list(draws[:1000])


def test_select_action_greedy_and_tie_break():
    q = QTable()
    key = (0, 0)
    q.set(key, Action.MOVE, 5.0)
    rng = np.random.default_rng(0)
    assert all(select_action(q, key, 0.0, rng) is Action.MOVE for _ in range(100))

    tie_rng = np.random.default_rng(1)
    draws = [int(select_action(QTable(), key, 0.0, tie_rng)) for _ in range(10_000)]
    assert np.mean(draws) == pytest.approx(0.5, abs=0.02)


def test_select_action_explores_at_full_epsilon():
    q = QTable()
    key = (0, 0)
    q.set(key, Action.STAY, 50.0)
    rng = np.random.default_rng(2)
    draws = [int(select_action(q, key, 1.0, rng)) for _ in range(10_000)]
    assert np.mean(draws) == pytest.approx(0.5, abs=0.02)


def test_q_update_frozen_example():
    cfg = QLearningConfig()
    q = QTable()
    s, s_next = (0, 0), (1, 0)
    q.set(s, Action.MOVE, 10.0)
    q.set(s_next, Action.STAY, 20.0)
    q_update(q, s, Action.MOVE, 0.0, s_next, terminal=False, cfg=cfg)
    # target = 0 + 0.999 * 20 = 19.98; new = 10 + 0.3 * 9.98
    assert q.get(s, Action.MOVE) == pytest.approx(12.994)


def test_q_update_terminal_bootstraps_to_zero():
    cfg = QLearningConfig()
    q = QTable()
    q.set((1, 1), Action.MOVE, 1000.0)
    q_update(q, (0, 0), Action.MOVE, 100.0, (1, 1), terminal=True, cfg=cfg)
    assert q.get((0, 0), Action.MOVE) == pytest.approx(30.0)


def test_q_update_rejects_non_finite_reward():
    with pytest.raises(DataError):
        q_update(
            QTable(), (0,), Action.MOVE, float("nan"), (1,), False, QLearningConfig()
        )


def test_qtable_default_lookup_does_not_insert():
    q = QTable()
    assert q.get((5, 5), Action.MOVE) == 0.0
    assert q.max_value((5, 5)) == 0.0
    assert len(q) == 0
    q.set((5, 5), Action.STAY, -2.0)
    assert len(q) == 1
    assert q.max_abs_value() == 2.0


def test_qtable_dump_format(tmp_path):
    q = QTable()
    q.set((1, 0), Action.MOVE, 3.5)
    q.set((0, 0), Action.STAY, -1.0)
    path = tmp_path / "table.txt"
    q.dump(path)
    lines = path.read_text().splitlines()
    assert lines == ["0,0 -1.0 0.0", "1,0 0.0 3.5"]


def test_train_run_shapes_and_determinism():
    cfg = GameConfig(n_agents=2)
    qcfg = QLearningConfig()
    a = train_run(cfg, qcfg, 300, seed_or_rng=7)
    b = train_run(cfg, qcfg, 300, seed_or_rng=7)
    assert len(a.outcomes) == 300
    assert a.outcomes == b.outcomes
    assert len(a.tables) == 2
    # per-agent tables are independent objects
    assert a.tables[0] is not a.tables[1]
    assert [dict(t.items()) for t in a.tables] == [dict(t.items()) for t in b.tables]
    assert len(a.final_prev_winners) == 2


def test_trained_q_values_respect_return_bound():
    cfg = GameConfig(n_agents=2)
    qcfg = QLearningConfig()
    result = train_run(cfg, qcfg, 1000, seed_or_rng=9)
    bound = cfg.r_high / (1.0 - qcfg.gamma)
    assert all(t.max_abs_value() <= bound for t in result.tables)
    assert all(len(t) > 0 for t in result.tables)


def test_train_run_raises_when_q_values_escape_the_bound(monkeypatch):
    cfg = GameConfig(n_agents=2)
    qcfg = QLearningConfig()
    bound = cfg.r_high / (1.0 - qcfg.gamma)
    monkeypatch.setattr(QTable, "max_abs_value", lambda self: bound * 1.01)
    with pytest.raises(DataError, match="bound"):
        train_run(cfg, qcfg, 20, seed_or_rng=9)


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
    policy = QLearningPolicy(QLearningConfig())
    policy.learning = False
    policy.observe((0, 0), Action.MOVE, 100.0, (1, 0), True)
    assert len(policy.q) == 0


def test_run_random_rejects_empty_run():
    with pytest.raises(ConfigError):
        run_random(GameConfig(n_agents=2), 0)


def test_random_policy_ignores_observations():
    policy = RandomPolicy()
    policy.observe((0,), Action.MOVE, 1.0, (1,), True)
    rng = np.random.default_rng(0)
    assert policy.act((0,), 0.0, rng) in (Action.STAY, Action.MOVE)
