"""The episode loop against the reference play in ``reference_play.py``.

Random play, Q-learning and the greedy evaluation after training must
draw from the generator in the reference's order, so every outcome,
Q-table and arrival bit, and the generator's final state, match exactly.
"""

import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_play as ref
from altlab import harness
from altlab.game import GameConfig, RewardScheme, StateType
from altlab.policies import QLearningConfig, run_random, train_run


@st.composite
def game_configs(draw, max_agents=6):
    path_length = draw(st.integers(1, 4))
    return GameConfig(
        n_agents=draw(st.integers(2, max_agents)),
        state_type=draw(st.sampled_from(StateType)),
        reward_scheme=draw(st.sampled_from(RewardScheme)),
        path_length=path_length,
        step_cap=draw(st.integers(path_length, path_length + 3)),
    )


@st.composite
def qlearning_configs(draw):
    epsilon = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    low, high = sorted((draw(epsilon), draw(epsilon)))
    return QLearningConfig(
        gamma=draw(st.floats(0.0, 0.999)),
        alpha=draw(st.floats(0.01, 1.0)),
        epsilon_initial=high,
        epsilon_min=low,
        decay_end_fraction=draw(st.floats(0.05, 1.0)),
    )


seeds = st.integers(0, 2**64 - 1)


def rows(table) -> dict:
    return {key: list(row) for key, row in table.items()}


def assert_same_training(new, old) -> None:
    assert new.outcomes == old.outcomes
    assert [rows(t) for t in new.tables] == [rows(t) for t in old.tables]
    assert new.final_prev_winners == old.final_prev_winners


@settings(max_examples=150, deadline=None)
@given(game_configs(), qlearning_configs(), st.integers(1, 80), seeds)
def test_random_play_and_training_match_reference(cfg, qcfg, episodes, seed):
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert run_random(cfg, episodes, new_rng) == ref.run_random(cfg, episodes, old_rng)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state

    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_training(
        train_run(cfg, qcfg, episodes, new_rng), ref.train_run(cfg, qcfg, episodes, old_rng)
    )
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(game_configs(), qlearning_configs(), st.data(), seeds)
def test_greedy_continuation_matches_reference(cfg, qcfg, data, seed):
    episodes = data.draw(st.integers(cfg.n_agents, 80))
    spec = harness.ExperimentSpec(cfg, "qlearning", episodes, seed, "run", qcfg)
    trained, scored = [], []

    def recording(fn, log, result=False):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append(out if result else args[0])
            return out

        return wrapper

    with tempfile.TemporaryDirectory() as runs_root, mock.patch.object(
        harness, "train_run", recording(harness.train_run, trained, result=True)
    ), mock.patch.object(harness, "compute_panel", recording(harness.compute_panel, scored)):
        harness.run_training(spec, runs_root)
    rng = np.random.default_rng(seed)
    old = ref.train_run(cfg, qcfg, episodes, rng)
    old_greedy = ref.greedy_eval(
        cfg, qcfg, old, harness.GREEDY_EVAL_EPISODES_PER_AGENT * cfg.n_agents, rng
    )
    assert_same_training(trained[0], old)
    # compute_panel scores the training log, then the greedy evaluation's.
    assert scored == [old.outcomes, old_greedy]
