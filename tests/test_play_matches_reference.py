"""The episode loop against the reference play in ``reference_play.py``.

Random play, Q-learning and the greedy evaluation after training must
draw from the generator in the reference's order, so every outcome,
Q-table and arrival bit, and the generator's final state, match exactly.
Play draws its words in blocks of ``policies._CHUNK``, so the cases that
shrink it also cover episodes and runs that cross block boundaries.
"""

import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_play as ref
from altlab import harness, policies
from altlab.game import GameConfig, RewardScheme, StateType
from altlab.policies import QLearningConfig, play, run_random, train_run


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
    tables = [policies.agent_table(new.tables, i) for i in range(len(old.tables))]
    assert tables == [rows(t) for t in old.tables]
    assert [list(t) for t in tables] == [[k for k, _ in t.items()] for t in old.tables]
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


def assert_same_random_play(cfg, episodes, seed, buffered=False) -> None:
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # both start with half a 64-bit word buffered
        new_rng.integers(0, 2)
        old_rng.integers(0, 2)
    assert run_random(cfg, episodes, new_rng) == ref.run_random(cfg, episodes, old_rng)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(game_configs(), st.sampled_from([1, 2, 7]), st.integers(1, 80), seeds, st.booleans())
def test_random_play_matches_reference_across_small_blocks(cfg, chunk, episodes, seed, buffered):
    # Blocks of 1, 2 or 7 steps: episodes start, end and run on across
    # block boundaries everywhere.
    with mock.patch.object(policies, "_CHUNK", chunk):
        assert_same_random_play(cfg, episodes, seed, buffered)


def test_long_random_runs_match_reference():
    # 3,000 short episodes run across several blocks of the real size.
    assert_same_random_play(GameConfig(n_agents=2), 3000, 11)
    # Episodes of about 70 steps on a 40-cell track: some straddle a block
    # boundary, and with 7-step blocks every one spans several blocks.
    long_track = GameConfig(n_agents=2, path_length=40, step_cap=5000)
    assert_same_random_play(long_track, 150, 12)
    with mock.patch.object(policies, "_CHUNK", 7):
        assert_same_random_play(long_track, 20, 13)
    # A step cap beyond any int64 never cuts an episode off.
    assert_same_random_play(GameConfig(n_agents=3, path_length=3, step_cap=2**70), 100, 14)


def test_random_play_continues_a_callers_generator_and_bits():
    cfg = GameConfig(n_agents=3, state_type=StateType.TYPE_B, path_length=3, step_cap=5)
    new_rng, old_rng = np.random.default_rng(5), np.random.default_rng(5)
    # Both generators are mid-stream, with half a 64-bit word buffered.
    new_rng.integers(0, 2, size=3)
    for _ in range(3):
        old_rng.integers(0, 2)
    bits = (1, 0, 1)
    outcomes, new_bits = play(cfg, 200, new_rng, bits)
    policies_ = [ref.RandomPolicy() for _ in range(cfg.n_agents)]
    old = []
    for e in range(200):
        old.append(ref.run_episode(policies_, bits, cfg, old_rng, epsilon=1.0, episode_index=e))
        bits = ref.next_prev_winners(old[-1], cfg)
    assert outcomes == old
    assert new_bits == bits
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    game_configs(), qlearning_configs(), st.sampled_from([1, 2, 7]), st.integers(1, 80),
    st.integers(1, 30), seeds,
)
def test_q_play_matches_reference_across_small_blocks(cfg, qcfg, chunk, episodes, greedy, seed):
    # Blocks of 1, 2 or 7 words are shorter than the 2n words a step can
    # use, so Q-play tops up its unread words on almost every step.
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(policies, "_CHUNK", chunk):
        new = train_run(cfg, qcfg, episodes, new_rng)
        new_greedy, new_bits = play(
            cfg, greedy, new_rng, new.final_prev_winners, new.tables, [qcfg.epsilon_min] * greedy
        )
    old = ref.train_run(cfg, qcfg, episodes, old_rng)
    old_greedy = ref.greedy_eval(cfg, qcfg, old, greedy, old_rng)
    assert_same_training(new, old)
    assert new_greedy == old_greedy
    assert new_bits == ref.next_prev_winners(old_greedy[-1], cfg)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(game_configs(), qlearning_configs(), st.data(), seeds)
def test_greedy_continuation_matches_reference(cfg, qcfg, data, seed):
    episodes = data.draw(st.integers(cfg.n_agents, 80))
    spec = harness.ExperimentSpec(cfg, episodes, seed, "run", qcfg)
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
        harness.run(spec, runs_root)
    rng = np.random.default_rng(seed)
    old = ref.train_run(cfg, qcfg, episodes, rng)
    old_greedy = ref.greedy_eval(
        cfg, qcfg, old, harness.GREEDY_EVAL_EPISODES_PER_AGENT * cfg.n_agents, rng
    )
    assert_same_training(trained[0], old)
    # compute_panel scores the training log, then the greedy evaluation's.
    assert scored == [old.outcomes, old_greedy]
