"""The columnar episode log: the EpisodeLog type, and the log.jsonl reader
against a line-by-line ``json.loads`` + ``from_record`` oracle."""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import make_outcome, read_log_oracle

from altlab.cli import main
from altlab.errors import ConfigError, DataError
from altlab.game import EpisodeLog, EpisodeOutcome, GameConfig, RewardScheme
from altlab.harness import read_episode_log, write_episode_log
from altlab.metrics import compute_panel
from altlab.policies import run_random


def sample_outcomes():
    return [
        make_outcome(0, 3, {1}, steps=2),
        make_outcome(1, 3, {0, 2}, steps=3),
        make_outcome(2, 3, set(), steps=1000),
        make_outcome(3, 3, {1}, steps=4),
        make_outcome(4, 3, {0, 1, 2}, steps=2),
    ]


def test_from_outcomes_round_trip():
    outcomes = sample_outcomes()
    log = EpisodeLog.from_outcomes(outcomes)
    assert list(log) == outcomes
    assert len(log) == 5
    assert len(log.bodies) == 4  # episodes 0 and 3 share a body
    assert log.ids.tolist() == [0, 1, 2, 0, 3]
    assert EpisodeLog.from_outcomes(log) is log
    assert EpisodeLog.from_outcomes([]) == []


def test_indexing_and_slicing():
    outcomes = sample_outcomes()
    log = EpisodeLog.from_outcomes(outcomes)
    assert log[0] == outcomes[0]
    assert log[-1] == outcomes[-1]
    assert log[np.int64(3)] == outcomes[3]
    assert log[1:4] == outcomes[1:4]
    assert log[::-2] == outcomes[::-2]
    assert log[7:] == []
    with pytest.raises(IndexError):
        log[5]


def test_equality_with_a_list():
    outcomes = sample_outcomes()
    log = EpisodeLog.from_outcomes(outcomes)
    assert log == outcomes and outcomes == log
    assert log == EpisodeLog.from_outcomes(list(outcomes))
    assert log != outcomes[:-1]
    assert log != [*outcomes[:-1], make_outcome(4, 3, {0, 1, 2}, steps=3)]
    assert log != tuple(outcomes)


def test_steps_column():
    log = EpisodeLog.from_outcomes(sample_outcomes())
    assert log.steps.dtype == np.int32 and log.ids.dtype == np.int32
    assert log.steps.tolist() == [2, 3, 1000, 4, 2]
    with pytest.raises(ValueError):
        log.steps[0] = 5
    with pytest.raises(ValueError):
        EpisodeLog(log.bodies, [0, 1], [2])


def test_negative_zero_rewards_keep_their_own_body():
    plain = EpisodeOutcome(0, frozenset({1}), (0.0, 100.0), 2)
    signed = EpisodeOutcome(1, frozenset({1}), (-0.0, 100.0), 2)
    log = EpisodeLog.from_outcomes([plain, signed])
    assert len(log.bodies) == 2
    assert repr(log[1].rewards) == "(-0.0, 100.0)"


@pytest.mark.parametrize(
    "episode",
    [
        EpisodeOutcome(1, frozenset({2}), (0.0, 100.0), 2),
        EpisodeOutcome(1, frozenset({-1}), (0.0, 100.0), 2),
        EpisodeOutcome(1, frozenset({0}), (100.0, 0.0, 0.0), 2),
    ],
    ids=["arrival-too-high", "arrival-negative", "reward-length"],
)
def test_body_table_rejects_ids_and_rewards_that_do_not_fit_n(episode):
    log = EpisodeLog.from_outcomes([make_outcome(0, 2, {1}), episode, make_outcome(2, 2, {1})])
    with pytest.raises(DataError, match="episode 1"):
        log.columns(2)
    with pytest.raises(ConfigError):
        log.columns(1)


def test_reader_keeps_each_body_once(tmp_path):
    log = run_random(GameConfig(n_agents=3, reward_scheme=RewardScheme.IQF), 2000, seed_or_rng=5)
    path = tmp_path / "log.jsonl"
    write_episode_log(log, path)
    back = read_episode_log(path)
    assert back == log
    assert len(back.bodies) == len(log.bodies) <= 2**3
    assert np.array_equal(back.steps, log.steps)


# -- The reader against the line-by-line oracle ----------------------------


def test_a_body_that_repeats_the_episode_key_is_checked_on_every_line(tmp_path):
    # json.loads keeps the last "episode", the one inside the body, so the
    # second line is episode 0 again; a cache keyed by body text must not
    # accept it.
    body = '"arrivals":[0],"episode":0,"exclusive_winner":0,"rewards":[100.0,0.0]'
    path = tmp_path / "log.jsonl"
    path.write_text("".join(f'{{"episode":{e},{body},"steps":2,"capped":false}}\n' for e in range(3)))
    for read in (read_log_oracle, read_episode_log):
        with pytest.raises(DataError, match="line 2"):
            read(path)

# Bad or odd values for each field of a record.
FIELD_VALUES = {
    "episode": [None, -1, 0, 1, 2, 1.0, True, "0", 2**31],
    "arrivals": [None, "x", {}, [], [0], [1], [0, 1], [1, 0], [0, 0], [-1], [99], [1.0], ["0"]],
    "exclusive_winner": [None, 0, 1, -1, 99, 1.0, True, "0"],
    "rewards": [None, "x", [], [100.0], [100.0, 0.0], [0.0, 100.0], [-0.0, 100.0], [50.0, 50.0],
                [-1.0, 0.0], [1e308, 0.0], [100.0, 0.0, 0.0]],
    "steps": [None, 0, -1, 1, 1.5, True, "2", 2**31 - 1, 2**31, 10**30],
    "capped": [None, True, False, 0, 1, "x"],
}


def _text(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _line(pairs) -> str:
    return "{" + ",".join(f'"{key}":{text}' for key, text in pairs) + "}"


@st.composite
def mutations(draw):
    """A function from a valid record to a mutated line of text."""
    kind = draw(
        st.sampled_from(
            ["field", "flip-capped", "drop", "spaces", "reorder", "duplicate", "negative-zero",
             "float-or-true-id", "episode-digits"]
        )
    )
    if kind == "field":
        key = draw(st.sampled_from(sorted(FIELD_VALUES)))
        value = draw(st.sampled_from(FIELD_VALUES[key]))
        return lambda r: _text({**r, key: value})
    if kind == "flip-capped":
        return lambda r: _text({**r, "capped": not r["capped"]})
    if kind == "drop":
        key = draw(st.sampled_from(sorted(FIELD_VALUES)))
        return lambda r: _text({k: v for k, v in r.items() if k != key})
    if kind == "spaces":
        return json.dumps
    if kind == "reorder":
        order = draw(st.permutations(range(6)))
        return lambda r: _text(dict([list(r.items())[i] for i in order]))
    if kind == "duplicate":
        key = draw(st.sampled_from(["episode", "steps"]))
        value = draw(st.sampled_from([0, 1, 7]))
        at = draw(st.integers(2, 4))

        def duplicate(r):
            pairs = [(k, _text(v)) for k, v in r.items()]
            pairs.insert(at, (key, _text(value)))
            return _line(pairs)

        return duplicate
    if kind == "negative-zero":
        literal = draw(st.sampled_from(["-0.0", "-0"]))

        def negative_zero(r):
            rewards = [literal if v == 0 else repr(v) for v in r["rewards"]]
            text = "[" + ",".join(rewards) + "]"
            return _line([(k, text if k == "rewards" else _text(v)) for k, v in r.items()])

        return negative_zero
    if kind == "float-or-true-id":
        key = draw(st.sampled_from(["arrivals", "exclusive_winner", "episode"]))
        as_true = draw(st.booleans())

        def spell(i):
            return "true" if as_true else f"{i}.0"

        def float_or_true(r):
            value = r[key]
            if key == "arrivals":
                text = "[" + ",".join(spell(i) for i in value) + "]"
            else:
                text = _text(value) if value is None else spell(value)
            return _line([(k, text if k == key else _text(v)) for k, v in r.items()])

        return float_or_true
    digits = draw(st.sampled_from(["0{}", "00{}", "١{}", "{}０", "+{}", "{}e0"]))
    return lambda r: _line(
        [(k, digits.format(v) if k == "episode" else _text(v)) for k, v in r.items()]
    )


def _outcome_or_error(read, path):
    try:
        return read(path), None
    except DataError as exc:
        return None, exc


@given(
    n=st.integers(2, 3),
    episodes=st.integers(4, 16),
    seed=st.integers(0, 2**32),
    mutate=mutations(),
    data=st.data(),
)
@settings(max_examples=500, deadline=None)
def test_reader_agrees_with_the_line_by_line_oracle(n, episodes, seed, mutate, data):
    records = [ep.to_record() for ep in run_random(GameConfig(n_agents=n), episodes, seed_or_rng=seed)]
    # One or more lines get the same mutation, so a mutated body text can
    # also come back from the reader's cache.
    where = data.draw(st.sets(st.integers(0, episodes - 1), min_size=1, max_size=5))
    lines = [mutate(r) if e in where else _text(r) for e, r in enumerate(records)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        want, want_error = _outcome_or_error(read_log_oracle, path)
        got, got_error = _outcome_or_error(read_episode_log, path)
        event("accepted" if want_error is None else "rejected")
        assert (got_error is None) == (want_error is None), (lines, got_error, want_error)
        if want_error is None:
            assert got == want
            assert [repr(ep.rewards) for ep in got] == [repr(ep.rewards) for ep in want]
        else:
            line = re.compile(r"line (\d+)")
            assert line.search(str(got_error))[1] == line.search(str(want_error))[1]
            assert main(["metrics", "--log", str(path), "--agents", str(n)]) == 3


@st.composite
def outcome_lists(draw):
    n = draw(st.integers(2, 5))
    nu = draw(st.integers(n, 40))
    scheme = draw(st.sampled_from(["ilf", "iqf"]))
    r_high = draw(st.sampled_from([100.0, 1.0, 3.0, 1e-3, 7e12]))
    return n, r_high, [
        make_outcome(e, n, set(draw(st.sets(st.integers(0, n - 1)))), r_high, scheme,
                     draw(st.integers(1, 2000)))
        for e in range(nu)
    ]


@given(outcome_lists())
@settings(max_examples=100, deadline=None)
def test_write_read_score_is_bit_equal(case):
    n, r_high, outcomes = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        write_episode_log(outcomes, path)
        back = read_episode_log(path)
    assert back == outcomes
    want = compute_panel(outcomes, n, r_high).as_dict()
    assert repr(compute_panel(back, n, r_high).as_dict()) == repr(want)


@given(outcome_lists())
@settings(max_examples=100, deadline=None)
def test_body_table_sums_equal_per_episode_sums(case):
    # The sums as taken over one row per episode: fsum of every reward, and
    # each agent's payoffs added in episode order.
    n, r_high, outcomes = case
    panel = compute_panel(outcomes, n, r_high)
    total = math.fsum(r for ep in outcomes for r in ep.rewards)
    assert panel.efficiency == total / (len(outcomes) * r_high)
    per_agent = np.array([ep.rewards for ep in outcomes]).sum(axis=0)
    top = per_agent.max()
    assert repr(panel.reward_fairness) == repr(None if top == 0 else float(per_agent.min() / top))
