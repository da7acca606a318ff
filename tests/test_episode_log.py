"""The columnar episode log: the EpisodeLog type, and the log.jsonl reader
against a line-by-line ``json.loads`` + ``from_record`` oracle."""

import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import make_outcome, read_log_oracle

from altlab.cli import main
from altlab.errors import ConfigError, DataError
from altlab.game import (
    EpisodeLog, EpisodeOutcome, GameConfig, RewardScheme, StateType, _accept_bodies,
)
from altlab import harness
from altlab.harness import read_episode_log, write_episode_log
from altlab.metrics import compute_panel
from altlab.policies import QLearningConfig, run_random, train_run


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
        EpisodeOutcome(1, frozenset({2**63}), (0.0, 100.0), 2),
        EpisodeOutcome(1, frozenset({0, 2**64}), (50.0, 50.0), 2),
        EpisodeOutcome(1, frozenset({-(2**63) - 1}), (0.0, 100.0), 2),
        EpisodeOutcome(1, frozenset({0}), (100.0,), 2),
    ],
    ids=["arrival-too-high", "arrival-negative", "reward-length", "arrival-2**63",
         "arrival-2**64", "arrival-below-int64", "reward-too-short"],
)
def test_body_table_rejects_ids_and_rewards_that_do_not_fit_n(episode):
    # The message names the first offending body by its first episode,
    # also when a later body is wrong as well.
    log = EpisodeLog.from_outcomes([make_outcome(0, 2, {1}), episode, make_outcome(2, 2, {1}),
                                    episode, EpisodeOutcome(4, frozenset({3}), (0.0, 100.0), 2)])
    text = (f"episode 1: arrivals {sorted(episode.arrivals)} and {len(episode.rewards)} "
            "rewards do not fit 2 agents")
    with pytest.raises(DataError, match=f"^{re.escape(text)}$"):
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


@pytest.mark.parametrize(
    "make_log",
    [
        lambda: run_random(GameConfig(n_agents=5), 20_000, seed_or_rng=3),
        lambda: train_run(GameConfig(n_agents=3, state_type=StateType.TYPE_B), QLearningConfig(),
                          3000, seed_or_rng=3).outcomes,
    ],
    ids=["random-n5", "trained-n3-type-b"],
)
def test_the_writers_logs_take_the_block_path(tmp_path, monkeypatch, make_log):
    # A block read line by line pays from_record once per line; on the block
    # path no line does, and the bulk check sees each distinct body text once.
    log, path = make_log(), tmp_path / "log.jsonl"
    write_episode_log(log, path)
    calls, from_record = [], EpisodeOutcome.from_record
    monkeypatch.setattr(EpisodeOutcome, "from_record",
                        staticmethod(lambda record: calls.append(record) or from_record(record)))
    checked, accept = [], harness._accept_bodies
    monkeypatch.setattr(harness, "_accept_bodies",
                        lambda texts, capped: checked.extend(texts) or accept(texts, capped))
    back = read_episode_log(path)
    assert back == log and np.array_equal(back.steps, log.steps)
    assert calls == []
    assert len(checked) == len(set(checked)) == len(log.bodies)


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


def _agree_with_the_oracle(path):
    """Read ``path`` with both readers; they give equal logs or fail on the same line.
    Returns the reader's log, or None."""
    want, want_error = _outcome_or_error(read_log_oracle, path)
    got, got_error = _outcome_or_error(read_episode_log, path)
    assert (got_error is None) == (want_error is None), (got_error, want_error)
    if want_error is not None:
        line = re.compile(r"line (\d+)")
        assert line.search(str(got_error))[1] == line.search(str(want_error))[1]
        return None
    assert got == want
    assert [repr(ep.rewards) for ep in got] == [repr(ep.rewards) for ep in want]
    assert got.bodies == EpisodeLog.from_outcomes(want).bodies
    return got


@given(
    episodes=st.integers(1, 60),
    seed=st.integers(0, 2**32),
    hint=st.integers(1, 400),
    ending=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    mutate=mutations(),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_block_reader_agrees_with_the_oracle_across_block_boundaries(
    episodes, seed, hint, ending, final_newline, mutate, data
):
    # A hint of 1-400 characters puts one to a few lines in each block, so
    # mutated, blank and clean lines fall in different blocks.
    records = [ep.to_record() for ep in run_random(GameConfig(n_agents=3), episodes, seed_or_rng=seed)]
    where = data.draw(st.sets(st.integers(0, episodes - 1), max_size=3))
    blanks = data.draw(st.sets(st.integers(0, episodes), max_size=2))
    lines = []
    for e, r in enumerate(records):
        lines += [""] * (e in blanks) + [mutate(r) if e in where else _text(r)]
    text = ending.join(lines) + (ending if final_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(harness, "_BLOCK", hint):
            got = _agree_with_the_oracle(path)
    event("accepted" if got is not None else "rejected")
    if not where and got is not None:
        assert got == run_random(GameConfig(n_agents=3), episodes, seed_or_rng=seed)


def _same_length_lines(outcomes):
    """Records of fewer than 10 episodes that share one body: equally long lines."""
    lines = [_text(ep.to_record()) + "\n" for ep in outcomes]
    assert len(set(map(len, lines))) == 1
    return lines


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: [*lines[:4], "\n", *lines[4:]],
        lambda lines: [*lines[:-1], lines[-1].rstrip("\n")],
        lambda lines: [line.replace("\n", "\r\n") for line in lines],
    ],
    ids=["blank-line-mid-log", "no-final-newline", "crlf"],
)
def test_block_reader_accepts_what_the_oracle_accepts(tmp_path, monkeypatch, edit):
    outcomes = [make_outcome(e, 2, {e % 2}) for e in range(9)]
    lines = _same_length_lines(outcomes)
    path = tmp_path / "log.jsonl"
    path.write_bytes("".join(edit(lines)).encode("utf-8"))
    monkeypatch.setattr(harness, "_BLOCK", 3 * len(lines[0]) - 1)  # three lines a block
    assert _agree_with_the_oracle(path) == outcomes


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda line: line.replace('"episode":7', '"episode":6'),
         "line 8: episode 6 out of sequence, expected 7"),
        (lambda line: line.replace('{"episode":7,', ""), "line 8: invalid JSON"),
    ],
    ids=["out-of-sequence", "no-episode-key"],
)
def test_block_reader_names_a_bad_line_in_the_third_block(tmp_path, monkeypatch, edit, error):
    lines = _same_length_lines([make_outcome(e, 2, {0}) for e in range(9)])
    lines[7] = edit(lines[7])
    path = tmp_path / "log.jsonl"
    path.write_text("".join(lines))
    monkeypatch.setattr(harness, "_BLOCK", 3 * len(lines[0]) - 1)
    with pytest.raises(DataError, match=error):
        read_episode_log(path)
    assert _agree_with_the_oracle(path) is None


def test_block_reader_adds_a_body_first_seen_in_a_later_block(tmp_path, monkeypatch):
    outcomes = [make_outcome(e, 2, {0} if e < 7 else {1}) for e in range(9)]
    lines = _same_length_lines(outcomes)
    path = tmp_path / "log.jsonl"
    path.write_text("".join(lines))
    monkeypatch.setattr(harness, "_BLOCK", 3 * len(lines[0]) - 1)
    log = _agree_with_the_oracle(path)
    assert log.ids.tolist() == [0] * 7 + [1] * 2
    assert log.bodies == (((0,), (100.0, 0.0)), ((1,), (0.0, 100.0)))


# -- The bulk body check against from_record --------------------------------

_BODY_KEYS = ("arrivals", "exclusive_winner", "rewards")
# Texts for a body's values: FIELD_VALUES', plus spellings that JSON reads
# as another type, or that the writer would not write.
BODY_VALUES = {
    "arrivals": [*map(_text, FIELD_VALUES["arrivals"]), "[2,0,1]", "[0,1,1]", "[2]", "[-0]",
                 "[true]", f"[{2**64}]"],
    "exclusive_winner": [*map(_text, FIELD_VALUES["exclusive_winner"]), "2", "false", "-0"],
    "rewards": [*map(_text, FIELD_VALUES["rewards"]), "[1e2,0.0]", "[100,0.0]", "[0.0,-0.0]",
                "[NaN,0.0]", "[Infinity,0.0]", "[1e400,0.0]", "[0.0,0.0,0.0]", "[50.0,0.0,50.0]"],
}


def _writer_body(outcome: EpisodeOutcome) -> str:
    record = outcome.to_record()
    return _text({key: record[key] for key in _BODY_KEYS})[1:-1]


@st.composite
def body_texts(draw):
    """A body text in the writer's layout and its line's capped flag: a body
    that pays as the game does, with up to two values replaced or respelled."""
    n = draw(st.integers(2, 4))
    arrivals = draw(st.lists(st.integers(0, n - 1), max_size=n))
    if draw(st.booleans()):
        arrivals = sorted(set(arrivals))
    share = draw(st.sampled_from(["100.0", "1e2", "25.0", "1e308", "100", "NaN", "Infinity",
                                  "-1.0", "0.0"]))
    zero = draw(st.sampled_from(["0.0", "-0.0", "0e0", "0"]))
    paid = 0 < len(set(arrivals)) < n
    # Agent ids as JSON integers, or respelled in one or both fields.
    respelled = draw(st.sampled_from([(), (), ("arrivals",), ("exclusive_winner",),
                                      ("arrivals", "exclusive_winner")]))
    spell = draw(st.sampled_from(["{}.0", "true", "-{}"]))
    winner = arrivals[0] if len(set(arrivals)) == 1 else None
    ids = {key: [spell.format(i) if key in respelled else str(i) for i in values]
           for key, values in (("arrivals", arrivals), ("exclusive_winner", [winner]))}
    values = {
        "arrivals": "[" + ",".join(ids["arrivals"]) + "]",
        "exclusive_winner": "null" if winner is None else ids["exclusive_winner"][0],
        "rewards": "[" + ",".join(share if paid and i in arrivals else zero
                                  for i in range(n)) + "]",
    }
    for key in draw(st.lists(st.sampled_from(_BODY_KEYS), max_size=2)):
        values[key] = draw(st.sampled_from(BODY_VALUES[key]))
    capped = draw(st.booleans()) if draw(st.integers(0, 5)) == 0 else not arrivals
    return ",".join(f'"{key}":{values[key]}' for key in _BODY_KEYS), capped


@given(bodies=st.lists(body_texts(), min_size=1, max_size=4))
@example(bodies=[('"arrivals":[-1],"exclusive_winner":-1,"rewards":[0.0,100.0]', False)])
@settings(max_examples=500, deadline=None)
def test_the_bulk_check_accepts_only_what_from_record_accepts(bodies):
    texts, capped = (list(x) for x in zip(*bodies))
    outcomes = []
    for text, flag in bodies:
        record = json.loads(f'{{"episode":0,{text},"steps":1,"capped":{_text(flag)}}}')
        try:
            outcomes.append(EpisodeOutcome.from_record(record))
        except DataError:
            outcomes.append(None)
    # Checked alone or together, each body is accepted or refused alike.
    singles = [_accept_bodies([text], [flag]) for text, flag in bodies]
    accepted = _accept_bodies(texts, capped)
    assert accepted == (None if None in singles else [body for [body] in singles])
    event(f"{len(singles) - singles.count(None)} of {len(singles)} accepted")
    for single, ep in zip(singles, outcomes):
        if single is not None:
            assert ep is not None
            assert single == [(tuple(sorted(ep.arrivals)), ep.rewards)]
            assert repr(single[0][1]) == repr(ep.rewards)
    # Bodies as the writer writes them, with arrivals in range, are all accepted.
    if all(ep is not None and text == _writer_body(ep)
           and max(ep.arrivals, default=-1) < len(ep.rewards) for text, ep in zip(texts, outcomes)):
        assert accepted is not None


@pytest.mark.parametrize("block", [harness._BLOCK, 200])
def test_a_spliced_body_is_read_as_the_oracle_reads_it(tmp_path, monkeypatch, block):
    # Joined with the next new body text, a body that closes its own braces
    # would shift values from one record to the next.
    lines = [_text(make_outcome(e, 2, {e % 2}).to_record()) for e in range(6)]
    lines[3] = lines[3].replace('0.0]', '0.0]},{', 1)
    lines[4] = lines[4].replace('"rewards":[', '"rewards":[1]},{"arrivals":[0],"rewards":[', 1)
    path = tmp_path / "log.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    monkeypatch.setattr(harness, "_BLOCK", block)
    assert _agree_with_the_oracle(path) is None
    with pytest.raises(DataError, match="line 4: invalid JSON"):
        read_episode_log(path)


# -- The writer against the record-by-record oracle -------------------------


def oracle_log_text(outcomes):
    return "".join(harness._encode(o.to_record()) + "\n" for o in outcomes)


@st.composite
def writer_logs(draw, max_agents=12):
    # A few bodies and step counts, repeated, so that (body, steps) pairs
    # recur; rewards need not pay by the game's rule for the writer.
    n = draw(st.integers(2, max_agents))
    reward = st.sampled_from([0.0, -0.0, 100.0, 3.0, 7, 0, 1 / 3, 1e-300, 7e12, 2.5e-5])
    bodies = draw(st.lists(
        st.tuples(st.sets(st.integers(0, n - 1)), st.lists(reward, min_size=n, max_size=n)),
        min_size=1, max_size=6,
    ))
    steps = draw(st.lists(st.integers(1, 2**31 - 1), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.sampled_from(bodies), st.sampled_from(steps)), max_size=30))
    return [EpisodeOutcome(e, frozenset(a), tuple(r), k) for e, ((a, r), k) in enumerate(picks)]


def assert_writer_matches_oracle(outcomes, sizes):
    want = oracle_log_text(outcomes)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        for size in sizes:
            with mock.patch.object(harness, "_WRITE_SLICE", size):
                write_episode_log(outcomes, path)
            assert path.read_text(encoding="utf-8") == want, size


@given(writer_logs())
@settings(max_examples=300, deadline=None)
def test_writer_bytes_equal_the_record_by_record_oracle(outcomes):
    assert_writer_matches_oracle(outcomes, (1, 7, harness._WRITE_SLICE))


@given(writer_logs(max_agents=70))
@settings(max_examples=100, deadline=None)
def test_body_texts_are_one_per_body_up_to_seventy_agents(outcomes):
    # The writer encodes all bodies at once and cuts the text at '},{'.
    log = EpisodeLog.from_outcomes(outcomes)
    want = []
    for arrivals, rewards in log.bodies:
        record = EpisodeOutcome(0, frozenset(arrivals), rewards, 1).to_record()
        body = {k: record[k] for k in ("arrivals", "exclusive_winner", "rewards")}
        want.append(harness._encode(body)[1:-1])
    assert harness._body_texts(log.bodies) == want
    assert_writer_matches_oracle(outcomes, (7, harness._WRITE_SLICE))


@pytest.mark.parametrize(
    "outcomes",
    [
        [],
        [make_outcome(e, 3, set(), steps=1000) for e in range(5)],
        [EpisodeOutcome(e, frozenset({e % 70, 69 - e % 70}), tuple(map(float, range(70))), e + 1)
         for e in range(140)],
    ],
    ids=["no-episodes", "one-body", "seventy-agents"],
)
def test_writer_bytes_equal_the_oracle_at_the_edges(outcomes):
    assert len(harness._body_texts(EpisodeLog.from_outcomes(outcomes).bodies)) == len(
        {(o.arrivals, o.rewards) for o in outcomes})
    assert_writer_matches_oracle(outcomes, (1, 7, harness._WRITE_SLICE))


def test_writer_bytes_equal_the_oracle_over_several_slices():
    log = run_random(GameConfig(n_agents=4, step_cap=3), 3 * harness._WRITE_SLICE + 5, seed_or_rng=9)
    assert set(log.steps.tolist()) == {2, 3} and any(not arrivals for arrivals, _ in log.bodies)
    assert_writer_matches_oracle(log, (harness._WRITE_SLICE,))


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
