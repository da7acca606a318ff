"""Tests of the benchmark's own scorer, corpus, checks and tracing.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from altlab import cli, harness  # noqa: E402
from altlab.metrics import compute_panel  # noqa: E402

import corpus  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import scorer  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _load_oracles():
    spec = importlib.util.spec_from_file_location("altlab_test_oracles", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def _random_logs():
    rng = np.random.default_rng(20261017)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        nu = int(rng.integers(n, 25))
        # Mix exclusive wins, partial and full ties, and capped episodes.
        a = rng.random((nu, n)) < rng.choice([0.15, 0.4, 0.8])
        yield n, a


def _outcomes(a: np.ndarray, n: int, scheme: str = "ilf"):
    return [oracles.make_outcome(e, n, set(np.flatnonzero(row).tolist()), scheme=scheme)
            for e, row in enumerate(a)]


def test_scorer_matches_exact_oracle():
    for n, a in _random_logs():
        exact = oracles.naive_alt_scores(_outcomes(a, n), n)
        got = scorer.alt_scores(a, n)
        for v in scorer.VARIANTS:
            assert got[v] == pytest.approx(float(exact[v]), rel=1e-12, abs=1e-15), (n, a, v)


def test_scorer_matches_altlab_panel():
    for scheme in ("ilf", "iqf"):
        for n, a in _random_logs():
            want = compute_panel(_outcomes(a, n, scheme), n, 100.0).as_dict()
            assert scorer.mismatches(scorer.panel(a, n, 100.0, scheme), want) == []


def test_two_agent_closed_form_matches_oracle():
    exact = oracles.two_agent_random_expectations()
    assert exact["efficiency"] == Fraction(22, 27)
    ours = scorer.two_agent_random_expectations()
    assert set(ours) == set(exact)
    for key, value in exact.items():
        assert ours[key] == pytest.approx(float(value), rel=1e-12)


def test_rotation_scores_are_exact():
    for n in (2, 3, 5, 10):
        assert scorer.alt_scores(scorer.rotation(7 * n + 3, n, n), n) == dict.fromkeys(scorer.VARIANTS, 1.0)
        for x in range(1, n):
            assert scorer.alt_scores(scorer.rotation(50, n, x), n)["calt"] == (x / n) ** 2


def test_random_play_matches_two_agent_closed_form():
    a, steps = corpus.random_play(np.random.default_rng(3), 20_000, 2)
    assert steps.min() >= corpus.PATH_LENGTH
    k = a.sum(axis=1)
    assert np.mean(k == 1) == pytest.approx(22 / 27, abs=scorer.random_tolerance(20_000))


@pytest.fixture
def small_corpus(monkeypatch):
    """Shrink the corpus so that a rescore pass takes milliseconds."""
    monkeypatch.setattr(corpus, "RANDOM_LENGTHS", (40, 60))
    monkeypatch.setattr(corpus, "LONG_LOG", (10, 300))
    monkeypatch.setattr(corpus, "PERFECT_ROTATION_LENGTH", 30)
    monkeypatch.setattr(corpus, "PARTIAL_ROTATION_LENGTH", 40)


@pytest.fixture
def small_rescore(small_corpus, tmp_path):
    workload = workloads.Rescore(4, tmp_path)
    workload.prepare()
    workload.after_setup()
    return workload


def test_corpus_is_a_function_of_the_seed(small_corpus, tmp_path):
    _, first = corpus.write_all(corpus.build(5), tmp_path / "a")
    _, again = corpus.write_all(corpus.build(5), tmp_path / "b")
    _, other = corpus.write_all(corpus.build(6), tmp_path / "c")
    assert first == again != other


def test_corpus_files_read_back_in_altlab(small_corpus, tmp_path):
    logs = corpus.build(9)
    paths, _ = corpus.write_all(logs, tmp_path)
    for log in logs:
        outcomes = harness.read_episode_log(paths[log.name])
        assert [o.steps_used for o in outcomes] == log.steps.tolist()
        assert np.array_equal(scorer.read_arrivals(paths[log.name], log.n), log.arrivals)


def test_rescore_unit_passes_on_the_generated_corpus(small_rescore):
    ops = small_rescore.unit(0)
    assert len(ops) == len(small_rescore.logs)
    assert all(op.ok for op in ops), [op.problems for op in ops if not op.ok]
    assert all(op.bytes_written > 0 for op in ops)


def test_one_flipped_arrival_fails_its_operation(small_rescore):
    log = next(log for log in small_rescore.logs if log.name.startswith("random-n5"))
    path = small_rescore.paths[log.name]
    lines = path.read_text().splitlines(keepends=True)
    e = next(i for i, row in enumerate(log.arrivals) if row.sum() == 1)
    record = json.loads(lines[e])
    other = (record["arrivals"][0] + 1) % log.n
    record.update(arrivals=[other], exclusive_winner=other,
                  rewards=[100.0 if i == other else 0.0 for i in range(log.n)])
    lines[e] = json.dumps(record, separators=(",", ":")) + "\n"
    path.write_text("".join(lines))

    ops = small_rescore.unit(0)
    failed = [op for op in ops if not op.ok]
    assert len(failed) == 1
    assert str(path) in failed[0].argv


def test_traced_run_restores_every_wrapper(small_rescore, tmp_path):
    owners = (harness, cli)
    before = {(o.__name__, k): v for o in owners for k, v in vars(o).items() if callable(v)}
    units, reported, problems = run.traced(small_rescore, 0.0, tmp_path / "spans.jsonl")
    after = {(o.__name__, k): v for o in owners for k, v in vars(o).items() if callable(v)}
    assert after == before
    assert problems == []
    assert {name: unit for name, (_, unit) in reported.items()} == layers.METRICS
    metrics = {name: value for name, (value, _) in reported.items()}
    assert metrics["harness.read_episode_log.bytes_per_episode"] > 0
    assert metrics["metrics.compute_panel.episodes"] == sum(len(log.arrivals) for log in small_rescore.logs)
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {s["name"] for s in spans} == {"cli.main", "harness.read_episode_log", "metrics.compute_panel"}


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    own = tracer.self_times()
    outer, first, second = tracer.spans
    assert own[0] == pytest.approx(outer.seconds - first.seconds - second.seconds)
    assert own[1] == first.seconds and first.parent == 0 and second.parent == 0


def test_speed_clock_scales_by_probe_time_and_subtracts_it():
    clock = speed.SpeedClock()
    nominal = speed.NOMINAL_PROBE_S
    # A host at half speed: every probe takes twice its nominal time.
    clock.samples = [speed.Sample(t, 2 * nominal) for t in (0.0, 1.0, 2.0, 3.0, 4.0)]
    # The probes at 1.0, 2.0 and 3.0 lie inside 0.5 to 3.5.
    assert clock.probe_seconds(0.5, 3.5) == pytest.approx(3 * 2 * nominal)
    assert clock.scale(0.5, 3.5) == pytest.approx(0.5)
    assert clock.reference_seconds(0.5, 3.0) == pytest.approx((3.0 - 6 * nominal) * 0.5)
    # A span with too few probes inside takes its speed from the nearest
    # ones, here all five, averaged.
    clock.samples[-1] = speed.Sample(4.0, 6 * nominal)
    assert speed.MIN_SAMPLES >= len(clock.samples)
    assert clock.scale(10.0, 10.1) == pytest.approx(nominal / (2.8 * nominal))


def test_speed_clock_samples_while_running_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock(interval=0.01) as clock:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(clock.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_refuses_to_start_without_altlab_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rescore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS.items())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
