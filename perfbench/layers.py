"""Per-layer metrics of a traced run.

The layers are altlab's modules: ``game``, ``policies``, ``metrics``,
``analysis``, ``harness`` and ``cli``.  Spans wrap the calls between them
at the module attributes the caller looks up (``harness.train_run``,
``cli.compute_panel``, ...); ``analysis`` is called from ``harness.sweep``
and counts in its self time.  Which end-to-end metric each should move:

- ``policies.run_random``: ``wall_s`` on sweep-mini.
- ``policies.train_run``: ``wall_s`` on train-n10.
- ``game.run_episode``: the greedy evaluation after training.
- ``metrics.compute_panel``: ``op_p50_ms``, ``op_p90_ms``, ``wall_s`` on rescore.
- ``metrics.alt_score``, ``metrics.efficiency``: the training curve.
- ``harness.write_episode_log``: ``wall_s`` and ``artifact_mb`` on
  sweep-mini and train-n10.
- ``harness.read_episode_log``: the ``op_*`` metrics and ``peak_rss_mb``
  on rescore.
"""

from __future__ import annotations

import gc
import os
import sys
import types

import numpy as np

from altlab import cli, harness

import tracing

AGENT_COUNTS = (2, 5, 10)
SELF_TIMED = ("harness.sweep", "harness.run_training", "harness.run_baseline", "cli.main")

# name -> unit, in the order BENCHMARK.json lists them.
METRICS = {
    "policies.run_random.s": "s",
    "policies.run_random.calls": "count",
    "policies.run_random.steps": "count",
    "policies.run_random.us_per_step": "us/step",
    **{f"policies.run_random.us_per_step.n{n}": "us/step" for n in AGENT_COUNTS},
    "policies.train_run.s": "s",
    "policies.train_run.steps": "count",
    "policies.train_run.us_per_step": "us/step",
    **{f"policies.train_run.us_per_step.n{n}": "us/step" for n in AGENT_COUNTS},
    "game.run_episode.s": "s",
    "game.run_episode.calls": "count",
    "metrics.compute_panel.s": "s",
    "metrics.compute_panel.episodes": "count",
    "metrics.compute_panel.episodes_per_s": "episodes/s",
    "metrics.alt_score.s": "s",
    "metrics.alt_score.calls": "count",
    "metrics.efficiency.s": "s",
    "harness.write_episode_log.s": "s",
    "harness.write_episode_log.bytes_per_episode": "B/episode",
    "harness.read_episode_log.s": "s",
    "harness.read_episode_log.episodes_per_s": "episodes/s",
    "harness.read_episode_log.bytes_per_episode": "B/episode",
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    "trace_overhead_pct": "%",
}
COUNTS = tuple(name for name, unit in METRICS.items() if unit in ("count", "B/episode"))


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _steps(log) -> int:
    steps = getattr(log, "steps", None)
    if steps is not None:
        return int(np.sum(steps))
    return sum(outcome.steps_used for outcome in log)


def _random_counts(args, kwargs, log):
    return {"n": _arg(args, kwargs, 0, "cfg").n_agents, "steps": _steps(log)}


def _train_counts(args, kwargs, trained):
    return {"n": _arg(args, kwargs, 0, "cfg").n_agents, "steps": _steps(trained.outcomes)}


def _panel_counts(args, kwargs, panel):
    return {"episodes": panel.nu}


def _write_counts(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return {"episodes": len(_arg(args, kwargs, 0, "outcomes")), "bytes": os.path.getsize(path)}


def _read_counts(args, kwargs, log):
    return {"episodes": len(log), "path": str(_arg(args, kwargs, 0, "path"))}


def install(tracer: tracing.Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    for owner, attr, name, counter in (
        (harness, "sweep", "harness.sweep", None),
        (harness, "run_baseline", "harness.run_baseline", None),
        (harness, "run_training", "harness.run_training", None),
        (harness, "run_random", "policies.run_random", _random_counts),
        (harness, "train_run", "policies.train_run", _train_counts),
        (harness, "run_episode", "game.run_episode", None),
        (harness, "compute_panel", "metrics.compute_panel", _panel_counts),
        (cli, "compute_panel", "metrics.compute_panel", _panel_counts),
        (harness, "alt_score", "metrics.alt_score", None),
        (harness, "efficiency", "metrics.efficiency", None),
        (harness, "write_episode_log", "harness.write_episode_log", _write_counts),
        (harness, "read_episode_log", "harness.read_episode_log", _read_counts),
    ):
        tracer.wrap(owner, attr, name, counter)


def resident_bytes(obj) -> int:
    """Bytes of every object reachable from ``obj``, each counted once."""
    seen = set()
    stack = [obj]
    total = 0
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        stack.extend(gc.get_referents(o))
    return total


def read_bytes_per_episode(spans: list[tracing.Span]) -> float:
    """In-memory bytes per episode of the largest log the unit read.

    Measured after the traced units, on a fresh read of the same file.
    """
    reads = [s for s in spans if s.name == "harness.read_episode_log"]
    if not reads:
        return 0.0
    largest = max(reads, key=lambda s: s.counts["episodes"])
    log = harness.read_episode_log(largest.counts["path"])
    return resident_bytes(log) / len(log)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def unit_metrics(spans: list[tracing.Span], own: list[float], overhead_s: float) -> dict:
    """Per-layer metrics of one traced unit.

    ``own`` holds each span's self time; ``overhead_s`` is the time the
    wrappers spent in the unit.
    """
    by_name: dict[str, list[tracing.Span]] = {}
    self_s: dict[str, float] = {}
    for span, seconds in zip(spans, own):
        by_name.setdefault(span.name, []).append(span)
        self_s[span.name] = self_s.get(span.name, 0.0) + seconds

    def total(name: str, key: str | None = None, n: int | None = None) -> float:
        group = [s for s in by_name.get(name, ()) if n is None or s.counts.get("n") == n]
        return sum(s.seconds if key is None else s.counts[key] for s in group)

    m = {}
    for layer in ("policies.run_random", "policies.train_run"):
        m[f"{layer}.s"] = total(layer)
        m[f"{layer}.steps"] = total(layer, "steps")
        m[f"{layer}.us_per_step"] = 1e6 * _ratio(m[f"{layer}.s"], m[f"{layer}.steps"])
        for n in AGENT_COUNTS:
            m[f"{layer}.us_per_step.n{n}"] = 1e6 * _ratio(total(layer, n=n), total(layer, "steps", n))
    m["policies.run_random.calls"] = len(by_name.get("policies.run_random", ()))
    m["game.run_episode.s"] = total("game.run_episode")
    m["game.run_episode.calls"] = len(by_name.get("game.run_episode", ()))
    m["metrics.compute_panel.s"] = total("metrics.compute_panel")
    m["metrics.compute_panel.episodes"] = total("metrics.compute_panel", "episodes")
    m["metrics.compute_panel.episodes_per_s"] = _ratio(
        m["metrics.compute_panel.episodes"], m["metrics.compute_panel.s"])
    m["metrics.alt_score.s"] = total("metrics.alt_score")
    m["metrics.alt_score.calls"] = len(by_name.get("metrics.alt_score", ()))
    m["metrics.efficiency.s"] = total("metrics.efficiency")
    m["harness.write_episode_log.s"] = total("harness.write_episode_log")
    m["harness.write_episode_log.bytes_per_episode"] = _ratio(
        total("harness.write_episode_log", "bytes"), total("harness.write_episode_log", "episodes"))
    m["harness.read_episode_log.s"] = total("harness.read_episode_log")
    m["harness.read_episode_log.episodes_per_s"] = _ratio(
        total("harness.read_episode_log", "episodes"), m["harness.read_episode_log.s"])
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["trace_overhead_pct"] = 100.0 * _ratio(overhead_s, total("cli.main"))
    return m
