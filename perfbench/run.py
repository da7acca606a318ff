"""Benchmark of altlab's CLI paths.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-mini --seed 1 --seconds 30 --trace 0

Workloads: ``sweep-mini``, ``train-n10`` and ``rescore`` (see
``workloads.py``).  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it wraps altlab's layer boundaries and prints
the per-layer metrics instead.  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  altlab is imported from ``src/`` of the same checkout; if
it is missing the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up is repeated and its median reported, so that one slow repeat on
# a shared machine does not move it.
SETUP_REPEATS = 5
# A sweep-mini unit takes 15-22 s, so a run of --seconds 30 often holds
# only one; its time is scaled by the hundreds of speed probes taken in it.
MIN_UNITS = 1

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}

# Single-run figures from ROADMAP "Recent" (2 vCPU, Python 3.11, numpy 2.4.6).
ROADMAP_RECENT = {
    "policies.train_run.us_per_step.n2": 21.0,
    "policies.train_run.us_per_step.n5": 44.0,
    "policies.train_run.us_per_step.n10": 104.0,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def import_probe() -> tuple[float, float]:
    """Import the CLI in a fresh interpreter, as every command does.

    The child times the import itself, under its own speed clock, and
    prints its raw and reference seconds.
    """
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    out = subprocess.run(
        [sys.executable, "-c", "import json, speed; print(json.dumps(speed.timed_import('altlab.cli')))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(HERE)))},
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    raw, reference = json.loads(out.splitlines()[-1])
    return raw, reference


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def repeat(run_unit, seconds: float) -> list:
    """Call ``run_unit(i)`` for i = 0, 1, ... and return its results.

    Runs at least ``MIN_UNITS`` units, then stops before a unit that would
    end after ``seconds`` if it took as long as the one before.
    """
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_unit(len(results)))
        last = time.perf_counter() - t0
        if len(results) >= MIN_UNITS and time.perf_counter() - start + last > seconds:
            return results


def end_to_end(setup: list[float], units: list[list], seconds) -> dict:
    """Each end-to-end metric as ``(value, unit)``; ``seconds(op)`` times an op."""
    ops_ms = [1000.0 * seconds(op) for unit in units for op in unit]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(seconds(op) for op in unit) for unit in units),
        "op_p50_ms": percentile(ops_ms, 50),
        "op_p90_ms": percentile(ops_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_mb": statistics.median(
            sum(op.bytes_written for op in unit) for unit in units) / 1e6,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def traced(workload, seconds: float, spans_path: Path) -> tuple[list[list], dict, list[str]]:
    """Run traced units; return them, per-layer ``(median, unit)`` and any problems.

    Spans are written to ``spans_path`` once the units are done.
    """
    import layers
    import tracing

    per_unit = []

    def traced_unit(index):
        first, overhead = len(tracer.spans), tracer.overhead
        ops = workload.unit(index, tracer)
        per_unit.append((first, len(tracer.spans), tracer.overhead - overhead))
        return ops

    with tracing.Tracer() as tracer:
        layers.install(tracer)
        units = repeat(traced_unit, seconds)
    own = tracer.self_times()
    results = [layers.unit_metrics(tracer.spans[a:b], own[a:b], overhead) for a, b, overhead in per_unit]
    metrics = {name: statistics.median(r[name] for r in results) for name in results[0]}
    first, end, _ = per_unit[0]
    metrics["harness.read_episode_log.bytes_per_episode"] = layers.read_bytes_per_episode(tracer.spans[first:end])
    problems = [f"{name} differs between units: {[r[name] for r in results]}"
                for name in layers.COUNTS if name in results[0] and len({r[name] for r in results}) > 1]
    tracer.dump(spans_path)
    print(f"spans: {len(tracer.spans)} in {len(units)} traced units, written to {spans_path}")
    for name, reference in ROADMAP_RECENT.items():
        if metrics[name]:
            print(f"compare: {name} = {metrics[name]:.1f} us/step; ROADMAP Recent: {reference:g}")
    return units, {name: (metrics[name], unit) for name, unit in layers.METRICS.items()}, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "altlab" / "cli.py").is_file():
        print(f"error: altlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if Path(workloads.cli.__file__).resolve().parent != SRC / "altlab":
        print(f"error: imported altlab from {workloads.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    print("env: " + json.dumps(env))
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    problems = []
    setup = []
    raw_setup = []
    digests = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        import_raw, import_reference = import_probe()
        prepare_raw, prepare_reference = speed.timed(workload.prepare)
        raw_setup.append(import_raw + prepare_raw)
        setup.append(import_reference + prepare_reference)
        if hasattr(workload, "sha256"):
            digests.append(workload.sha256)
    if digests:
        print(f"corpus sha256: {digests[0]}")
        if len(set(digests)) > 1:
            problems.append(f"corpus differs between set-ups of one seed: {digests}")
    workload.after_setup()

    if args.trace:
        units, metrics, trace_problems = traced(workload, args.seconds, WORK / f"spans-{args.workload}.jsonl")
        problems += trace_problems
    else:
        with speed.SpeedClock() as clock:
            units = repeat(workload.unit, args.seconds)
        raw = end_to_end(raw_setup, units, lambda op: op.seconds)
        for name in ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms"):
            print(f"raw {name}: {raw[name][0]:.6g} {raw[name][1]} (not scaled to the reference clock)")
        probe_ms = statistics.median(s.seconds for s in clock.samples) * 1e3
        print(f"speed: {len(clock.samples)} probes, median {probe_ms:.3f} ms "
              f"(nominal {speed.NOMINAL_PROBE_S * 1e3:g} ms)")
        metrics = end_to_end(setup, units, lambda op: clock.reference_seconds(op.start, op.seconds))
    shutil.rmtree(work, ignore_errors=True)

    ops = [op for unit in units for op in unit]
    failed = sum(not op.ok for op in ops)
    workloads.report_problems(ops)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"samples: {len(ops)} operations in {len(units)} units")
    print(f"fail_ratio: {failed / len(ops):g} ({failed} of {len(ops)} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "seconds": args.seconds, "env": env, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
