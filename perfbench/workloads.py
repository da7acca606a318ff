"""The three benchmark workloads, each driven through ``altlab.cli.main``.

A workload is built from its seed, then repeats a *unit* of work: one or
more altlab CLI calls, each checked against the reference scorer.  Each
call is one operation; a call that raises, exits non-zero or prints or
writes a wrong panel counts as failed.

- ``sweep-mini`` runs ``altlab sweep`` over n = 2, 5, 10, both state
  types and both reward schemes (24 runs) with 10k-episode baselines.
  Random play dominates; it is the only workload that runs the sweep
  orchestration and its duplicated ilf/iqf baselines.
- ``train-n10`` runs ``altlab simulate`` for n = 10 Q-learners on Type B
  states: the Q-learning step kernel at the largest n.
- ``rescore`` runs ``altlab metrics`` over a seeded corpus of logs
  (n = 2, 5, 10, 2k to 100k episodes): reading and scoring, no simulation.
"""

from __future__ import annotations

import csv
import io
import shutil
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from altlab import cli

import corpus
import scorer

R_HIGH = 100.0


@dataclass
class Op:
    """One altlab CLI call and what its check found."""

    argv: list[str]
    start: float
    seconds: float
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def call(argv: list[str], tracer=None) -> tuple[Op, str]:
    """Run ``altlab <argv>`` in-process; return the op and its stdout."""
    out = io.StringIO()
    problems = []
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out):
            if tracer is None:
                rc = cli.main(argv)
            else:
                tracer.op += 1
                with tracer.span("cli.main"):
                    rc = cli.main(argv)
    except (Exception, SystemExit):
        rc = None
        problems.append(traceback.format_exc())
    seconds = time.perf_counter() - t0
    if rc != 0:
        problems.append(f"altlab {' '.join(argv)}: exit code {rc}")
    return Op(argv, t0, seconds, problems=problems), out.getvalue()


def checked(check, *args) -> list[str]:
    """Problems ``check`` finds; a check that raises is one problem."""
    try:
        return check(*args)
    except Exception:
        return [traceback.format_exc()]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def printed_panel(stdout: str) -> dict:
    """The ``name: value`` lines altlab prints for a panel."""
    values = {}
    for line in stdout.splitlines():
        name, sep, text = line.partition(": ")
        if sep and name in scorer.PANEL_KEYS:
            values[name] = scorer.parse_value(text)
    return values


def panel_rows(path: Path) -> dict[str, dict]:
    """Rows of a ``panel.csv`` keyed by their ``window`` column."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {
            row["window"]: {k: scorer.parse_value(v) for k, v in row.items() if k != "window"}
            for row in csv.DictReader(fh)
        }


def check_panel(label: str, expected: dict, got: dict, keys=scorer.PANEL_KEYS) -> list[str]:
    return [f"{label}: {m}" for m in scorer.mismatches(expected, got, keys)]


def check_logged_run(run_dir: Path, n: int, scheme: str, label: str) -> tuple[list[str], dict]:
    """Score a run's ``log.jsonl`` and check its ``panel.csv`` full row."""
    arrivals = scorer.read_arrivals(run_dir / "log.jsonl", n)
    expected = scorer.panel(arrivals, n, R_HIGH, scheme)
    rows = panel_rows(run_dir / "panel.csv")
    if "full" not in rows:
        return [f"{label}: panel.csv has no full row"], expected
    return check_panel(f"{label} panel.csv", expected, rows["full"]), expected


def check_greedy_row(rows: dict, n: int, label: str) -> list[str]:
    """The greedy evaluation's log is not kept, so check its shape only."""
    row = rows.get("greedy_eval")
    if row is None:
        return [f"{label}: panel.csv has no greedy_eval row"]
    nu = 10 * n
    problems = [f"{label}: greedy_eval {k} is {row[k]}, expected {v}"
                for k, v in (("nu", nu), ("batches", nu - n + 1)) if row[k] != v]
    problems += [f"{label}: greedy_eval {v} = {row[v]} outside [0, 1]"
                 for v in scorer.VARIANTS if not 0.0 <= row[v] <= 1.0]
    return problems


class Workload:
    """Inputs from a seed, then repeatable checked units of CLI calls."""

    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def prepare(self) -> None:
        """Make the inputs; timed as part of set-up."""

    def after_setup(self) -> None:
        """Untimed work that checks need, such as reference scores."""

    def unit(self, index: int, tracer=None) -> list[Op]:
        raise NotImplementedError


class SweepMini(Workload):
    name = "sweep-mini"
    AGENTS = (2, 5, 10)
    BASE = 5
    RUNS = 2 * 2 * len(AGENTS) * 2  # state types x schemes x n x {baseline, trained}

    def unit(self, index, tracer=None):
        out = self.work / f"sweep-{index}"
        op, stdout = call([
            "sweep", "--out", str(out), "--agents", ",".join(map(str, self.AGENTS)),
            "--base", str(self.BASE), "--workers", "1", "--seed-root", str(self.seed),
        ], tracer)
        if op.ok:
            op.bytes_written = dir_bytes(out)
            op.problems += checked(self.check, out, stdout)
        shutil.rmtree(out, ignore_errors=True)
        return [op]

    def check(self, out: Path, stdout: str) -> list[str]:
        problems = []
        if f"completed {self.RUNS} runs, 0 failures" not in stdout:
            problems.append(f"sweep printed {stdout.strip()!r}")
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            summary = list(csv.DictReader(fh))
        if len(summary) != self.RUNS:
            problems.append(f"summary.csv has {len(summary)} rows, expected {self.RUNS}")
        closed_form = scorer.two_agent_random_expectations()
        for row in summary:
            n, run_id = int(row["n"]), row["run_id"]
            run_dir = out / "runs" / run_id
            found, expected = check_logged_run(run_dir, n, row["reward_scheme"], run_id)
            problems += found
            summary_keys = ("nu",) + scorer.TRADITIONAL + scorer.VARIANTS
            got = {k: scorer.parse_value(row[k]) for k in summary_keys}
            problems += check_panel(f"{run_id} summary.csv", expected, got, summary_keys)
            if row["policy"] == "qlearning":
                problems += check_greedy_row(panel_rows(run_dir / "panel.csv"), n, run_id)
            elif n == 2:
                tol = scorer.random_tolerance(expected["nu"])
                problems += [
                    f"{run_id}: {k} = {got[k]} is more than {tol:.4f} from the "
                    f"closed form {v:.6f}"
                    for k, v in closed_form.items() if abs(got[k] - v) > tol
                ]
        return problems


class TrainN10(Workload):
    name = "train-n10"
    AGENTS = 10
    EPISODES = 10_000
    CURVE_WINDOW = 500

    def unit(self, index, tracer=None):
        out = self.work / f"train-{index}"
        op, stdout = call([
            "simulate", "--agents", str(self.AGENTS), "--state-type", "B",
            "--episodes", str(self.EPISODES), "--seed", str(self.seed),
            "--out", str(out), "--run-id", "train",
        ], tracer)
        if op.ok:
            op.bytes_written = dir_bytes(out)
            op.problems += checked(self.check, out / "train", stdout)
        shutil.rmtree(out, ignore_errors=True)
        return [op]

    def check(self, run_dir: Path, stdout: str) -> list[str]:
        n = self.AGENTS
        problems, expected = check_logged_run(run_dir, n, "ilf", "train")
        problems += check_panel("printed panel", expected, printed_panel(stdout))
        rows = panel_rows(run_dir / "panel.csv")
        problems += check_greedy_row(rows, n, "train")
        greedy = [line for line in stdout.splitlines() if line.startswith("greedy_eval_calt: ")]
        if not greedy or not scorer.close(rows["greedy_eval"]["calt"],
                                          scorer.parse_value(greedy[0].split(": ")[1])):
            problems.append(f"printed greedy_eval_calt {greedy} does not match panel.csv")
        arrivals = scorer.read_arrivals(run_dir / "log.jsonl", n)
        with open(run_dir / "curve.csv", newline="", encoding="utf-8") as fh:
            for point in csv.DictReader(fh):
                end = int(point["episode"])
                window = arrivals[max(0, end - self.CURVE_WINDOW):end]
                want = {
                    "windowed_calt": scorer.alt_scores(window, n)["calt"],
                    "windowed_efficiency": scorer.efficiency(window, n, R_HIGH),
                }
                got = {k: scorer.parse_value(point[k]) for k in want}
                problems += check_panel(f"curve.csv episode {end}", want, got, tuple(want))
        return problems


class Rescore(Workload):
    name = "rescore"

    def prepare(self):
        self.logs = corpus.build(self.seed)
        self.paths, self.sha256 = corpus.write_all(self.logs, self.work / "corpus")

    def after_setup(self):
        self.expected = {log.name: scorer.panel(log.arrivals, log.n, R_HIGH, corpus.SCHEME)
                         for log in self.logs}

    def unit(self, index, tracer=None):
        ops = []
        csv_path = self.work / "panel.csv"
        for log in self.logs:
            op, stdout = call([
                "metrics", "--log", str(self.paths[log.name]), "--agents", str(log.n),
                "--csv", str(csv_path),
            ], tracer)
            if op.ok:
                op.bytes_written = csv_path.stat().st_size
                op.problems += checked(self.check, log, stdout, csv_path)
            csv_path.unlink(missing_ok=True)
            ops.append(op)
        return ops

    def check(self, log: corpus.Log, stdout: str, csv_path: Path) -> list[str]:
        expected = self.expected[log.name]
        printed = printed_panel(stdout)
        rows = panel_rows(csv_path)
        problems = check_panel(f"{log.name} printed", expected, printed)
        problems += check_panel(f"{log.name} csv", expected, rows.get("full", {}))
        if log.rotating is not None:
            problems += [
                f"{log.name}: {k} = {printed.get(k)!r}, closed form is exactly {v!r}"
                for k, v in scorer.rotation_expected(log.n, log.rotating).items()
                if printed.get(k) != v
            ]
        return problems


WORKLOADS = {w.name: w for w in (SweepMini, TrainN10, Rescore)}


def report_problems(ops: list[Op], limit: int = 5) -> None:
    for op in [op for op in ops if not op.ok][:limit]:
        print(f"FAILED altlab {' '.join(op.argv)}", file=sys.stderr)
        for problem in op.problems[:5]:
            print(f"  {problem}", file=sys.stderr)
