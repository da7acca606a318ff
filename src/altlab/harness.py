"""Experiment harness: runs, CSV tables, snapshots, and the full sweep grid.

:func:`run` plays one spec (random play, or Q-learning followed by a
greedy evaluation), scores it and writes it into its own directory under
a runs root:

    <run_id>/log.jsonl       episode log, written and read by :mod:`altlab.game`
    <run_id>/panel.csv       run-level metrics (plus a greedy-eval row for
                             trained runs)
    <run_id>/curve.csv       training curve (trained runs only)
    <run_id>/spec.snapshot   schema-tagged JSON record of the exact config

The files are written into a temporary sibling, ``.<run_id>.tmp-<pid>``,
renamed into place once complete, so a run directory is either whole or
absent; every write removes the siblings that killed runs left behind.
A run directory whose snapshot states the spec is reused by :func:`run`.

A sweep crosses agent counts with both state encodings and both reward
schemes into one list of run specs, checked before anything is written.
It trains one run per seed per cell, pairs each against the random-policy
baseline with the same game settings, and writes one summary.csv row per
run.  Baselines share their seed across reward schemes, so their win
patterns (and hence all alternation scores) are identical between ilf
and iqf cells.

Every CSV goes through one codec, :func:`write_table` / :func:`read_table`:
a fixed header that reading checks, floats as their shortest round-trip
``repr``, and an empty cell for an undefined value.  Column tuples come
from dataclass fields, and :func:`parse_fields` rebuilds a dataclass from text
or JSON values by each field's annotation, so panel.csv, curve.csv,
summary.csv and spec.snapshot share one parser.  An unreadable or
unparsable input raises :class:`DataError`.
"""

from __future__ import annotations

import concurrent.futures
import csv
import glob
import hashlib
import itertools
import json
import math
import os
import shutil
import traceback
from dataclasses import asdict, dataclass, fields, make_dataclass, replace
from datetime import datetime, timezone
from functools import lru_cache, partial
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from . import analysis
from .errors import ComparisonError, ConfigError, DataError, SchemaVersionError
from .game import (
    EpisodeLog, EpisodeOutcome, GameConfig, RewardScheme, StateType, assign_rewards,
    read_episode_log, write_episode_log,
)
from .metrics import MAX_AGENTS, MetricPanel, compute_panel, trailing_windows
from .policies import QLearningConfig, epsilon_at, play, run_random, train_run

SCHEMA_VERSION = "altlab-run@1"

CURVE_WINDOW = 500
CURVE_SAMPLES = 200
GREEDY_EVAL_EPISODES_PER_AGENT = 10


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one run: Q-learning with ``qcfg``,
    random play without it."""

    game: GameConfig
    episodes: int
    seed: int
    run_id: str
    qcfg: QLearningConfig | None = None

    @property
    def policy(self) -> str:
        return "random" if self.qcfg is None else "qlearning"

    def __post_init__(self) -> None:
        if (n := self.game.n_agents) > MAX_AGENTS:
            raise ConfigError(f"batch counts of {n} agents overflow int64: n is at most {MAX_AGENTS}")
        if self.episodes < self.game.n_agents:
            raise ConfigError(
                f"need at least n={self.game.n_agents} episodes for one batch, "
                f"got {self.episodes}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # One plain name: a leading "." is kept for temporary siblings.
        if not self.run_id or self.run_id[0] == "." or Path(self.run_id).name != self.run_id:
            raise ConfigError(f"run_id must be one name not starting with '.', got {self.run_id!r}")
        # The run's total payoff and the Q-values' bound must stay finite.
        if not math.isfinite(self.episodes * self.game.r_high):
            raise ConfigError(
                f"{self.episodes} episodes at r_high {self.game.r_high} overflow the total payoff"
            )
        if self.qcfg is not None and not math.isfinite(
            self.game.r_high / (1.0 - self.qcfg.gamma)
        ):
            raise ConfigError(
                f"r_high {self.game.r_high} at gamma {self.qcfg.gamma} overflows the Q-value bound"
            )


@dataclass(frozen=True)
class CurvePoint:
    """Training-progress sample: epsilon plus windowed metrics."""

    episode: int
    epsilon: float
    windowed_calt: float | None
    windowed_efficiency: float | None


# One summary.csv row: the run, its panel without the batch count, the
# calt comparison against its baseline, and a trailing timestamp.
SummaryRow = make_dataclass(
    "SummaryRow",
    [
        ("run_id", "str"),
        ("n", "int"),
        ("state_type", "str"),
        ("reward_scheme", "str"),
        ("policy", "str"),
        *((f.name, f.type) for f in fields(MetricPanel) if f.name != "batches"),
        ("calt_rel_change_pct", "float | None"),
        ("calt_coord_score_pct", "float | None"),
        ("alt_ratio", "float"),
        ("pa_equiv_agents", "float"),
        ("generated_at", "str"),
    ],
    frozen=True,
)

PANEL_COLUMNS = ("window", *(f.name for f in fields(MetricPanel)))
CURVE_COLUMNS = tuple(f.name for f in fields(CurvePoint))
SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))


@dataclass
class RunResult:
    """Computed metrics of one executed (or reloaded) run."""

    spec: ExperimentSpec
    panel: MetricPanel
    greedy_panel: MetricPanel | None = None
    curve: list[CurvePoint] | None = None
    run_dir: Path | None = None


def derive_seed(seed_root: int, key: str) -> int:
    """Stable 64-bit seed from a root seed and a run key."""
    digest = hashlib.sha256(f"{seed_root}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# Field annotations (as written, under postponed evaluation) to parsers of
# a CSV cell or a JSON value.
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": lambda v: None if v in ("", None) else float(v),
    "StateType": StateType,
    "RewardScheme": RewardScheme,
}


def parse_fields(cls, values):
    """The dataclass ``cls`` rebuilt from ``values``, keyed by exactly its field names."""
    names = [f.name for f in fields(cls)]
    try:
        if unknown := set(values).difference(names):
            raise ValueError(f"unknown fields {sorted(unknown)}")
        return cls(**{f.name: _PARSERS[f.type](values[f.name]) for f in fields(cls)})
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad {cls.__name__}: {exc}") from exc


def write_table(path: Path, columns: Sequence[str], rows) -> None:
    """Write a CSV file: the header ``columns``, then one line per row of values."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def read_table(path: Path, columns: Sequence[str], build=None) -> list:
    """Rows of a CSV file whose header must be ``columns``: ``str`` dicts, or
    ``build(row)`` of each.  A row with more or fewer cells than ``columns``,
    or one that ``build`` rejects, raises :class:`DataError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError("missing header line")
            if tuple(reader.fieldnames) != tuple(columns):
                raise DataError(f"unexpected columns {reader.fieldnames}")
            rows = []
            for row in reader:
                if None in row or None in row.values():
                    raise DataError(f"line {reader.line_num}: expected {len(columns)} cells")
                rows.append(row if build is None else build(row))
            return rows
    except (OSError, UnicodeError, csv.Error, DataError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_panel_csv(rows: Sequence[tuple[str, MetricPanel]], path: Path) -> None:
    write_table(path, PANEL_COLUMNS, [(w, *p.as_dict().values()) for w, p in rows])


def _panel_row(row: dict[str, str]) -> tuple[str, MetricPanel]:
    return row.pop("window"), parse_fields(MetricPanel, row)


def read_panel_csv(path: Path) -> dict[str, MetricPanel]:
    return dict(read_table(path, PANEL_COLUMNS, _panel_row))


def write_curve_csv(points: Sequence[CurvePoint], path: Path) -> None:
    write_table(path, CURVE_COLUMNS, map(attrgetter(*CURVE_COLUMNS), points))


def read_curve_csv(path: Path) -> list[CurvePoint]:
    return read_table(path, CURVE_COLUMNS, partial(parse_fields, CurvePoint))


def _snapshot_payload(spec: ExperimentSpec) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "run_id": spec.run_id,
        "policy": spec.policy,
        "episodes": spec.episodes,
        "seed": spec.seed,
        "game": asdict(spec.game),
        "qlearning": None if spec.qcfg is None else asdict(spec.qcfg),
    }


def write_snapshot(spec: ExperimentSpec, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_snapshot_payload(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_snapshot(path: Path) -> ExperimentSpec:
    """The spec a snapshot records; it must write back the file's JSON values exactly."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too long a number
        raise DataError(f"{path}: unreadable snapshot: {exc}") from exc
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: snapshot schema {schema!r} is not supported, expected {SCHEMA_VERSION!r}; "
            "pass overwrite to replace it"
        )
    try:
        qdata = payload["qlearning"]
        spec = ExperimentSpec(
            game=parse_fields(GameConfig, payload["game"]),
            episodes=int(payload["episodes"]),
            seed=int(payload["seed"]),
            run_id=payload["run_id"],
            qcfg=None if qdata is None else parse_fields(QLearningConfig, qdata),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed snapshot: {exc}") from exc
    stated, written = (json.dumps(p, sort_keys=True) for p in (payload, _snapshot_payload(spec)))
    if stated != written:
        raise DataError(f"{path}: snapshot {stated} does not state the spec it reads as {written}")
    return spec


def _persist(
    run_dir: Path,
    spec: ExperimentSpec,
    outcomes: Sequence[EpisodeOutcome],
    panels: Sequence[tuple[str, MetricPanel]],
    curve: Sequence[CurvePoint] | None,
    overwrite: bool,
) -> None:
    """Write a run's artifacts into a temporary sibling and rename it into
    place, so the run directory is either complete or absent."""
    tmp = run_dir.with_name(f".{run_dir.name}.tmp-{os.getpid()}")
    for stale in run_dir.parent.glob(f".{glob.escape(run_dir.name)}.tmp-*"):
        shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        write_episode_log(outcomes, tmp / "log.jsonl")
        write_panel_csv(panels, tmp / "panel.csv")
        if curve is not None:
            write_curve_csv(curve, tmp / "curve.csv")
        write_snapshot(spec, tmp / "spec.snapshot")
        if overwrite and run_dir.exists():
            shutil.rmtree(run_dir)
        tmp.rename(run_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def load_run_result(run_dir: Path) -> RunResult:
    """Rebuild a RunResult from a persisted run directory."""
    run_dir = Path(run_dir)
    spec = read_snapshot(run_dir / "spec.snapshot")
    panels = read_panel_csv(run_dir / "panel.csv")
    if "full" not in panels:
        raise DataError(f"{run_dir}: panel.csv has no 'full' row")
    curve_path = run_dir / "curve.csv"
    return RunResult(
        spec=spec,
        panel=panels["full"],
        greedy_panel=panels.get("greedy_eval"),
        curve=read_curve_csv(curve_path) if curve_path.exists() else None,
        run_dir=run_dir,
    )


def _training_curve(
    outcomes: EpisodeLog, total_episodes: int, game: GameConfig, qcfg: QLearningConfig
) -> list[CurvePoint]:
    """Every ``total_episodes // CURVE_SAMPLES``-th episode and the last, with its epsilon."""
    stride = max(1, total_episodes // CURVE_SAMPLES)
    marks = sorted({*range(stride, total_episodes + 1, stride), total_episodes})
    windows = trailing_windows(outcomes, game.n_agents, game.r_high, marks, CURVE_WINDOW)
    return [
        CurvePoint(mark, epsilon_at(mark - 1, total_episodes, qcfg), calt, eff)
        for mark, (calt, eff) in zip(marks, windows)
    ]


def run(spec: ExperimentSpec, runs_root: Path, overwrite: bool = False) -> RunResult:
    """Play, score and save a spec under ``runs_root``; reuse an existing run
    whose snapshot states ``spec``, and refuse any other unless ``overwrite``.

    A Q-learning spec trains, then greedy-evaluates the frozen tables: the
    evaluation continues the run's RNG stream and arrival bits, plays
    10 * n episodes at the floor epsilon with learning disabled, and lands
    in panel.csv as the ``greedy_eval`` row, beside curve.csv.  A random
    spec pays out, under its own reward scheme, the trajectory that
    :func:`_random_log` plays for its game.
    """
    run_dir = Path(runs_root) / spec.run_id
    if run_dir.exists() and not overwrite:
        if (stored := load_run_result(run_dir)).spec != spec:
            raise ConfigError(f"run {run_dir} holds another spec; pass overwrite to replace it")
        return stored
    game, qcfg = spec.game, spec.qcfg
    eval_outcomes = curve = None
    if qcfg is None:
        log = _random_log(replace(game, reward_scheme=RewardScheme.ILF), spec.episodes, spec.seed)
        bodies = [(won, assign_rewards(frozenset(won), game)) for won, _ in log.bodies]
        outcomes = EpisodeLog(bodies, log.ids, log.steps)
    else:
        rng = np.random.default_rng(spec.seed)
        trained = train_run(game, qcfg, spec.episodes, rng)
        outcomes = trained.outcomes
        eval_episodes = GREEDY_EVAL_EPISODES_PER_AGENT * game.n_agents
        eval_outcomes, _ = play(
            game, eval_episodes, rng, trained.final_prev_winners, trained.tables,
            [qcfg.epsilon_min] * eval_episodes,
        )
        del trained  # score, curve and save without the Q-store
    panels = {"full": compute_panel(outcomes, game.n_agents, game.r_high)}
    if eval_outcomes is not None:
        panels["greedy_eval"] = compute_panel(eval_outcomes, game.n_agents, game.r_high)
        curve = _training_curve(outcomes, spec.episodes, game, qcfg)
    _persist(run_dir, spec, outcomes, list(panels.items()), curve, overwrite)
    return RunResult(spec, panels["full"], panels.get("greedy_eval"), curve, run_dir)


@lru_cache(maxsize=1)
def _random_log(game: GameConfig, episodes: int, seed: int) -> EpisodeLog:
    """Random play ignores rewards, so one trajectory serves every reward
    scheme: a sweep, serial or parallel, runs each ``-ilf``/``-iqf`` baseline
    pair back to back in one process and plays it once."""
    return run_random(game, episodes, seed)


@dataclass
class SweepResult:
    """Outcome of a sweep: per-run results, failures, and the summary path."""

    out_root: Path
    results: list[RunResult]
    failures: list[tuple[str, str]]
    summary_path: Path | None


def _execute_task(
    spec: ExperimentSpec, runs_root: Path, overwrite: bool
) -> tuple[RunResult | None, str | None]:
    """:func:`run` of one spec; a failure comes back as its traceback."""
    try:
        return run(spec, runs_root, overwrite), None
    except Exception:
        return None, traceback.format_exc()


def summary_rows(results: Sequence[RunResult], generated_at: str) -> list[SummaryRow]:
    """One summary.csv row per run, with the timestamp confined to the
    trailing metadata column.  A trained run's calt is compared with the
    baseline of its game in ``results``: with none, or with a degenerate
    one, both comparison cells are empty."""
    baselines = {r.spec.game: r.panel for r in results if r.spec.policy == "random"}
    rows = []
    for result in results:
        spec = result.spec
        panel = result.panel.as_dict()
        del panel["batches"]
        ratio = analysis.alt_ratio_from_calt(result.panel.calt)
        calt_cmp = None
        if spec.policy == "qlearning" and spec.game in baselines:
            try:
                calt_cmp = analysis.compare("calt", result.panel.calt, baselines[spec.game].calt)
            except ComparisonError:
                pass
        rows.append(
            SummaryRow(
                run_id=spec.run_id,
                n=spec.game.n_agents,
                state_type=spec.game.state_type.value,
                reward_scheme=spec.game.reward_scheme.value,
                policy=spec.policy,
                **panel,
                calt_rel_change_pct=None if calt_cmp is None else calt_cmp.rel_change_pct,
                calt_coord_score_pct=None if calt_cmp is None else calt_cmp.coord_score_pct,
                alt_ratio=ratio,
                pa_equiv_agents=analysis.pa_equivalent(ratio, spec.game.n_agents).pa_equiv_agents,
                generated_at=generated_at,
            )
        )
    return rows


def write_summary(rows: Sequence[SummaryRow], path: Path) -> None:
    write_table(path, SUMMARY_COLUMNS, map(attrgetter(*SUMMARY_COLUMNS), rows))


def read_summary(path: Path) -> list[dict[str, str]]:
    return read_table(path, SUMMARY_COLUMNS)


def sweep(
    out_root: Path,
    agent_counts: Sequence[int] = (2, 3, 5, 8, 10),
    state_types: Sequence[StateType] = (StateType.TYPE_A, StateType.TYPE_B),
    reward_schemes: Sequence[RewardScheme] = (RewardScheme.ILF, RewardScheme.IQF),
    base: int = 1000,
    baseline_episodes: int = 10_000,
    seed_root: int = 0,
    seeds: int = 1,
    workers: int = 1,
    overwrite: bool = False,
) -> SweepResult:
    """Run the full experiment grid and write summary.csv at the root.

    Every run's spec is built, and so checked, before anything is written:
    a bad argument raises :class:`ConfigError` and leaves no directory
    behind.  Trained runs use the default :class:`QLearningConfig` and a
    budget of :func:`analysis.episodes_for` at the given ``base``.  Each run
    follows :func:`run`'s rule for an existing directory, so rerunning a
    killed sweep finishes it.  Identical arguments (including
    ``seed_root``) reproduce summary.csv exactly, except for the trailing
    timestamp column.
    """
    cells = list(itertools.product(agent_counts, state_types, reward_schemes))
    if not cells or len(set(cells)) != len(cells):
        raise ConfigError(
            "agent counts, state types and reward schemes must be non-empty and distinct"
        )
    if seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {seeds}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    # One trajectory per (n, state type): reward dilution does not change
    # random play, so both schemes reuse the same seed.
    specs = [
        ExperimentSpec(
            game=GameConfig(n_agents=n, state_type=st, reward_scheme=scheme),
            episodes=baseline_episodes,
            seed=derive_seed(seed_root, f"baseline-n{n}-{st.value}"),
            run_id=f"rand-n{n}-{st.value}-{scheme.value}",
        )
        for n, st, scheme in cells
    ]
    for n, st, scheme in cells:
        for s in range(seeds):
            run_id = f"ql-n{n}-{st.value}-{scheme.value}-s{s}"
            specs.append(
                ExperimentSpec(
                    game=GameConfig(n_agents=n, state_type=st, reward_scheme=scheme),
                    episodes=analysis.episodes_for(n, base),
                    seed=derive_seed(seed_root, f"train-{run_id}"),
                    run_id=run_id,
                    qcfg=QLearningConfig(),
                )
            )

    out_root = Path(out_root)
    runs_root = out_root / "runs"
    runs_root.mkdir(parents=True, exist_ok=True)
    task = partial(_execute_task, runs_root=runs_root, overwrite=overwrite)
    if workers > 1:
        # A chunk of one (n, state type)'s baselines runs in one worker, where
        # _random_log plays their trajectory once.
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            executed = list(pool.map(task, specs, chunksize=len(reward_schemes)))
    else:
        executed = list(map(task, specs))
    results = [result for result, _ in executed if result is not None]
    failures = [
        (spec.run_id, error) for spec, (_, error) in zip(specs, executed) if error is not None
    ]

    # Each file describes this sweep only: written when it has rows,
    # removed otherwise.
    summary_path = out_root / "summary.csv"
    if results:
        write_summary(summary_rows(results, datetime.now(timezone.utc).isoformat()), summary_path)
    else:
        summary_path.unlink(missing_ok=True)
    failures_path = out_root / "failures.txt"
    if failures:
        failures_path.write_text(
            "".join(f"== {run_id} ==\n{error}\n" for run_id, error in failures), encoding="utf-8"
        )
    else:
        failures_path.unlink(missing_ok=True)
    return SweepResult(out_root, results, failures, summary_path if results else None)
