"""Experiment harness: runs, persistence, and the full sweep grid.

Every run lands in its own directory under a runs root:

    <run_id>/log.jsonl       canonical episode log, one JSON object per line
    <run_id>/panel.csv       run-level metrics (plus a greedy-eval row for
                             trained runs)
    <run_id>/curve.csv       training curve (trained runs only)
    <run_id>/spec.snapshot   schema-tagged JSON record of the exact config

A sweep crosses agent counts with both state encodings and both reward
schemes, trains one run per seed per cell, pairs each against a
random-policy baseline with the same game settings, and writes one
summary.csv row per run.  Baselines share their seed across reward
schemes, so their win patterns (and hence all alternation scores) are
identical between ilf and iqf cells.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import analysis
from .errors import ConfigError, DataError, SchemaVersionError
from .game import (
    EpisodeOutcome,
    GameConfig,
    RewardScheme,
    StateType,
    next_prev_winners,
    run_episode,
)
from .metrics import MetricPanel, _shifted_mean, compute_panel, efficiency, window_betas
from .policies import (
    QLearningConfig,
    QLearningPolicy,
    TrainRun,
    epsilon_at,
    run_random,
    train_run,
)

SCHEMA_VERSION = "altlab-run@1"

PANEL_COLUMNS = (
    "window",
    "nu",
    "batches",
    "fairness",
    "efficiency",
    "tt_fairness",
    "reward_fairness",
    "falt",
    "qfalt",
    "ealt",
    "qealt",
    "calt",
    "aalt",
)

CURVE_COLUMNS = ("episode", "epsilon", "windowed_calt", "windowed_efficiency")

SUMMARY_COLUMNS = (
    "run_id",
    "n",
    "state_type",
    "reward_scheme",
    "policy",
    "nu",
    "fairness",
    "efficiency",
    "tt_fairness",
    "reward_fairness",
    "falt",
    "qfalt",
    "ealt",
    "qealt",
    "calt",
    "aalt",
    "calt_rel_change_pct",
    "calt_coord_score_pct",
    "alt_ratio",
    "pa_equiv_agents",
    "generated_at",
)

CURVE_WINDOW = 500
CURVE_SAMPLES = 200
GREEDY_EVAL_EPISODES_PER_AGENT = 10


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one run."""

    game: GameConfig
    policy: str
    episodes: int
    seed: int
    run_id: str
    qcfg: QLearningConfig | None = None

    def __post_init__(self) -> None:
        if self.policy not in ("random", "qlearning"):
            raise ConfigError(f"policy must be 'random' or 'qlearning', got {self.policy!r}")
        if self.episodes < self.game.n_agents:
            raise ConfigError(
                f"need at least n={self.game.n_agents} episodes for one batch, "
                f"got {self.episodes}"
            )
        if not self.run_id:
            raise ConfigError("run_id must be non-empty")
        if self.policy == "qlearning" and self.qcfg is None:
            object.__setattr__(self, "qcfg", QLearningConfig())


@dataclass(frozen=True)
class CurvePoint:
    """Training-progress sample: epsilon plus windowed metrics."""

    episode: int
    epsilon: float
    windowed_calt: float | None
    windowed_efficiency: float | None


@dataclass
class RunResult:
    """Computed metrics of one executed (or reloaded) run."""

    spec: ExperimentSpec
    panel: MetricPanel
    greedy_panel: MetricPanel | None = None
    curve: list[CurvePoint] | None = None
    run_dir: Path | None = None
    comparisons: list[analysis.ComparisonRecord] = field(default_factory=list)


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


def _parse_opt_float(text: str) -> float | None:
    return None if text == "" else float(text)


def write_episode_log(outcomes: Sequence[EpisodeOutcome], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for outcome in outcomes:
            fh.write(json.dumps(outcome.to_record(), separators=(",", ":")))
            fh.write("\n")


def read_episode_log(path: Path) -> list[EpisodeOutcome]:
    outcomes = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            try:
                outcomes.append(EpisodeOutcome.from_record(record))
            except DataError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return outcomes


def write_panel_csv(rows: Sequence[tuple[str, MetricPanel]], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PANEL_COLUMNS)
        for window, panel in rows:
            data = panel.as_dict()
            writer.writerow([window] + [_fmt(data[c]) for c in PANEL_COLUMNS[1:]])


def read_panel_csv(path: Path) -> dict[str, MetricPanel]:
    panels = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != PANEL_COLUMNS:
            raise DataError(f"{path}: unexpected panel columns {reader.fieldnames}")
        for row in reader:
            panels[row["window"]] = MetricPanel(
                nu=int(row["nu"]),
                batches=int(row["batches"]),
                fairness=_parse_opt_float(row["fairness"]),
                efficiency=float(row["efficiency"]),
                tt_fairness=_parse_opt_float(row["tt_fairness"]),
                reward_fairness=_parse_opt_float(row["reward_fairness"]),
                falt=float(row["falt"]),
                qfalt=float(row["qfalt"]),
                ealt=float(row["ealt"]),
                qealt=float(row["qealt"]),
                calt=float(row["calt"]),
                aalt=float(row["aalt"]),
            )
    return panels


def write_curve_csv(points: Sequence[CurvePoint], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for p in points:
            writer.writerow(
                [p.episode, _fmt(p.epsilon), _fmt(p.windowed_calt), _fmt(p.windowed_efficiency)]
            )


def read_curve_csv(path: Path) -> list[CurvePoint]:
    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CURVE_COLUMNS:
            raise DataError(f"{path}: unexpected curve columns {reader.fieldnames}")
        for row in reader:
            points.append(
                CurvePoint(
                    episode=int(row["episode"]),
                    epsilon=float(row["epsilon"]),
                    windowed_calt=_parse_opt_float(row["windowed_calt"]),
                    windowed_efficiency=_parse_opt_float(row["windowed_efficiency"]),
                )
            )
    return points


def write_snapshot(spec: ExperimentSpec, path: Path) -> None:
    payload = {
        "schema": SCHEMA_VERSION,
        "run_id": spec.run_id,
        "policy": spec.policy,
        "episodes": spec.episodes,
        "seed": spec.seed,
        "game": {
            "n_agents": spec.game.n_agents,
            "state_type": spec.game.state_type.value,
            "reward_scheme": spec.game.reward_scheme.value,
            "path_length": spec.game.path_length,
            "r_high": spec.game.r_high,
            "step_cap": spec.game.step_cap,
        },
        "qlearning": None
        if spec.qcfg is None
        else {
            "gamma": spec.qcfg.gamma,
            "alpha": spec.qcfg.alpha,
            "epsilon_initial": spec.qcfg.epsilon_initial,
            "epsilon_min": spec.qcfg.epsilon_min,
            "decay_end_fraction": spec.qcfg.decay_end_fraction,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_snapshot(path: Path) -> ExperimentSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable snapshot: {exc}") from exc
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: snapshot schema {schema!r} is not supported, expected {SCHEMA_VERSION!r}"
        )
    try:
        g = payload["game"]
        game = GameConfig(
            n_agents=int(g["n_agents"]),
            state_type=StateType(g["state_type"]),
            reward_scheme=RewardScheme(g["reward_scheme"]),
            path_length=int(g["path_length"]),
            r_high=float(g["r_high"]),
            step_cap=int(g["step_cap"]),
        )
        qdata = payload["qlearning"]
        qcfg = None if qdata is None else QLearningConfig(**qdata)
        return ExperimentSpec(
            game=game,
            policy=payload["policy"],
            episodes=int(payload["episodes"]),
            seed=int(payload["seed"]),
            run_id=payload["run_id"],
            qcfg=qcfg,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed snapshot: {exc}") from exc


def _prepare_run_dir(runs_root: Path, run_id: str, overwrite: bool) -> Path:
    run_dir = Path(runs_root) / run_id
    if run_dir.exists() and not overwrite:
        raise ConfigError(f"run directory {run_dir} already exists (pass overwrite to replace)")
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _persist(
    run_dir: Path,
    spec: ExperimentSpec,
    outcomes: Sequence[EpisodeOutcome],
    panels: Sequence[tuple[str, MetricPanel]],
    curve: Sequence[CurvePoint] | None,
) -> None:
    write_episode_log(outcomes, run_dir / "log.jsonl")
    write_panel_csv(panels, run_dir / "panel.csv")
    if curve is not None:
        write_curve_csv(curve, run_dir / "curve.csv")
    write_snapshot(spec, run_dir / "spec.snapshot")


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


def run_baseline(spec: ExperimentSpec, runs_root: Path, overwrite: bool = False) -> RunResult:
    """Execute a random-policy run and persist its artifacts."""
    if spec.policy != "random":
        raise ConfigError(f"run_baseline needs a random-policy spec, got {spec.policy!r}")
    run_dir = _prepare_run_dir(runs_root, spec.run_id, overwrite)
    outcomes = run_random(spec.game, spec.episodes, spec.seed)
    panel = compute_panel(outcomes, spec.game.n_agents, spec.game.r_high)
    _persist(run_dir, spec, outcomes, [("full", panel)], curve=None)
    return RunResult(spec=spec, panel=panel, run_dir=run_dir)


def _training_curve(
    outcomes: Sequence[EpisodeOutcome],
    total_episodes: int,
    game: GameConfig,
    qcfg: QLearningConfig,
) -> list[CurvePoint]:
    stride = max(1, total_episodes // CURVE_SAMPLES)
    marks = list(range(stride, total_episodes + 1, stride))
    if marks[-1] != total_episodes:
        marks.append(total_episodes)
    n = game.n_agents
    batch_calt = window_betas(outcomes, n)["calt"]
    points = []
    for mark in marks:
        start = max(0, mark - CURVE_WINDOW)
        if mark - start >= n:
            # The batches that lie wholly inside episodes start .. mark - 1.
            calt = _shifted_mean(batch_calt[start : mark - n + 1])
            eff = efficiency(outcomes[start:mark], game.r_high)
        else:
            calt = eff = None
        points.append(
            CurvePoint(
                episode=mark,
                epsilon=epsilon_at(mark - 1, total_episodes, qcfg),
                windowed_calt=calt,
                windowed_efficiency=eff,
            )
        )
    return points


def run_training(spec: ExperimentSpec, runs_root: Path, overwrite: bool = False) -> RunResult:
    """Train independent Q-learners, then greedy-evaluate the frozen tables.

    The greedy evaluation continues the run's RNG stream and arrival
    bits, plays 10 * n episodes at the floor epsilon with learning
    disabled, and lands in panel.csv as the ``greedy_eval`` row.
    """
    if spec.policy != "qlearning":
        raise ConfigError(f"run_training needs a qlearning spec, got {spec.policy!r}")
    qcfg = spec.qcfg or QLearningConfig()
    run_dir = _prepare_run_dir(runs_root, spec.run_id, overwrite)
    rng = np.random.default_rng(spec.seed)
    trained: TrainRun = train_run(spec.game, qcfg, spec.episodes, rng)

    eval_policies = [QLearningPolicy(qcfg, table) for table in trained.tables]
    for p in eval_policies:
        p.learning = False
    eval_outcomes = []
    prev = trained.final_prev_winners
    for e in range(GREEDY_EVAL_EPISODES_PER_AGENT * spec.game.n_agents):
        outcome = run_episode(
            eval_policies, prev, spec.game, rng, epsilon=qcfg.epsilon_min, episode_index=e
        )
        eval_outcomes.append(outcome)
        prev = next_prev_winners(outcome, spec.game)

    n = spec.game.n_agents
    panel = compute_panel(trained.outcomes, n, spec.game.r_high)
    greedy_panel = compute_panel(eval_outcomes, n, spec.game.r_high)
    curve = _training_curve(trained.outcomes, spec.episodes, spec.game, qcfg)
    _persist(
        run_dir,
        spec,
        trained.outcomes,
        [("full", panel), ("greedy_eval", greedy_panel)],
        curve,
    )
    return RunResult(
        spec=spec, panel=panel, greedy_panel=greedy_panel, curve=curve, run_dir=run_dir
    )


@dataclass
class SweepResult:
    """Outcome of a sweep: per-run results, failures, and the summary path."""

    out_root: Path
    results: list[RunResult]
    failures: list[tuple[str, str]]
    summary_path: Path | None


def _baseline_run_id(n: int, st: StateType, scheme: RewardScheme) -> str:
    return f"rand-n{n}-{st.value}-{scheme.value}"


def _training_run_id(n: int, st: StateType, scheme: RewardScheme, seed_index: int) -> str:
    return f"ql-n{n}-{st.value}-{scheme.value}-s{seed_index}"


def _execute_task(task) -> tuple[str, RunResult | None, str | None]:
    kind, spec, runs_root, overwrite, reuse = task
    try:
        run_dir = Path(runs_root) / spec.run_id
        if reuse and run_dir.exists() and not overwrite:
            cached = load_run_result(run_dir)
            if cached.spec != spec:
                raise ConfigError(
                    f"cached run {spec.run_id} was produced by a different spec; "
                    f"pass overwrite to replace it"
                )
            return spec.run_id, cached, None
        if kind == "baseline":
            return spec.run_id, run_baseline(spec, runs_root, overwrite), None
        return spec.run_id, run_training(spec, runs_root, overwrite), None
    except Exception:
        return spec.run_id, None, traceback.format_exc()


def summary_rows(results: Sequence[RunResult], generated_at: str) -> list[dict]:
    """One summary.csv row per run, with the timestamp confined to the
    trailing metadata column."""
    rows = []
    for result in results:
        spec = result.spec
        panel = result.panel
        ratio = analysis.alt_ratio_from_calt(panel.calt)
        pa = analysis.pa_equivalent(ratio, spec.game.n_agents)
        calt_cmp = next(
            (c for c in result.comparisons if c.variant == "calt"), None
        )
        rows.append(
            {
                "run_id": spec.run_id,
                "n": spec.game.n_agents,
                "state_type": spec.game.state_type.value,
                "reward_scheme": spec.game.reward_scheme.value,
                "policy": spec.policy,
                "nu": panel.nu,
                "fairness": panel.fairness,
                "efficiency": panel.efficiency,
                "tt_fairness": panel.tt_fairness,
                "reward_fairness": panel.reward_fairness,
                "falt": panel.falt,
                "qfalt": panel.qfalt,
                "ealt": panel.ealt,
                "qealt": panel.qealt,
                "calt": panel.calt,
                "aalt": panel.aalt,
                "calt_rel_change_pct": None if calt_cmp is None else calt_cmp.rel_change_pct,
                "calt_coord_score_pct": None if calt_cmp is None else calt_cmp.coord_score_pct,
                "alt_ratio": ratio,
                "pa_equiv_agents": pa.pa_equiv_agents,
                "generated_at": generated_at,
            }
        )
    return rows


def write_summary(rows: Sequence[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in SUMMARY_COLUMNS])


def read_summary(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != SUMMARY_COLUMNS:
            raise DataError(f"{path}: unexpected summary columns {reader.fieldnames}")
        return list(reader)


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
    qcfg: QLearningConfig | None = None,
    reuse_baselines: bool = True,
    overwrite: bool = False,
) -> SweepResult:
    """Run the full experiment grid and write summary.csv at the root.

    Training budgets scale with the agent count via
    :func:`analysis.episodes_for` with the given ``base``.  Identical
    arguments (including ``seed_root``) reproduce summary.csv exactly,
    except for the trailing timestamp column.
    """
    if not agent_counts:
        raise ConfigError("agent_counts must be non-empty")
    if seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {seeds}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    scaling = analysis.ScalingConfig(base=base)
    qcfg = qcfg or QLearningConfig()
    out_root = Path(out_root)
    runs_root = out_root / "runs"
    runs_root.mkdir(parents=True, exist_ok=True)

    tasks = []
    order = []
    for n in agent_counts:
        for st in state_types:
            # One trajectory per (n, state type): reward dilution does not
            # change random play, so both schemes reuse the same seed.
            baseline_seed = derive_seed(seed_root, f"baseline-n{n}-{st.value}")
            for scheme in reward_schemes:
                run_id = _baseline_run_id(n, st, scheme)
                spec = ExperimentSpec(
                    game=GameConfig(n_agents=n, state_type=st, reward_scheme=scheme),
                    policy="random",
                    episodes=baseline_episodes,
                    seed=baseline_seed,
                    run_id=run_id,
                )
                tasks.append(("baseline", spec, runs_root, overwrite, reuse_baselines))
                order.append(run_id)
    for n in agent_counts:
        episodes = analysis.episodes_for(n, scaling)
        for st in state_types:
            for scheme in reward_schemes:
                for s in range(seeds):
                    run_id = _training_run_id(n, st, scheme, s)
                    spec = ExperimentSpec(
                        game=GameConfig(n_agents=n, state_type=st, reward_scheme=scheme),
                        policy="qlearning",
                        episodes=episodes,
                        seed=derive_seed(seed_root, f"train-{run_id}"),
                        run_id=run_id,
                        qcfg=qcfg,
                    )
                    tasks.append(("train", spec, runs_root, overwrite, False))
                    order.append(run_id)

    outcomes: dict[str, RunResult] = {}
    failures: list[tuple[str, str]] = []
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            executed = list(pool.map(_execute_task, tasks))
    else:
        executed = [_execute_task(task) for task in tasks]
    for run_id, result, error in executed:
        if error is None:
            outcomes[run_id] = result
        else:
            failures.append((run_id, error))

    for result in outcomes.values():
        if result.spec.policy != "qlearning":
            continue
        g = result.spec.game
        baseline = outcomes.get(_baseline_run_id(g.n_agents, g.state_type, g.reward_scheme))
        if baseline is None:
            continue
        result.comparisons = [
            analysis.compare(v, getattr(result.panel, v), getattr(baseline.panel, v))
            for v in ("falt", "ealt", "calt", "aalt")
        ]

    results = [outcomes[run_id] for run_id in order if run_id in outcomes]
    summary_path = None
    if results:
        generated_at = datetime.now(timezone.utc).isoformat()
        summary_path = out_root / "summary.csv"
        write_summary(summary_rows(results, generated_at), summary_path)
    if failures:
        with open(out_root / "failures.txt", "w", encoding="utf-8") as fh:
            for run_id, error in failures:
                fh.write(f"== {run_id} ==\n{error}\n")
    return SweepResult(
        out_root=out_root, results=results, failures=failures, summary_path=summary_path
    )
