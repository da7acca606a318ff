"""Command-line entry points.

Exit codes: 0 success, 2 usage or configuration error or an unwritable
output path, 3 unreadable or insufficient data, 4 sweep finished with
some runs failed.  The ``ALTLAB_OUT`` environment variable overrides the
default output root.
"""

from __future__ import annotations

import argparse
import functools
import os
import statistics
import sys
from pathlib import Path

from . import analysis, harness
from .errors import ComparisonError, ConfigError, DataError
from .game import GameConfig, RewardScheme, StateType
from .metrics import VARIANTS, compute_panel
from .policies import QLearningConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_PARTIAL = 4


def _default_out(fallback: str = "runs") -> str:
    return os.environ.get("ALTLAB_OUT", fallback)


def _game_from_args(args) -> GameConfig:
    return GameConfig(
        n_agents=args.agents,
        state_type=StateType(args.state_type),
        reward_scheme=RewardScheme(args.reward),
        path_length=args.path_length,
        r_high=args.r_high,
        step_cap=args.step_cap,
    )


def _print_values(values: dict) -> None:
    for name, value in values.items():
        print(f"{name}: {'undefined' if value is None else value}")


def _add_game_flags(sub, trains: bool) -> None:
    sub.add_argument("--agents", type=int, required=True, help="number of agents (>= 2)")
    sub.add_argument("--state-type", choices=("A", "B"), default="A")
    sub.add_argument("--reward", choices=("ilf", "iqf"), default="ilf")
    budget = sub.add_mutually_exclusive_group() if trains else sub
    budget.add_argument("--episodes", type=int, default=None)
    if trains:
        budget.add_argument("--base", type=int, default=1000, help="episode budget at n=2")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--run-id", default=None)
    sub.add_argument("--out", default=None, help="runs directory (default: $ALTLAB_OUT or runs)")
    sub.add_argument("--overwrite", action="store_true")
    sub.add_argument("--path-length", type=int, default=2)
    sub.add_argument("--r-high", type=float, default=100.0)
    sub.add_argument("--step-cap", type=int, default=1000)


def _run_single(args) -> int:
    """``simulate`` trains and ``baseline`` plays random; :func:`harness.run` runs the spec."""
    trains = args.command == "simulate"
    if args.episodes is not None:
        episodes = args.episodes
    elif trains:
        episodes = analysis.episodes_for(args.agents, args.base)
    else:
        episodes = 10_000
    prefix = "ql" if trains else "rand"
    run_id = args.run_id or (
        f"{prefix}-n{args.agents}-{args.state_type}-{args.reward}-seed{args.seed}"
    )
    spec = harness.ExperimentSpec(
        game=_game_from_args(args), episodes=episodes, seed=args.seed, run_id=run_id,
        qcfg=QLearningConfig() if trains else None,
    )
    result = harness.run(spec, Path(args.out or _default_out()), overwrite=args.overwrite)
    print(f"run: {result.run_dir}")
    _print_values(result.panel.as_dict())
    if result.greedy_panel is not None:
        print(f"greedy_eval_calt: {result.greedy_panel.calt}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    outcomes = harness.read_episode_log(Path(args.log))
    panel = compute_panel(outcomes, args.agents, args.r_high)
    if args.csv:  # written first, so an unwritable path fails before anything is printed
        harness.write_panel_csv([("full", panel)], Path(args.csv))
    _print_values(panel.as_dict())
    if args.csv:
        print(f"wrote {args.csv}")
    return EXIT_OK


def _list_of(parse):
    """Argparse type: a non-empty comma-separated list, each part read by ``parse``."""

    def read(text: str) -> list:
        try:
            values = [parse(part) for part in text.split(",") if part]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value in {text!r}: {exc}") from exc
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        return values

    return read


def cmd_sweep(args) -> int:
    result = harness.sweep(
        out_root=Path(args.out or _default_out("sweep")),
        agent_counts=args.agents,
        state_types=args.state_types,
        reward_schemes=args.rewards,
        base=args.base,
        baseline_episodes=args.baseline_episodes,
        seed_root=args.seed_root,
        seeds=args.seeds,
        workers=args.workers,
        overwrite=args.overwrite,
    )
    print(f"completed {len(result.results)} runs, {len(result.failures)} failures")
    if result.summary_path is not None:
        print(f"summary: {result.summary_path}")
    for run_id, _ in result.failures:
        print(f"failed: {run_id} (see failures.txt)", file=sys.stderr)
    return EXIT_PARTIAL if result.failures else EXIT_OK


def cmd_analyze(args) -> int:
    """Compare a score with its random reference and map it to an alternation ratio."""
    if args.observed is None or args.random is None:
        raise ConfigError("analyze needs both --observed and --random")
    rel_change, coord_score = analysis.compare(args.observed, args.random)
    ratio = analysis.alt_ratio(args.variant, args.observed)
    values = {
        "relative_change_pct": rel_change,
        "coordination_score_pct": coord_score,
        "alt_ratio": ratio,
    }
    if args.agents is not None:  # checked even where the ratio, and so its equivalent, is undefined
        pa = analysis.pa_equivalent(ratio or 0.0, args.agents)
        if ratio is not None:
            values.update(pa_equiv_agents=pa.pa_equiv_agents, pct_of_perfect=pa.pct_of_perfect)
    _print_values(values)
    return EXIT_OK


def _stats(values) -> tuple:
    """Mean, population sd, min and max of the defined ``values``; all None when there are none."""
    values = [v for v in values if v is not None]
    if not values:
        return None, None, None, None
    return statistics.fmean(values), statistics.pstdev(values), min(values), max(values)


def _report_tables(summary: list[harness.SummaryRow], out_dir: Path, sweep_root: Path) -> None:
    ns = sorted({r.n for r in summary})
    policies = ("qlearning", "random")

    def rows(n, policy, **cells):
        cells.update(n=n, policy=policy)
        return [r for r in summary if all(getattr(r, k) == v for k, v in cells.items())]

    def mean(n, policy, column, **cells):
        return _stats(getattr(r, column) for r in rows(n, policy, **cells))[0]

    def compared(n, metric):
        q, b = mean(n, "qlearning", metric), mean(n, "random", metric)
        if q is None or b is None:
            return q, b, None, None, "missing_run" if q is None else "missing_baseline"
        try:
            return q, b, *analysis.compare(q, b), ""
        except ComparisonError:
            return q, b, None, None, "degenerate_baseline"

    def equivalents(n, scheme):
        trained, status = rows(n, "qlearning", reward_scheme=scheme, state_type="B"), ""
        if not trained:
            trained, status = rows(n, "qlearning", reward_scheme=scheme), "no_type_b"
        if not trained:
            return []
        calt = _stats(r.calt for r in trained)[0]
        ratio = analysis.alt_ratio_from_calt(calt)
        pa = analysis.pa_equivalent(ratio, n)
        return [(n, scheme, calt, ratio, pa.pa_equiv_agents, pa.pct_of_perfect, status)]

    calt_stats = {(n, p): _stats(r.calt for r in rows(n, p)) for n in ns for p in policies}
    pct_stats = {(n, p): _stats(100.0 * r.alt_ratio for r in rows(n, p)) for n in ns for p in policies}
    tables = {
        "table2.csv": (
            ("n", "calt", "falt", "ealt", "efficiency_ilf", "efficiency_iqf", "fairness"),
            [(n, *(mean(n, "random", c) for c in ("calt", "falt", "ealt")),
              *(mean(n, "random", "efficiency", reward_scheme=s) for s in ("ilf", "iqf")),
              mean(n, "random", "fairness")) for n in ns if rows(n, "random")],
        ),
        "table3.csv": (
            ("n", "metric", "qlearning", "random", "rel_change_pct", "coord_score_pct", "status"),
            [(n, m, *compared(n, m)) for n in ns for m in ("calt", "ealt", "aalt", "falt")],
        ),
        "table5.csv": (
            ("n", "reward_scheme", "calt", "alt_ratio", "pa_equiv_agents", "pct_of_perfect",
             "status"),
            [row for n in ns for s in ("ilf", "iqf") for row in equivalents(n, s)],
        ),
        "fig1.csv": (
            ("n", "calt_qlearning_mean", "calt_qlearning_std", "calt_random_mean",
             "calt_random_std"),
            [(n, *(calt_stats[n, p][i] for p in policies for i in (0, 1))) for n in ns],
        ),
        "fig2.csv": (
            ("n", "pct_of_perfect_qlearning_mean", "pct_of_perfect_qlearning_min",
             "pct_of_perfect_qlearning_max", "pct_of_perfect_random_mean",
             "pct_of_perfect_random_min", "pct_of_perfect_random_max"),
            [(n, *(pct_stats[n, p][i] for p in policies for i in (0, 2, 3))) for n in ns],
        ),
        "fig3.csv": (
            ("n", "policy", "efficiency_mean", "reward_fairness_mean", "calt_mean"),
            [(n, p, *(mean(n, p, c) for c in ("efficiency", "reward_fairness", "calt")))
             for n in ns for p in policies if rows(n, p)],
        ),
    }
    for name, (columns, body) in tables.items():
        harness.write_table(out_dir / name, columns, body)
        print(f"wrote {out_dir / name}")

    trained = sorted(
        (r for r in summary if r.policy == "qlearning"),
        key=lambda r: (r.n, r.state_type != "A", r.reward_scheme != "ilf", r.run_id),
    )
    curves = [p for r in trained if (p := sweep_root / "runs" / r.run_id / "curve.csv").exists()]
    if not curves:
        print("gap: no training run with a curve, fig5.csv is header-only")
    fig5 = out_dir / "fig5.csv"
    harness.write_curve_csv(harness.read_curve_csv(curves[0]) if curves else [], fig5)
    print(f"wrote {fig5}")


def cmd_report(args) -> int:
    sweep_root = Path(args.sweep_dir)
    summary = harness.read_table(
        sweep_root / "summary.csv",
        harness.SUMMARY_COLUMNS,
        lambda row: harness.parse_fields(harness.SummaryRow, row),
    )
    out_dir = Path(args.out) if args.out else sweep_root / "report"
    out_dir.mkdir(parents=True, exist_ok=True)
    _report_tables(summary, out_dir, sweep_root)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altlab",
        description="Simulate the episodic race game, score alternation, and reproduce "
        "the experiment grid.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("simulate", help="train Q-learners on one game, then greedy-evaluate")
    _add_game_flags(sub, trains=True)
    sub.set_defaults(func=_run_single)

    sub = subs.add_parser("baseline", help="play one game with random-policy agents")
    _add_game_flags(sub, trains=False)
    sub.set_defaults(func=_run_single)

    sub = subs.add_parser("metrics", help="score an existing episode log")
    sub.add_argument("--log", required=True)
    sub.add_argument("--agents", type=int, required=True)
    sub.add_argument("--r-high", type=float, default=100.0)
    sub.add_argument("--csv", default=None, help="also write the panel as CSV")
    sub.set_defaults(func=cmd_metrics)

    sub = subs.add_parser("sweep", help="run the full experiment grid")
    sub.add_argument("--out", default=None)
    sub.add_argument("--agents", type=_list_of(int), default="2,3,5,8,10")
    sub.add_argument("--state-types", type=_list_of(StateType), default="A,B")
    sub.add_argument("--rewards", type=_list_of(RewardScheme), default="ilf,iqf")
    sub.add_argument("--base", type=int, default=1000)
    sub.add_argument("--baseline-episodes", type=int, default=10_000)
    sub.add_argument("--seed-root", type=int, default=0)
    sub.add_argument("--seeds", type=int, default=1)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--overwrite", action="store_true")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("analyze", help="compare a score with its reference, map it to a ratio")
    sub.add_argument("--observed", type=float, default=None)
    sub.add_argument("--random", type=float, default=None)
    sub.add_argument("--variant", choices=VARIANTS, default="calt")
    sub.add_argument("--agents", type=int, default=None)
    sub.set_defaults(func=cmd_analyze)

    sub = subs.add_parser("report", help="build summary tables and figure data")
    sub.add_argument("--sweep-dir", required=True)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ComparisonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
