"""Persistence round trips, run execution, and sweep behavior."""

import json
import shutil
from dataclasses import asdict, replace
from unittest import mock

import pytest

from altlab import harness
from altlab.analysis import coordination_score
from altlab.errors import ConfigError, DataError, SchemaVersionError
from altlab.game import GameConfig, RewardScheme, StateType
from altlab.harness import (
    CurvePoint,
    ExperimentSpec,
    RunResult,
    derive_seed,
    load_run_result,
    read_curve_csv,
    read_episode_log,
    read_panel_csv,
    read_snapshot,
    read_summary,
    run,
    summary_rows,
    sweep,
    write_curve_csv,
    write_episode_log,
    write_panel_csv,
    write_snapshot,
    SUMMARY_COLUMNS,
)
from altlab.metrics import alt_score, compute_panel, efficiency
from altlab.policies import QLearningConfig, epsilon_at, run_random

from conftest import make_outcome


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(0, "baseline-n2-A")
    assert a == derive_seed(0, "baseline-n2-A")
    assert a != derive_seed(1, "baseline-n2-A")
    assert a != derive_seed(0, "baseline-n3-A")
    assert 0 <= a < 2**64


def test_episode_log_round_trip(tmp_path):
    log = [
        make_outcome(0, 3, {1}),
        make_outcome(1, 3, {0, 2}),
        make_outcome(2, 3, set()),
        make_outcome(3, 3, {0, 1, 2}),
    ]
    path = tmp_path / "log.jsonl"
    write_episode_log(log, path)
    assert read_episode_log(path) == log
    lines = path.read_text().splitlines()
    assert json.loads(lines[1])["arrivals"] == [0, 2]
    assert json.loads(lines[2])["capped"] is True


def test_episode_log_reports_bad_line_numbers(tmp_path):
    path = tmp_path / "log.jsonl"
    good = json.dumps(make_outcome(0, 2, {0}).to_record())
    path.write_text(good + "\n{not json\n")
    with pytest.raises(DataError, match="line 2"):
        read_episode_log(path)
    path.write_text(good + "\n" + json.dumps({"episode": 1}) + "\n")
    with pytest.raises(DataError, match="line 2"):
        read_episode_log(path)


def test_panel_csv_round_trip_is_exact(tmp_path):
    log = run_random(GameConfig(n_agents=2), 300, seed_or_rng=4)
    panel = compute_panel(log, 2, 100.0)
    path = tmp_path / "panel.csv"
    write_panel_csv([("full", panel)], path)
    assert read_panel_csv(path) == {"full": panel}


def test_panel_csv_preserves_undefined_cells(tmp_path):
    ties = [make_outcome(i, 2, {0, 1}) for i in range(5)]
    panel = compute_panel(ties, 2, 100.0)
    assert panel.fairness is None
    path = tmp_path / "panel.csv"
    write_panel_csv([("full", panel)], path)
    loaded = read_panel_csv(path)["full"]
    assert loaded.fairness is None
    assert loaded == panel


def test_curve_csv_round_trip(tmp_path):
    points = [
        CurvePoint(episode=1, epsilon=0.9, windowed_calt=None, windowed_efficiency=None),
        CurvePoint(episode=50, epsilon=0.45, windowed_calt=0.31, windowed_efficiency=0.8),
    ]
    path = tmp_path / "curve.csv"
    write_curve_csv(points, path)
    assert read_curve_csv(path) == points


@pytest.mark.parametrize(
    "text, message",
    [("", "missing header line"), ("episode,epsilon\n", "unexpected columns")],
    ids=["empty", "other-header"],
)
def test_read_table_rejects_a_missing_or_other_header(tmp_path, text, message):
    path = tmp_path / "curve.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"curve.csv: {message}"):
        read_curve_csv(path)


def test_snapshot_round_trip(tmp_path):
    spec = ExperimentSpec(
        game=GameConfig(
            n_agents=3, state_type=StateType.TYPE_B, reward_scheme=RewardScheme.IQF
        ),
        episodes=500,
        seed=99,
        run_id="ql-n3-B-iqf-s0",
        qcfg=QLearningConfig(),
    )
    path = tmp_path / "spec.snapshot"
    write_snapshot(spec, path)
    assert read_snapshot(path) == spec


def test_snapshot_rejects_other_schema_versions(tmp_path):
    spec = ExperimentSpec(game=GameConfig(n_agents=2), episodes=10, seed=0, run_id="r")
    path = tmp_path / "spec.snapshot"
    write_snapshot(spec, path)
    payload = json.loads(path.read_text())
    payload["schema"] = "altlab-run@99"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaVersionError, match="altlab-run@99"):
        read_snapshot(path)
    for text in ("{broken", "[]"):
        path.write_text(text)
        with pytest.raises(DataError):
            read_snapshot(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p.update(episodes=10.9),
        lambda p: p.update(seed=True),
        lambda p: p["game"].update(n_agents=2.7),
        lambda p: p["game"].update(path_length="2"),
        lambda p: p["game"].update(r_high="100"),
        lambda p: p.update(qlearning=asdict(QLearningConfig())),
        lambda p: p.update(policy="qlearning"),
    ],
    ids=["fractional-episodes", "bool-seed", "fractional-agents", "text-path-length",
         "text-r-high", "random-policy-with-qlearning", "qlearning-policy-without-qlearning"],
)
def test_snapshot_values_must_round_trip(tmp_path, edit):
    spec = ExperimentSpec(game=GameConfig(n_agents=2), episodes=10, seed=0, run_id="r")
    path = tmp_path / "spec.snapshot"
    write_snapshot(spec, path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=r"spec\.snapshot: "):
        read_snapshot(path)


def test_malformed_snapshot_and_panel_errors_name_the_file(tmp_path):
    spec = ExperimentSpec(
        game=GameConfig(n_agents=2), episodes=10, seed=0, run_id="q", qcfg=QLearningConfig()
    )
    path = tmp_path / "spec.snapshot"
    write_snapshot(spec, path)
    payload = json.loads(path.read_text())
    payload["qlearning"]["gama"] = 0.9
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=r"spec\.snapshot: malformed snapshot: .*'gama'"):
        read_snapshot(path)

    panel = tmp_path / "panel.csv"
    write_panel_csv([("full", compute_panel(run_random(spec.game, 20, 0), 2, 100.0))], panel)
    header, row = panel.read_text().splitlines()
    panel.write_text(f"{header}\nfull,abc{row[row.index(',', 5):]}\n")
    with pytest.raises(DataError, match=r"panel\.csv: bad MetricPanel"):
        read_panel_csv(panel)


def test_experiment_spec_validation():
    game = GameConfig(n_agents=3)
    with pytest.raises(ConfigError):
        ExperimentSpec(game=game, episodes=2, seed=0, run_id="x")
    with pytest.raises(ConfigError):
        ExperimentSpec(game=game, episodes=100, seed=-1, run_id="x")
    # A run id names one directory under the runs root; a leading "." is
    # kept for temporary siblings.
    for run_id in ("", "../x", "a/b", ".", "..", ".x"):
        with pytest.raises(ConfigError):
            ExperimentSpec(game=game, episodes=100, seed=0, run_id=run_id)
    with pytest.raises(TypeError):
        ExperimentSpec(game=game, policy="random", episodes=100, seed=0, run_id="x")
    spec = ExperimentSpec(game=game, episodes=100, seed=0, run_id="x")
    assert spec.policy == "random"
    assert replace(spec, qcfg=QLearningConfig()).policy == "qlearning"


def test_run_baseline_persists_and_recomputes_bit_identically(tmp_path):
    spec = ExperimentSpec(
        game=GameConfig(n_agents=2),
        episodes=400,
        seed=derive_seed(0, "t"),
        run_id="rand-demo",
    )
    result = run(spec, tmp_path)
    run_dir = tmp_path / "rand-demo"
    assert result.run_dir == run_dir
    assert (run_dir / "log.jsonl").exists()
    assert (run_dir / "panel.csv").exists()
    assert (run_dir / "spec.snapshot").exists()
    assert not (run_dir / "curve.csv").exists()

    reloaded = read_episode_log(run_dir / "log.jsonl")
    assert compute_panel(reloaded, 2, 100.0) == result.panel
    assert load_run_result(run_dir).panel == result.panel

    # the same spec comes back as stored; another one under its run id fails
    assert run(spec, tmp_path) == result
    with pytest.raises(ConfigError):
        run(replace(spec, episodes=401), tmp_path)
    again = run(spec, tmp_path, overwrite=True)
    assert again.panel == result.panel


def test_failed_run_leaves_no_directory_and_rerun_succeeds(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    baseline = ExperimentSpec(GameConfig(n_agents=2), 50, 0, "rand")
    trained = ExperimentSpec(GameConfig(n_agents=2), 50, 0, "ql", QLearningConfig())
    # A failure while scoring, or while writing the last file, leaves
    # neither the run directory nor its temporary sibling behind.
    for name, spec in (
        ("compute_panel", baseline),
        ("write_snapshot", baseline),
        ("write_curve_csv", trained),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(harness, name, broken)
            with pytest.raises(RuntimeError):
                run(spec, tmp_path)
        assert list(tmp_path.iterdir()) == [], name
    first = run(baseline, tmp_path)
    run(trained, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ql", "rand"]
    # A failed overwrite keeps the complete old run.
    with monkeypatch.context() as patch:
        patch.setattr(harness, "write_snapshot", broken)
        with pytest.raises(RuntimeError):
            run(baseline, tmp_path, overwrite=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ql", "rand"]
    assert load_run_result(tmp_path / "rand").panel == first.panel


def test_run_training_artifacts(tmp_path):
    spec = ExperimentSpec(
        game=GameConfig(n_agents=2),
        episodes=60,
        seed=7,
        run_id="ql-demo",
        qcfg=QLearningConfig(),
    )
    result = run(spec, tmp_path)
    run_dir = tmp_path / "ql-demo"
    panels = read_panel_csv(run_dir / "panel.csv")
    assert set(panels) == {"full", "greedy_eval"}
    assert panels["full"] == result.panel
    assert panels["greedy_eval"] == result.greedy_panel
    assert result.panel.nu == 60
    assert result.greedy_panel.nu == 10 * 2

    curve = read_curve_csv(run_dir / "curve.csv")
    assert curve == result.curve
    assert curve[-1].episode == 60
    assert curve[0].episode == 1
    # too few episodes for a window at the first mark
    assert curve[0].windowed_calt is None
    assert curve[-1].windowed_calt is not None
    assert curve[0].epsilon == pytest.approx(0.9)
    assert curve[-1].epsilon == pytest.approx(0.004)


@pytest.mark.parametrize(
    "n, state_type, episodes, points, short",
    [(3, StateType.TYPE_B, 1200, 200, 0), (5, StateType.TYPE_A, 700, 234, 1),
     (2, StateType.TYPE_A, 7, 7, 1)],
)
def test_each_curve_point_scores_its_own_window(tmp_path, n, state_type, episodes, points, short):
    game = GameConfig(n_agents=n, state_type=state_type)
    spec = ExperimentSpec(game, episodes, derive_seed(0, "curve"), "ql", QLearningConfig())
    curve = run(spec, tmp_path).curve
    log = read_episode_log(tmp_path / "ql" / "log.jsonl")
    assert len(curve) == points
    assert sum(p.episode < n for p in curve) == short
    for p in curve:
        window = log[max(0, p.episode - harness.CURVE_WINDOW) : p.episode]
        assert p.epsilon == epsilon_at(p.episode - 1, episodes, spec.qcfg)
        if len(window) < n:
            assert p.windowed_calt is None and p.windowed_efficiency is None
        else:
            assert p.windowed_calt == alt_score(window, n, "calt")
            assert p.windowed_efficiency == efficiency(window, game.r_high)


def test_training_is_reproducible(tmp_path):
    spec = ExperimentSpec(
        game=GameConfig(n_agents=3, state_type=StateType.TYPE_B),
        episodes=150,
        seed=derive_seed(3, "repro"),
        run_id="ql-repro",
        qcfg=QLearningConfig(),
    )
    a = run(spec, tmp_path / "a")
    b = run(spec, tmp_path / "b")
    assert a.panel == b.panel
    assert a.greedy_panel == b.greedy_panel
    assert (tmp_path / "a/ql-repro/log.jsonl").read_bytes() == (
        tmp_path / "b/ql-repro/log.jsonl"
    ).read_bytes()


def test_random_baseline_reference_values():
    # Identical seeds yield identical trajectories under both reward schemes,
    # so the efficiency gap isolates the partial-tie payout difference.
    seed = derive_seed(0, "reference-n3")
    ilf = run_random(GameConfig(n_agents=3, reward_scheme=RewardScheme.ILF), 10_000, seed)
    iqf = run_random(GameConfig(n_agents=3, reward_scheme=RewardScheme.IQF), 10_000, seed)
    panel_ilf = compute_panel(ilf, 3, 100.0)
    panel_iqf = compute_panel(iqf, 3, 100.0)
    assert panel_ilf.calt == panel_iqf.calt
    assert panel_ilf.fairness == panel_iqf.fairness
    assert abs(panel_ilf.efficiency - 0.866) < 0.02
    assert abs(panel_iqf.efficiency - 0.742) < 0.02

    ten = run_random(GameConfig(n_agents=10), 10_000, derive_seed(0, "reference-n10"))
    panel_ten = compute_panel(ten, 10, 100.0)
    assert abs(panel_ten.falt - 0.363) < 0.02
    assert abs(panel_ten.calt - 0.111) < 0.015


def _tiny_sweep(out, **overrides):
    kwargs = dict(
        out_root=out,
        agent_counts=(2, 3),
        base=30,
        baseline_episodes=200,
        seed_root=5,
        seeds=1,
    )
    kwargs.update(overrides)
    return sweep(**kwargs)


def test_sweep_grid_and_summary(tmp_path):
    result = _tiny_sweep(tmp_path / "s")
    assert not result.failures
    # 2 agent counts x 2 state types x 2 schemes, baselines plus trainings
    assert len(result.results) == 16
    run_ids = [r.spec.run_id for r in result.results]
    assert run_ids[0] == "rand-n2-A-ilf"
    assert "ql-n3-B-iqf-s0" in run_ids
    assert len(set(run_ids)) == 16

    rows = read_summary(result.summary_path)
    assert len(rows) == 16
    assert tuple(rows[0]) == SUMMARY_COLUMNS
    by_id = {row["run_id"]: row for row in rows}
    for run_id, row in by_id.items():
        if run_id.startswith("ql-"):
            assert row["calt_rel_change_pct"] != ""
            assert row["calt_coord_score_pct"] != ""
            assert row["policy"] == "qlearning"
        else:
            assert row["calt_rel_change_pct"] == ""
            assert row["policy"] == "random"
        assert row["alt_ratio"] != ""
        assert float(row["pa_equiv_agents"]) >= 0.0
    # training budgets follow the scaling rule at the reduced base
    assert int(by_id["ql-n2-A-ilf-s0"]["nu"]) == 30
    assert int(by_id["ql-n3-A-ilf-s0"]["nu"]) == 141
    # a single timestamp tags every row
    assert len({row["generated_at"] for row in rows}) == 1


def test_sweep_baselines_share_trajectories_across_schemes(tmp_path):
    result = _tiny_sweep(tmp_path / "s", agent_counts=(3,))
    root = result.out_root / "runs"
    ilf = read_episode_log(root / "rand-n3-A-ilf" / "log.jsonl")
    iqf = read_episode_log(root / "rand-n3-A-iqf" / "log.jsonl")
    assert [ep.arrivals for ep in ilf] == [ep.arrivals for ep in iqf]
    # partial ties pay differently under the two schemes
    partial = [
        (a.rewards, b.rewards)
        for a, b in zip(ilf, iqf)
        if 1 < len(a.arrivals) < 3
    ]
    assert partial
    assert all(a != b for a, b in partial)
    # win-pattern metrics coincide exactly
    ilf_row = next(
        r for r in read_summary(result.summary_path) if r["run_id"] == "rand-n3-A-ilf"
    )
    iqf_row = next(
        r for r in read_summary(result.summary_path) if r["run_id"] == "rand-n3-A-iqf"
    )
    for col in ("calt", "falt", "ealt", "fairness", "tt_fairness"):
        assert ilf_row[col] == iqf_row[col]
    assert ilf_row["efficiency"] != iqf_row["efficiency"]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_plays_each_baseline_trajectory_once(tmp_path, workers):
    # Random play ignores rewards: the -ilf and -iqf baselines of one
    # (n, state type) take one played trajectory, rewarded per scheme.
    # Calls are counted in a file, so forked workers count too.
    played = tmp_path / "played"
    played.touch()

    def counting(cfg, episodes, seed):
        with played.open("a") as fh:
            fh.write(f"{cfg.n_agents} {cfg.state_type.value}\n")
        return run_random(cfg, episodes, seed)

    harness._random_log.cache_clear()
    with mock.patch.object(harness, "run_random", counting):
        result = _tiny_sweep(tmp_path / "s", workers=workers)
    assert not result.failures
    assert sorted(played.read_text().splitlines()) == [
        f"{n} {st.value}" for n in (2, 3) for st in StateType
    ]
    assert len(result.results) == 16


def test_sweep_reuses_cached_baselines_and_reports_collisions(tmp_path):
    out = tmp_path / "s"
    first = _tiny_sweep(out, agent_counts=(2,))
    baseline_panel = next(
        r.panel for r in first.results if r.spec.run_id == "rand-n2-A-ilf"
    )
    log_before = (out / "runs" / "rand-n2-A-ilf" / "log.jsonl").read_bytes()

    second = _tiny_sweep(out, agent_counts=(2,))
    # the same sweep comes back from its stored runs
    assert not second.failures and second.results == first.results
    reused = next(r for r in second.results if r.spec.run_id == "rand-n2-A-ilf")
    assert reused.panel == baseline_panel
    assert (out / "runs" / "rand-n2-A-ilf" / "log.jsonl").read_bytes() == log_before
    # another training budget reuses the baselines and collides on the
    # training directories
    third = _tiny_sweep(out, agent_counts=(2,), base=31)
    assert {r.spec.run_id for r in third.results} == {
        f"rand-n2-{st}-{sch}" for st in "AB" for sch in ("ilf", "iqf")
    }
    failed_ids = {run_id for run_id, _ in third.failures}
    assert failed_ids == {f"ql-n2-{st}-{sch}-s0" for st in "AB" for sch in ("ilf", "iqf")}
    assert (out / "failures.txt").exists()


def test_overwrite_removes_temporary_siblings_of_killed_runs(tmp_path):
    out = tmp_path / "s"
    _tiny_sweep(out, agent_counts=(2,))
    runs = out / "runs"
    # A run killed mid-write leaves its hidden temporary sibling behind.
    stale = runs / ".rand-n2-A-ilf.tmp-999999"
    stale.mkdir()
    (stale / "log.jsonl").write_text("{")
    other = runs / ".rand-n2-A-iqf.tmp-999999"
    other.mkdir()
    _tiny_sweep(out, agent_counts=(2,))
    assert stale.exists()
    _tiny_sweep(out, agent_counts=(2,), overwrite=True)
    assert not stale.exists()
    run(ExperimentSpec(GameConfig(n_agents=2), 50, 0, "rand-n2-A-iqf"),
        runs, overwrite=True)
    assert not other.exists()
    assert not [p.name for p in runs.iterdir() if p.name.startswith(".")]


def test_killed_sweep_resumes_where_it_stopped(tmp_path):
    whole, killed = tmp_path / "whole", tmp_path / "killed"
    _tiny_sweep(whole)
    _tiny_sweep(killed)
    runs = killed / "runs"
    # A sweep killed before its last runs and its summary, one of them
    # mid-write.
    for run_id in ("rand-n3-B-iqf", "ql-n2-A-ilf-s0", "ql-n3-B-iqf-s0"):
        shutil.rmtree(runs / run_id)
    (killed / "summary.csv").unlink()
    (runs / ".ql-n3-B-iqf-s0.tmp-999999").mkdir()
    resumed = _tiny_sweep(killed)
    assert not resumed.failures

    def tree(root):
        return {
            p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
        }

    assert tree(runs) == tree(whole / "runs")
    assert not [p.name for p in runs.iterdir() if p.name.startswith(".")]

    def rows(root):
        return [{**row, "generated_at": None} for row in read_summary(root / "summary.csv")]

    assert rows(killed) == rows(whole)


def test_sweep_rejects_mismatched_cache(tmp_path):
    out = tmp_path / "s"
    _tiny_sweep(out, agent_counts=(2,))
    # tamper with the cached baseline's recorded seed
    snap = out / "runs" / "rand-n2-A-ilf" / "spec.snapshot"
    payload = json.loads(snap.read_text())
    payload["seed"] = 123
    snap.write_text(json.dumps(payload))
    second = _tiny_sweep(out, agent_counts=(2,), overwrite=False)
    assert any(run_id == "rand-n2-A-ilf" for run_id, _ in second.failures)


def test_sweep_rejects_cached_snapshot_that_does_not_round_trip(tmp_path):
    out = tmp_path / "s"
    _tiny_sweep(out, agent_counts=(2,))
    # 200.0 reads as the sweep's 200 episodes but does not state them
    snap = out / "runs" / "rand-n2-A-ilf" / "spec.snapshot"
    payload = json.loads(snap.read_text())
    payload["episodes"] = 200.0
    snap.write_text(json.dumps(payload))
    failures = dict(_tiny_sweep(out, agent_counts=(2,)).failures)
    assert "DataError" in failures["rand-n2-A-ilf"]
    assert "rand-n2-A-iqf" not in failures


def test_sweep_files_describe_this_sweep_only(tmp_path):
    out = tmp_path / "s"
    _tiny_sweep(out, agent_counts=(2,))
    assert _tiny_sweep(out, agent_counts=(2,), base=31).failures
    assert (out / "failures.txt").exists()
    # a clean rerun leaves no failures.txt from the sweep before
    assert not _tiny_sweep(out, agent_counts=(2,), overwrite=True).failures
    assert not (out / "failures.txt").exists()
    # other baseline and training budgets fail every run: no stored run
    # states its spec
    failed = _tiny_sweep(out, agent_counts=(2,), base=31, baseline_episodes=300)
    assert failed.results == [] and len(failed.failures) == 8
    assert failed.summary_path is None
    assert not (out / "summary.csv").exists()


def test_sweep_overwrite_reruns_everything(tmp_path):
    out = tmp_path / "s"
    first = _tiny_sweep(out, agent_counts=(2,))
    second = _tiny_sweep(out, agent_counts=(2,), overwrite=True)
    assert not second.failures
    assert [r.panel for r in first.results] == [r.panel for r in second.results]


def test_sweep_parallel_matches_serial(tmp_path):
    serial = _tiny_sweep(tmp_path / "serial")
    parallel = _tiny_sweep(tmp_path / "parallel", workers=2)
    assert [r.spec.run_id for r in serial.results] == [
        r.spec.run_id for r in parallel.results
    ]
    assert [r.panel for r in serial.results] == [r.panel for r in parallel.results]


def test_sweep_sign_audit_at_full_budgets(tmp_path):
    # At the real per-n training budgets, learned coordination never scores
    # above the random baseline on the clean-rotation-sensitive variants.
    result = sweep(
        out_root=tmp_path / "audit",
        agent_counts=(2, 3),
        base=1000,
        baseline_episodes=4000,
        seed_root=17,
        seeds=1,
    )
    assert not result.failures
    trained = [r for r in result.results if r.spec.policy == "qlearning"]
    assert len(trained) == 8
    baselines = {r.spec.game: r.panel for r in result.results if r.spec.policy == "random"}
    for run in trained:
        for variant in ("calt", "aalt"):
            observed = getattr(run.panel, variant)
            reference = getattr(baselines[run.spec.game], variant)
            assert coordination_score(observed, reference) < 0.0, (run.spec.run_id, variant)


def test_summary_leaves_the_calt_comparison_empty_without_a_usable_baseline():
    game = GameConfig(n_agents=2)
    trained = ExperimentSpec(game, 10, 0, "ql", QLearningConfig())
    other = ExperimentSpec(GameConfig(n_agents=2, step_cap=9), 10, 0, "rand-other")
    panel = compute_panel([make_outcome(e, 2, {e % 2}) for e in range(10)], 2, 100.0)

    def calt_cells(reference):
        baseline = RunResult(ExperimentSpec(game, 10, 0, "rand"), reference)
        rows = summary_rows([RunResult(trained, panel), baseline], "t")
        assert (rows[1].calt_rel_change_pct, rows[1].calt_coord_score_pct) == (None, None)
        return rows[0].calt_rel_change_pct, rows[0].calt_coord_score_pct

    assert calt_cells(replace(panel, calt=0.5)) == (100.0, 100.0)
    assert calt_cells(replace(panel, calt=0.0)) == (None, None)
    assert calt_cells(replace(panel, calt=1.0)) == (None, None)
    rows = summary_rows([RunResult(trained, panel), RunResult(other, panel)], "t")
    assert (rows[0].calt_rel_change_pct, rows[0].calt_coord_score_pct) == (None, None)


def test_sweep_validation(tmp_path):
    with pytest.raises(ConfigError):
        sweep("x", agent_counts=())
    with pytest.raises(ConfigError):
        sweep("x", seeds=0)
    with pytest.raises(ConfigError):
        sweep("x", workers=0)
    # a repeated cell or a one-agent game is refused before anything is written
    for agent_counts in ((2, 2), (1,)):
        with pytest.raises(ConfigError):
            sweep(tmp_path / "s", agent_counts=agent_counts)
    assert not (tmp_path / "s").exists()
