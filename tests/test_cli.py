"""End-to-end command-line behavior and exit codes."""

import json

import pytest

from altlab.cli import main
from altlab.harness import read_curve_csv, read_summary

from conftest import make_outcome


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--agents", "2", "--state-type", "C"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--agents", "2", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
    # semantic configuration problems map to the same exit code
    assert main(["baseline", "--agents", "1", "--out", str(tmp_path)]) == 2


def test_baseline_and_metrics_agree_byte_for_byte(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(
        [
            "baseline",
            "--agents",
            "2",
            "--episodes",
            "120",
            "--seed",
            "9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    run_dir = out / "rand-n2-A-ilf-seed9"
    assert (run_dir / "log.jsonl").exists()

    panel_copy = tmp_path / "recomputed.csv"
    code = main(
        [
            "metrics",
            "--log",
            str(run_dir / "log.jsonl"),
            "--agents",
            "2",
            "--csv",
            str(panel_copy),
        ]
    )
    assert code == 0
    assert panel_copy.read_bytes() == (run_dir / "panel.csv").read_bytes()
    printed = capsys.readouterr().out
    assert "calt:" in printed


def test_metrics_rejects_short_and_malformed_logs(tmp_path, capsys):
    short = tmp_path / "short.jsonl"
    short.write_text(json.dumps(make_outcome(0, 2, {0}).to_record()) + "\n")
    assert main(["metrics", "--log", str(short), "--agents", "2"]) == 3

    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        json.dumps(make_outcome(0, 2, {0}).to_record()) + "\nnot-json\n"
    )
    assert main(["metrics", "--log", str(bad), "--agents", "2"]) == 3
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("log_agents, read_agents", [(3, 2), (2, 3)])
def test_metrics_rejects_log_of_other_agent_count(tmp_path, capsys, log_agents, read_agents):
    log = tmp_path / "log.jsonl"
    log.write_text(
        "".join(
            json.dumps(make_outcome(i, log_agents, {i % log_agents}).to_record()) + "\n"
            for i in range(12)
        )
    )
    assert main(["metrics", "--log", str(log), "--agents", str(read_agents)]) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r.update(rewards=[float("inf"), 0.0]),
        lambda r: r.update(rewards=[float("nan"), 0.0]),
        lambda r: r.update(rewards=[-100.0, 0.0]),
        lambda r: r.update(steps=0),
        lambda r: r.update(steps=-2),
    ],
    ids=["inf-reward", "nan-reward", "negative-reward", "zero-steps", "negative-steps"],
)
def test_metrics_rejects_corrupt_records(tmp_path, capsys, corrupt):
    records = [make_outcome(i, 2, {i % 2}).to_record() for i in range(12)]
    corrupt(records[5])
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["metrics", "--log", str(log), "--agents", "2"]) == 3
    assert "line 6" in capsys.readouterr().err


def test_simulate_qlearning_run(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(
        [
            "simulate",
            "--agents",
            "2",
            "--episodes",
            "50",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    run_dir = out / "ql-n2-A-ilf-seed3"
    assert (run_dir / "curve.csv").exists()
    assert "greedy_eval_calt" in capsys.readouterr().out
    # a second run without --overwrite collides
    assert (
        main(
            [
                "simulate",
                "--agents",
                "2",
                "--episodes",
                "50",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        == 2
    )


def test_out_root_falls_back_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("ALTLAB_OUT", str(tmp_path / "envruns"))
    monkeypatch.chdir(tmp_path)
    assert main(["baseline", "--agents", "2", "--episodes", "30", "--seed", "1"]) == 0
    assert (tmp_path / "envruns" / "rand-n2-A-ilf-seed1" / "log.jsonl").exists()


def _tiny_sweep_args(out) -> list[str]:
    return [
        "sweep",
        "--out",
        str(out),
        "--agents",
        "2",
        "--base",
        "30",
        "--baseline-episodes",
        "150",
        "--seed-root",
        "4",
    ]


def test_sweep_report_pipeline(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(_tiny_sweep_args(out)) == 0
    rows = read_summary(out / "summary.csv")
    assert len(rows) == 8

    assert main(["report", "--sweep-dir", str(out)]) == 0
    report = out / "report"
    for name in (
        "table2.csv",
        "table3.csv",
        "table5.csv",
        "fig1.csv",
        "fig2.csv",
        "fig3.csv",
        "fig5.csv",
    ):
        assert (report / name).exists(), name
    table2 = (report / "table2.csv").read_text().splitlines()
    assert table2[0] == "n,calt,falt,ealt,efficiency_ilf,efficiency_iqf,fairness"
    assert table2[1].startswith("2,")
    table3 = (report / "table3.csv").read_text().splitlines()
    assert len(table3) == 1 + 4
    assert ",calt," in table3[1]
    # fig5 carries the training curve of the smallest type-A ilf run
    curve = read_curve_csv(report / "fig5.csv")
    assert curve == read_curve_csv(out / "runs" / "ql-n2-A-ilf-s0" / "curve.csv")
    capsys.readouterr()


def test_sweep_partial_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(_tiny_sweep_args(out)) == 0
    # rerunning the same grid collides on the training directories
    assert main(_tiny_sweep_args(out)) == 4
    err = capsys.readouterr().err
    assert "failed" in err


def test_analyze_compare_and_fit(tmp_path, capsys):
    code = main(
        [
            "analyze",
            "--observed",
            "0.322",
            "--random",
            "0.486",
            "--agents",
            "2",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "relative_change_pct: -33.74" in printed
    assert "coordination_score_pct: -31.9" in printed
    assert "alt_ratio:" in printed
    assert "pa_equiv_agents:" in printed

    assert main(["analyze", "--observed", "0.5", "--random", "0.0"]) == 3
    assert main(["analyze"]) == 2

    saved = tmp_path / "fit.json"
    assert main(["analyze", "--fit", "calt", "--save", str(saved)]) == 0
    payload = json.loads(saved.read_text())
    assert payload["exponent"] == pytest.approx(0.5, abs=1e-9)
