"""End-to-end command-line behavior and exit codes."""

import csv
import hashlib
import json
import shutil

import pytest

from altlab.cli import build_parser, main
from altlab.harness import (
    SUMMARY_COLUMNS,
    read_curve_csv,
    read_episode_log,
    read_summary,
    write_episode_log,
    write_summary,
    write_table,
)

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
    # simulate always trains and baseline always plays random; a training
    # budget is either --episodes or --base
    for argv in (
        ["simulate", "--policy", "random"],
        ["baseline", "--base", "5"],
        ["simulate", "--episodes", "20", "--base", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--agents", "2", "--out", str(tmp_path / "r")])
        assert exc.value.code == 2, argv
    for flags in (
        ["--agents", "2,x"],
        ["--state-types", "C"],
        ["--state-types", ","],
        ["--rewards", "foo"],
        ["--rewards", ""],
        ["--no-reuse-baselines"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--out", str(tmp_path / "sweep"), *flags])
        assert exc.value.code == 2, flags
    # every run's spec is checked before the sweep writes anything
    for flags in (
        ["--agents", "2,2"],
        ["--agents", "2", "--state-types", "A,A"],
        ["--agents", "2", "--rewards", "ilf,ilf"],
        ["--agents", "1"],
        ["--base", "0"],
        ["--baseline-episodes", "1"],
        ["--base", "9" * 401],
        ["--agents", "6208"],
        ["--agents", "200"],
    ):
        assert main(["sweep", "--out", str(tmp_path / "sweep"), *flags]) == 2, flags
    assert not (tmp_path / "sweep").exists()
    # semantic configuration problems map to the same exit code
    assert main(["baseline", "--agents", "1", "--out", str(tmp_path)]) == 2
    # a non-finite payoff is refused before any run directory is made
    for command in ("simulate", "baseline"):
        assert main([command, "--agents", "2", "--r-high", "inf", "--out", str(tmp_path)]) == 2
    # so is a finite payoff whose run total or Q-value bound overflows
    for command, r_high in (("baseline", "1e308"), ("simulate", "1e308"), ("simulate", "1e306")):
        flags = ["--agents", "2", "--episodes", "20", "--r-high", r_high, "--out", str(tmp_path)]
        assert main([command, *flags]) == 2, (command, r_high)
    # a negative seed, a run id that is not one plain name, an overflowing
    # budget and a partial-tie share that rounds to zero are refused too
    for command, flags in (
        ("simulate", ["--seed", "-1"]),
        ("baseline", ["--seed", "-1"]),
        ("baseline", ["--run-id", "../escape"]),
        ("simulate", ["--run-id", "a/b"]),
        ("baseline", ["--run-id", ".rand.tmp-1"]),
        ("simulate", ["--base", "9" * 401]),
        ("simulate", ["--agents", "200"]),
        ("baseline", ["--agents", "3", "--reward", "iqf", "--r-high", "5e-324"]),
        ("baseline", ["--agents", "6208", "--episodes", "6208"]),
        *((command, ["--episodes", "2", "--path-length", "3000000000", "--step-cap", "4000000000"])
          for command in ("baseline", "simulate")),
    ):
        argv = [command, "--agents", "2", *flags, "--out", str(tmp_path / "r")]
        assert main(argv) == 2, (command, flags)
    assert list(tmp_path.iterdir()) == []


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    log = tmp_path / "log.jsonl"
    write_episode_log([make_outcome(e, 2, {e % 2}) for e in range(10)], log)
    argv = ["metrics", "--log", str(log), "--agents", "2"]
    build_parser.cache_clear()
    assert main(argv) == 0
    alone = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--log", str(log), "--agents", "two"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == alone
    # a list parsed from a default is new on every call
    build_parser().parse_args(["sweep"]).agents.append(99)
    assert build_parser().parse_args(["sweep"]).agents == [2, 3, 5, 8, 10]


# analyze has no --fit, --n-min, --n-max, --save or --perfect (the perfect
# score is 1): argparse refuses them before any work.
@pytest.mark.parametrize(
    "flags, unknown",
    [(["--fit", "calt", "--observed", "0.3", "--random", "0.5", "--n-min", "2", "--n-max", "4"],
      "--fit calt --n-min 2 --n-max 4"),
     (["--observed", "0.5", "--random", "0.2", "--perfect", "inf"], "--perfect inf")],
    ids=["fit-with-compare-flags", "perfect"],
)
def test_analyze_refuses_the_other_modes_flags(capsys, flags, unknown):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {unknown}" in captured.err


@pytest.mark.parametrize(
    "flags, code",
    [(["--observed", "0.3", "--random", "0.5", "--agents", "1"], 2),
     (["--variant", "aalt", "--observed", "0.0", "--random", "0.1", "--agents", "1"], 2),
     (["--observed", "1.5", "--random", "0.5", "--agents", "2"], 3)],
    ids=["one-agent", "one-agent-undefined-ratio", "score-above-1"],
)
def test_analyze_refuses_before_printing(capsys, flags, code):
    assert main(["analyze", *flags]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


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


def test_metrics_overflow_exits_without_traceback(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    records = [make_outcome(e, 2, {e % 2}, r_high=1e308).to_record() for e in range(4)]
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    # the rewards overflow their total: bad data
    assert main(["metrics", "--log", str(log), "--agents", "2", "--r-high", "1"]) == 3
    # the flag overflows the optimum: bad configuration
    assert main(["metrics", "--log", str(log), "--agents", "2", "--r-high", "1e308"]) == 2
    assert "overflow" in capsys.readouterr().err


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
        lambda r: r.update(rewards=[7.0, 3.0]),
        lambda r: r.update(rewards=[0.0, 0.0]),
        lambda r: r.update(arrivals=[0, 1], exclusive_winner=None, rewards=[50.0, 50.0]),
        lambda r: r.update(capped=True, arrivals=[], exclusive_winner=None, rewards=[0.0, 1.0]),
        lambda r: r.update(episode=99),
        lambda r: r.update(episode=4),
        lambda r: r.update(steps=1.5),
        lambda r: r.update(arrivals=[1, 1]),
    ],
    ids=[
        "inf-reward",
        "nan-reward",
        "negative-reward",
        "zero-steps",
        "negative-steps",
        "reward-to-non-arriver",
        "unpaid-winner",
        "paid-full-tie",
        "paid-capped",
        "index-out-of-sequence",
        "index-repeated",
        "fractional-steps",
        "repeated-arrival-id",
    ],
)
def test_metrics_rejects_corrupt_records(tmp_path, capsys, corrupt):
    records = [make_outcome(i, 2, {i % 2}).to_record() for i in range(12)]
    corrupt(records[5])
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["metrics", "--log", str(log), "--agents", "2"]) == 3
    assert "line 6" in capsys.readouterr().err


@pytest.mark.parametrize("r_high", ["10", "200"])
def test_metrics_rejects_r_high_other_than_the_logs(tmp_path, capsys, r_high):
    # The log pays its sole winners 100.
    records = [make_outcome(i, 2, {i % 2}).to_record() for i in range(12)]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["metrics", "--log", str(log), "--agents", "2", "--r-high", r_high]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp, f: ["metrics", "--log", str(tmp / "log.jsonl"), "--agents", "2",
                        "--csv", f"{f}/x.csv"],
        lambda tmp, f: ["baseline", "--agents", "2", "--episodes", "50", "--out", f"{f}/x"],
        lambda tmp, f: ["sweep", "--agents", "2", "--base", "5", "--baseline-episodes", "20",
                        "--out", f"{f}/s"],
        lambda tmp, f: ["report", "--sweep-dir", str(tmp), "--out", f"{f}/r"],
    ],
    ids=["metrics-csv", "baseline-out", "sweep-out", "report-out"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps(make_outcome(i, 2, {i % 2}).to_record()) + "\n"
                           for i in range(12)))
    write_summary([], tmp_path / "summary.csv")
    regular = tmp_path / "file"
    regular.write_text("")
    capsys.readouterr()
    assert main(argv(tmp_path, regular)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def _report_with_edited_row(edit):
    """argv of ``report`` on a tiny sweep whose first summary.csv row is ``edit(cells, header)``."""

    def argv(tmp_path):
        out = tmp_path / "sweep"
        assert main(_tiny_sweep_args(out)) == 0
        summary = out / "summary.csv"
        header, first, *rest = summary.read_text().splitlines(keepends=True)
        cells = edit(first.rstrip("\n").split(","), header.rstrip("\n").split(","))
        summary.write_text("".join([header, ",".join(cells) + "\n", *rest]))
        return ["report", "--sweep-dir", str(out)]

    return argv


def _report_on_summary(text):
    """argv of ``report`` on a directory whose summary.csv holds ``text``."""

    def argv(tmp_path):
        (tmp_path / "summary.csv").write_text(text)
        return ["report", "--sweep-dir", str(tmp_path)]

    return argv


def _baseline_rerun_on_header_only_panel(tmp_path):
    """argv of a ``baseline`` rerun into its own run directory, whose
    panel.csv has lost every row but its header."""
    args = ["baseline", "--agents", "2", "--episodes", "20", "--out", str(tmp_path)]
    assert main(args) == 0
    panel = tmp_path / "rand-n2-A-ilf-seed0" / "panel.csv"
    panel.write_text(panel.read_text().splitlines(keepends=True)[0])
    return args


def _metrics_on_deeply_nested_log(tmp_path):
    """argv of ``metrics`` on a one-line log whose arrivals open 100,000
    brackets, deeper than the JSON parser's recursion limit."""
    log = tmp_path / "log.jsonl"
    log.write_text('{"episode":0,"arrivals":' + "[" * 100_000 + "\n")
    return ["metrics", "--log", str(log), "--agents", "2"]


def _metrics_on_a_5000_digit_step_count(tmp_path):
    """argv of ``metrics`` on a one-line log whose steps have 5,000 digits,
    more than Python parses as one integer."""
    log = tmp_path / "log.jsonl"
    log.write_text('{"episode":0,"arrivals":[0],"exclusive_winner":0,"rewards":[100.0,0.0],'
                   f'"steps":{"1" * 5000},"capped":false}}\n')
    return ["metrics", "--log", str(log), "--agents", "2"]


def _baseline_rerun_on_snapshot(content: bytes):
    """argv of a ``baseline`` rerun into its own run directory, whose
    spec.snapshot has been replaced by ``content``."""

    def argv(tmp_path):
        args = ["baseline", "--agents", "2", "--episodes", "20", "--out", str(tmp_path)]
        assert main(args) == 0
        snapshot = tmp_path / "rand-n2-A-ilf-seed0" / "spec.snapshot"
        snapshot.write_bytes(content(snapshot.read_bytes()))
        return args

    return argv


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["metrics", "--log", str(tmp / "missing.jsonl"), "--agents", "2"],
        lambda tmp: ["report", "--sweep-dir", str(tmp)],
        _report_with_edited_row(lambda c, h: ["abc" if x == "calt" else v for v, x in zip(c, h)]),
        _report_with_edited_row(lambda c, h: c[:-1]),
        _report_with_edited_row(lambda c, h: [*c, "1"]),
        _report_on_summary(""),
        _report_on_summary(",".join("CALT" if c == "calt" else c for c in SUMMARY_COLUMNS) + "\n"),
        _baseline_rerun_on_header_only_panel,
        _metrics_on_deeply_nested_log,
        _metrics_on_a_5000_digit_step_count,
        _baseline_rerun_on_snapshot(lambda text: text.replace(b'"seed": 0', b'"seed": ' + b"1" * 5000)),
        _baseline_rerun_on_snapshot(lambda text: b"\xff" + text),
    ],
    ids=[
        "metrics-missing-log",
        "report-missing-summary",
        "report-bad-number-cell",
        "report-truncated-row",
        "report-extra-cell",
        "report-empty-summary",
        "report-renamed-header-cell",
        "baseline-rerun-no-full-row",
        "metrics-deeply-nested-line",
        "metrics-5000-digit-steps",
        "baseline-rerun-5000-digit-seed",
        "baseline-rerun-snapshot-not-utf-8",
    ],
)
def test_unreadable_input_exits_3(tmp_path, capsys, argv):
    args = argv(tmp_path)
    capsys.readouterr()
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # One line that names the input, and no traceback.
    assert err.count("\n") == 1 and str(tmp_path) in err and "Traceback" not in err


@pytest.mark.parametrize("steps", [2**31 - 1, 2**31])
def test_metrics_reads_steps_up_to_the_int32_column(tmp_path, capsys, steps):
    # 2**31 - 1 has ten digits, so its line is read line by line, not as a block.
    log = tmp_path / "log.jsonl"
    log.write_text("".join(
        f'{{"episode":{e},"arrivals":[{e}],"exclusive_winner":{e},"rewards":{rewards},'
        f'"steps":{k},"capped":false}}\n'
        for e, (rewards, k) in enumerate([("[100.0,0.0]", 2), ("[0.0,100.0]", steps)])
    ))
    code = main(["metrics", "--log", str(log), "--agents", "2"])
    err = capsys.readouterr().err
    if steps < 2**31:
        assert code == 0 and err == ""
        assert read_episode_log(log).steps.tolist() == [2, steps]
    else:
        assert code == 3
        assert err == f"error: {log}: line 2: steps {steps} do not fit the int32 steps column\n"


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
    printed = capsys.readouterr().out
    assert "greedy_eval_calt" in printed
    argv = ["simulate", "--agents", "2", "--episodes", "50", "--seed", "3", "--out", str(out)]
    # a second run of the same spec without --overwrite returns the stored run
    assert main(argv) == 0
    assert capsys.readouterr().out == printed
    # another spec under the same run id collides
    assert main([*argv, "--episodes", "60"]) == 2


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


# sha256 of every artifact of the tiny sweep and its report.  summary.csv is
# hashed without its trailing generated_at column, the only cell that varies.
GOLDEN_ARTIFACTS = {
    "runs/ql-n2-A-ilf-s0/curve.csv":
        "fbf98f4507107ba8552bad331aaf77ca4b8605128a6a1cb79955b3ce62214a85",
    "runs/ql-n2-A-ilf-s0/log.jsonl":
        "1944c6d2d598bcb72e2baa5c13846d6530995b9f45bca2c8241878593dd26e37",
    "runs/ql-n2-A-ilf-s0/panel.csv":
        "6477fe62e4886b223535eddcba420f7dde71f65c79fc86efe09145f280fa4c93",
    "runs/ql-n2-A-ilf-s0/spec.snapshot":
        "492db997265cee39fe0190bb31ec77fc2a7c628f1fc00ef64c88eb3ccc155e29",
    "runs/ql-n2-A-iqf-s0/curve.csv":
        "4f12ba73ac8e9de39723e3213b1a3a85e82f7b8a78c9da4cd5b3cd25ede74478",
    "runs/ql-n2-A-iqf-s0/log.jsonl":
        "d80ef4535e3e3cb6abc3331d85dce68202218ce2d8ed739294a160e3d663d328",
    "runs/ql-n2-A-iqf-s0/panel.csv":
        "46dce5dafba4b06680c113ec36965de2f58ef3725385999de4901f7cdfc4f03f",
    "runs/ql-n2-A-iqf-s0/spec.snapshot":
        "41d7869c973c1f3b8b5dd023a0a1566d73664df07dba445808303f0a8cf88aec",
    "runs/ql-n2-B-ilf-s0/curve.csv":
        "74ff718c89a4bd490cec8dd6455bed09104e1f792f0a2991aa3d3a4d1cd73cde",
    "runs/ql-n2-B-ilf-s0/log.jsonl":
        "b7d8b349441337eb675920116c527383ada3b89628a9aa3dfd7af17950cae2ce",
    "runs/ql-n2-B-ilf-s0/panel.csv":
        "ebfdeb7b445c113616828673d1e394a674efafd677547eaa90cd392eabe082b8",
    "runs/ql-n2-B-ilf-s0/spec.snapshot":
        "c048839cf086eaa44af644c500f5b01756d9413b0320880619ffe17e8267b183",
    "runs/ql-n2-B-iqf-s0/curve.csv":
        "b9e75f93f789e61195c88c0eaca4e53f1b2eb1c88a662d4b02d2474c8ae11f37",
    "runs/ql-n2-B-iqf-s0/log.jsonl":
        "57c5489eb1d341942b2383fa4623d8800a09f92bbdffbd215e8a9f415846a19c",
    "runs/ql-n2-B-iqf-s0/panel.csv":
        "1b9523afd91b533a15d85d30e119ca9d7f51c7c13682f322e5ad9f42dbe21674",
    "runs/ql-n2-B-iqf-s0/spec.snapshot":
        "a0f3575bc410c45d171f6637f5cb017edbae1961ecc0352dee5ed70677617bd3",
    "runs/rand-n2-A-ilf/log.jsonl":
        "a5902da6d9988771fa19eb857af5f2362c9fcac68644078afb1542268e9e07bc",
    "runs/rand-n2-A-ilf/panel.csv":
        "17960818bf87326e8303b8f38a69bed2ed8df9b580d3e72e16a206adb4bb990b",
    "runs/rand-n2-A-ilf/spec.snapshot":
        "40bed931436ad3a465dbcbb7310eea35b5bdccb11d3a4caf88cdde97c7c613c3",
    "runs/rand-n2-A-iqf/log.jsonl":
        "a5902da6d9988771fa19eb857af5f2362c9fcac68644078afb1542268e9e07bc",
    "runs/rand-n2-A-iqf/panel.csv":
        "17960818bf87326e8303b8f38a69bed2ed8df9b580d3e72e16a206adb4bb990b",
    "runs/rand-n2-A-iqf/spec.snapshot":
        "91ccc6d5c918c7ca66e5577f67700e21c762fbf4830c3ec4d6af340a2a7e200b",
    "runs/rand-n2-B-ilf/log.jsonl":
        "aa0eba49665435052326caea80e0a89826473678972122da5acfa0a3e99a7c8e",
    "runs/rand-n2-B-ilf/panel.csv":
        "9ba60ed27fd8d0b6e577643c3863764056b107ab829b6c3714a655f914fff3c7",
    "runs/rand-n2-B-ilf/spec.snapshot":
        "c2a09463591f2da7ef18a718b229ec94b6915dba3784e16461ece09583b479a3",
    "runs/rand-n2-B-iqf/log.jsonl":
        "aa0eba49665435052326caea80e0a89826473678972122da5acfa0a3e99a7c8e",
    "runs/rand-n2-B-iqf/panel.csv":
        "9ba60ed27fd8d0b6e577643c3863764056b107ab829b6c3714a655f914fff3c7",
    "runs/rand-n2-B-iqf/spec.snapshot":
        "82968df1ed3c7b53e49cedd7a933304ae1b00c0066f089b999b715addc3808ef",
    "summary.csv":
        "24813a532f2071be5eac855e3500cbb3cb91dd31ac2b97aa378bac37194714c0",
    "report/fig1.csv":
        "e31cc5a4952d00588242c82182f647a07c0f75020ebe60c886583608aeb1b21b",
    "report/fig2.csv":
        "3a65e26f766ca0a7b61865076283fce3628835c0dfb60d7d3b7b4ae6f0109697",
    "report/fig3.csv":
        "aacdb4fea46264dfd3c6e1dc082450a3fb549625968b867dee30f95a210a2006",
    "report/fig5.csv":
        "fbf98f4507107ba8552bad331aaf77ca4b8605128a6a1cb79955b3ce62214a85",
    "report/table2.csv":
        "f8704d6b96fa663b82cddfccab4e0dadc1fcce65281f40df8ff6f715fc66ff5c",
    "report/table3.csv":
        "0c50a48b706b74668b5a7024ccf7ada9ffde28137c05e4eff47d4d413deb786c",
    "report/table5.csv":
        "c0a0184a0f35ffd986cb5bc6f06a602cf1e1c52b78b983e544a7f4cedb5e5832",
}


def test_sweep_and_report_artifacts_are_byte_stable(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(_tiny_sweep_args(out)) == 0
    assert main(["report", "--sweep-dir", str(out)]) == 0
    capsys.readouterr()
    got = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in [*(out / "runs").glob("*/*"), *(out / "report").iterdir()]
    }
    lines = (out / "summary.csv").read_text().splitlines()
    trimmed = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    got["summary.csv"] = hashlib.sha256(trimmed.encode()).hexdigest()
    assert sorted(got) == sorted(GOLDEN_ARTIFACTS)
    assert [name for name in sorted(got) if got[name] != GOLDEN_ARTIFACTS[name]] == []


# sha256 of the artifacts of ten Q-learners on Type B states, the largest n a
# sweep trains; panel.csv holds the greedy_eval row.
GOLDEN_N10_B = {
    "log.jsonl": "111e44a4c4795853a181b810e23fbe69bddf688c42306f12b4184882e06440bb",
    "panel.csv": "3f0fb984a0cf3bf3f54acebdb6ff57defee2c8d6296c02522711abebadbfb790",
    "curve.csv": "752ce1458855352ab73c14610d73cc401e0273accee2f8b5cf0a565276621371",
}


def test_ten_agent_type_b_run_is_byte_stable(tmp_path, capsys):
    argv = ["simulate", "--agents", "10", "--state-type", "B", "--episodes", "3000",
            "--seed", "1", "--out", str(tmp_path), "--run-id", "golden"]
    assert main(argv) == 0
    capsys.readouterr()
    run_dir = tmp_path / "golden"
    got = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in GOLDEN_N10_B}
    assert got == GOLDEN_N10_B


REPORT_FILES = ("table2.csv", "table3.csv", "table5.csv", "fig1.csv", "fig2.csv", "fig3.csv",
                "fig5.csv")


def _keep(test):
    return lambda rows: [row for row in rows if test(row)]


# Cut or edited copies of one summary.csv of ``sweep --agents 2,3 --seeds 2``,
# chosen so that every status of table3 and table5 and a header-only fig5
# occur: (edit of the rows, table3's status cells, table5's status cells).
UNEVEN_SUMMARIES = {
    "full-grid": (lambda rows: rows, [""] * 8, [""] * 4),
    "no-trained-n3": (
        _keep(lambda r: (r["n"], r["policy"]) != ("3", "qlearning")),
        [""] * 4 + ["missing_run"] * 4,
        [""] * 2,
    ),
    "no-baseline-n3": (
        _keep(lambda r: (r["n"], r["policy"]) != ("3", "random")),
        [""] * 4 + ["missing_baseline"] * 4,
        [""] * 4,
    ),
    "type-a-only": (_keep(lambda r: r["state_type"] == "A"), [""] * 8, ["no_type_b"] * 4),
    "trained-b-iqf-only": (
        _keep(lambda r: (r["policy"], r["state_type"], r["reward_scheme"]) == ("qlearning", "B", "iqf")),
        ["missing_baseline"] * 8,
        [""] * 2,
    ),
    "random-aalt-zero": (
        lambda rows: [{**r, "aalt": "0.0"} if r["policy"] == "random" else r for r in rows],
        ["", "", "degenerate_baseline", ""] * 2,
        [""] * 4,
    ),
    "single-row": (lambda rows: rows[:1], ["missing_run"] * 4, []),
}

# sha256 of each report file of each summary in UNEVEN_SUMMARIES.
UNEVEN_REPORTS = {
    "full-grid": {
        "table2.csv": "e34ec7340225e737a537e7e87fcf773b7edfb460d0a82eb6ba4c99c290fdd872",
        "table3.csv": "2766f6291fa4153ed1dc65739b96214769c5a9e2cc6eaed50b773595add68a6f",
        "table5.csv": "6380b981576952f8b2217f7b5d2329d90a8da85ef51900a7c67ab25210b5f766",
        "fig1.csv": "0c31480baffee9914b97598c930bb58703b5a7ff7504b9d0cf319618d119ebb7",
        "fig2.csv": "ba2ac22b830aa40d89e51af06d1b29d1d6f96c1251d24a7179532a8faff945fa",
        "fig3.csv": "e09ee5a898dbccf3de7d2fdf1bec04efe35e72a41764ac947e2f662d736f81b4",
        "fig5.csv": "57e7e7bfce251042b5dc9c2b9a3100e79c3bf2bbc2ff2d26c7c09049e3789c5c",
    },
    "no-baseline-n3": {
        "table2.csv": "fd6d3407a5cd562eeddcd673e1e05435f1b08be29a1d851964fbe889d3f708d6",
        "table3.csv": "39182ee99ac5d0374389fe6197f3dcbba0f464ac3f6fa2096f3cf8b934c84888",
        "table5.csv": "6380b981576952f8b2217f7b5d2329d90a8da85ef51900a7c67ab25210b5f766",
        "fig1.csv": "38db4a2079bde31a8f6eb674c8bcb34dac9bc6e0bcbc8c9ccc18a95fbe4a390a",
        "fig2.csv": "effb9e1f83bb93f193278e11465803e637b634f6a414a513d40e3af4f0eac46a",
        "fig3.csv": "a8bb06c5317bf3df3ce9fa4b544cdf83a545a7a507fffc3d31bcd2865b8e7a4d",
        "fig5.csv": "57e7e7bfce251042b5dc9c2b9a3100e79c3bf2bbc2ff2d26c7c09049e3789c5c",
    },
    "no-trained-n3": {
        "table2.csv": "e34ec7340225e737a537e7e87fcf773b7edfb460d0a82eb6ba4c99c290fdd872",
        "table3.csv": "4d78c785e8698348e520fadb9f176e79ac709d9f4c72e5b8c893e56cae31ee69",
        "table5.csv": "57d3f00b030e523ddc88706e1e63fa3eb0bc913f8c0da96bedb87a946726b569",
        "fig1.csv": "70a62195603b613a403f1bbdde54a62c46b66984a66cda9434c5be663216f51d",
        "fig2.csv": "6f749e9a04ea5955073687157ff225c32a65eb5b8875a275a13c3d24ad70b611",
        "fig3.csv": "47d50cfabd74280d17adcc3147f908e865cead1a52b08fc381f7fae75c57a6e9",
        "fig5.csv": "57e7e7bfce251042b5dc9c2b9a3100e79c3bf2bbc2ff2d26c7c09049e3789c5c",
    },
    "random-aalt-zero": {
        "table2.csv": "e34ec7340225e737a537e7e87fcf773b7edfb460d0a82eb6ba4c99c290fdd872",
        "table3.csv": "708495fa408c32f6e2b5a50446db0ef3da69880a4cbcff93164708c7f0e7b094",
        "table5.csv": "6380b981576952f8b2217f7b5d2329d90a8da85ef51900a7c67ab25210b5f766",
        "fig1.csv": "0c31480baffee9914b97598c930bb58703b5a7ff7504b9d0cf319618d119ebb7",
        "fig2.csv": "ba2ac22b830aa40d89e51af06d1b29d1d6f96c1251d24a7179532a8faff945fa",
        "fig3.csv": "e09ee5a898dbccf3de7d2fdf1bec04efe35e72a41764ac947e2f662d736f81b4",
        "fig5.csv": "57e7e7bfce251042b5dc9c2b9a3100e79c3bf2bbc2ff2d26c7c09049e3789c5c",
    },
    "single-row": {
        "table2.csv": "4a9e4c92b0ead6f4165e5b7cc7c60d9de0b36bcaf9abb2cdfbe9463646ff9514",
        "table3.csv": "174966284602eebb75ff25ab55ebb514bcded5fdb574f55e188ad4eb1eb335f8",
        "table5.csv": "5cbb6ab3d58b1ea5fe1c8a8b48e8026f02c51ec5498319c7ac44764453c4e6ef",
        "fig1.csv": "81a039bc408538c580321ea29f629ab5d951387afa0add9ee1243e913cc884d5",
        "fig2.csv": "1a73c57e5c0558c6d6ce8936e850bda66a51321cd09b877f9bba3c1f55fca9a7",
        "fig3.csv": "654c74b3f19a73e7012437a839b0ee5866a8408fc15be1d5b6f9ba682b8a9727",
        "fig5.csv": "2fdc7d0ab4ce1d24a0b90e7a858b16f019e7f23599c75e2704a6f2f0822b70df",
    },
    "trained-b-iqf-only": {
        "table2.csv": "e7dc663e0a6ecad143ab2e29d072d1fc48b82eda0b08617f853dee30876c9ac3",
        "table3.csv": "813862d0959098e28227b892d29f6c8728b0ca9b93d42c644901e2d19d9aab9e",
        "table5.csv": "cca5e3785697e98958a62ebb2d669c0ee2e9e90b8e603a372da56b29d715fe1d",
        "fig1.csv": "60b49441b3e92f87e44e9d6fc9f34f19b11f22c0030747e8a119f0c582bbcf95",
        "fig2.csv": "fa8e543ad5ceadad6332b5866e4a8fb0c832bb2d417d8e7d546a815cb2ea3b2d",
        "fig3.csv": "7b58aaceba0665ca7bdd3bc2583abef18a22f752bb3fd4d0baf50190dc2cfdbe",
        "fig5.csv": "894cf312154a3f0b28515b818a09a9323d071462133afad513baa49c5fc404cf",
    },
    "type-a-only": {
        "table2.csv": "a8e7ced6df9a589eef4670033124076df357305d1a6f8033aec2402940dd09a3",
        "table3.csv": "40c8b7dedac05f1dd1059ecb0777c9a1b72a0bfddbdf24d22eda67c52e44965f",
        "table5.csv": "596aca4161d71d72c1fee14a7a68e99d7285e840e78bb9502628bdb9be7adcdb",
        "fig1.csv": "8b67109a90d1c143f0987eec84a5acb4f7bb9244ac8b19b4334a2459ba05543e",
        "fig2.csv": "7b449e0f6caac55a8284b35a82fcc534c1bc77e402db6135d10cae3e08621a6e",
        "fig3.csv": "d5cd91408e4f578bca540d092b1ff688790d98ea67dd51ff6f0af443c2db35cc",
        "fig5.csv": "57e7e7bfce251042b5dc9c2b9a3100e79c3bf2bbc2ff2d26c7c09049e3789c5c",
    },
}


@pytest.fixture(scope="module")
def uneven_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("uneven") / "sweep"
    argv = ["sweep", "--agents", "2,3", "--seeds", "2", "--base", "30", "--baseline-episodes",
            "150", "--out", str(out)]
    assert main(argv) == 0
    return out


@pytest.mark.parametrize("case", sorted(UNEVEN_SUMMARIES))
def test_report_on_uneven_summaries(uneven_sweep, tmp_path, capsys, case):
    edit, table3_status, table5_status = UNEVEN_SUMMARIES[case]
    sweep = tmp_path / "sweep"
    shutil.copytree(uneven_sweep / "runs", sweep / "runs", ignore=shutil.ignore_patterns("*.jsonl"))
    rows = edit(read_summary(uneven_sweep / "summary.csv"))
    write_table(sweep / "summary.csv", SUMMARY_COLUMNS, ([r[c] for c in SUMMARY_COLUMNS] for r in rows))
    capsys.readouterr()
    assert main(["report", "--sweep-dir", str(sweep)]) == 0
    report = sweep / "report"
    gap = "gap: no training run with a curve, fig5.csv is header-only\n"
    wrote = [f"wrote {report / name}\n" for name in REPORT_FILES]
    if not any(r["policy"] == "qlearning" for r in rows):
        wrote.insert(-1, gap)
    assert capsys.readouterr().out == "".join(wrote)

    def status(name):
        with open(report / name, encoding="utf-8", newline="") as fh:
            return [row["status"] for row in csv.DictReader(fh)]

    assert status("table3.csv") == table3_status
    assert status("table5.csv") == table5_status
    got = {name: hashlib.sha256((report / name).read_bytes()).hexdigest() for name in REPORT_FILES}
    assert got == UNEVEN_REPORTS[case]


def test_sweep_partial_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(_tiny_sweep_args(out)) == 0
    # rerunning the grid at another training budget collides on the
    # training directories
    assert main([*_tiny_sweep_args(out), "--base", "31"]) == 4
    err = capsys.readouterr().err
    assert "failed" in err


def test_a_run_of_an_older_schema_is_kept_until_overwrite(tmp_path, capsys):
    out = tmp_path / "sweep"
    run_dir = out / "runs" / "rand-n2-A-ilf"
    argv = ["baseline", "--agents", "2", "--episodes", "30", "--run-id", run_dir.name,
            "--out", str(run_dir.parent)]
    assert main(argv) == 0
    snapshot = run_dir / "spec.snapshot"
    snapshot.write_text(snapshot.read_text().replace('"altlab-run@1"', '"altlab-run@0"'))

    def files():
        return {p.name: p.read_bytes() for p in run_dir.iterdir()}

    before = files()
    capsys.readouterr()
    assert main(argv) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(snapshot) in line
    assert "'altlab-run@0'" in line and "'altlab-run@1'" in line and "overwrite" in line
    assert files() == before
    sweep = ["sweep", "--agents", "2", "--state-types", "A", "--rewards", "ilf", "--base", "5",
             "--baseline-episodes", "30", "--out", str(out)]
    assert main(sweep) == 4
    assert f"== {run_dir.name} ==" in (out / "failures.txt").read_text()
    assert files() == before
    assert main([*argv, "--overwrite"]) == 0
    assert '"altlab-run@1"' in snapshot.read_text()
    capsys.readouterr()


def test_sweep_completes_when_a_baseline_scores_zero(tmp_path, capsys):
    # The baseline's aalt is 0, a reference no relative change can use;
    # summary.csv compares calt only.
    out = tmp_path / "sweep"
    argv = ["sweep", "--agents", "10", "--state-types", "A", "--rewards", "ilf", "--base", "1",
            "--baseline-episodes", "10", "--seed-root", "6", "--out", str(out)]
    assert main(argv) == 0
    rows = read_summary(out / "summary.csv")
    assert [row["policy"] for row in rows] == ["random", "qlearning"]
    assert rows[0]["aalt"] == "0.0" and rows[1]["calt_rel_change_pct"] != ""
    capsys.readouterr()


def test_analyze_compare_and_fit(tmp_path, capsys):
    cases = [
        (["--variant", "calt", "--observed", "0.322", "--random", "0.486", "--agents", "2"],
         "relative_change_pct: -33.74485596707819\n"
         "coordination_score_pct: -31.906614785992215\n"
         "alt_ratio: 0.5674504381988792\n"
         "pa_equiv_agents: 1.1349008763977584\n"
         "pct_of_perfect: 56.74504381988792\n"),
        (["--variant", "falt", "--observed", "0.4", "--random", "0.3", "--agents", "5"],
         "relative_change_pct: 33.33333333333335\n"
         "coordination_score_pct: 14.28571428571429\n"
         "alt_ratio: 0.4\n"
         "pa_equiv_agents: 2.0\n"
         "pct_of_perfect: 40.0\n"),
        # every x <= n / 2 scores aalt 0: no ratio, so no agent equivalent
        (["--variant", "aalt", "--observed", "0.0", "--random", "0.1", "--agents", "5"],
         "relative_change_pct: -100.0\n"
         "coordination_score_pct: -11.111111111111112\n"
         "alt_ratio: undefined\n"),
    ]
    for flags, printed in cases:
        assert main(["analyze", *flags]) == 0
        assert capsys.readouterr().out == printed

    assert main(["analyze", "--observed", "0.5", "--random", "0.0"]) == 3
    for observed, reference in (("inf", "0.2"), ("nan", "0.2"), ("0.5", "inf"), ("0.5", "nan")):
        assert main(["analyze", "--observed", observed, "--random", reference]) == 3
    assert main(["analyze"]) == 2

    saved = tmp_path / "fit.json"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--fit", "calt", "--save", str(saved)])
    assert exc.value.code == 2
    assert not saved.exists()
