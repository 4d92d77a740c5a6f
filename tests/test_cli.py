import inspect
from dataclasses import fields

import numpy as np
import pytest

from gfsig import cli
from gfsig.cli import VERIFY_GRID, VERIFY_GRID_QUICK, main
from gfsig.experiments import GEN_TRIALS, ExperimentConfig, gen_random_family
from gfsig.seqgen import DETERMINISTIC_FAMILIES

PR_SEED_TEXT = "0,0,2,16,4,1,18,19,6,10,3,9,20,14,21,17,8,7,12,15,5,13,11"


def test_gen_pr_prints_published_seed(capsys):
    assert main(["gen", "--family", "pr", "--L", "23", "--H", "22"]) == 0
    out = capsys.readouterr().out
    assert "B=483" in out and "N_s=11109" in out
    assert "seed: " + PR_SEED_TEXT in out


def test_gen_trace_set_size(capsys):
    assert main(["gen", "--family", "trace", "--p", "5", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "B=600" in out and "N_s=14400" in out


def test_gen_rejects_composite_length(capsys):
    assert main(["gen", "--family", "cubic", "--L", "4"]) == 1
    assert "odd prime" in capsys.readouterr().err


def test_gen_capacity_and_outputs(tmp_path, capsys):
    seed_file = tmp_path / "seed.txt"
    mat_file = tmp_path / "mat.csv"
    rc = main(["gen", "--family", "pr", "--L", "11", "--H", "10", "--Q", "4",
               "--Nd", "20", "--out", str(seed_file), "--matrix-csv", str(mat_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "capacity(Q=4)=272" in out  # floor(1089 / 4)
    assert seed_file.exists() and mat_file.exists()
    assert np.loadtxt(mat_file, delimiter=",", comments="#").view(complex).shape == (11, 80)


def test_gen_nd_needs_matrix_csv(capsys):
    assert main(["gen", "--family", "pr", "--L", "11", "--Nd", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --Nd needs --matrix-csv\n"
    assert "Traceback" not in captured.err + captured.out


def test_verify_quick_passes(capsys):
    assert main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 8  # 4 families x 2 regimes


def test_verify_single_family_with_report(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    assert main(["verify", "--quick", "--family", "cubic", "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("family,L,H,N_d,Q,mu,welch,bound,regime")
    assert len(lines) == 3


def test_simulate_round_trip(tmp_path, capsys):
    out_csv = tmp_path / "res.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "family = cubic\nL = 7\nN_d = 30\nQ = 2\nK = 3\nM = 4\n"
        f"trials = 3\nsweeps = 3\nbase_seed = 2\noutput = {out_csv}\n"
    )
    assert main(["simulate", str(cfg)]) == 0
    text1 = out_csv.read_text()
    assert main(["simulate", str(cfg)]) == 0
    text2 = out_csv.read_text()

    def strip_seconds(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    # identical apart from the wall-time column
    assert strip_seconds(text1) == strip_seconds(text2)
    header = text1.splitlines()[0]
    assert header == "family,L,H,N_d,Q,K,M,detector,trials,p_e,p_e_stderr,seconds"


@pytest.mark.parametrize("value", ["0", "-2"])
def test_simulate_rejects_workers_below_one(tmp_path, capsys, monkeypatch, value):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("family = cubic\nL = 7\nN_d = 30\nQ = 2\nK = 3\nM = 4\ntrials = 2\n"
                   f"output = {tmp_path / 'res.csv'}\n")
    monkeypatch.setenv("GFSIG_WORKERS", value)
    assert main(["simulate", str(cfg)]) == 1
    assert f"GFSIG_WORKERS must be >= 1, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "res.csv").exists()


def test_simulate_checks_output_before_the_first_trial(tmp_path, capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise ValueError("interrupted run")

    monkeypatch.setattr(cli, "run_experiment", interrupted)
    cfg = tmp_path / "exp.cfg"
    text = "family = cubic\nL = 7\nN_d = 30\nQ = 2\nK = 3\nM = 4\ntrials = 2\n"
    cfg.write_text(text + f"output = {tmp_path / 'missing' / 'res.csv'}\n")
    assert main(["simulate", str(cfg)]) == 1
    assert "No such file or directory" in capsys.readouterr().err
    # an existing results file keeps its rows until the run ends
    (tmp_path / "res.csv").write_text("old rows\n")
    cfg.write_text(text + f"output = {tmp_path / 'res.csv'}\n")
    assert main(["simulate", str(cfg)]) == 1
    assert "interrupted run" in capsys.readouterr().err
    assert (tmp_path / "res.csv").read_text() == "old rows\n"


def test_simulate_rejects_zero_trials(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("family = cubic\nL = 7\nN_d = 30\nQ = 2\nK = 3\nM = 4\ntrials = 0\n")
    assert main(["simulate", str(cfg)]) == 1
    assert "trials" in capsys.readouterr().err


def test_simulate_worker_env_invariance(tmp_path, monkeypatch):
    out_csv = tmp_path / "res.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "family = cubic\nL = 7\nN_d = 30\nQ = 2\nK = 3\nM = 4\n"
        f"trials = 4\nsweeps = 3\nbase_seed = 2\noutput = {out_csv}\n"
    )
    main(["simulate", str(cfg)])
    seq = out_csv.read_text().splitlines()[1].rsplit(",", 1)[0]
    monkeypatch.setenv("GFSIG_WORKERS", "2")
    main(["simulate", str(cfg)])
    par = out_csv.read_text().splitlines()[1].rsplit(",", 1)[0]
    assert seq == par


def test_a1_reports_ratio(capsys):
    rc = main(["a1", "--family", "cubic", "--L", "11", "--Nd", "121", "--Q", "2",
               "--samples", "200"])
    assert rc == 0
    out = capsys.readouterr().out
    ratio = float(out.split("sign ratio ")[1].split()[0])
    assert abs(ratio - 0.5) < 0.05


def test_a1_full_rank_notice(capsys):
    # 16 columns in a 4-dim space: the lifted matrix has full column rank
    rc = main(["a1", "--family", "gaussian", "--L", "4", "--Nd", "8", "--Q", "1"])
    assert rc == 0
    assert "empty null space" in capsys.readouterr().out


def test_random_family_with_one_column(tmp_path, capsys):
    # N_d Q = 1: no column pair to rank, yet the run goes through as a deterministic family's does
    out_csv = tmp_path / "res.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("family = qpsk\nL = 7\nN_d = 1\nQ = 1\nK = 0, 1\nM = 4\ntrials = 2\n"
                   f"output = {out_csv}\n")
    assert main(["simulate", str(cfg)]) == 0
    assert [line.split(",")[:7] for line in out_csv.read_text().splitlines()[1:]] == [
        ["qpsk", "7", "", "1", "1", str(k), "4"] for k in (0, 1)]
    assert main(["a1", "--family", "qpsk", "--L", "7", "--Nd", "1"]) == 0
    assert "empty null space" in capsys.readouterr().out


@pytest.mark.parametrize("argv,msg", [
    (["gen", "--family", "cubic"], "family 'cubic' needs L"),
    (["gen", "--family", "sidelnikov", "--p", "3"], "family 'sidelnikov' needs m"),
    (["gen", "--family", "cubic", "--L", "7", "--H", "5"], "family 'cubic' takes no H"),
    (["gen", "--family", "cubic", "--L", "7", "--H", "5", "--p", "3"], "family 'cubic' takes no p"),
    (["gen", "--family", "trace", "--p", "3", "--m", "2", "--H", "2"], "family 'trace' takes no H"),
    (["a1", "--family", "qpsk", "--Nd", "10"], "family 'qpsk' needs L"),
    (["a1", "--family", "qpsk", "--L", "7", "--H", "3", "--Nd", "10"], "family 'qpsk' takes no H"),
    (["a1", "--family", "pr", "--L", "7", "--m", "1", "--Nd", "10"], "family 'pr' takes no m"),
    (["a1", "--family", "cubic", "--L", "7", "--Nd", "10", "--gen-trials", "3"],
     "family 'cubic' takes no gen_trials"),
], ids=["gen-cubic-noL", "gen-sidelnikov-nom", "gen-cubic-H", "gen-cubic-H-p", "gen-trace-H",
        "a1-qpsk-noL", "a1-qpsk-H", "a1-pr-m", "a1-cubic-gen-trials"])
def test_family_flags_checked_against_the_family_table(capsys, argv, msg):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {msg}\n"
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("argv,msg", [
    (["gen", "--family", "pr", "--L", "11", "--Q", "0"], "--Q must be >= 1, got 0"),
    (["gen", "--family", "pr", "--L", "11", "--Nd", "0"], "--Nd must be >= 1, got 0"),
    (["a1", "--family", "qpsk", "--L", "7", "--Nd", "10", "--Q", "0"], "--Q must be >= 1, got 0"),
    (["a1", "--family", "cubic", "--L", "7", "--Nd", "-3"], "--Nd must be >= 1, got -3"),
    (["a1", "--family", "qpsk", "--L", "7", "--Nd", "10", "--gen-trials", "0"],
     "--gen-trials must be >= 1, got 0"),
    (["a1", "--family", "cubic", "--L", "7", "--Nd", "49", "--Q", "2", "--samples", "0"],
     "--samples must be >= 1, got 0"),
    (["bench", "--L", "7", "--N", "20", "--trials", "0"], "--trials must be >= 1, got 0"),
], ids=["gen-Q", "gen-Nd", "a1-Q", "a1-Nd", "a1-gen-trials", "a1-samples", "bench-trials"])
def test_counts_below_one_rejected(capsys, argv, msg):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {msg}\n"
    assert "Traceback" not in captured.err + captured.out


def test_one_best_of_trials_default(capsys):
    parser = cli.build_parser()
    assert parser.parse_args(["bench", "--L", "7", "--N", "20"]).trials == GEN_TRIALS
    assert {f.name: f.default for f in fields(ExperimentConfig)}["gen_trials"] == GEN_TRIALS
    assert inspect.signature(gen_random_family).parameters["trials"].default == GEN_TRIALS
    # a1 leaves --gen-trials unset, so a deterministic family can reject it, and a
    # random family without it draws GEN_TRIALS candidates
    argv = ["a1", "--family", "gaussian", "--L", "4", "--Nd", "40", "--samples", "50"]
    assert parser.parse_args(argv).gen_trials is None
    outs = []
    for extra in ([], ["--gen-trials", str(GEN_TRIALS)]):
        assert main(argv + extra) == 0
        outs.append(capsys.readouterr().out)
    assert "sign ratio" in outs[0] and outs[0] == outs[1]


def test_verify_grids_cover_every_family():
    # `verify --family` filters a grid and relies on finding the family in it
    assert {f for f, _ in VERIFY_GRID} == {f for f, _ in VERIFY_GRID_QUICK} == set(
        DETERMINISTIC_FAMILIES)


def test_bench_reports_all_kinds(capsys):
    assert main(["bench", "--L", "11", "--N", "64", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    for kind in ("gaussian", "musa", "qpsk"):
        assert f"{kind}: coherence" in out
    assert "welch=" in out


def test_bench_rejects_unknown_kind(capsys):
    assert main(["bench", "--L", "11", "--N", "64", "--kinds", "zc"]) == 1
