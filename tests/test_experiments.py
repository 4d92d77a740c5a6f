import inspect
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gfsig.detectors import amp_decide, cdml_decide, cdml_estimate, mmv_amp_estimate
from gfsig.experiments import (CSV_HEADER, ExperimentConfig, build_masks,
                               build_signatures, draw_trial, parse_config,
                               run_experiment, run_trial, validate_config, write_results)

TINY = ExperimentConfig(
    family="cubic", L=7, n_devices=30, q_per_device=2,
    k_grid=(3,), m_grid=(4, 8), trials=4, sweeps=4, base_seed=5,
    output="out.csv",
)


def test_config_round_trip():
    # every key TINY's family and detector read, in key order: its canonical text
    text = ("family = cubic\nL = 7\nN_d = 30\nQ = 2\nK = 3\nM = 4,8\nsigma_w2 = 0.1\n"
            "detector = cdml\nsweeps = 4\nxi_th = 0.25\ntrials = 4\nbase_seed = 5\n"
            "output = out.csv\n")
    assert parse_config(text) == TINY


def test_config_parsing_features():
    cfg = parse_config(
        """
        # comment line
        family = pr
        L = 11
        H = 10
        N_d = 50
        Q = 2
        K = 4, 8
        M = 16
        trials = 3   # trailing comment
        """
    )
    assert cfg.family == "pr" and cfg.H == 10
    assert cfg.k_grid == (4, 8) and cfg.m_grid == (16,)


@pytest.mark.parametrize("text,msg", [
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 0",
     r"^line 7: trials = 0 must lie in \[1, 4294967296\]$"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 4294967297",
     r"^line 7: trials = 4294967297 must lie in \[1, 4294967296\]$"),
    ("family = cubic\nL = 7\nN_d = 0\nQ = 2\nK = 0\nM = 4\ntrials = 2",
     r"^line 3: N_d = 0 must lie in \[1, inf\)$"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 0\nK = 2\nM = 4\ntrials = 2",
     r"^line 4: Q = 0 must lie in \[1, inf\)$"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4, 0\ntrials = 2",
     r"^line 6: M = 0 must lie in \[1, 4294967296\)$"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4, 4294967296\ntrials = 2",
     r"^line 6: M = 4294967296 must lie in \[1, 4294967296\)$"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2, 11\nM = 4\ntrials = 2",
     r"^line 5: K = 11 must lie in \[0, 10\]$"),
    ("family = cubic\nL = 7\nN_d = 5\nQ = 1\nK = 5\nM = 4\ndetector = mmvamp\ntrials = 2",
     r"^line 5: K = 5 must lie in \[0, 4\]$"),
    ("family = cubic\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2", "needs L"),
    ("family = sidelnikov\nL = 8\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2", "needs p"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2\nfoo = 1", "unknown"),
    ("family = cubic\nL = 7\nQ = 2\nK = 2\nM = 4\ntrials = 2", "missing"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2\ndetector = omp", "detector"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nL = 11\nK = 2\nM = 4\ntrials = 2",
     "line 5: duplicate config key 'L' .*line 2"),
    ("family = cubic\nL = 7\nH = 5\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2",
     "family 'cubic' takes no H"),
    ("family = trace\np = 3\nm = 2\nH = 2\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2",
     "family 'trace' takes no H"),
    ("family = qpsk\nL = 7\nH = 6\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2",
     "family 'qpsk' takes no H"),
    ("family = sidelnikov\np = 3\nm = 2\nL = 8\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2",
     "family 'sidelnikov' takes no L"),
    ("family = trace\np = 3\nm = 2\nL = 8\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2",
     "family 'trace' takes no L"),
    ("family = cubic\nL = 7\np = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2",
     "family 'cubic' takes no p"),
    ("family = pr\nL = 7\nm = 1\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2",
     "family 'pr' takes no m"),
    ("family = gaussian\nL = 7\np = 3\nm = 2\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2",
     "family 'gaussian' takes no p"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2\nbase_seed = 4294967296",
     r"^line 8: base_seed = 4294967296 must lie in \[0, 4294967296\)$"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2\ndamping = 0.9",
     "line 8: detector 'cdml' takes no damping"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\nmax_iters = 50\ntrials = 2",
     "line 7: detector 'cdml' takes no max_iters"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2\ndetector = mmvamp\n"
     "sweeps = 15", "line 9: detector 'mmvamp' takes no sweeps"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2\ngen_trials = 99",
     "line 8: family 'cubic' takes no gen_trials"),
    ("family = trace\np = 3\nm = 2\ngen_trials = 10\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2",
     "line 4: family 'trace' takes no gen_trials"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2\nsweeps = 0",
     r"line 8: sweeps = 0 must lie in \[1, inf\)"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\nsigma_w2 = 0\ntrials = 2",
     r"line 7: sigma_w2 = 0.0 must lie in \(0, inf\)"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ndetector = mmvamp\nmax_iters = 0\n"
     "trials = 2", r"line 8: max_iters = 0 must lie in \[1, inf\)"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ndetector = mmvamp\ndamping = 1.5\n"
     "trials = 2", r"line 8: damping = 1.5 must lie in \[0, 1\)"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ndetector = mmvamp\ndamping = -0.1\n"
     "trials = 2", r"line 8: damping = -0.1 must lie in \[0, 1\)"),
    ("family = qpsk\nL = 7\ngen_trials = 0\nN_d = 10\nQ = 2\nK = 2\nM = 4\ntrials = 2",
     r"line 3: gen_trials = 0 must lie in \[1, inf\)"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\nxi_th = 0\ntrials = 2",
     r"line 7: xi_th = 0.0 must lie in \(0, inf\)"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ndetector = mmvamp\nxi_th = -1\n"
     "trials = 2", r"line 8: xi_th = -1.0 must lie in \(0, inf\)"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\ndetector = mmvamp\nsigma_w2 = -1\n"
     "trials = 2", r"line 8: sigma_w2 = -1.0 must lie in \[0, inf\)"),
    ("family = cubic\nL = 7\nN_d = 1.5\nQ = 2\nK = 2\nM = 4\ntrials = 2",
     "^line 3: N_d = '1.5' is not an integer$"),
    ("family = cubic\nL = 7\nN_d = ten\nQ = 2\nK = 2\nM = 4\ntrials = 2",
     "^line 3: N_d = 'ten' is not an integer$"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4\nsigma_w2 = abc\ntrials = 2",
     "^line 7: sigma_w2 = 'abc' is not a number$"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2,,3\nM = 4\ntrials = 2",
     "^line 5: K = '2,,3' is not a comma list of integers$"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2, 2\nM = 4\ntrials = 2",
     r"^line 5: K grid \[2, 2\] is empty or repeats a value$"),
    ("family = cubic\nL = 7\nN_d = 10\nQ = 2\nK = 2\nM = 4, 8, 4\ntrials = 2",
     r"^line 6: M grid \[4, 8, 4\] is empty or repeats a value$"),
    ("family cubic", "^line 1: expected 'key = value', got 'family cubic'$"),
], ids=["trials0", "trials-2**32+1", "N_d0", "Q0", "M-zero-item", "M-2**32", "kbig",
        "mmvamp-K-all-columns", "noL", "nop",
        "unknown", "missing", "baddet", "dupkey", "cubic-stray", "trace-H", "random-H", "sidelnikov-L", "trace-L",
        "cubic-p", "pr-m", "random-p", "seed-2**32", "cdml-damping", "cdml-max_iters",
        "mmvamp-sweeps", "cubic-gen_trials", "trace-gen_trials-default",
        "cdml-sweeps0", "cdml-sigma_w2-0", "mmvamp-max_iters0", "mmvamp-damping1.5",
        "mmvamp-damping-negative", "random-gen_trials0", "cdml-xi_th0", "mmvamp-xi_th-1",
        "mmvamp-sigma_w2-negative", "N_d-float", "N_d-word", "sigma_w2-word", "K-empty-item",
        "K-dup", "M-dup", "no-equals"])
def test_config_rejections(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_config(text)


def test_k_at_n_d_runs_while_the_amp_prior_stays_below_one():
    # K = N_d activates every device: CD-ML runs it, and so does MMV-AMP when Q >= 2 keeps its
    # activity prior K / (N_d Q) below 1 (at Q = 1, see the mmvamp-K-all-columns rejection)
    text = "family = cubic\nL = 7\nN_d = 5\nQ = {}\nK = 5\nM = 4\ndetector = {}\ntrials = 2\n"
    for q, detector in [(1, "cdml"), (2, "mmvamp")]:
        rows = run_experiment(parse_config(text.format(q, detector)))
        assert [(r.k_active, r.detector) for r in rows] == [(5, detector)]


def test_tuning_ranges_admit_their_closed_ends():
    cfg = parse_config("family = qpsk\nL = 7\ngen_trials = 1\nN_d = 10\nQ = 2\nK = 2\nM = 4\n"
                       "trials = 2\ndetector = mmvamp\nmax_iters = 1\ndamping = 0\nsigma_w2 = 0")
    assert (cfg.gen_trials, cfg.max_iters, cfg.damping, cfg.sigma_w2) == (1, 1, 0.0, 0.0)
    assert parse_config("family = cubic\nL = 7\nN_d = 30\nQ = 2\nK = 3\nM = 4,8\nsweeps = 1\n"
                        "trials = 4").sweeps == 1


def test_validate_config_range_checks_a_config_built_in_code():
    with pytest.raises(ValueError, match="^unknown family 'zc'$"):
        validate_config(replace(TINY, family="zc"))
    with pytest.raises(ValueError, match=r"^damping = 1.0 must lie in \[0, 1\)"):
        validate_config(replace(TINY, detector="mmvamp", sweeps=15, damping=1.0))
    with pytest.raises(ValueError, match=r"^N_d = 0 must lie in \[1, inf\)$"):
        validate_config(replace(TINY, n_devices=0, k_grid=(0,)))
    for grid, shown in [((4, 4), r"\[4, 4\]"), ((), r"\[\]")]:
        with pytest.raises(ValueError, match=rf"^M grid {shown} is empty or repeats a value$"):
            validate_config(replace(TINY, m_grid=grid))


def test_run_trial_uses_the_config_tuning():
    # no estimate reaches xi_th = 1e9, so every one of the K active devices is missed
    S = build_signatures(TINY).entries
    for cfg in (TINY, replace(TINY, detector="mmvamp")):
        assert run_trial(replace(cfg, xi_th=1e9), S, 3, 4, 1)[0] == 3 / 30
    with pytest.raises(ValueError, match="^unknown detector 'omp'$"):
        run_trial(replace(TINY, detector="omp"), S, 3, 4, 1)


@pytest.mark.parametrize("fn,key", [(cdml_estimate, "sweeps"), (cdml_decide, "xi_th"),
                                    (amp_decide, "xi_th"), (mmv_amp_estimate, "max_iters"),
                                    (mmv_amp_estimate, "damping")])
def test_detector_keyword_defaults_are_the_config_defaults(fn, key):
    config_default = {f.name: f.default for f in fields(ExperimentConfig)}[key]
    assert inspect.signature(fn).parameters[key].default == config_default


def test_build_masks_checks_the_family_keys():
    with pytest.raises(ValueError, match="family 'cubic' needs L"):
        build_masks("cubic")
    with pytest.raises(ValueError, match="family 'sidelnikov' needs m"):
        build_masks("sidelnikov", p=3)
    with pytest.raises(ValueError, match="family 'cubic' takes no H"):
        build_masks("cubic", L=7, H=6)
    with pytest.raises(ValueError, match="unknown deterministic family 'qpsk'"):
        build_masks("qpsk", L=7)
    assert build_masks("pr", L=11).params == {"L": 11, "H": 10, "alpha": 2}


def test_validate_config_rejects_unread_value_set_in_code():
    # a config built in code cannot say which keys were set, so a key the
    # run never reads is an error only when it differs from its default
    validate_config(replace(TINY, damping=0.3, gen_trials=10))
    for change, msg in [({"damping": 0.5}, "detector 'cdml' takes no damping"),
                        ({"gen_trials": 3}, "family 'cubic' takes no gen_trials"),
                        ({"detector": "mmvamp"}, "detector 'mmvamp' takes no sweeps")]:
        with pytest.raises(ValueError, match=msg):
            validate_config(replace(TINY, **change))


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert cfg.detector == "cdml" and cfg.sweeps == 15


def test_build_signatures_random_is_seeded():
    cfg = ExperimentConfig(family="qpsk", L=7, n_devices=20, q_per_device=2,
                           k_grid=(2,), m_grid=(4,), trials=2, base_seed=9)
    a = build_signatures(cfg).entries
    b = build_signatures(cfg).entries
    assert np.array_equal(a, b)


def test_run_trial_is_repeatable():
    S = build_signatures(TINY).entries
    p1, _ = run_trial(TINY, S, 3, 4, 0)
    p2, _ = run_trial(TINY, S, 3, 4, 0)
    assert p1 == p2  # bit-for-bit repeatable


def test_draw_trial_shares_draws_across_signature_sets():
    # activity, channel and detector stream come from the (base_seed, K, M, trial)
    # keys alone; the noiseless Y is sqrt(L) S Gamma^(1/2) H for either S
    S = build_signatures(TINY).entries
    rng = np.random.default_rng(0)
    other = rng.standard_normal(S.shape) + 1j * rng.standard_normal(S.shape)
    other /= np.linalg.norm(other, axis=0)
    act, H, Y, det = draw_trial(S, 30, 2, 3, 4, 0.0, 5, 0)
    act2, H2, Y2, det2 = draw_trial(other, 30, 2, 3, 4, 0.0, 5, 0)
    H, H2 = (h[np.arange(30 * 2) // 2] for h in (H, H2))
    assert np.array_equal(act, act2) and np.array_equal(H, H2)
    assert det.integers(1 << 30, size=4).tolist() == det2.integers(1 << 30, size=4).tolist()
    sent = np.flatnonzero(act)
    assert sent.size == 3 and H.shape == (60, 4)
    assert np.allclose(Y, np.sqrt(7) * S[:, sent] @ H[sent])
    assert np.allclose(Y2, np.sqrt(7) * other[:, sent] @ H[sent])


def test_run_experiment_rows_and_determinism(tmp_path):
    rows1 = run_experiment(TINY)
    rows2 = run_experiment(TINY)
    assert len(rows1) == 2  # one per (K, M) grid point
    for r1, r2 in zip(rows1, rows2):
        assert r1.p_e == r2.p_e and r1.p_e_stderr == r2.p_e_stderr
        assert 0 <= r1.p_e <= 1
    out = tmp_path / "r.csv"
    write_results(rows1, out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0].split(",") == ["family", "L", "H", "N_d", "Q", "K", "M",
                                   "detector", "trials", "p_e", "p_e_stderr", "seconds"]
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "cubic" and first[1] == "7" and first[2] == ""
    assert first[5] == "3" and first[6] == "4"


def test_run_experiment_worker_count_invariant():
    rows1 = run_experiment(TINY, workers=1)
    rows2 = run_experiment(TINY, workers=2)
    for r1, r2 in zip(rows1, rows2):
        assert r1.p_e == r2.p_e
        assert r1.p_e_stderr == r2.p_e_stderr


def test_run_experiment_amp_detector():
    cfg = ExperimentConfig(family="cubic", L=7, n_devices=30, q_per_device=2,
                           k_grid=(2,), m_grid=(6,), trials=3,
                           detector="mmvamp", base_seed=3)
    rows = run_experiment(cfg)
    assert rows[0].detector == "mmvamp"
    assert 0 <= rows[0].p_e <= 1


def test_capacity_exceeded_raises():
    cfg = ExperimentConfig(family="cubic", L=7, n_devices=200, q_per_device=2,
                           k_grid=(2,), m_grid=(4,), trials=2)
    with pytest.raises(ValueError, match="capacity"):
        run_experiment(cfg)


@pytest.mark.parametrize("family,expected", [
    ("pr", "6"),  # default H = L - 1
], ids=["pr-default"])
def test_results_csv_reports_effective_H(tmp_path, family, expected):
    cfg = ExperimentConfig(family=family, L=7, n_devices=10, q_per_device=2,
                           k_grid=(2,), m_grid=(4,), trials=1, detector="mmvamp")
    rows = run_experiment(cfg)
    out = tmp_path / "r.csv"
    write_results(rows, out)
    assert out.read_text().splitlines()[1].split(",")[2] == expected


# The benchmark's simulation workloads (perfbench/workloads.py), restated: cubic L = 23 at
# N_d = 200, Q = 4, sigma_w2 = 0.1, under CD-ML at K = 40, M = 192 and MMV-AMP at K = 10.
BENCH_CUBIC = dict(family="cubic", L=23, n_devices=200, q_per_device=4, sigma_w2=0.1)
BENCH_CONFIGS = {
    "cdml_k40": ExperimentConfig(**BENCH_CUBIC, k_grid=(40,), m_grid=(192,), detector="cdml",
                                 sweeps=15, trials=5),
    "amp": ExperimentConfig(**BENCH_CUBIC, k_grid=(10,), m_grid=(4, 8, 16), detector="mmvamp",
                            trials=10),
}


@pytest.mark.parametrize("workload,seed", [("cdml_k40", 9), ("cdml_k40", 11), ("amp", 0),
                                           ("amp", 11)])
def test_p_e_rows_equal_the_benchmark_reference(workload, seed):
    # P_e rows are means of discrete per-trial error fractions, so they match exactly; these
    # seeds' rows carry errors, so a flipped device decision changes them
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    want = json.loads(reference.read_text())[workload][seed]
    rows = run_experiment(replace(BENCH_CONFIGS[workload], base_seed=seed))
    assert [[r.k_active, r.n_antennas, r.p_e, r.p_e_stderr] for r in rows] == want
    assert any(row[2] > 0 for row in want)
