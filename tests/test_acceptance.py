"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s` or on
failure) before asserting, so a full run doubles as a readable report.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from gfsig.analysis import (coherence, khatri_rao_lift, ml_coherence_condition,
                            null_space_sign_ratio, welch_bound)
from gfsig.cli import VERIFY_GRID
from gfsig.detectors import cdml_decide, cdml_estimate, error_metric
from gfsig.experiments import (ExperimentConfig, build_masks, draw_trial, gen_random_family,
                               run_trial)
from gfsig.galois import _primitive_polys, build_ext_field
from gfsig.seqgen import (FAMILIES, build_signature_matrix, gen_cubic_masks,
                          gen_pr_masks, gen_sidelnikov_masks, gen_trace_masks, mask_block,
                          sidelnikov_seed, trace_seed)
from gfsig.simulator import PURPOSE_GEN, trial_rng

PR_SEED = [0, 0, 2, 16, 4, 1, 18, 19, 6, 10, 3, 9, 20, 14, 21, 17, 8, 7, 12, 15, 5, 13, 11]
SID_SEED = [6, 17, 5, 2, 11, 13, 18, 21, 4, 19, 1, 9, 0, 22, 15, 10, 20, 14, 12, 8, 7, 23, 3, 16]
TRACE_SEED = [2, 4, 2, 0, 1, 4, 4, 3, 4, 0, 2, 3, 3, 1, 3, 0, 4, 1, 1, 2, 1, 0, 3, 2]

BASE_SEED = 1
# the trials of criteria 7 to 9; run_trial reads neither grid nor trial count, so each
# call names its K, M and trial
CDML = ExperimentConfig(family="cubic", L=23, n_devices=200, q_per_device=4, k_grid=(20, 40),
                        m_grid=(4, 16, 64, 192), sigma_w2=0.1, sweeps=15, xi_th=0.25,
                        trials=200, base_seed=BASE_SEED)
AMP = replace(CDML, detector="mmvamp", max_iters=50, damping=0.3, k_grid=(10,),
              m_grid=(4, 8, 16))


def report(num, desc, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} {detail}".rstrip())
    assert ok, f"criterion {num}: {desc} {detail}"


@pytest.fixture(scope="module")
def cubic23_sig():
    return build_signature_matrix(gen_cubic_masks(23), 200, 4)


@pytest.fixture(scope="module")
def qpsk23_sig():
    return gen_random_family("qpsk", 23, 800, trials=10,
                             rng=trial_rng(BASE_SEED, PURPOSE_GEN), q_per_device=4)


def test_criterion_01_seed_tables():
    start = time.perf_counter()
    ok_pr = gen_pr_masks(23, 22).seed.tolist() == PR_SEED
    # the defining polynomial is located by searching all primitive
    # polynomials of GF(25)
    polys = [poly for poly, _ in _primitive_polys(5, 2)]
    ok_sid = any(sidelnikov_seed(build_ext_field(5, 2, p), 24).tolist() == SID_SEED
                 for p in polys)
    ok_tr = any(trace_seed(build_ext_field(5, 2, p)).tolist() == TRACE_SEED
                for p in polys)
    elapsed = time.perf_counter() - start
    ok = ok_pr and ok_sid and ok_tr and elapsed < 1.0
    report(1, "published seed rows reproduced exactly", ok,
           f"(pr={ok_pr} sidelnikov={ok_sid} trace={ok_tr} in {elapsed:.2f}s)")


def test_criterion_02_coherence_bounds_grid():
    grid = [build_masks(family, **kwargs) for family, kwargs in VERIFY_GRID]
    tol = 1e-9
    failures = []
    for masks in grid:
        family, L, B, H = masks.family, masks.L, masks.B, masks.params.get("H")
        small_n = FAMILIES[family].small_columns(L, H)
        for n_cols in (small_n, B * L):  # both device-count regimes
            sig = build_signature_matrix(masks, n_cols, 1)
            mu = coherence(sig)
            bound = FAMILIES[family].regime(L, H, n_cols)[0]
            welch = welch_bound(L, n_cols)
            if not (welch - tol <= mu <= bound + tol):
                failures.append(f"{family} L={L} N={n_cols}: mu={mu} "
                                f"bound={bound} welch={welch}")
    report(2, "coherence within [welch, family bound] on the full grid",
           not failures, "; ".join(failures))


def test_criterion_03_lifted_coherence_identity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        L = int(rng.integers(3, 17))
        N = int(rng.integers(L + 1, 65))
        A = rng.standard_normal((L, N)) + 1j * rng.standard_normal((L, N))
        worst = max(worst, abs(coherence(khatri_rao_lift(A)) - coherence(A) ** 2))
    for sig in (build_signature_matrix(gen_cubic_masks(11), 242, 1),
                build_signature_matrix(gen_pr_masks(11, 10), 242, 1),
                build_signature_matrix(gen_sidelnikov_masks(3, 2), 112, 1),
                build_signature_matrix(gen_trace_masks(3, 2), 144, 1)):
        worst = max(worst, abs(coherence(khatri_rao_lift(sig)) - coherence(sig) ** 2))
    report(3, "lifted coherence equals squared coherence", worst < 1e-12,
           f"(worst deviation {worst:.2e})")


def test_criterion_04_block_orthonormality():
    rng = np.random.default_rng(13)
    worst = 0.0
    for masks in (gen_cubic_masks(23), gen_pr_masks(23, 22),
                  gen_sidelnikov_masks(5, 2), gen_trace_masks(5, 2)):
        for b in rng.choice(masks.B, size=10, replace=False):
            blk = mask_block(masks, int(b))
            worst = max(worst, np.abs(blk.conj().T @ blk - np.eye(masks.L)).max())
    report(4, "masked DFT blocks are orthonormal", worst < 1e-10,
           f"(worst deviation {worst:.2e})")


def test_criterion_05_sign_ratio_all_families(cubic23_sig, qpsk23_sig):
    sigs = {
        "cubic": cubic23_sig,
        "pr": build_signature_matrix(gen_pr_masks(23, 22), 200, 4),
        "gaussian": gen_random_family("gaussian", 23, 800, trials=10,
                                      rng=trial_rng(11, PURPOSE_GEN), q_per_device=4),
        "musa": gen_random_family("musa", 23, 800, trials=10,
                                  rng=trial_rng(12, PURPOSE_GEN), q_per_device=4),
        "qpsk": qpsk23_sig,
    }
    ratios = {}
    for name, sig in sigs.items():
        rep = null_space_sign_ratio(sig, num_samples=1000,
                                    rng=np.random.default_rng(5))
        ratios[name] = rep.ratio
    ok = all(abs(r - 0.5) <= 0.05 for r in ratios.values())
    detail = " ".join(f"{k}={v:.4f}" for k, v in ratios.items())
    report(5, "null-space sign ratios within 0.5 +- 0.05", ok, f"({detail})")


def test_criterion_06_objective_monotone_per_update():
    rng = np.random.default_rng(14)
    L, N, M = 16, 64, 32
    worst = -np.inf
    for _ in range(50):
        A = (rng.standard_normal((L, N)) + 1j * rng.standard_normal((L, N))) / np.sqrt(2)
        A /= np.linalg.norm(A, axis=0)
        S_scaled = np.sqrt(L) * A
        gamma = np.zeros(N)
        gamma[rng.choice(N, 6, replace=False)] = 1.0
        H = (rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))) / np.sqrt(2)
        W = np.sqrt(0.05) * (rng.standard_normal((L, M)) + 1j * rng.standard_normal((L, M)))
        Y = S_scaled @ (np.sqrt(gamma)[:, None] * H) + W
        est = cdml_estimate(Y, S_scaled, 0.1, sweeps=3, rng=rng,
                            record_update_objective=True)
        worst = max(worst, float(np.diff(est.update_objectives).max()))
    report(6, "covariance objective never increases across updates",
           worst <= 1e-8, f"(max increase {worst:.2e} over 50 instances)")


def cdml_trial_margins(S, n_devices, q_per_device, k_active, n_antennas,
                       sigma_w2, base_seed, trial):
    """One CD-ML trial of `draw_trial`'s draws, as `run_trial` runs it.

    Returns (P_e, lo, hi) from a single estimate: lo is the smallest
    gamma_hat at a transmitted symbol of an active device, hi the largest
    gamma_hat at every other position. With lo >= xi_th and hi < xi_th the
    threshold-and-argmax decision recovers every device, so each trial with
    an error has lo < xi_th or hi >= xi_th.
    """
    truth, _, Y, rng = draw_trial(S, n_devices, q_per_device, k_active, n_antennas,
                                  sigma_w2, base_seed, trial)
    est = cdml_estimate(Y, np.sqrt(S.shape[0]) * S, sigma_w2,
                        sweeps=CDML.sweeps, rng=rng)
    decided = cdml_decide(est.gamma_hat, n_devices, q_per_device, xi_th=CDML.xi_th)
    sent = truth.reshape(-1).astype(bool)
    return (float(error_metric(truth, decided).mean()),
            est.gamma_hat[sent].min(), est.gamma_hat[~sent].max())


def test_cdml_trial_margins_match_run_trial(cubic23_sig):
    # M=4 is far below criterion 7's antenna counts, so P_e is nonzero: a
    # drift between the helper and run_trial shows, and every error must
    # come with a margin crossing
    S = cubic23_sig.entries
    xi_th = CDML.xi_th
    for t in range(5):
        want = run_trial(CDML, S, 20, 4, t)[0]
        got, lo, hi = cdml_trial_margins(S, 200, 4, 20, 4, 0.1, BASE_SEED, t)
        assert got == want > 0, (t, got, want)
        assert lo < xi_th or hi >= xi_th, (t, lo, hi)


def test_criterion_07_cdml_desk_scale(cubic23_sig):
    # At this point P_e(16) is about 5e-6 (2 device errors in 2000 trials),
    # below the 2.5e-5 that 200 trials resolve, so a strict P_e(64) < P_e(16)
    # is decided by luck. The trend is tested on the per-trial margins lo and
    # hi instead: their crossings of xi_th are the errors P_e counts.
    S = cubic23_sig.entries
    xi_th = CDML.xi_th
    p_e, lo, hi = {}, {}, {}
    unexplained = 0
    for M in (16, 64):
        pes, lo[M], hi[M] = np.array(
            [cdml_trial_margins(S, 200, 4, 20, M, 0.1, BASE_SEED, t)
             for t in range(200)]).T
        p_e[M] = float(np.mean(pes))
        unexplained += int(np.sum((pes > 0) & (lo[M] >= xi_th) & (hi[M] < xi_th)))
    p_lo = stats.mannwhitneyu(lo[64], lo[16], alternative="greater").pvalue
    p_hi = stats.mannwhitneyu(hi[64], hi[16], alternative="less").pvalue
    ok = (p_e[64] <= 1e-2 and p_e[64] <= p_e[16] and unexplained == 0
          and p_lo < 0.05 and p_hi < 0.05)
    report(7, "CD-ML desk scale: P_e(64) <= 1e-2, P_e(64) <= P_e(16), and "
           "from M=16 to 64 the active margin lo rises and the inactive "
           "margin hi falls (one-sided Mann-Whitney, 95%)", ok,
           f"(P_e(16)={p_e[16]:.6f} P_e(64)={p_e[64]:.6f}; "
           f"median lo {np.median(lo[16]):.4f} -> {np.median(lo[64]):.4f} "
           f"p={p_lo:.1e}; median hi {np.median(hi[16]):.4f} -> "
           f"{np.median(hi[64]):.4f} p={p_hi:.1e}; "
           f"errors without a margin crossing: {unexplained})")


def test_criterion_08_cdml_family_ordering(cubic23_sig, qpsk23_sig):
    S_cubic = cubic23_sig.entries
    S_qpsk = qpsk23_sig.entries
    trials = 600  # >= 200; extra pairs sharpen the paired test
    pc, pq = [], []
    for t in range(trials):
        pc.append(run_trial(CDML, S_cubic, 40, 192, t)[0])
        pq.append(run_trial(CDML, S_qpsk, 40, 192, t)[0])
    pc, pq = np.array(pc), np.array(pq)
    res = stats.ttest_rel(pq, pc, alternative="greater")
    ok = pc.mean() < pq.mean() and res.pvalue < 0.05
    report(8, "CD-ML at K=40 > L: cubic beats random QPSK (paired, 95%)", ok,
           f"(cubic={pc.mean():.6f} qpsk={pq.mean():.6f} p={res.pvalue:.4f} "
           f"over {trials} shared-draw pairs)")


def test_criterion_09_mmv_amp_desk_scale(cubic23_sig):
    S = cubic23_sig.entries
    p_e = {}
    for M in (4, 8, 16):
        pes = [run_trial(AMP, S, 10, M, t)[0]
               for t in range(200)]
        p_e[M] = float(np.mean(pes))
    ok = p_e[16] <= 5e-2 and p_e[4] > p_e[8] > p_e[16]
    report(9, "MMV-AMP desk scale: P_e(16) <= 5e-2 and decreasing in M", ok,
           f"(P_e: M=4 {p_e[4]:.5f}, M=8 {p_e[8]:.5f}, M=16 {p_e[16]:.5f})")


def test_criterion_10_identifiability_condition():
    checks = [
        (ml_coherence_condition(0.0, 10, 1).satisfied, True),
        # boundary: mu exactly at 1/sqrt(K + delta - 1) must fail (strict)
        (ml_coherence_condition(1 / math.sqrt(10), 10, 1).satisfied, False),
        (ml_coherence_condition(1 / math.sqrt(10) - 1e-12, 10, 1).satisfied, True),
        (ml_coherence_condition(1 / math.sqrt(23), 20, 3).satisfied, True),
        (ml_coherence_condition(1 / math.sqrt(23), 21, 3).satisfied, False),
        (ml_coherence_condition(0.3, 9, 2).satisfied, True),   # 1/sqrt(10) > 0.3
        (ml_coherence_condition(0.32, 9, 2).satisfied, False),
    ]
    probs = [ml_coherence_condition(0.0, 1, d).success_probability for d in (1, 2, 3)]
    ok = all(got == want for got, want in checks) and probs == [0.5, 0.75, 0.875]
    report(10, "coherence identifiability condition boundary behavior", ok,
           f"({sum(g == w for g, w in checks)}/{len(checks)} triples exact)")
