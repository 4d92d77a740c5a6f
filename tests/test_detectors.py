import numpy as np
import pytest

from gfsig import detectors
from gfsig.detectors import (CDML_BLOCK, CDML_REFRESH, AmpEstimate, MLEstimate, amp_decide,
                             cdml_decide, cdml_estimate, covariance_objective,
                             error_metric, mmv_amp_estimate)
from gfsig.experiments import draw_trial, gen_random_family
from gfsig.seqgen import build_signature_matrix, gen_cubic_masks
from gfsig.simulator import (PURPOSE_ACTIVITY, PURPOSE_CHANNEL,
                             PURPOSE_DETECTOR, PURPOSE_NOISE, draw_activity,
                             draw_channel, synthesize, trial_rng)


def random_instance(rng, L=16, N=64, M=32, K=6, sigma_w2=0.1):
    """Small synthetic covariance-fit instance with known active set."""
    A = (rng.standard_normal((L, N)) + 1j * rng.standard_normal((L, N))) / np.sqrt(2)
    A /= np.linalg.norm(A, axis=0)
    S_scaled = np.sqrt(L) * A
    gamma = np.zeros(N)
    gamma[rng.choice(N, K, replace=False)] = 1.0
    H = (rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))) / np.sqrt(2)
    W = np.sqrt(sigma_w2 / 2) * (rng.standard_normal((L, M)) + 1j * rng.standard_normal((L, M)))
    Y = S_scaled @ (np.sqrt(gamma)[:, None] * H) + W
    return Y, S_scaled, gamma


# --- CD-ML -------------------------------------------------------------------

def test_cdml_zero_observation_gives_zero_gamma():
    rng = np.random.default_rng(0)
    _, S_scaled, _ = random_instance(rng)
    Y = np.zeros((16, 8), dtype=complex)
    est = cdml_estimate(Y, S_scaled, 0.1, sweeps=3, rng=rng)
    assert np.all(est.gamma_hat == 0)
    assert est.sweeps_run == len(est.objective_trace) == 1  # the empty support never moved


def test_cdml_input_validation():
    rng = np.random.default_rng(1)
    Y, S_scaled, _ = random_instance(rng)
    with pytest.raises(ValueError):
        cdml_estimate(Y, S_scaled, 0.0, rng=rng)
    with pytest.raises(ValueError):
        cdml_estimate(Y, S_scaled, 0.1, sweeps=0, rng=rng)
    bad = Y.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        cdml_estimate(bad, S_scaled, 0.1, rng=rng)
    # a zero column gave all-NaN gamma whenever it ended a block (detector seeds 0 and 1)
    Y, S_scaled, _ = random_instance(np.random.default_rng(13), L=8, N=10, M=16, K=3)
    S_scaled[:, 3] = 0
    for seed in (0, 1):
        with pytest.raises(ValueError, match="zero column"):
            cdml_estimate(Y, S_scaled, 0.1, sweeps=3, rng=np.random.default_rng(seed))


def test_cdml_gamma_nonnegative_and_objective_monotone():
    rng = np.random.default_rng(2)
    worst = -np.inf
    for _ in range(10):
        Y, S_scaled, _ = random_instance(rng)
        est = cdml_estimate(Y, S_scaled, 0.1, sweeps=3, rng=rng,
                            record_update_objective=True)
        assert est.gamma_hat.min() >= 0
        worst = max(worst, np.diff(est.update_objectives).max())
        assert np.diff(est.objective_trace).max() <= 1e-8
    assert worst <= 1e-8


def test_cdml_recovers_clear_support():
    rng = np.random.default_rng(3)
    Y, S_scaled, gamma = random_instance(rng, M=128, K=4)
    est = cdml_estimate(Y, S_scaled, 0.1, sweeps=10, rng=rng)
    top = np.argsort(est.gamma_hat)[-4:]
    assert set(top) == set(np.flatnonzero(gamma))


def test_cdml_incremental_inverse_matches_direct(monkeypatch):
    rng = np.random.default_rng(4)
    Y, S_scaled, _ = random_instance(rng)
    # no refresh within the run, so drift accumulates over all updates
    monkeypatch.setattr(detectors, "CDML_REFRESH", 10**9)
    est = cdml_estimate(Y, S_scaled, 0.1, sweeps=8, rng=rng)
    L = S_scaled.shape[0]
    Sigma = (S_scaled * est.gamma_hat) @ S_scaled.conj().T + 0.1 * np.eye(L)
    direct = np.linalg.inv(Sigma)
    rel = np.linalg.norm(est.sigma_inv - direct) / np.linalg.norm(direct)
    assert rel < 1e-6


def test_cdml_single_active_device_argmax():
    # Monte-Carlo oracle: with many antennas the top coordinate falls in the
    # active device's block in almost every trial
    L, n_dev, Q, M = 16, 50, 2, 256
    rng0 = np.random.default_rng(42)
    A = rng0.standard_normal((L, n_dev * Q)) + 1j * rng0.standard_normal((L, n_dev * Q))
    A /= np.linalg.norm(A, axis=0)
    S_scaled = np.sqrt(L) * A
    hits = 0
    trials = 200
    for t in range(trials):
        act = draw_activity(n_dev, 1, Q, trial_rng(3, t, PURPOSE_ACTIVITY))
        H = draw_channel(n_dev, M, rng=trial_rng(3, t, PURPOSE_CHANNEL))
        Y = synthesize(A, act, H, 0.1, trial_rng(3, t, PURPOSE_NOISE))
        est = cdml_estimate(Y, S_scaled, 0.1, sweeps=8,
                            rng=trial_rng(3, t, PURPOSE_DETECTOR))
        if np.argmax(est.gamma_hat) // Q == np.flatnonzero(act)[0] // Q:
            hits += 1
    assert hits / trials >= 0.99


def reference_cdml_estimate(Y, S_scaled, sigma_w2, sweeps=15, rng=None,
                            refresh_every=CDML_REFRESH, record_update_objective=False):
    """The one-coordinate-at-a-time loop cdml_estimate must reproduce."""
    L, M = Y.shape
    N = S_scaled.shape[1]
    Sigma_hat = (Y @ Y.conj().T) / M
    gamma = np.zeros(N)
    Ainv = np.eye(L, dtype=complex) / sigma_w2
    cols = np.ascontiguousarray(S_scaled.T)
    objective = []
    update_objs = [] if record_update_objective else None
    for sweep in range(sweeps):
        support = gamma > 0
        for i in rng.permutation(N):
            s = cols[i]
            t = Ainv @ s
            a = (s.conj() @ t).real
            b = (t.conj() @ (Sigma_hat @ t)).real
            delta = (b - a) / (a * a)
            if delta < -gamma[i]:
                delta = -gamma[i]
            if delta != 0.0:
                Ainv -= (delta / (1.0 + delta * a)) * np.outer(t, t.conj())
                gamma[i] += delta
            if record_update_objective:
                update_objs.append(covariance_objective(S_scaled, gamma, sigma_w2, Sigma_hat))
        settled = np.array_equal(gamma > 0, support)
        if (sweep + 1) % refresh_every == 0 and sweep + 1 < sweeps and not settled:
            Sigma = (S_scaled * gamma) @ S_scaled.conj().T + sigma_w2 * np.eye(L)
            Ainv = np.linalg.inv(Sigma)
        _, logdet_inv = np.linalg.slogdet(Ainv)
        objective.append(float(-logdet_inv + np.einsum("ij,ji->", Ainv, Sigma_hat).real))
        if settled:  # no coordinate entered or left the support in this sweep
            break
    return MLEstimate(gamma, np.asarray(objective), len(objective),
                      None if update_objs is None else np.asarray(update_objs), Ainv)


# Oracle instances yield (Y, S_scaled, true indicators (N_d, Q), detector rng).

def cubic_instances(K, M, trials, n_devices=200, Q=4):
    """Cubic L = 23 trials at base seed 1, drawn by run_trial's draw_trial."""
    S = build_signature_matrix(gen_cubic_masks(23), n_devices, Q).entries
    for t in range(trials):
        act, _, Y, rng = draw_trial(S, n_devices, Q, K, M, 0.1, 1, t)
        yield Y, np.sqrt(23) * S, act, rng


def qpsk_instances(trials, L=16, n_devices=50, Q=2):
    A = gen_random_family("qpsk", L, n_devices * Q, trials=1,
                          rng=np.random.default_rng(11), q_per_device=Q).entries
    rng = np.random.default_rng(12)
    for _ in range(trials):
        act = draw_activity(n_devices, 8, Q, rng)
        H = draw_channel(n_devices, 32, rng=rng)
        Y = synthesize(A, act, H, 0.1, rng)
        yield Y, np.sqrt(L) * A, act, np.random.default_rng(rng.integers(1 << 32))


def short_instances(trials):
    # N = 10 < CDML_BLOCK: every block is cut short by N or by the support
    rng = np.random.default_rng(13)
    for _ in range(trials):
        Y, S_scaled, gamma = random_instance(rng, L=8, N=10, M=16, K=3)
        yield Y, S_scaled, gamma.reshape(5, 2), np.random.default_rng(rng.integers(1 << 32))


ORACLE_CASES = {
    "cubic-K40-M192": (lambda: cubic_instances(40, 192, 3), {}),
    "cubic-K20-M4": (lambda: cubic_instances(20, 4, 5), {}),
    "qpsk": (lambda: qpsk_instances(3), {"sweeps": 4, "record_update_objective": True}),
    "N-below-block": (lambda: short_instances(5),
                      {"sweeps": 6, "record_update_objective": True}),
    "no-refresh": (lambda: cubic_instances(20, 64, 2), {"refresh_every": 10**9}),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_cdml_matches_reference_loop(case, monkeypatch):
    instances, kwargs = ORACLE_CASES[case]
    assert CDML_BLOCK > 10  # so "N-below-block" is what it says
    # the reference loop takes its refresh period as an argument, cdml_estimate as CDML_REFRESH
    monkeypatch.setattr(detectors, "CDML_REFRESH", kwargs.get("refresh_every", CDML_REFRESH))
    est_kwargs = {key: v for key, v in kwargs.items() if key != "refresh_every"}
    p_e = []
    for Y, S_scaled, truth, rng in instances():
        state = rng.bit_generator.state
        est = cdml_estimate(Y, S_scaled, 0.1, rng=rng, **est_kwargs)
        rng.bit_generator.state = state
        ref = reference_cdml_estimate(Y, S_scaled, 0.1, rng=rng, **kwargs)
        assert est.sweeps_run == ref.sweeps_run == len(ref.objective_trace)
        assert np.abs(est.gamma_hat - ref.gamma_hat).max() <= 1e-9 * ref.gamma_hat.max()
        np.testing.assert_allclose(est.objective_trace, ref.objective_trace, rtol=1e-9)
        assert (np.linalg.norm(est.sigma_inv - ref.sigma_inv)
                <= 1e-9 * np.linalg.norm(ref.sigma_inv))
        if kwargs.get("record_update_objective"):
            assert est.update_objectives.shape == ref.update_objectives.shape
            np.testing.assert_allclose(est.update_objectives, ref.update_objectives,
                                       rtol=1e-9)
        n_devices, Q = truth.shape
        mine = cdml_decide(est.gamma_hat, n_devices, Q)
        assert np.array_equal(mine, cdml_decide(ref.gamma_hat, n_devices, Q))
        p_e.append(error_metric(truth, mine).mean())
    if case == "cubic-K20-M4":
        assert max(p_e) > 0  # the decisions that must agree include wrong ones


def test_cdml_stops_when_support_settles():
    def run(sweeps):
        rng.bit_generator.state = state
        return cdml_estimate(Y, S_scaled, 0.1, sweeps=sweeps, rng=rng)

    instances, _ = ORACLE_CASES["cubic-K40-M192"]
    for Y, S_scaled, _, rng in instances():
        state = rng.bit_generator.state
        est = run(detectors.SWEEPS)
        n = est.sweeps_run
        assert 2 < n < detectors.SWEEPS and len(est.objective_trace) == n
        # a binding cap runs every sweep it allows, and each sweep's gamma is the uncapped run's
        before_last, before_that = run(n - 1), run(n - 2)
        assert before_last.sweeps_run == n - 1 and before_that.sweeps_run == n - 2
        np.testing.assert_array_equal(before_last.objective_trace[:-1], est.objective_trace[:n - 2])
        # sweep n left the support as it was; sweep n - 1 moved it
        assert np.array_equal(est.gamma_hat > 0, before_last.gamma_hat > 0)
        assert not np.array_equal(before_last.gamma_hat > 0, before_that.gamma_hat > 0)
        assert run(2).sweeps_run == 2


@pytest.mark.parametrize("block", [1, 5, 10**6])
@pytest.mark.parametrize("case", ["cubic-K40-M192", "qpsk"])
def test_cdml_block_only_groups_evaluations(case, block, monkeypatch):
    # CDML_BLOCK = 1 evaluates every step alone; 10**6 lets only the support end a block.
    # Block sizes change only the rounding of the matmul: on the qpsk instances every float64
    # fit, the reference loop's included, is up to 7.5e-13 * max gamma from an extended-precision
    # run, so two block sizes may differ by twice that
    instances, kwargs = ORACLE_CASES[case]
    sweeps = kwargs.get("sweeps", detectors.SWEEPS)
    for Y, S_scaled, truth, rng in instances():
        state = rng.bit_generator.state
        default = cdml_estimate(Y, S_scaled, 0.1, sweeps=sweeps, rng=rng)
        rng.bit_generator.state = state
        with monkeypatch.context() as m:
            m.setattr(detectors, "CDML_BLOCK", block)
            est = cdml_estimate(Y, S_scaled, 0.1, sweeps=sweeps, rng=rng)
        assert (np.abs(est.gamma_hat - default.gamma_hat).max()
                <= 1e-11 * default.gamma_hat.max())
        n_devices, Q = truth.shape
        assert np.array_equal(cdml_decide(est.gamma_hat, n_devices, Q),
                              cdml_decide(default.gamma_hat, n_devices, Q))


def test_covariance_objective_matches_trace_form():
    rng = np.random.default_rng(5)
    Y, S_scaled, _ = random_instance(rng)
    Sigma_hat = Y @ Y.conj().T / Y.shape[1]
    gamma = np.abs(rng.standard_normal(64)) * 0.1
    L = 16
    Sigma = (S_scaled * gamma) @ S_scaled.conj().T + 0.1 * np.eye(L)
    expected = np.log(np.linalg.det(Sigma)).real + np.trace(np.linalg.inv(Sigma) @ Sigma_hat).real
    assert covariance_objective(S_scaled, gamma, 0.1, Sigma_hat) == pytest.approx(expected)


# --- decision rules ------------------------------------------------------------

def test_cdml_decide_examples():
    res = cdml_decide(np.zeros(8), 2, 4)
    assert res.shape == (2, 4) and res.dtype == np.int8 and np.all(res == 0)

    gamma = np.array([0.3, 0.1, 0.0, 0.0])
    assert cdml_decide(gamma, 1, 4, xi_th=0.25).tolist() == [[1, 0, 0, 0]]
    # the statistic is the largest gamma, 0.3: a threshold at it decides active, one above it not
    assert cdml_decide(gamma, 1, 4, xi_th=0.3).tolist() == [[1, 0, 0, 0]]
    assert np.all(cdml_decide(gamma, 1, 4, xi_th=np.nextafter(0.3, 1)) == 0)

    res = cdml_decide(np.array([0.2, 0.2, 0.0, 0.0]), 1, 4, xi_th=0.25)
    assert np.all(res == 0)  # below threshold, tie irrelevant

    # ties at or above threshold break toward the smallest index
    res = cdml_decide(np.array([0.4, 0.4, 0.0, 0.0]), 1, 4, xi_th=0.25)
    assert res.tolist() == [[1, 0, 0, 0]]

    with pytest.raises(ValueError, match="^gamma_hat length must be n_devices \\* q_per_device$"):
        cdml_decide(np.zeros(7), 2, 4)


def test_decide_scale_covariance():
    rng = np.random.default_rng(6)
    gamma = np.abs(rng.standard_normal(40))
    base = cdml_decide(gamma, 10, 4, xi_th=0.25)
    scaled = cdml_decide(3.7 * gamma, 10, 4, xi_th=3.7 * 0.25)
    assert np.array_equal(base, scaled)


def test_amp_decide_examples():
    X = np.zeros((8, 4), dtype=complex)
    res = amp_decide(X, 2, 4)
    assert np.all(res == 0)

    X[1] = 1.0  # per-antenna power 1 -> xi = 1 >= 0.25
    res = amp_decide(X, 2, 4)
    assert res[0].tolist() == [0, 1, 0, 0]

    X = np.zeros((8, 4), dtype=complex)
    X[4] = np.sqrt(0.3)
    X[5] = np.sqrt(0.26)
    res = amp_decide(X, 2, 4)
    assert res[1].tolist() == [1, 0, 0, 0]

    with pytest.raises(ValueError, match="^X_hat must have n_devices \\* q_per_device rows$"):
        amp_decide(X[:7], 2, 4)


# --- MMV-AMP -------------------------------------------------------------------

def test_amp_zero_observation_shrinks_to_zero():
    rng = np.random.default_rng(7)
    _, S_scaled, _ = random_instance(rng)
    Y = np.zeros((16, 8), dtype=complex)
    est = mmv_amp_estimate(Y, S_scaled, 0.05)
    assert np.abs(est.X_hat).max() < 1e-8
    assert not est.diverged


def test_amp_zero_rate_returns_zero():
    rng = np.random.default_rng(8)
    Y, S_scaled, _ = random_instance(rng)
    est = mmv_amp_estimate(Y, S_scaled, 0.0)
    assert np.all(est.X_hat == 0) and est.iterations == 0


def test_amp_validation():
    rng = np.random.default_rng(9)
    Y, S_scaled, _ = random_instance(rng)
    with pytest.raises(ValueError):
        mmv_amp_estimate(Y, S_scaled, 1.0)
    with pytest.raises(ValueError):
        mmv_amp_estimate(Y, S_scaled, 0.1, damping=1.0)
    with pytest.raises(ValueError):
        mmv_amp_estimate(Y, S_scaled, 0.1, max_iters=0)
    S_zero = S_scaled.copy()
    S_zero[:, 3] = 0
    with pytest.raises(ValueError, match="^signature matrix has a zero column$"):
        mmv_amp_estimate(Y, S_zero, 0.1)


def test_amp_tuning_arguments_are_keyword_only():
    rng = np.random.default_rng(9)
    Y, S_scaled, _ = random_instance(rng)
    with pytest.raises(TypeError):
        mmv_amp_estimate(Y, S_scaled, 0.1, 0.1)  # a stale positional sigma_w2


def test_amp_noiseless_single_device_recovery():
    # Monte-Carlo oracle, K = 1, M = 8, no noise
    sig = build_signature_matrix(gen_cubic_masks(23), 100, 4)
    S = sig.entries
    S_scaled = np.sqrt(23) * S
    errs = []
    for t in range(100):
        act = draw_activity(100, 1, 4, trial_rng(4, t, PURPOSE_ACTIVITY))
        H = draw_channel(100, 8, rng=trial_rng(4, t, PURPOSE_CHANNEL))
        Y = synthesize(S, act, H, 0.0, trial_rng(4, t, PURPOSE_NOISE))
        H = H[np.arange(100 * 4) // 4]
        est = mmv_amp_estimate(Y, S_scaled, 1 / 400, max_iters=100)
        (i,) = np.flatnonzero(act)
        errs.append(np.linalg.norm(est.X_hat[i] - H[i]) / np.linalg.norm(H[i]))
    assert np.mean(errs) <= 0.05


def test_amp_support_recovery_k10():
    # Monte-Carlo oracle at the easy operating point K < L
    sig = build_signature_matrix(gen_cubic_masks(23), 200, 4)
    S = sig.entries
    S_scaled = np.sqrt(23) * S
    pes = []
    for t in range(200):
        act = draw_activity(200, 10, 4, trial_rng(5, t, PURPOSE_ACTIVITY))
        H = draw_channel(200, 10, rng=trial_rng(5, t, PURPOSE_CHANNEL))
        Y = synthesize(S, act, H, 0.1, trial_rng(5, t, PURPOSE_NOISE))
        est = mmv_amp_estimate(Y, S_scaled, 10 / 800)
        res = amp_decide(est.X_hat, 200, 4)
        pes.append(error_metric(act, res).mean())
    assert np.mean(pes) <= 0.05


def test_amp_fixed_point_keeps_support():
    # noiseless start at the truth: one iteration must not change the decision
    sig = build_signature_matrix(gen_cubic_masks(23), 50, 2)
    S = sig.entries
    S_scaled = np.sqrt(23) * S
    act = draw_activity(50, 5, 2, trial_rng(6, 0, PURPOSE_ACTIVITY))
    H = draw_channel(50, 6, rng=trial_rng(6, 0, PURPOSE_CHANNEL))
    Y = synthesize(S, act, H, 0.0, trial_rng(6, 0, PURPOSE_NOISE))
    H = H[np.arange(50 * 2) // 2]
    X_true = (act.reshape(-1)[:, None] * H).astype(complex)
    est = mmv_amp_estimate(Y, S_scaled, 5 / 100, max_iters=1, x_init=X_true)
    before = amp_decide(X_true, 50, 2)
    after = amp_decide(est.X_hat, 50, 2)
    assert np.array_equal(before, after)


def test_amp_divergence_flagged_not_raised():
    rng = np.random.default_rng(10)
    Y, S_scaled, _ = random_instance(rng, M=4)
    huge = 1e9 * np.ones((64, 4), dtype=complex)
    est = mmv_amp_estimate(Y, S_scaled, 0.1, x_init=huge, damping=0.99)
    assert est.diverged
    assert np.all(np.isfinite(est.residual_norm_trace[:-1]))


def reference_mmv_amp_estimate(Y, S_scaled, activity_rate, sigma_w2, max_iters=50,
                               damping=0.3, tol=1e-6, x_init=None):
    """The MMV-AMP loop mmv_amp_estimate must reproduce, written term by term."""
    L, M = Y.shape
    N = S_scaled.shape[1]
    norms = np.linalg.norm(S_scaled, axis=0)
    A = S_scaled / norms
    v = norms**2
    lam = activity_rate
    log_prior_odds = np.log(lam) - np.log1p(-lam)

    X = np.zeros((N, M), dtype=complex) if x_init is None else x_init * norms[:, None]
    V = Y - A @ X if x_init is not None else Y.copy()
    ref = np.linalg.norm(Y) + 1e-300
    res_trace = []
    diverged = False
    prev = None
    it = 0
    for it in range(1, max_iters + 1):
        tau2 = max(np.linalg.norm(V) ** 2 / (L * M), 1e-30)
        Z = X + A.conj().T @ V
        zn2 = (np.abs(Z) ** 2).sum(axis=1)
        c = v / (v + tau2)
        u = v / (tau2 * (v + tau2))
        log_lr = M * np.log(tau2 / (v + tau2)) + zn2 * u
        pi = 1.0 / (1.0 + np.exp(-np.clip(log_lr + log_prior_odds, -700.0, 700.0)))
        shrink = (c * pi)[:, None]
        X_new = shrink * Z
        # Onsager term from the averaged denoiser derivative, per antenna
        deriv = shrink * (1.0 + (u * (1.0 - pi))[:, None] * np.abs(Z) ** 2)
        b = deriv.mean(axis=0) * (N / L)
        if damping > 0:
            X_new = (1 - damping) * X_new + damping * X
        V_new = Y - A @ X_new + b[None, :] * V
        if damping > 0:
            V_new = (1 - damping) * V_new + damping * V
        X, V = X_new, V_new
        res = float(np.linalg.norm(V))
        res_trace.append(res)
        if not np.isfinite(res) or res > 1e6 * ref:
            diverged = True
            break
        if prev is not None and abs(res - prev) < tol * max(prev, 1e-300):
            break
        prev = res
    return AmpEstimate(X / norms[:, None], it, np.asarray(res_trace), diverged)


def amp_instances(M, trials, K=10, n_devices=200, Q=4):
    """Cubic L = 23 MMV-AMP trials at base seed 1, drawn by run_trial's draw_trial.

    Yields (Y, S_scaled, true indicators (N_d, Q), true X, activity rate).
    """
    S = build_signature_matrix(gen_cubic_masks(23), n_devices, Q).entries
    for t in range(trials):
        act, H, Y, _ = draw_trial(S, n_devices, Q, K, M, 0.1, 1, t)
        H = H[np.arange(n_devices * Q) // Q]
        X_true = act.reshape(-1)[:, None] * H
        yield Y, np.sqrt(23) * S, act, X_true, K / (n_devices * Q)


def divergent_instance():
    # the forced divergence of test_amp_divergence_flagged_not_raised
    Y, S_scaled, gamma = random_instance(np.random.default_rng(10), M=4)
    huge = 1e9 * np.ones((64, 4), dtype=complex)
    yield Y, S_scaled, gamma.reshape(32, 2), huge, 0.1


def uneven_instances(trials):
    # columns of unequal norm, so the per-row variances differ
    rng = np.random.default_rng(14)
    for _ in range(trials):
        Y, S_scaled, gamma = random_instance(rng, M=8)
        S_scaled = S_scaled * rng.uniform(0.5, 2.0, 64)
        yield Y, S_scaled, gamma.reshape(32, 2), None, 6 / 64


# case -> (instances, keyword arguments; x_init=True starts from the true X)
AMP_ORACLE_CASES = {
    **{f"cubic-M{M}": (lambda M=M: amp_instances(M, 5), {}) for M in (4, 8, 16, 64)},
    "damping-0": (lambda: amp_instances(16, 3), {"damping": 0.0}),
    "max_iters-1": (lambda: amp_instances(8, 3), {"max_iters": 1}),
    "x_init": (lambda: amp_instances(8, 3), {"x_init": True}),
    "divergence": (divergent_instance, {"x_init": True, "damping": 0.99}),
    "uneven-norms": (lambda: uneven_instances(3), {}),
}


@pytest.mark.parametrize("case", list(AMP_ORACLE_CASES))
def test_amp_matches_reference_loop(case):
    instances, kwargs = AMP_ORACLE_CASES[case]
    iterations = []
    for Y, S_scaled, truth, X_true, rate in instances():
        kw = {**kwargs, "x_init": X_true} if kwargs.get("x_init") else kwargs
        est = mmv_amp_estimate(Y, S_scaled, rate, **kw)
        ref = reference_mmv_amp_estimate(Y, S_scaled, rate, 0.1, **kw)
        assert est.iterations == ref.iterations and est.diverged == ref.diverged
        np.testing.assert_allclose(est.residual_norm_trace, ref.residual_norm_trace,
                                   rtol=1e-8)
        assert np.abs(est.X_hat - ref.X_hat).max() <= 1e-7 * np.abs(ref.X_hat).max()
        n_devices, Q = truth.shape
        assert np.array_equal(amp_decide(est.X_hat, n_devices, Q),
                              amp_decide(ref.X_hat, n_devices, Q))
        iterations.append(ref.iterations)
    if case == "cubic-M4":
        assert max(iterations) == 50  # the cases include a run to max_iters
    if case == "divergence":
        assert ref.diverged


# --- error metric ---------------------------------------------------------------

def test_error_metric_cases():
    truth = np.zeros((4, 2), dtype=np.int8)
    truth[0, 1] = 1
    truth[2, 0] = 1

    perfect = cdml_decide(np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), 4, 2)
    res = error_metric(truth, perfect)
    assert res.shape == (4,) and not res.any()
    with pytest.raises(ValueError, match="^activity and decision shapes disagree$"):
        error_metric(truth, perfect[:3])

    # miss: active device 0 declared inactive
    missed = cdml_decide(np.array([0.0, 0.1, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), 4, 2)
    assert error_metric(truth, missed).tolist() == [True, False, False, False]

    # wrong symbol: right activity, wrong position
    wrong_q = cdml_decide(np.array([1.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), 4, 2)
    res = error_metric(truth, wrong_q)
    assert res.tolist() == [True, False, False, False]
    assert res.mean() == 0.25

    # false alarm
    fa = cdml_decide(np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.9]), 4, 2)
    assert error_metric(truth, fa).tolist() == [False, False, False, True]
