"""Joint activity and data detection.

Two detectors operate on the received block Y:

* cdml_estimate: coordinate descent on the covariance-fit objective
  log|Sigma| + tr(Sigma^-1 Sigma_hat) over per-signature powers gamma >= 0,
  with Sigma = S diag(gamma) S^H + sigma_w^2 I and Sigma_hat = Y Y^H / M.
  The inverse is maintained through rank-one updates.

* mmv_amp_estimate: approximate message passing for Y = S X + W with a
  row-sparse X, using the MMSE denoiser of a Bernoulli-Gaussian row prior,
  an Onsager correction, and residual-based noise-variance tracking.

Each detector feeds a thresholded per-device max decision; a device's
estimate is wrong if its decided indicator vector differs from the truth in
any position (miss, false alarm, or wrong symbol).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SWEEPS, XI_TH, MAX_ITERS, DAMPING = 15, 0.25, 50, 0.3  # ExperimentConfig's defaults too
AMP_TOL = 1e-6  # relative change of the residual norm that stops MMV-AMP


@dataclass(frozen=True)
class MLEstimate:
    gamma_hat: np.ndarray  # (N,) nonnegative per-signature powers
    objective_trace: np.ndarray  # objective value after each sweep
    sweeps_run: int
    update_objectives: np.ndarray | None = None  # per-update direct evaluations
    sigma_inv: np.ndarray | None = None  # final maintained inverse covariance


@dataclass(frozen=True)
class AmpEstimate:
    X_hat: np.ndarray  # (N, M) estimated channel matrix
    iterations: int
    residual_norm_trace: np.ndarray
    diverged: bool = False


def covariance_objective(S_scaled: np.ndarray, gamma: np.ndarray, sigma_w2: float,
                         Sigma_hat: np.ndarray) -> float:
    """Direct evaluation of log|Sigma| + tr(Sigma^-1 Sigma_hat)."""
    L = S_scaled.shape[0]
    Sigma = (S_scaled * gamma) @ S_scaled.conj().T + sigma_w2 * np.eye(L)
    _, logdet = np.linalg.slogdet(Sigma)
    return float(logdet + np.trace(np.linalg.solve(Sigma, Sigma_hat)).real)


# Most coordinate steps a block evaluates in one matmul.
CDML_BLOCK = 32
# Sweeps between from-scratch inverse recomputations, guarding drift of the rank-one updates.
CDML_REFRESH = 5


def cdml_estimate(Y: np.ndarray, S_scaled: np.ndarray, sigma_w2: float,
                  sweeps: int = SWEEPS, *, rng: np.random.Generator,
                  record_update_objective: bool = False) -> MLEstimate:
    """Coordinate-descent fit of per-signature powers to the sample covariance.

    Inputs
        Y:        (L, M) received block
        S_scaled: (L, N) signatures with columns of norm sqrt(L), none zero
        sigma_w2: noise variance (> 0)
        sweeps:   most full passes over the N coordinates, each in a fresh
                  random permutation
        record_update_objective: evaluate the objective directly after every
                  coordinate step (slow; for verification)

    Each coordinate moves to the closed-form minimizer along its axis,
    delta = (s^H A q s - s^H A s) / (s^H A s)^2 with A = Sigma^-1 and
    q = Sigma_hat, clamped so gamma stays nonnegative, followed by a
    rank-one update of A.

    The run stops after the first sweep in which no coordinate enters or
    leaves the support {i : gamma_i > 0} (a clamped step sets gamma_i to
    exactly 0.0, so the comparison is exact), or after `sweeps` sweeps;
    sweeps_run and objective_trace count the sweeps actually run.

    Most steps are no-ops: a coordinate with gamma = 0 whose delta clamps to
    0. Two facts let a run of consecutive steps be evaluated at once:
    * a no-op step leaves A untouched, so every step up to the next real
      update sees the same A;
    * each coordinate is visited once per sweep, so its gamma when visited
      is its gamma at the start of the sweep.
    A block of up to CDML_BLOCK steps ends with the first coordinate already
    in the support (gamma > 0 at the start of the sweep). Each sweep gathers
    the signatures, in visiting order, as the rows of G. Keeping
    D = C^T with C = [A; Sigma_hat A], one matmul G_block D gives the rows
    [t; Sigma_hat t], t = A s, for the whole block, and two row-wise dot
    products give a = Re s^H t and q = Re t^H Sigma_hat t, so that
    delta = (q - a) / a^2. A zero-gamma step moves iff q > a; the block's
    first moving step is applied as a rank-one update of D and evaluation
    resumes right after it.
    """
    if sigma_w2 <= 0:
        raise ValueError("sigma_w2 must be positive")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if not (np.all(np.isfinite(Y)) and np.all(np.isfinite(S_scaled))):
        raise ValueError("non-finite inputs")
    if np.any(np.linalg.norm(S_scaled, axis=0) < 1e-300):
        raise ValueError("signature matrix has a zero column")
    L, M = Y.shape
    N = S_scaled.shape[1]
    Sigma_hat = (Y @ Y.conj().T) / M
    gamma = np.zeros(N)
    D = np.concatenate([np.eye(L), Sigma_hat.T], axis=1) / sigma_w2  # A = I / sigma_w2
    ST = np.ascontiguousarray(S_scaled.T)
    G = np.empty_like(ST)
    objective = []
    update_objs = [] if record_update_objective else None
    current = (covariance_objective(S_scaled, gamma, sigma_w2, Sigma_hat)
               if record_update_objective else None)

    for sweep in range(sweeps):
        support = gamma > 0
        perm = rng.permutation(N)
        np.take(ST, perm, axis=0, out=G)
        g_perm = gamma[perm]  # gamma of each coordinate when visited
        # next_in[p]: first position >= p whose coordinate is in the support
        next_in = np.where(g_perm > 0, np.arange(N), N)
        next_in = np.minimum.accumulate(next_in[::-1])[::-1].tolist()
        g_perm = g_perm.tolist()
        perm = perm.tolist()
        pos = 0
        while pos < N:
            end = min(pos + CDML_BLOCK, next_in[pos] + 1, N)
            Gb = G[pos:end]
            UT = Gb @ D  # row k: [t; Sigma_hat t] of step pos + k
            T = UT[:, :L]
            a = np.vecdot(Gb, T).real.tolist()
            q = np.vecdot(T, UT[:, L:]).real.tolist()
            # first step that moves, else the last step
            k, last = 0, end - pos - 1
            while k < last and q[k] <= a[k]:
                k += 1
            j = pos + k
            ak = a[k]
            d = max((q[k] - ak) / (ak * ak), -g_perm[j])
            if d != 0.0:
                D -= ((d / (1.0 + d * ak)) * T[k].conj())[:, None] * UT[k]
                gamma[perm[j]] += d
            if record_update_objective:
                update_objs.extend([current] * k)
                if d != 0.0:
                    current = covariance_objective(S_scaled, gamma, sigma_w2, Sigma_hat)
                update_objs.append(current)
            pos = j + 1
        settled = np.array_equal(gamma > 0, support)
        if (sweep + 1) % CDML_REFRESH == 0 and sweep + 1 < sweeps and not settled:
            Sigma = (S_scaled * gamma) @ S_scaled.conj().T + sigma_w2 * np.eye(L)
            A = np.linalg.inv(Sigma)
            D[:, :L] = A.T
            D[:, L:] = (Sigma_hat @ A).T
        _, logdet_inv = np.linalg.slogdet(D[:, :L])
        objective.append(float(-logdet_inv + np.trace(D[:, L:]).real))
        if settled:
            break

    return MLEstimate(
        gamma,
        np.asarray(objective),
        len(objective),
        None if update_objs is None else np.asarray(update_objs),
        D[:, :L].T.copy(),
    )


def _decide(stat: np.ndarray, xi_th: float) -> np.ndarray:
    # stat is (N_d, Q), and so are the decided indicators, each row all-zero or one-hot;
    # ties break toward the smallest symbol index
    q_hat = np.argmax(stat, axis=1)
    on = stat[np.arange(stat.shape[0]), q_hat] >= xi_th
    indicators = np.zeros(stat.shape, dtype=np.int8)
    indicators[np.flatnonzero(on), q_hat[on]] = 1
    return indicators


def cdml_decide(gamma_hat: np.ndarray, n_devices: int, q_per_device: int,
                xi_th: float = XI_TH) -> np.ndarray:
    """Per device: active with symbol q = argmax gamma_q iff that gamma_q >= xi_th."""
    gamma_hat = np.asarray(gamma_hat)
    if gamma_hat.size != n_devices * q_per_device:
        raise ValueError("gamma_hat length must be n_devices * q_per_device")
    return _decide(gamma_hat.reshape(n_devices, q_per_device), xi_th)


def amp_decide(X_hat: np.ndarray, n_devices: int, q_per_device: int,
               xi_th: float = XI_TH) -> np.ndarray:
    """Per device: active iff its largest ||x_n^(q)||^2 / M over q is >= xi_th."""
    X_hat = np.asarray(X_hat)
    if X_hat.shape[0] != n_devices * q_per_device:
        raise ValueError("X_hat must have n_devices * q_per_device rows")
    M = X_hat.shape[1]
    power = (np.abs(X_hat) ** 2).sum(axis=1) / M
    return _decide(power.reshape(n_devices, q_per_device), xi_th)


def _expit(t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(t, -700.0, 700.0)))


def mmv_amp_estimate(Y: np.ndarray, S_scaled: np.ndarray, activity_rate: float, *,
                     max_iters: int = MAX_ITERS, damping: float = DAMPING,
                     x_init: np.ndarray | None = None) -> AmpEstimate:
    """AMP recovery of the row-sparse channel matrix from Y = S X + W.

    Inputs
        Y:             (L, M) received block
        S_scaled:      (L, N) signatures (any uniform column scaling; columns
                       are normalized internally and the estimate is mapped
                       back to the caller's scaling)
        activity_rate: prior P(row n is active), typically K / N; active
                       rows are CN(0, I_M)
        damping:       convex mixing with the previous iterate, in [0, 1).
                       Structured signature matrices excite period-2
                       oscillations at damping 0; the 0.3 default keeps
                       the iteration stable on every family shipped here
        x_init:        optional starting X in the caller's scaling

    The noise variance is not an input: the effective noise level
    tau2 = ||V||^2 / (L M) is tracked from the residual V.

    Per iteration, Z = X + A^H V feeds the Bernoulli-Gaussian MMSE row
    denoiser eta(z_n) = c_n pi_n z_n, and the Onsager term uses the exact
    identity for the averaged derivative per antenna m,
        b_m = (sum_n c_n pi_n + sum_n c_n pi_n u_n (1 - pi_n) |Z_nm|^2) / L,
    so it costs one matvec against |Z|^2, which the denoiser also uses.

    Stops on max_iters or when the residual norm changes by less than AMP_TOL
    relatively. A residual exceeding 1e6 x ||Y||_F marks the run as diverged
    (flagged on the estimate, not raised).
    """
    if not 0.0 <= activity_rate < 1.0:
        raise ValueError("activity_rate must be in [0, 1)")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must be in [0, 1)")
    if activity_rate == 0.0:
        # zero prior activity: the MMSE estimate is identically zero
        return AmpEstimate(np.zeros((S_scaled.shape[1], Y.shape[1]), dtype=complex),
                           0, np.empty(0), False)
    L, M = Y.shape
    N = S_scaled.shape[1]
    norms = np.linalg.norm(S_scaled, axis=0)
    if np.any(norms < 1e-300):
        raise ValueError("signature matrix has a zero column")
    A = S_scaled / norms
    AH = np.ascontiguousarray(A.conj().T)
    v = norms**2  # per-row active variance in unit-column coordinates
    lam = activity_rate
    log_prior_odds = np.log(lam) - np.log1p(-lam)

    X = (np.zeros((N, M), dtype=complex) if x_init is None
         else np.array(x_init * norms[:, None], dtype=complex))
    V = np.array(Y, dtype=complex) if x_init is None else Y - A @ X
    ones = np.ones(M)
    keep = 1.0 - damping
    ref = np.linalg.norm(Y) + 1e-300
    res = float(np.linalg.norm(V))
    res_trace = []
    diverged = False
    prev = None
    it = 0
    for it in range(1, max_iters + 1):
        tau2 = max(res ** 2 / (L * M), 1e-30)
        Z = AH @ V
        Z += X
        az2 = Z.real ** 2
        az2 += Z.imag ** 2  # |Z|^2
        zn2 = az2 @ ones  # row sums ||z_n||^2, as a matvec (a row reduce is slower)
        vt = v + tau2
        c = v / vt
        u = v / (tau2 * vt)
        pi = _expit(M * np.log(tau2 / vt) + zn2 * u + log_prior_odds)
        shrink = c * pi
        b = (shrink.sum() + (shrink * u * (1.0 - pi)) @ az2) / L  # Onsager, per antenna
        # damped updates, in place: X <- damping X + (1 - damping) eta(Z) and
        # V <- damping V + (1 - damping) (Y - A X + b V)
        Z *= (keep * shrink)[:, None]
        X *= damping
        X += Z
        R = A @ X
        R -= Y
        R *= keep
        V *= keep * b + damping
        V -= R
        res = float(np.linalg.norm(V))
        res_trace.append(res)
        if not np.isfinite(res) or res > 1e6 * ref:
            diverged = True
            break
        if prev is not None and abs(res - prev) < AMP_TOL * max(prev, 1e-300):
            break
        prev = res
    return AmpEstimate(X / norms[:, None], it, np.asarray(res_trace), diverged)


def error_metric(truth: np.ndarray, decided: np.ndarray) -> np.ndarray:
    """(N_d,) per-device error flags: wrong if any indicator position differs."""
    if truth.shape != decided.shape:
        raise ValueError("activity and decision shapes disagree")
    return np.any(truth != decided, axis=1)
