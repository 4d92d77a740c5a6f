"""Uplink synthesis for the non-coherent access model.

A trial draws a K-subset of active devices, one symbol index per active
device, one block-fading channel vector per device, which carries whichever
of its Q signatures the device sends, and produces
Y = sqrt(L) S Gamma^(1/2) H + W. Randomness comes from counter-based
streams keyed on (base_seed, ..., purpose), so trials are reproducible and
order-independent under parallel execution.
"""

from __future__ import annotations

import numpy as np

PURPOSE_ACTIVITY = 1
PURPOSE_CHANNEL = 2
PURPOSE_NOISE = 3
PURPOSE_DETECTOR = 4
PURPOSE_GEN = 5


def trial_rng(base_seed: int, *keys: int) -> np.random.Generator:
    """Independent generator for (base_seed, *keys); same keys, same stream.

    SeedSequence pads its entropy with zeros, so (s,) and (s, 0), or (s, 5)
    and (s, 5, 0), would give the same stream, and it splits an integer into
    32-bit words, so (s, 2**32) would equal (s, 0, 1). Keys must therefore
    fit in 32 bits and the last one must be a nonzero purpose code
    (PURPOSE_*); then distinct keys give distinct streams.
    """
    entropy = [int(base_seed)] + [int(k) for k in keys]
    if any(not 0 <= k < 1 << 32 for k in entropy):
        raise ValueError("seed keys must lie in [0, 2**32)")
    if len(entropy) < 2 or entropy[-1] == 0:
        raise ValueError("the last seed key must be a nonzero purpose code")
    return np.random.default_rng(np.random.SeedSequence(entropy))


def complex_normal(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """i.i.d. CN(0, var): two real normals scaled by sqrt(var / 2) each."""
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def draw_activity(n_devices: int, k_active: int, q_per_device: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Uniform K-subset of active devices, each picking a symbol uniformly.

    Returns the (N_d, Q) int8 indicators: each row all-zero or one-hot.
    """
    if not 0 <= k_active <= n_devices:
        raise ValueError(f"need 0 <= K <= N_d, got K={k_active}, N_d={n_devices}")
    if q_per_device < 1:
        raise ValueError("q_per_device must be >= 1")
    active = np.sort(rng.choice(n_devices, size=k_active, replace=False))
    indicators = np.zeros((n_devices, q_per_device), dtype=np.int8)
    indicators[active, rng.integers(0, q_per_device, size=k_active)] = 1
    return indicators


def draw_channel(n_devices: int, n_antennas: int, rng: np.random.Generator) -> np.ndarray:
    """(N_d, M) channel rows: one CN(0, I_M) vector per device."""
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    return complex_normal(rng, (n_devices, n_antennas))


def synthesize(S: np.ndarray, activity: np.ndarray, H: np.ndarray, sigma_w2: float,
               rng: np.random.Generator) -> np.ndarray:
    """Y = sqrt(L) S Gamma^(1/2) H + W, (L, M), for unit-norm signature columns.

    activity holds draw_activity's (N_d, Q) indicators and H one row per
    device (draw_channel's); column n Q + q of S sends on row n. Columns are
    rescaled to norm sqrt(L) here, never in the stored matrix.
    """
    L, N = S.shape
    n_devices, q_per_device = activity.shape
    if sigma_w2 < 0:
        raise ValueError("sigma_w2 must be >= 0")
    if N != activity.size or H.shape[0] != n_devices:
        raise ValueError("shape mismatch between signatures, activity, and channel")
    act = np.flatnonzero(activity)
    Y = (np.sqrt(L) * S[:, act]) @ H[act // q_per_device]
    if sigma_w2 > 0:
        Y = Y + complex_normal(rng, (L, H.shape[1]), var=sigma_w2)
    return Y
