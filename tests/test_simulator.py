import numpy as np
import pytest

from gfsig.experiments import draw_trial
from gfsig.seqgen import build_signature_matrix, gen_cubic_masks
from gfsig.simulator import (PURPOSE_ACTIVITY, PURPOSE_CHANNEL,
                             PURPOSE_DETECTOR, PURPOSE_GEN, PURPOSE_NOISE,
                             complex_normal, draw_activity, draw_channel,
                             synthesize, trial_rng)


def test_trial_rng_reproducible_and_keyed():
    a = trial_rng(7, 1, 2).standard_normal(4)
    b = trial_rng(7, 1, 2).standard_normal(4)
    c = trial_rng(7, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        trial_rng(-1, 0)


def test_trial_rng_purpose_codes_prevent_aliasing():
    codes = [PURPOSE_ACTIVITY, PURPOSE_CHANNEL, PURPOSE_NOISE, PURPOSE_DETECTOR,
             PURPOSE_GEN]
    assert all(c > 0 for c in codes) and len(set(codes)) == len(codes)
    # zero padding would alias these to (1,) and (1, 5)
    for keys in [(), (0,), (5, 0)]:
        with pytest.raises(ValueError, match="purpose code"):
            trial_rng(1, *keys)
    # 32-bit words: (1, 2**32) would alias (1, 0, 1)
    for keys in [(-1, PURPOSE_GEN), (1 << 32, PURPOSE_GEN), (1, 1 << 32)]:
        with pytest.raises(ValueError, match="2\\*\\*32"):
            trial_rng(*keys)
    # existing streams are unchanged: trial 0's detector stream at K=40, M=192
    rng = draw_trial(np.zeros((1, 800)), 200, 4, 40, 192, 0.1, 1, 0)[3]
    assert rng.integers(0, 1 << 30, 4).tolist() == [474109536, 586235449,
                                                    415678114, 453165898]
    assert trial_rng(0, PURPOSE_GEN).integers(0, 1 << 30, 4).tolist() == [
        747758052, 410315514, 892969304, 588141074]


def test_complex_normal_unit_power():
    rng = np.random.default_rng(0)
    z = complex_normal(rng, 100_000)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.05


def test_draw_activity_structure():
    rng = trial_rng(0, PURPOSE_ACTIVITY)
    act = draw_activity(200, 20, 4, rng)
    assert act.shape == (200, 4) and act.dtype == np.int8
    row_sums = act.sum(axis=1)
    assert np.count_nonzero(row_sums) == 20
    assert row_sums.max() == 1  # at most one-hot


def test_draw_activity_edges():
    rng = np.random.default_rng(1)
    assert draw_activity(10, 0, 3, rng).sum() == 0
    full = draw_activity(10, 10, 1, rng)
    assert np.all(full == 1)
    with pytest.raises(ValueError):
        draw_activity(10, 11, 2, rng)
    with pytest.raises(ValueError, match="^q_per_device must be >= 1$"):
        draw_activity(10, 2, 0, rng)


def test_draw_channel_one_row_per_device():
    # one CN(0, I_M) row per device from a single draw; device n sends its symbol q,
    # column nQ + q of S, through row n: Y = sqrt(L) s_(nQ+q) h_n^T
    H = draw_channel(30, 8, rng=np.random.default_rng(2))
    assert H.shape == (30, 8)
    assert np.array_equal(H, complex_normal(np.random.default_rng(2), (30, 8)))
    with pytest.raises(ValueError, match="^need at least one antenna$"):
        draw_channel(30, 0, rng=np.random.default_rng(2))
    S = build_signature_matrix(gen_cubic_masks(7), 30, 4).entries
    for n in (0, 13, 29):
        for q in range(4):
            indicators = np.zeros((30, 4), dtype=np.int8)
            indicators[n, q] = 1
            Y = synthesize(S, indicators, H, 0.0, None)
            assert np.allclose(Y, np.sqrt(7) * np.outer(S[:, 4 * n + q], H[n]))


def test_synthesize_rejects_slot_rows():
    # an (N_d Q, M) channel, one row per signature slot, is not a channel of N_d devices
    S = build_signature_matrix(gen_cubic_masks(7), 30, 2).entries
    act = draw_activity(30, 3, 2, np.random.default_rng(18))
    H = draw_channel(30, 4, rng=np.random.default_rng(19))
    synthesize(S, act, H, 0.0, None)
    with pytest.raises(ValueError, match="shape mismatch"):
        synthesize(S, act, np.repeat(H, 2, axis=0), 0.0, None)


def test_draw_trial_y_unchanged():
    # Y of one (base seed, K, M, trial) as recorded when the channel repeated each device's
    # row over its Q slots; one row per device must leave it unchanged (1e-12: BLAS margin)
    S = build_signature_matrix(gen_cubic_masks(7), 30, 2).entries
    activity, H, Y, _ = draw_trial(S, 30, 2, 3, 4, 0.1, 5, 0)
    assert np.flatnonzero(activity.any(axis=1)).tolist() == [9, 12, 27] and H.shape == (30, 4)
    np.testing.assert_allclose(Y[0], [3.426826438023992 - 1.6811326085009093j,
                                      -1.0928506029737097 - 0.13982199359788028j,
                                      1.3387639997126342 + 1.4725374790709402j,
                                      1.8889046014411628 - 0.02600952762336013j], rtol=1e-12)
    np.testing.assert_allclose(Y.sum(), 14.824525466162381 + 6.324821900409316j, rtol=1e-12)


def test_draw_channel_unit_power():
    H = draw_channel(2000, 50, rng=np.random.default_rng(3))
    assert abs(np.mean(np.abs(H) ** 2) - 1.0) < 0.05


def test_synthesize_zero_cases():
    sig = build_signature_matrix(gen_cubic_masks(7), 30, 2)
    act = draw_activity(30, 0, 2, np.random.default_rng(4))
    H = draw_channel(30, 5, rng=np.random.default_rng(5))
    Y = synthesize(sig.entries, act, H, 0.0, np.random.default_rng(6))
    assert np.all(Y == 0)
    assert Y.shape == (7, 5)


def test_synthesize_single_device_rank_one():
    sig = build_signature_matrix(gen_cubic_masks(7), 30, 2)
    act = draw_activity(30, 1, 2, np.random.default_rng(7))
    H = draw_channel(30, 1, rng=np.random.default_rng(8))
    Y = synthesize(sig.entries, act, H, 0.0, np.random.default_rng(9))
    H = H[np.arange(30 * 2) // 2]
    (col,) = np.flatnonzero(act)
    expected = np.sqrt(7) * np.outer(sig.entries[:, col], H[col])
    assert np.allclose(Y, expected)
    assert np.linalg.matrix_rank(Y) == 1


def test_noise_only_energy():
    sig = build_signature_matrix(gen_cubic_masks(7), 20, 2)
    L, M, s2 = 7, 6, 0.1
    H = draw_channel(20, M, rng=np.random.default_rng(10))
    act = draw_activity(20, 0, 2, np.random.default_rng(11))
    total = 0.0
    trials = 1000
    for t in range(trials):
        Y = synthesize(sig.entries, act, H, s2, trial_rng(5, t, PURPOSE_NOISE))
        total += np.linalg.norm(Y) ** 2
    assert abs(total / trials - s2 * L * M) / (s2 * L * M) < 0.05


def test_signal_energy_identity():
    # sigma = 0: E||Y||_F^2 = K L M
    sig = build_signature_matrix(gen_cubic_masks(7), 20, 2)
    L, M, K = 7, 4, 5
    total = 0.0
    trials = 1000
    for t in range(trials):
        act = draw_activity(20, K, 2, trial_rng(6, t, PURPOSE_ACTIVITY))
        H = draw_channel(20, M, rng=trial_rng(6, t, PURPOSE_CHANNEL))
        Y = synthesize(sig.entries, act, H, 0.0, trial_rng(6, t, PURPOSE_NOISE))
        total += np.linalg.norm(Y) ** 2
    expected = K * L * M
    assert abs(total / trials - expected) / expected < 0.05


def test_synthesize_deterministic():
    sig = build_signature_matrix(gen_cubic_masks(7), 20, 2)
    out = []
    for _ in range(2):
        act = draw_activity(20, 5, 2, trial_rng(9, 0, PURPOSE_ACTIVITY))
        H = draw_channel(20, 3, rng=trial_rng(9, 0, PURPOSE_CHANNEL))
        Y = synthesize(sig.entries, act, H, 0.1, trial_rng(9, 0, PURPOSE_NOISE))
        out.append(Y)
    assert np.array_equal(out[0], out[1])


def test_synthesize_shape_mismatch():
    sig = build_signature_matrix(gen_cubic_masks(7), 20, 2)
    act = draw_activity(19, 5, 2, np.random.default_rng(12))
    H = draw_channel(19, 3, rng=np.random.default_rng(13))
    with pytest.raises(ValueError):
        synthesize(sig.entries, act, H, 0.1, np.random.default_rng(14))
    # shapes that agree: only the negative noise variance is wrong
    act = draw_activity(20, 5, 2, np.random.default_rng(12))
    H = draw_channel(20, 3, rng=np.random.default_rng(13))
    with pytest.raises(ValueError, match="^sigma_w2 must be >= 0$"):
        synthesize(sig.entries, act, H, -0.1, np.random.default_rng(14))


def test_synthesize_all_active_scaling():
    sig = build_signature_matrix(gen_cubic_masks(7), 4, 1)
    act = draw_activity(4, 4, 1, np.random.default_rng(15))
    H = draw_channel(4, 2, rng=np.random.default_rng(16))
    Y = synthesize(sig.entries, act, H, 0.0, np.random.default_rng(17))
    assert np.allclose(Y, np.sqrt(7) * sig.entries @ H)
