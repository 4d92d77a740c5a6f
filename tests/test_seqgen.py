import hashlib

import numpy as np
import pytest

from gfsig import analysis
from gfsig.analysis import coherence
from gfsig.cli import VERIFY_GRID, VERIFY_GRID_QUICK
from gfsig.experiments import build_masks, gen_random_family
from gfsig.galois import build_ext_field, primitive_polynomials
from gfsig.seqgen import (DETERMINISTIC_FAMILIES, FAMILIES, RANDOM_FAMILIES, MaskingSet,
                          build_signature_matrix, dft_matrix, gen_cubic_masks, gen_pr_masks,
                          gen_sidelnikov_masks, gen_trace_masks, mask_block,
                          masked_dft_columns, sidelnikov_seed, signature_to_csv,
                          trace_seed)

# published seed rows for (pr L=23 H=22), (sidelnikov L=24 H=24), (trace L=24 p=5)
PR_SEED = [0, 0, 2, 16, 4, 1, 18, 19, 6, 10, 3, 9, 20, 14, 21, 17, 8, 7, 12, 15, 5, 13, 11]
SID_SEED = [6, 17, 5, 2, 11, 13, 18, 21, 4, 19, 1, 9, 0, 22, 15, 10, 20, 14, 12, 8, 7, 23, 3, 16]
TRACE_SEED = [2, 4, 2, 0, 1, 4, 4, 3, 4, 0, 2, 3, 3, 1, 3, 0, 4, 1, 1, 2, 1, 0, 3, 2]


def test_published_seed_rows():
    assert gen_pr_masks(23, 22).seed.tolist() == PR_SEED
    assert gen_sidelnikov_masks(5, 2, 24).seed.tolist() == SID_SEED
    assert gen_trace_masks(5, 2).seed.tolist() == TRACE_SEED


def test_family_set_sizes():
    assert gen_cubic_masks(23).B == 529  # N_s = L^3 = 12167
    assert gen_pr_masks(23, 22).B == 483  # N_s = (H-1) L^2 = 11109
    assert gen_sidelnikov_masks(5, 2, 24).B == 552  # N_s = 13248
    assert gen_trace_masks(5, 2).B == 600  # N_s = L^2 (L+1) = 14400


# (shape, sha256 of phase_num.tobytes()) of each verify instance: the masks are the
# published ones, so however they are built they must stay bit-identical
PHASE_DIGESTS = {
    ("cubic", 7): ((49, 7), "5b136561bd4f4e9a36473d5c1d591b2980d4c94d13ab5ce9556a8bb0084ed82e"),
    ("cubic", 11): ((121, 11), "5ebef7645f38767510a2b8bf0f320e5eecb9960b8c12673f61fba0a906f01e20"),
    ("cubic", 23): ((529, 23), "2fcd52d2984aa93f422665b984cf2d50a7ac76e452b5c0032c6e03e033a64dbd"),
    ("pr", 11, 10): ((99, 11), "83904701c52cba2693571bf0b2fc19d79183d0b9e87e765e52adeac2fc3fa295"),
    ("pr", 23, 22): ((483, 23), "7001e6ebb7488b8acfe75f94ddbdaba77392ef711eb5912203a6aa7d68db12e8"),
    ("sidelnikov", 5, 2): ((552, 24),
                           "bc73bb6b4dad5846dcf2f0dc2f67340f4a2902ac7eabf643345a0986ce991d83"),
    ("sidelnikov", 3, 3): ((650, 26),
                           "cd76eadb8a72ed7a13d296546ce07594053c2537a892f35ad66ad9a8a4897a8a"),
    ("sidelnikov", 3, 2): ((56, 8),
                           "8324e99a4101fe88c7f059ffd7acca3f7d008f1dc80f3fcc8d2eae782c2760f1"),
    ("trace", 5, 2): ((600, 24), "ee0087018a40b77721de3cef1e58b9bd5900b3c06bd21460a08786caeb38c2e3"),
    ("trace", 3, 3): ((702, 26), "6ec42c4c37584d436460fe6cace63fefbe4d7b1524a32c2f3209d6c72fc1ede0"),
    ("trace", 3, 2): ((72, 8), "7a5298c9faa9a16466b2bf0eb39cf58afc61c2fc321ece5eadf1d40b01ddb3b6"),
}


def test_verify_grid_phase_digests():
    grid = {(family, *kwargs.values()): kwargs for family, kwargs in VERIFY_GRID + VERIFY_GRID_QUICK}
    assert grid.keys() == PHASE_DIGESTS.keys()
    for key, kwargs in grid.items():
        num = build_masks(key[0], **kwargs).phase_num
        shape, digest = PHASE_DIGESTS[key]
        assert (num.shape, num.dtype) == (shape, np.int64), key
        assert hashlib.sha256(num.tobytes()).hexdigest() == digest, key


@pytest.mark.parametrize("masks_fn", [
    lambda: gen_cubic_masks(11),
    lambda: gen_pr_masks(11, 10),
    lambda: gen_sidelnikov_masks(3, 2),
    lambda: gen_trace_masks(3, 2),
])
def test_masks_unimodular_and_distinct(masks_fn):
    masks = masks_fn()
    assert np.abs(np.abs(masks.masks) - 1).max() < 1e-15
    # phases are exact integers, so distinctness can be checked exactly
    rows = {tuple(row) for row in masks.phase_num % masks.phase_den}
    assert len(rows) == masks.B


def test_larger_families_distinct():
    for masks in (gen_cubic_masks(23), gen_pr_masks(23, 22),
                  gen_sidelnikov_masks(5, 2), gen_trace_masks(5, 2)):
        rows = {tuple(row) for row in masks.phase_num % masks.phase_den}
        assert len(rows) == masks.B


def test_cubic_rejects_bad_length():
    with pytest.raises(ValueError):
        gen_cubic_masks(4)
    with pytest.raises(ValueError):
        gen_cubic_masks(9)


def test_cubic_index_map():
    masks = gen_cubic_masks(5)
    # b = 7 -> lambda_1 = 1, lambda_2 = 2; phase at k=1 is (1 + 2) mod 5
    assert masks.phase_num[6, 1] % 5 == 3
    assert abs(masks.masks[6, 1] - np.exp(2j * np.pi * 3 / 5)) < 1e-15
    # b = L has lambda_1 = 0, lambda_2 = L = 0 mod L: the all-ones mask
    assert np.allclose(masks.masks[4], 1.0)


def test_pr_log_zero_convention():
    masks = gen_pr_masks(23, 22)
    # first H-1 masks have lambda_1 = 0, so v(0) = exp(j 2 pi l2 log(0) / H) = 1
    assert np.allclose(masks.masks[:21, 0], 1.0)


def test_pr_rejects_bad_H():
    with pytest.raises(ValueError):
        gen_pr_masks(23, 21)  # 21 does not divide 22
    with pytest.raises(ValueError):
        gen_pr_masks(23, 2)


def test_sidelnikov_log_zero_convention():
    masks = gen_sidelnikov_masks(5, 2)
    # 1 + alpha^12 = 0 in GF(25), so lambda_1 = 0 masks equal 1 at k = 12
    assert np.allclose(masks.masks[:23, 12], 1.0)
    assert masks.seed[12] == 0


def test_trace_first_blocks_are_shifted_seed():
    masks = gen_trace_masks(3, 2)
    L = masks.L
    base = np.exp(2j * np.pi * masks.seed / 3)
    for b in range(L):  # lambda_1 = 0, lambda_2 = b
        assert np.allclose(masks.masks[b], np.roll(base, -b))


def test_trace_rejects_even_characteristic():
    with pytest.raises(ValueError):
        gen_trace_masks(2, 3)


def test_seed_functions_under_polynomial_search():
    # some primitive polynomial of GF(25) reproduces each published row
    polys = primitive_polynomials(5, 2)
    sid_hits = [p for p in polys
                if sidelnikov_seed(build_ext_field(5, 2, p), 24).tolist() == SID_SEED]
    tr_hits = [p for p in polys
               if trace_seed(build_ext_field(5, 2, p)).tolist() == TRACE_SEED]
    assert sid_hits and tr_hits


def _exp_masks(masks):
    return np.exp(2j * np.pi * (masks.phase_num % masks.phase_den) / masks.phase_den)


def test_masks_are_exp_of_the_phases_bit_for_bit():
    # the masks gather from a table of roots of unity, entry for entry what exp gives
    for family, kwargs in VERIFY_GRID + VERIFY_GRID_QUICK:
        masks = build_masks(family, **kwargs)
        assert masks.masks.tobytes() == _exp_masks(masks).tobytes(), (family, kwargs)
    rng = np.random.default_rng(4)
    for family, L, den, params in [("cubic", 11, 11, {"L": 11}), ("pr", 13, 6, {"L": 13, "H": 6}),
                                   ("sidelnikov", 24, 8, {"L": 24, "H": 8}),
                                   ("trace", 26, 3, {"L": 26})]:
        n_bases = params["H"] - 1 if "H" in params else L if family == "cubic" else L + 1
        base = rng.integers(0, den, size=(n_bases, L))
        masks = MaskingSet(family, base, den, None, params)
        assert masks.masks.tobytes() == _exp_masks(masks).tobytes(), family


def test_dft_matrix_is_one_read_only_array_per_length():
    F = dft_matrix(23)
    assert dft_matrix(23) is F and dft_matrix(7) is not F
    with pytest.raises(ValueError):
        F[0, 0] = 0
    kl = np.outer(np.arange(23), np.arange(23)) % 23
    assert np.array_equal(F, np.exp(-2j * np.pi * kl / 23) / np.sqrt(23))


def test_dft_matrix_unitary():
    F = dft_matrix(23)
    assert np.abs(F.conj().T @ F - np.eye(23)).max() < 1e-13


def test_all_ones_mask_block_is_dft():
    masks = gen_cubic_masks(5)
    blk = mask_block(masks, 4)  # the all-ones mask
    assert np.allclose(blk, dft_matrix(5))


@pytest.mark.parametrize("masks", [gen_cubic_masks(7), gen_pr_masks(11, 10), gen_pr_masks(13, 4),
                                   gen_sidelnikov_masks(3, 2), gen_trace_masks(3, 2)],
                         ids=["cubic-7", "pr-11-10", "pr-13-4", "sidelnikov-3-2", "trace-3-2"])
def test_mask_block_stack_is_the_column_rule(masks):
    L, B = masks.L, masks.B
    stack = mask_block(masks, np.arange(B))
    assert stack.shape == (B, L, L)
    for b in range(B):
        cols = masked_dft_columns(masks.masks, b * L + np.arange(L))
        assert stack[b].tobytes() == cols.tobytes() == mask_block(masks, b).tobytes(), b


def test_block_orthonormality_sampled():
    rng = np.random.default_rng(3)
    for masks in (gen_cubic_masks(11), gen_pr_masks(11, 10),
                  gen_sidelnikov_masks(3, 2), gen_trace_masks(3, 2)):
        for b in rng.choice(masks.B, size=10, replace=False):
            blk = mask_block(masks, int(b))
            assert np.abs(blk.conj().T @ blk - np.eye(masks.L)).max() < 1e-10


def test_signature_matrix_basics():
    masks = gen_cubic_masks(23)
    sig = build_signature_matrix(masks, 132, 4)
    assert sig.entries.shape == (23, 528)
    assert np.abs(np.linalg.norm(sig.entries, axis=0) - 1).max() < 1e-12
    assert sig.device_columns(3) == slice(12, 16)
    # column  b*L + l  is  v_b odot F[:, l]
    F = dft_matrix(23)
    assert np.allclose(sig.entries[:, 23 + 2], masks.masks[1] * F[:, 2])


def test_signature_capacity_rejected():
    masks = gen_cubic_masks(5)  # N_s = 125
    build_signature_matrix(masks, 125, 1)
    with pytest.raises(ValueError):
        build_signature_matrix(masks, 126, 1)
    with pytest.raises(ValueError):
        build_signature_matrix(masks, 32, 4)


def test_small_regime_cubic_coherence_attains_value():
    # all pairwise correlations are quadratic character sums of magnitude
    # exactly L^(-1/2) across distinct lambda_1 = 0 blocks
    sig = build_signature_matrix(gen_cubic_masks(23), 132, 4)
    A = sig.entries
    G = np.abs(A.conj().T @ A)  # direct dense oracle
    np.fill_diagonal(G, 0.0)
    mu_direct = G.max()
    assert abs(mu_direct - 1 / np.sqrt(23)) < 1e-9
    assert abs(coherence(sig) - mu_direct) < 1e-12


def test_blocked_coherence_matches_direct(monkeypatch):
    monkeypatch.setattr(analysis, "GRAM_BLOCK", 7)
    rng = np.random.default_rng(9)
    A = rng.standard_normal((8, 40)) + 1j * rng.standard_normal((8, 40))
    G = np.abs((A / np.linalg.norm(A, axis=0)).conj().T @ (A / np.linalg.norm(A, axis=0)))
    np.fill_diagonal(G, 0.0)
    assert abs(coherence(A) - G.max()) < 1e-12


def test_qpsk_entries_unimodular_before_normalization():
    rng = np.random.default_rng(11)
    sig = gen_random_family("qpsk", 8, 32, trials=1, rng=rng)
    # after column normalization every entry has magnitude 1/sqrt(L)
    assert np.abs(np.abs(sig.entries) - 1 / np.sqrt(8)).max() < 1e-12
    assert np.abs(np.linalg.norm(sig.entries, axis=0) - 1).max() < 1e-12


def test_musa_support_and_no_zero_columns():
    rng = np.random.default_rng(12)
    sig = gen_random_family("musa", 1, 300, trials=1, rng=rng)
    # L = 1 makes all-zero columns likely, all must have been redrawn
    assert np.all(np.abs(sig.entries) > 0)
    raw = FAMILIES["musa"].draw(rng, 23, 200)
    points = np.array([0, 1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) * (np.sqrt(3) / 2)
    seen = np.unique(np.round(raw, 12))
    assert set(seen) <= set(np.round(points, 12))
    assert seen.size == 9  # every constellation point shows up in 4600 draws


def test_best_of_trials_is_monotone():
    mu10 = gen_random_family("gaussian", 16, 64, trials=10,
                             rng=np.random.default_rng(7)).meta["coherence"]
    mu1 = gen_random_family("gaussian", 16, 64, trials=1,
                            rng=np.random.default_rng(7)).meta["coherence"]
    # same stream: the 1-trial draw is the first of the 10
    assert mu10 <= mu1


def test_musa_coherence_above_cubic_bound():
    bound = 2 / np.sqrt(23)
    for seed in range(20):
        sig = gen_random_family("musa", 23, 800, trials=1,
                                rng=np.random.default_rng(seed))
        assert sig.meta["coherence"] > bound


def test_random_family_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gen_random_family("gaussian", 8, 16, trials=0, rng=rng)
    for kind in ("pn", "cubic"):  # no such family, and a family with no draw
        with pytest.raises(ValueError, match=f"^unknown random family '{kind}'$"):
            gen_random_family(kind, 8, 16, rng=rng)


def test_random_family_with_one_column_keeps_the_first_draw():
    for kind in RANDOM_FAMILIES:
        sig = gen_random_family(kind, 7, 1, trials=3, rng=np.random.default_rng(4))
        first = FAMILIES[kind].draw(np.random.default_rng(4), 7, 1)
        assert np.array_equal(sig.entries, first / np.linalg.norm(first, axis=0))
        assert sig.meta == {"trials": 3, "coherence": 0.0} and sig.shape == (7, 1)


def test_family_table_columns():
    # a deterministic family carries its regime, bound and block structure, a random one its draw
    assert set(DETERMINISTIC_FAMILIES) | set(RANDOM_FAMILIES) == set(FAMILIES)
    for name in DETERMINISTIC_FAMILIES:
        fam = FAMILIES[name]
        assert None not in (fam.small_columns, fam.bound, fam.shift_rule) and fam.draw is None
    for name in RANDOM_FAMILIES:
        fam = FAMILIES[name]
        assert fam.draw is not None and fam.bound is None, name


def test_signature_csv_round_trip(tmp_path):
    sig = build_signature_matrix(gen_cubic_masks(5), 20, 2)
    path = tmp_path / "sig.csv"
    signature_to_csv(sig, path)
    back = np.loadtxt(path, delimiter=",", comments="#").view(complex)
    assert np.array_equal(back, sig.entries)
    header = path.read_text().splitlines()[0]
    assert "family=cubic" in header and "L=5" in header and "N=40" in header
