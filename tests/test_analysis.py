import math
import tracemalloc

import numpy as np
import pytest

from gfsig import analysis, cli, seqgen
from gfsig.analysis import (bound_failures, coherence, coherence_report, khatri_rao_lift,
                            ml_coherence_condition, negative_fraction,
                            null_space_sign_ratio, welch_bound)
from gfsig.cli import VERIFY_GRID, VERIFY_GRID_QUICK
from gfsig.experiments import build_masks
from gfsig.galois import is_prime
from gfsig.seqgen import (FAMILIES, MaskingSet, SignatureMatrix,
                          build_signature_matrix, dft_matrix, gen_cubic_masks,
                          gen_pr_masks, gen_sidelnikov_masks, gen_trace_masks,
                          masked_dft_columns, trace_bases)


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- coherence ------------------------------------------------------------

def test_coherence_identity_is_zero():
    assert coherence(np.eye(6)) == 0.0


def test_coherence_repeated_column_is_one():
    rng = np.random.default_rng(0)
    A = rand_complex(rng, (5, 4))
    A[:, 3] = 2 * A[:, 0]
    assert abs(coherence(A) - 1.0) < 1e-12


def test_coherence_rejects_zero_column():
    A = np.eye(4)
    A[:, 2] = 0
    with pytest.raises(ValueError):
        coherence(A)
    with pytest.raises(ValueError):
        coherence(np.ones((3, 1)))


def test_coherence_argmax_pair():
    A = np.eye(5)
    A[:, 4] = A[:, 1]
    mu, pair = coherence(A, with_pair=True)
    assert mu == pytest.approx(1.0)
    assert pair == (1, 4)


@pytest.mark.parametrize("masks,n", [(gen_cubic_masks(11), 11),
                                     (gen_sidelnikov_masks(3, 2), 6)],
                         ids=["cubic-11-single-block", "sidelnikov-3-2-N6"])
def test_gram_scan_pair_is_ordered(masks, n):
    # both maxima lie inside one diagonal block of the Gram scan
    A = build_signature_matrix(masks, n, 1).entries
    mu, (i, j) = analysis._gram_coherence(A)
    assert i < j
    assert abs(abs(np.vdot(A[:, i], A[:, j])) - mu) < 1e-12


def reference_gram_coherence(A: np.ndarray) -> tuple[float, tuple[int, int]]:
    """The blocked Gram scan over a normalized copy of A, GRAM_BLOCK columns at a time."""
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms < 1e-300):
        raise ValueError("matrix has a zero column")
    An = A / norms
    N = An.shape[1]
    best, pair = -1.0, (0, 1)
    for i0 in range(0, N, analysis.GRAM_BLOCK):
        Bi = An[:, i0 : i0 + analysis.GRAM_BLOCK]
        for j0 in range(i0, N, analysis.GRAM_BLOCK):
            G = np.abs(Bi.conj().T @ An[:, j0 : j0 + analysis.GRAM_BLOCK])
            if i0 == j0:
                G[np.tri(len(G), dtype=bool)] = -1.0
            r, c = divmod(int(np.argmax(G)), G.shape[1])
            if G[r, c] > best:
                best, pair = float(G[r, c]), (i0 + r, j0 + c)
    return best, pair


@pytest.mark.parametrize("shape,block", [((40, 12), None), ((30, 20), 7), ((12, 12), None),
                                         ((12, 12), 5), ((6, 2100), None), ((529, 48), None)],
                         ids=["tall", "tall-multi-block", "square", "square-multi-block",
                              "wide-multi-block", "lift-shape"])
def test_gram_scan_matches_the_normalized_copy(shape, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(analysis, "GRAM_BLOCK", block)
    rng = np.random.default_rng(shape[0] * shape[1])
    A = rand_complex(rng, shape) * rng.uniform(0.01, 100.0, shape[1])  # unequal column norms
    if shape[1] > analysis.GRAM_BLOCK:  # the maximum pairs the first and last blocks
        A[:, -1] = 1e3 * (A[:, 3] + 0.1 * rand_complex(rng, shape[0]) * np.linalg.norm(A[:, 3]))
    mu, (i, j) = analysis._gram_coherence(A)
    assert abs(mu - reference_gram_coherence(A)[0]) < 1e-12
    assert 0 <= i < j < shape[1]
    cos = abs(np.vdot(A[:, i], A[:, j])) / (np.linalg.norm(A[:, i]) * np.linalg.norm(A[:, j]))
    assert abs(cos - mu) < 1e-12
    A[:, j] = 0
    with pytest.raises(ValueError, match="zero column"):
        analysis._gram_coherence(A)


# --- coherence from the masks -------------------------------------------------

def reference_masked_dft_coherence(V: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Coherence of [diag(v_0) F_L, ..., diag(v_{B-1}) F_L] from its B >= 2 mask rows.

    Columns of one block are orthonormal. Column l of block b and column l'
    of block b' > b meet in DFT(conj(v_b) v_b')[(l' - l) mod L] / L, so each
    block pair costs one length-L DFT, taken here as a row times the unscaled
    L x L DFT matrix: for L <= 47 that is as fast as np.fft.fft or faster
    (2x at prime L), though np.fft wins at large smooth L such as 80. Every
    block before the last is full, so the last block sees every shift even
    when the matrix keeps only part of it.
    """
    B, L = V.shape
    kl = np.outer(np.arange(L), np.arange(L)) % L
    W = np.exp(-2j * np.pi * kl / L)
    best = -1.0
    pair = (0, L)
    for b in range(B - 1):
        G = np.abs((V[b + 1 :] * V[b].conj()) @ W)
        k = int(np.argmax(G))
        if G.flat[k] > best:
            best = float(G.flat[k])
            r, shift = divmod(k, L)
            pair = (b * L + (-shift) % L, (b + 1 + r) * L)  # l' = 0, l = -shift
    return best / L, pair


# One full-size instance per family: the Gram oracle at N = B L takes 1-2 s each.
FULL_SIZE = [("cubic", {"L": 23}), ("pr", {"L": 23, "H": 22}),
             ("sidelnikov", {"p": 5, "m": 2}), ("trace", {"p": 5, "m": 2})]


def _oracle_cases():
    """(family, kwargs, column counts) for the mask path vs. Gram scan check."""
    assert all(case in VERIFY_GRID for case in FULL_SIZE)
    for family, kwargs in VERIFY_GRID + VERIFY_GRID_QUICK:
        masks = build_masks(family, **kwargs)
        L, B = masks.L, masks.B
        small = FAMILIES[family].small_columns(L, masks.params.get("H"))
        counts = {small, small - 3, L + 1, L, L - 2}  # L, L - 2: one block, Gram fallback
        if (family, kwargs) in VERIFY_GRID_QUICK:
            counts |= {B * L, B * L - 3}  # the last block full, then partial
        if (family, kwargs) in FULL_SIZE:
            counts.add(B * L)
        yield pytest.param(masks, sorted(counts), id=f"{family}-{'-'.join(map(str, kwargs.values()))}")


def _check_pair(sig, mu, pair):
    i, j = pair
    assert 0 <= i < j < sig.N, (sig.N, pair)
    assert abs(abs(np.vdot(sig.entries[:, i], sig.entries[:, j])) - mu) < 1e-12, (sig.N, pair)


@pytest.mark.parametrize("masks,counts", _oracle_cases())
def test_mask_coherence_matches_gram_scan(masks, counts):
    for n in counts:
        sig = build_signature_matrix(masks, n, 1)
        mu, pair = coherence(sig, with_pair=True)
        assert abs(mu - coherence(sig.entries)) < 1e-12, n
        if len(sig.mask_rows) > 1:
            assert abs(mu - reference_masked_dft_coherence(sig.mask_rows)[0]) < 1e-12, n
        _check_pair(sig, mu, pair)


@pytest.mark.parametrize("family,kwargs", [("cubic", {"L": 7}), ("pr", {"L": 11, "H": 10}),
                                           ("sidelnikov", {"p": 3, "m": 2}),
                                           ("trace", {"p": 3, "m": 2})])
def test_mask_coherence_every_column_count(family, kwargs):
    # every prefix of every block, so each base block is also met as the partial last block
    masks = build_masks(family, **kwargs)
    L = masks.L
    reference = {}  # blocks -> mu, which the columns kept of the last block do not change
    for n in range(2, masks.B * L + 1):
        sig = build_signature_matrix(masks, n, 1)
        mu, pair = coherence(sig, with_pair=True)
        blocks = len(sig.mask_rows)
        if blocks not in reference:
            reference[blocks] = (reference_masked_dft_coherence(sig.mask_rows)[0] if blocks > 1
                                 else coherence(sig.entries))
        assert abs(mu - reference[blocks]) < 1e-12, n
        _check_pair(sig, mu, pair)


def _bound_sweep_instances():
    """Every (family, kwargs) the generators accept: prime L <= 47, q = p^m <= 49."""
    primes = [n for n in range(3, 48) if is_prime(n)]
    for L in primes:
        yield "cubic", {"L": L}
        for H in range(3, L):
            if (L - 1) % H == 0:
                yield "pr", {"L": L, "H": H}
    for p in primes:
        for m in range(1, 5):
            q = p**m
            if q > 49:
                break
            yield "trace", {"p": p, "m": m}
            for H in range(2, q):
                if (q - 1) % H == 0:
                    yield "sidelnikov", {"p": p, "m": m, "H": H}


def test_bound_sweep_every_instance():
    reports = 0
    for family, kwargs in _bound_sweep_instances():
        masks = build_masks(family, **kwargs)
        L, B, H = masks.L, masks.B, masks.params.get("H")
        for n in sorted({min(FAMILIES[family].small_columns(L, H), B * L), B * L}):
            report = coherence_report(build_signature_matrix(masks, n, 1))
            # Welch <= mu <= bound, to bound_failures' 1e-9: the small regime attains
            # its bound, which mu exceeds by rounding (up to 2.5e-16, cubic L = 29)
            assert bound_failures(report) == [], (family, kwargs, n)
            reports += 1
    assert reports == 332  # 166 instances, two column counts each


def test_coherence_report_reads_the_masks(monkeypatch):
    sig = build_signature_matrix(gen_cubic_masks(11), 1331, 1)
    expected = coherence(sig)

    def no_gram(*args):
        raise AssertionError("Gram scan used for a masked-DFT matrix")

    monkeypatch.setattr(analysis, "_gram_coherence", no_gram)
    assert coherence_report(sig).mu == expected


def test_mask_rows_must_fit_the_matrix():
    sig = build_signature_matrix(gen_cubic_masks(7), 20, 1)
    assert sig.mask_rows.shape == (3, 7)
    # only build_signature_matrix attaches mask rows, so none can be attached that misfit
    with pytest.raises(TypeError, match="mask_rows"):
        SignatureMatrix(sig.entries, 20, 1, "cubic", mask_rows=sig.mask_rows[:2])


def test_mask_rows_must_be_shifted_bases():
    # random unimodular rows: the base-block path reads row 0 only and would
    # understate mu against the Gram scan (in 21 of these 50 seeds), so such rows
    # cannot be attached and the hand-built matrix takes the Gram scan
    F = dft_matrix(7)
    understated = 0
    for seed in range(50):
        V = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=(3, 7)))
        A = (V.T[:, :, None] * F[:, None, :]).reshape(7, 21)
        row0 = np.not_equal.outer([0], np.arange(3))  # block 0 against blocks 1 and 2
        understated += analysis._masked_dft_coherence(V, [0], row0)[0] < coherence(A) - 1e-12
        with pytest.raises(TypeError, match="mask_rows"):
            SignatureMatrix(A, 21, 1, "cubic", {"L": 7}, mask_rows=V)
        assert coherence(SignatureMatrix(A, 21, 1, "cubic", {"L": 7})) == coherence(A)
    assert understated == 21


@pytest.mark.parametrize("family,L,den,params", [
    ("cubic", 7, 7, {"L": 7}), ("pr", 11, 5, {"L": 11, "H": 5}),
    ("sidelnikov", 8, 4, {"L": 8, "H": 4}), ("trace", 8, 3, {"L": 8})])
def test_masks_from_random_bases_follow_the_shift_rule(family, L, den, params):
    fam = FAMILIES[family]
    n_bases = params["H"] - 1 if "H" in params else L if fam.chirp else L + 1
    k = np.arange(L)
    for seed in range(3):
        base = np.random.default_rng(seed).integers(0, den, size=(n_bases, L))
        masks = MaskingSet(family, base, den, None, params)
        assert masks.B == n_bases * L and masks.masks.shape == (masks.B, L)
        u = np.exp(2j * np.pi * base / den)
        assert np.array_equal(masks.masks[fam.bases(L, params.get("H"), masks.B)], u)
        for b in range(masks.B):
            (c,), (s,) = fam.shift_rule(L, params.get("H"), np.array([b]))
            want = u[c] * np.exp(2j * np.pi * s * k * k / L) if fam.chirp else np.roll(u[c], -s)
            assert np.abs(masks.masks[b] - want).max() < 1e-12, (seed, b)
        for n in (L + 1, 2 * L, 3 * L - 2, masks.B * L // 2 + 1, masks.B * L - 1, masks.B * L):
            sig = build_signature_matrix(masks, n, 1)
            assert abs(coherence(sig) - analysis._gram_coherence(sig.entries)[0]) < 1e-12, n
    if fam.chirp:
        with pytest.raises(ValueError, match="phase_den = L = 7"):
            MaskingSet(family, base, 5, None, params)


def test_hand_built_matrix_takes_the_gram_scan():
    # a cubic-labelled random matrix: the mask rows of a real cubic matrix of that
    # size understate its coherence, and they cannot be attached
    rows = build_signature_matrix(gen_cubic_masks(7), 20, 1).mask_rows
    A = rand_complex(np.random.default_rng(2), (7, 20))
    A /= np.linalg.norm(A, axis=0)
    sig = SignatureMatrix(A, 20, 1, "cubic", {"L": 7})
    assert sig.mask_rows is None
    assert coherence(sig) == analysis._gram_coherence(A)[0]
    row0 = np.not_equal.outer([0], np.arange(len(rows)))
    assert coherence(sig) > analysis._masked_dft_coherence(rows, [0], row0)[0] + 0.1
    with pytest.raises(TypeError, match="mask_rows"):
        SignatureMatrix(A, 20, 1, "cubic", {"L": 7}, mask_rows=rows)


def test_cubic_L47_all_columns_within_bounds():
    # N = 103,823 columns: past what the N x N Gram scan can do at desk scale
    masks = gen_cubic_masks(47)
    sig = build_signature_matrix(masks, masks.B * masks.L, 1)
    mu, (i, j) = coherence(sig, with_pair=True)
    assert welch_bound(47, sig.N) <= mu <= 2 / math.sqrt(47)
    assert abs(abs(np.vdot(sig.entries[:, i], sig.entries[:, j])) - mu) < 1e-12


# --- cubic difference classes -------------------------------------------------

def base_block_coherence(V: np.ndarray, bases) -> tuple[float, tuple[int, int]]:
    """Each block in `bases` against every block: the mask path before difference classes."""
    L = V.shape[1]
    F = dft_matrix(L)
    best = -1.0
    pair = (0, L)
    for c in bases:
        G = np.abs((V * V[c].conj()) @ F)
        G[c] = -1.0
        k = int(np.argmax(G))
        if G.flat[k] > best:
            best = float(G.flat[k])
            b, shift = divmod(k, L)
            pair = (c * L + (-shift) % L, b * L) if c < b else (b * L + shift, c * L)
    return best / math.sqrt(L), pair


def _check_pair_from_masks(masks, n, mu, pair):
    i, j = pair
    assert 0 <= i < j < n, (n, pair)
    a = masked_dft_columns(masks.masks, np.array(pair))
    assert abs(abs(np.vdot(a[:, 0], a[:, 1])) - mu) < 1e-12, (n, pair)


@pytest.mark.parametrize("L", [7, 11, 23, 29, 31, 47])
def test_cubic_difference_classes_match_the_base_block_loop(L):
    masks = gen_cubic_masks(L)
    B = masks.B
    cubic = FAMILIES["cubic"]
    if L <= 11:
        counts = range(L + 1, B * L + 1)  # every N past one block
    else:  # small regime, a partial last row of blocks, and full capacity
        counts = (L * L, B * L // 2 + 1, B * L)
    reference = {}  # blocks -> base-block mu, which the columns of the last block do not change
    for n in counts:
        sig = build_signature_matrix(masks, n, 1)
        blocks = len(sig.mask_rows)
        assert len(masks.bases(blocks)) <= 2  # the class path, not one base per row of blocks
        mu, pair = coherence(sig, with_pair=True)
        if blocks not in reference:
            reference[blocks] = base_block_coherence(sig.mask_rows, cubic.bases(L, None, blocks))[0]
        assert abs(mu - reference[blocks]) < 1e-12, n
        _check_pair_from_masks(masks, n, mu, pair)


def test_difference_classes_of_random_stepped_bases():
    # random u_0 and step w, u_c = u_0 + c w: the classes hold as for cubic, but their
    # maxima differ, so a class left out (say, below a partial last row) shows in mu
    L = 7
    k = np.arange(L)
    for seed in range(3):
        u0, w = np.random.default_rng(seed).integers(0, L, size=(2, L))
        masks = MaskingSet("cubic", (u0 + k[:, None] * w) % L, L, None, {"L": L})
        bases = FAMILIES["cubic"].bases(L, None, masks.B)
        reference = {}
        for n in range(L + 1, masks.B * L + 1):
            sig = build_signature_matrix(masks, n, 1)
            blocks = len(sig.mask_rows)
            mu, pair = coherence(sig, with_pair=True)
            if blocks not in reference:
                reference[blocks] = base_block_coherence(
                    sig.mask_rows, [c for c in bases if c < blocks])[0]
            assert abs(mu - reference[blocks]) < 1e-12, (seed, n)
            _check_pair_from_masks(masks, n, mu, pair)


def test_cubic_classes_need_stepped_bases():
    # random base rows do not step by a fixed row: every base block is paired
    L = 7
    base = np.random.default_rng(0).integers(0, L, size=(L, L))
    assert MaskingSet("cubic", base, L, None, {"L": L}).bases(20) == [0, 7, 14]
    masks = gen_cubic_masks(L)
    assert masks.bases(L * L) == [0]  # full capacity: L^2 - 1 rows
    assert masks.bases(20) == [0, 14]  # the last row of blocks is partial
    assert masks.bases(14) == [0]


# --- orbit representatives: trace's block 0, one row per mirror pair ------------

def test_orbit_rows_match_every_base_on_every_instance():
    # the bound sweep's instances and column counts, against every base paired with every block
    reports = 0
    for family, kwargs in _bound_sweep_instances():
        masks = build_masks(family, **kwargs)
        L, B, H = masks.L, masks.B, masks.params.get("H")
        if family == "trace":
            assert masks.bases(B) == [0]  # the orbit shortcut, not L + 1 bases
        for n in sorted({min(FAMILIES[family].small_columns(L, H), B * L), B * L}):
            sig = build_signature_matrix(masks, n, 1)
            blocks = len(sig.mask_rows)
            if blocks < 2:  # one block: the Gram scan
                continue
            mu, pair = coherence(sig, with_pair=True)
            every = FAMILIES[family].bases(L, H, blocks)
            assert abs(mu - base_block_coherence(sig.mask_rows, every)[0]) < 1e-12, (family, kwargs, n)
            _check_pair_from_masks(masks, n, mu, pair)
            reports += 1
    assert reports == 314  # 332 reports, less the 18 of a single block


def test_mirror_rows_at_full_capacity():
    # base row r pairs with the blocks of base rows r' >= r, and not with itself
    masks = gen_pr_masks(11, 10)
    bases = masks.bases(masks.B)
    r = FAMILIES["pr"].shift_rule(11, 10, np.arange(masks.B))[0]
    expected = (r >= r[bases, None]) & np.not_equal.outer(bases, np.arange(masks.B))
    assert np.array_equal(masks.partners(bases, masks.B), expected)
    assert expected.sum() == sum((9 - i) * 11 - 1 for i in range(9))  # 449 of 9 * 98 rows


def test_mirror_rows_of_a_subset_of_bases():
    # a row is dropped only for a mirror row the given bases compute: random pr bases,
    # two of them, every N, and the rows kept still hold those two bases' maximum
    L, H = 11, 10
    for seed in range(3):
        base = np.random.default_rng(seed).integers(0, H, size=(H - 1, L))
        masks = MaskingSet("pr", base, H, None, {"L": L, "H": H})
        for n in range(5, masks.B + 1):
            bases = [1, 4]
            mu = analysis._masked_dft_coherence(masks.masks[:n], bases, masks.partners(bases, n))
            assert abs(mu[0] - base_block_coherence(masks.masks[:n], bases)[0]) < 1e-12, (seed, n)


@pytest.mark.parametrize("p", [3, 5])
def test_trace_block_zero_needs_trace_rows(p):
    # block 0 alone meets every orbit only if the base rows are Tr(a^k + theta a^(2k)):
    # one numerator changed, or rows rebuilt from a seed that is no trace sequence, and
    # block 0 alone understates mu, so such sets pair every base with every block
    real = gen_trace_masks(p, 2)
    L, B = real.L, real.B
    every = FAMILIES["trace"].bases(L, None, B)
    assert real.bases(B) == [0] and real.bases(B - 1) == every
    bumped = real.base_num.copy()
    bumped[1, 0] = (bumped[1, 0] + 1) % p  # theta = 1, k = 0
    t = np.random.default_rng(p).integers(0, p, L)
    for masks in (MaskingSet("trace", bumped, p, real.seed, dict(real.params)),
                  MaskingSet("trace", trace_bases(t, p), p, t, dict(real.params))):
        assert masks.bases(B) == every
        sig = build_signature_matrix(masks, B * L, 1)
        mu, pair = coherence(sig, with_pair=True)
        assert abs(mu - base_block_coherence(masks.masks, every)[0]) < 1e-12
        row0 = np.not_equal.outer([0], np.arange(B))
        assert mu > analysis._masked_dft_coherence(masks.masks, [0], row0)[0] + 1e-3
        if p == 3:  # q = 9: 576 columns
            assert abs(mu - analysis._gram_coherence(sig.entries)[0]) < 1e-12
        _check_pair_from_masks(masks, B * L, mu, pair)


# --- verify from the masks alone ---------------------------------------------

VERIFY_CASES = VERIFY_GRID + [case for case in VERIFY_GRID_QUICK if case not in VERIFY_GRID]


@pytest.mark.parametrize("family,kwargs", VERIFY_CASES,
                         ids=[f"{f}-{'-'.join(map(str, kw.values()))}" for f, kw in VERIFY_CASES])
def test_verify_masks_matches_the_full_matrix(family, kwargs, monkeypatch):
    masks = build_masks(family, **kwargs)
    L, B, H = masks.L, masks.B, masks.params.get("H")
    for n in sorted({min(FAMILIES[family].small_columns(L, H), B * L), B * L}):
        widths, lifted = [], []  # columns of every masked_dft_columns call; lifted samples

        def columns(V, cols):
            widths.append(len(cols))
            return masked_dft_columns(V, cols)

        def lift(sub):
            lifted.append(sub)
            return khatri_rao_lift(sub)

        for module in (seqgen, cli):
            monkeypatch.setattr(module, "masked_dft_columns", columns)
        monkeypatch.setattr(cli, "khatri_rao_lift", lift)
        report, failures = cli.verify_masks(masks, n, np.random.default_rng(n))
        monkeypatch.undo()
        assert failures == [], (n, failures)
        assert max(widths) <= max(48, L), n  # never the L x N matrix

        S = build_signature_matrix(masks, n, 1).entries
        cols = np.sort(np.random.default_rng(n).choice(n, size=min(48, n), replace=False))
        assert lifted[0].tobytes() == S[:, cols].tobytes(), n
        mu = (coherence(S) if n <= 2048
              else reference_masked_dft_coherence(masks.masks[:-(-n // L)])[0])
        assert abs(report.mu - mu) < 1e-12, n
        small = n <= FAMILIES[family].small_columns(L, H)
        assert (report.family, report.L, report.H, report.n_devices, report.q_per_device,
                report.welch, report.bound, report.regime) == (
            family, S.shape[0], H, S.shape[1], 1, welch_bound(*S.shape),
            FAMILIES[family].bound(L, small), "small" if small else "general"), n
        i, j = report.argmax_pair
        assert 0 <= i < j < S.shape[1], n
        assert abs(abs(np.vdot(S[:, i], S[:, j])) - report.mu) < 1e-12, n


def test_verify_masks_names_a_block_that_is_not_orthonormal():
    masks = build_masks("cubic", L=7)
    n = masks.B * masks.L
    assert cli.verify_masks(masks, n, np.random.default_rng(5))[1] == []
    rng = np.random.default_rng(5)  # the draws of verify_masks: 48 columns, then 10 blocks
    rng.choice(n, size=48, replace=False)
    b = int(rng.choice(masks.B, size=10, replace=False)[3])
    bad = masks.masks.copy()
    bad[b, 2] *= 1.5  # |v_b[2]| != 1
    object.__setattr__(masks, "masks", bad)
    failures = cli.verify_masks(masks, n, np.random.default_rng(5))[1]
    ortho = [f for f in failures if "orthonormality" in f]
    assert len(ortho) == 1 and ortho[0].startswith(f"block {b} orthonormality error "), failures
    assert float(ortho[0].rsplit(" ", 1)[1]) > 0.1


def test_verify_masks_catches_a_wrong_lift(monkeypatch):
    masks = build_masks("pr", L=11, H=10)
    monkeypatch.setattr(cli, "khatri_rao_lift", lambda sub: khatri_rao_lift(sub).real)
    failures = cli.verify_masks(masks, masks.B * masks.L, np.random.default_rng(0))[1]
    assert len(failures) == 1 and failures[0].startswith("lifted coherence "), failures
    assert " differs from mu^2 = " in failures[0]


@pytest.mark.parametrize("family,kwargs", [("cubic", {"L": 101}), ("pr", {"L": 101, "H": 100}),
                                           ("trace", {"p": 3, "m": 4}),
                                           ("sidelnikov", {"p": 3, "m": 4, "H": 80})])
def test_verify_masks_far_past_desk_scale(family, kwargs):
    # N ~ 0.5e6 to 1.0e6 columns: S alone would take 0.8 to 1.56 GB; the masks and
    # one block row suffice
    tracemalloc.start()
    try:
        masks = build_masks(family, **kwargs)
        n = masks.B * masks.L
        report, failures = cli.verify_masks(masks, n, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert failures == []
    assert report.welch < report.mu <= report.bound
    assert peak < 100 * 2**20, peak
    _check_pair_from_masks(masks, n, report.mu, report.argmax_pair)


# --- welch bound ----------------------------------------------------------

def test_welch_bound_values():
    # direct formula evaluation, frozen
    assert welch_bound(23, 12167) == pytest.approx(0.20832579853764438, abs=1e-15)
    assert welch_bound(1, 2) == pytest.approx(1.0)
    assert welch_bound(23, 23) == 0.0  # vacuous when N <= L
    assert welch_bound(23, 10) == 0.0


def test_welch_bound_below_coherence_for_generated_matrices():
    rng = np.random.default_rng(1)
    for _ in range(10):
        L, N = rng.integers(4, 12), rng.integers(16, 64)
        A = rand_complex(rng, (int(L), int(N)))
        assert coherence(A) >= welch_bound(int(L), int(N)) - 1e-12


# --- khatri-rao lift --------------------------------------------------------

def test_lift_shape_and_unit_norms():
    rng = np.random.default_rng(2)
    A = rand_complex(rng, (6, 10))
    A /= np.linalg.norm(A, axis=0)
    Sh = khatri_rao_lift(A)
    assert Sh.shape == (36, 10)
    assert np.abs(np.linalg.norm(Sh, axis=0) - 1).max() < 1e-12


def test_lift_row_matrix_gives_squared_moduli():
    A = np.array([[1 + 1j, 2, 0.5j]])
    assert np.allclose(khatri_rao_lift(A), np.abs(A) ** 2)


def test_lift_kron_ordering():
    rng = np.random.default_rng(3)
    A = rand_complex(rng, (4, 3))
    Sh = khatri_rao_lift(A)
    for i in range(3):
        assert np.allclose(Sh[:, i], np.kron(A[:, i].conj(), A[:, i]))


def test_lift_coherence_squares():
    rng = np.random.default_rng(4)
    for _ in range(20):
        L = int(rng.integers(3, 17))
        N = int(rng.integers(L + 1, 65))
        A = rand_complex(rng, (L, N))
        assert abs(coherence(khatri_rao_lift(A)) - coherence(A) ** 2) < 1e-12


def test_lift_coherence_squares_deterministic_families():
    for sig in (build_signature_matrix(gen_cubic_masks(7), 49, 1),
                build_signature_matrix(gen_pr_masks(7, 6), 42, 1),
                build_signature_matrix(gen_sidelnikov_masks(3, 2), 56, 1),
                build_signature_matrix(gen_trace_masks(3, 2), 72, 1)):
        mu = coherence(sig)
        assert abs(coherence(khatri_rao_lift(sig)) - mu**2) < 1e-12


# --- family bounds ----------------------------------------------------------

def test_family_bound_values():
    # Family.regime at N = N_d Q
    cases = [("cubic", 23, None, 800, 2 / math.sqrt(23), "general"),
             ("cubic", 23, None, 528, 1 / math.sqrt(23), "small"),
             ("pr", 23, 22, 400, (math.sqrt(23) + 1) / 23, "small"),
             ("pr", 23, 22, 800, (2 * math.sqrt(23) + 2) / 23, "general"),
             ("sidelnikov", 24, 24, 400, 8 / 24, "small"),
             ("trace", 24, None, 1000, 0.5, "general"),
             ("trace", 24, None, 576, 7 / 24, "small")]
    for family, L, H, N, bound, regime in cases:
        got = FAMILIES[family].regime(L, H, N)
        assert got == (pytest.approx(bound), regime), (family, N)
    for family in ("gaussian", "musa", "qpsk"):
        assert FAMILIES[family].regime(23, None, 800) == (None, None)


def test_small_regime_columns():
    assert FAMILIES["cubic"].small_columns(23, None) == 529
    assert FAMILIES["trace"].small_columns(24, None) == 576
    assert FAMILIES["pr"].small_columns(23, 22) == 483
    assert FAMILIES["sidelnikov"].small_columns(24, 24) == 552


def test_small_regime_boundaries():
    assert FAMILIES["cubic"].regime(23, None, 529)[1] == "small"  # N <= 529
    assert FAMILIES["cubic"].regime(23, None, 530)[1] == "general"
    assert FAMILIES["pr"].regime(23, 22, 483)[1] == "small"  # N <= 483
    assert FAMILIES["pr"].regime(23, 22, 484)[1] == "general"


def test_bound_failures_flags_corrupted_matrix():
    sig = build_signature_matrix(gen_cubic_masks(7), 49, 1)
    A = sig.entries.copy()
    A[:, 10] = A[:, 3]  # duplicated column drives mu to 1
    report = coherence_report(SignatureMatrix(A, 49, 1, "cubic", {"L": 7}))
    assert report.mu == pytest.approx(1.0)
    failures = bound_failures(report)
    assert failures and "exceeds" in failures[0]
    # the clean matrix passes
    assert bound_failures(coherence_report(sig)) == []


def test_coherence_report_csv_row():
    sig = build_signature_matrix(gen_pr_masks(11, 10), 90, 1)
    report = coherence_report(sig)
    row = report.csv_row()
    assert row.startswith("pr,11,10,90,1,")
    assert report.regime == "small"


# --- identifiability condition ----------------------------------------------

def test_ml_condition_examples():
    assert ml_coherence_condition(0.0, 50, 1).satisfied
    # boundary: strict inequality
    cond = ml_coherence_condition(1 / math.sqrt(10), 10, 1)
    assert not cond.satisfied
    assert cond.threshold == pytest.approx(1 / math.sqrt(10))
    assert cond.success_probability == pytest.approx(0.5)
    # cubic small-regime coherence with delta = 3: holds up to K = 20
    mu = 1 / math.sqrt(23)
    assert ml_coherence_condition(mu, 20, 3).satisfied
    assert not ml_coherence_condition(mu, 21, 3).satisfied
    assert bool(ml_coherence_condition(mu, 20, 3)) is True
    with pytest.raises(ValueError):
        ml_coherence_condition(0.5, 0, 1)


# --- null-space sign ratio ---------------------------------------------------

def test_sign_ratio_symmetric_null_space_exact():
    rng = np.random.default_rng(5)
    A = rand_complex(rng, (4, 6))
    A[:, 5] = A[:, 2]  # null space spanned by e_2 - e_5
    rep = null_space_sign_ratio(A, num_samples=50, rng=np.random.default_rng(0))
    assert rep.null_dim == 1
    assert rep.ratio == pytest.approx(0.5, abs=1e-12)  # one +, one - per sample


def test_sign_ratio_full_rank_flagged():
    rng = np.random.default_rng(6)
    A = rand_complex(rng, (4, 8))  # lift is 16 x 8, full column rank
    rep = null_space_sign_ratio(A, num_samples=10, rng=np.random.default_rng(0))
    assert rep.empty and math.isnan(rep.ratio) and rep.samples == 0


def test_sign_ratio_negation_pairing():
    # averaging any sample with its negation gives exactly 1/2
    rng = np.random.default_rng(7)
    x = rng.standard_normal(40)
    assert negative_fraction(x) + negative_fraction(-x) == pytest.approx(1.0)


def test_sign_ratio_near_half_for_signature_sets():
    sig = build_signature_matrix(gen_cubic_masks(11), 121, 2)
    rep = null_space_sign_ratio(sig, num_samples=400, rng=np.random.default_rng(8))
    assert rep.null_dim > 0
    assert abs(rep.ratio - 0.5) < 0.05
