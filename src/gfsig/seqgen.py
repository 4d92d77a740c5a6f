"""Masking-sequence families and signature matrix assembly.

Four deterministic unimodular mask families are generated from exact integer
phase numerators (cubic and trace phases live mod p, power-residue and
Sidelnikov phases mod H), then applied entrywise to the columns of the
L-point DFT matrix. Concatenating the B masked blocks yields N_s = B * L
signature sequences; a device gets a contiguous group of Q columns.

The family table also holds how each random benchmark family (complex
Gaussian, MUSA 9-point, QPSK) draws its entries; experiments.gen_random_family
keeps the best of several such draws.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .galois import ExtField, PrimeField, build_ext_field, is_prime


@dataclass(frozen=True)
class Family:
    """Config keys a signature family reads and, if deterministic, its coherence bound;
    a random family's entry draw instead.

    A deterministic family's masks are built from its base masks by `shift_rule`
    (see MaskingSet): mask b is base c_b cyclically shifted by s_b,
    v_b[k] = u_(c_b)[k + s_b], or for a chirped family u_(c_b)[k] exp(2j pi s_b k^2 / L).
    Base c is block number c among the blocks with s_b = 0. Coherence needs the rows of a
    few blocks (MaskingSet.bases, .partners): cubic's block 0 and one class per row, trace's
    block 0 at full capacity, and else each base's row, one of each conjugate-mirror pair.
    """

    needs: tuple[str, ...]  # config keys it cannot be built without
    takes: tuple[str, ...] = ()  # config keys it also reads
    small_columns: Callable | None = None  # (L, H) -> columns of the lambda_1 = 0 blocks
    bound: Callable | None = None  # (L, N within those columns) -> published bound
    shift_rule: Callable | None = None  # (L, H, blocks b) -> (base c_b, shift s_b), arrays
    chirp: bool = False  # s_b multiplies by the k^2 chirp instead of shifting
    orbits: Callable | None = None  # MaskingSet -> whether block 0 meets every block pair's orbit
    draw: Callable | None = None  # (rng, L, N) -> L x N entries of a random family, unnormalized

    def bases(self, L: int, H: int | None, n: int) -> list[int]:
        """The blocks b < n with s_b = 0."""
        return np.flatnonzero(self.shift_rule(L, H, np.arange(n))[1] == 0).tolist()

    def regime(self, L: int, H: int | None, N: int) -> tuple[float | None, str | None]:
        """(published coherence bound, "small" or "general") at N columns, the small regime
        being the lambda_1 = 0 blocks' small_columns; (None, None) for a random family."""
        if self.bound is None:
            return None, None
        small = N <= self.small_columns(L, H)
        return self.bound(L, small), "small" if small else "general"


def trace_bases(t1: np.ndarray, p: int) -> np.ndarray:
    """Base rows Tr(a^k + theta a^(2k)), theta = 0, a^0, ..., a^(L-1), from t1[k] = Tr(a^k)."""
    k = np.arange(len(t1))
    return np.vstack([t1, (t1 + t1[(k[:, None] + 2 * k[None, :]) % len(t1)]) % p])


def trace_orbits(masks: MaskingSet) -> bool:
    """Whether the seed obeys the primitive polynomial's recurrence, so is Tr(x a^k), and the
    base rows are its trace_bases. Then blocks (theta, s), (theta', s') multiply to
    Tr(x (y a^k + z a^(2k))), y = a^s' - a^s, z = theta' a^(2s') - theta a^(2s), and a shift
    by j, (y, z) -> (y a^j, z a^(2j)), keeps |DFT|. Block 0 meets every orbit: (1, z) at
    a^s' = 2, theta' = z / 4, and (0, z) at s' = 0, theta' = z."""
    t, p, poly = masks.seed, masks.phase_den, masks.params.get("poly")
    if t is None or poly is None or p != masks.params.get("p"):
        return False
    k, m = np.arange(len(t)), len(poly) - 1
    lfsr = -np.asarray(poly[:m]) @ t[(k + np.arange(m)[:, None]) % len(t)] % p
    return np.array_equal(t[(k + m) % len(t)], lfsr) and np.array_equal(masks.base_num, trace_bases(t, p))


MUSA_POINTS = np.array([0, 1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) * (np.sqrt(3) / 2)


def musa_draw(rng: np.random.Generator, L: int, N: int) -> np.ndarray:
    """L x N MUSA points, redrawing all-zero columns, which cannot be normalized."""
    A = rng.choice(MUSA_POINTS, (L, N))
    while (dead := np.flatnonzero(np.all(A == 0, axis=0))).size:
        A[:, dead] = rng.choice(MUSA_POINTS, (L, dead.size))
    return A


FAMILIES = {
    "cubic": Family(("L",), (), lambda L, H: L * L,
                    lambda L, small: 1.0 / math.sqrt(L) if small else 2.0 / math.sqrt(L),
                    lambda L, H, b: np.divmod(b, L), chirp=True),
    "pr": Family(("L",), ("H",), lambda L, H: (H - 1) * L,
                 lambda L, small: (math.sqrt(L) + 1) / L if small else (2 * math.sqrt(L) + 2) / L,
                 lambda L, H, b: (b % (H - 1), b // (H - 1))),
    "sidelnikov": Family(
        ("p", "m"), ("H",), lambda L, H: (H - 1) * L,
        lambda L, small: (math.sqrt(L + 1) + 3) / L if small else (2 * math.sqrt(L + 1) + 4) / L,
        lambda L, H, b: (b % (H - 1), b // (H - 1))),
    "trace": Family(
        ("p", "m"), (), lambda L, H: L * L,
        lambda L, small: (math.sqrt(L + 1) + 2) / L if small else (2 * math.sqrt(L + 1) + 2) / L,
        lambda L, H, b: np.divmod(b, L), orbits=trace_orbits),
    "gaussian": Family(("L",), ("gen_trials",), draw=lambda rng, L, N: (
        rng.standard_normal((L, N)) + 1j * rng.standard_normal((L, N))) / np.sqrt(2)),
    "musa": Family(("L",), ("gen_trials",), draw=musa_draw),
    "qpsk": Family(("L",), ("gen_trials",), draw=lambda rng, L, N: (
        rng.choice([-1.0, 1.0], (L, N)) + 1j * rng.choice([-1.0, 1.0], (L, N))) / np.sqrt(2)),
}
DETERMINISTIC_FAMILIES = tuple(name for name, fam in FAMILIES.items() if fam.bound is not None)
RANDOM_FAMILIES = tuple(name for name, fam in FAMILIES.items() if fam.bound is None)


def check_keys(kind: str, name: str, needs, reads, given: dict) -> None:
    """Reject a `needs` key missing from `given` (set key -> its config line or None),
    or a `given` key not in `reads`."""
    missing = [key for key in needs if key not in given]
    if missing:
        raise ValueError(f"{kind} {name!r} needs {' and '.join(missing)}")
    for key, line in given.items():
        if key not in reads:
            where = "" if line is None else f"line {line}: "
            raise ValueError(f"{where}{kind} {name!r} takes no {key}")


@dataclass(frozen=True)
class MaskingSet:
    """B unimodular masks of length L, built from base masks, plus the family's integer seed.

    Only the phase numerators of the base masks are given. The family's `shift_rule`
    derives all B = (#bases) L masks from them: mask b is base c_b shifted by s_b,
    or, for a chirped family (whose phase_den must be L), times the k^2 chirp.
    """

    family: str
    base_num: np.ndarray  # (#bases, L) integer phase numerators mod phase_den
    phase_den: int
    seed: np.ndarray | None  # published-form integer seed, when the family has one
    params: dict = field(default_factory=dict)
    phase_num: np.ndarray = field(init=False)  # (B, L) integer phase numerators mod phase_den
    masks: np.ndarray = field(init=False)  # (B, L) complex, |entry| = 1

    def __post_init__(self):
        fam, L, den = FAMILIES[self.family], self.L, self.phase_den
        c, s = fam.shift_rule(L, self.params.get("H"), np.arange(self.B))
        k = np.arange(L)
        if fam.chirp:
            if den != L:
                raise ValueError(f"a chirped family needs phase_den = L = {L}, got {den}")
            num = (self.base_num[c] + s[:, None] * (k * k % L)) % L
        else:
            num = self.base_num[c[:, None], (k + s[:, None]) % L]
        object.__setattr__(self, "phase_num", num)
        roots = np.exp(2j * np.pi * np.arange(den) / den)  # the den-th roots of unity
        object.__setattr__(self, "masks", roots[num % den])

    @property
    def L(self) -> int:
        return self.base_num.shape[1]

    @property
    def B(self) -> int:
        return len(self.base_num) * self.L

    def bases(self, n: int) -> list[int]:
        """Blocks c < n whose |DFT(conj(v_c) v_b)| rows, b < n, hold every block pair's maximum.

        The unshifted blocks (Family.bases), unless a chirped family's bases step by a
        fixed row, u_c = u_0 w^c, as cubic's do: then conj(v_b) v_b' depends only on the
        class (c_b' - c_b, s_b' - s_b) mod L. Block 0 meets each class (or its conjugate
        mirror) but those a partial last row of L blocks lacks, which that row's first
        block meets: L^2 - 1 rows at full capacity, not L^3. Block 0 alone also serves at
        full capacity when the family's `orbits` check holds (trace): L (L + 1) - 1 rows.
        """
        fam = FAMILIES[self.family]
        bases = fam.bases(self.L, self.params.get("H"), n)
        step = np.diff(self.base_num, axis=0) % self.phase_den
        if fam.chirp and (step == step[:1]).all():
            return [0] if n % self.L == 0 else sorted({0, bases[-1]})
        return [0] if n == self.B and fam.orbits and fam.orbits(self) else bases

    def partners(self, bases: list[int], n: int) -> np.ndarray:
        """(len(bases), n) bool: row i marks the blocks b < n, b != c = bases[i], c meets.

        With c of base row r and b base r' shifted (or chirped) by s, conj(v_c) v_b is, up to
        a shift, the conjugate of conj(v_c') v_b' for c' of base r' and b' base r shifted by
        -s: a conjugate mirror with the same largest |DFT|. So c skips b when r' < r, c' is
        in `bases` and b' < n; at full capacity it meets the blocks of base r' >= r alone."""
        r, s = FAMILIES[self.family].shift_rule(self.L, self.params.get("H"), np.arange(n))
        present = np.zeros((len(self.base_num), self.L), bool)
        present[r, s] = True  # (base row, shift) of each block b < n
        rc = r[bases, None]
        mirrored = (r == rc).any(0) & (r < rc) & np.take(present[r[bases]], -s % self.L, axis=1)
        return ~mirrored & np.not_equal.outer(bases, np.arange(n))


@dataclass(frozen=True)
class SignatureMatrix:
    """L x N matrix of unit-norm signature columns with contiguous device groups.

    build_signature_matrix, and nothing else, attaches the MaskingSet the columns come
    from as ``masks``; its first ceil(N / L) rows are ``mask_rows``. Such a matrix builds
    ``entries`` on first read, and coherence reads the mask rows instead.
    """

    _entries: np.ndarray | None  # (L, N) complex; None until a mask-built matrix is read
    n_devices: int
    q_per_device: int
    family: str
    params: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    masks: MaskingSet | None = field(default=None, init=False)

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            object.__setattr__(self, "_entries",
                               masked_dft_columns(self.mask_rows, np.arange(self.N)))
        return self._entries

    @property
    def mask_rows(self) -> np.ndarray | None:  # (ceil(N / L), L)
        return None if self.masks is None else self.masks.masks[:-(-self.N // self.L)]

    @property
    def L(self) -> int:
        return self._entries.shape[0] if self.masks is None else self.masks.L

    @property
    def N(self) -> int:
        return self.n_devices * self.q_per_device

    @property
    def shape(self) -> tuple[int, int]:
        return self.L, self.N

    def device_columns(self, n: int) -> slice:
        """Column slice of device n (0-based)."""
        q = self.q_per_device
        return slice(n * q, (n + 1) * q)


@functools.cache
def dft_matrix(L: int) -> np.ndarray:
    """L-point DFT matrix F[k, l] = exp(-2j pi k l / L) / sqrt(L), one read-only array per L."""
    kl = np.outer(np.arange(L), np.arange(L)) % L
    F = np.exp(-2j * np.pi * kl / L) / np.sqrt(L)
    F.flags.writeable = False
    return F


def masked_dft_columns(V: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Columns `cols` of the blocks diag(v_b) F_L side by side: v_(i div L) * F_L[:, i mod L]."""
    b, l = np.divmod(cols, V.shape[1])
    out = np.take(dft_matrix(V.shape[1]), l, axis=1)  # C order, as the detectors' BLAS calls get it
    return np.multiply(V[b].T, out, out=out)


def gen_cubic_masks(L: int) -> MaskingSet:
    """Cubic-phase masks exp(2j pi (l1 k^3 + l2 k^2) / L), B = L^2 of them."""
    if not is_prime(L) or L == 2:
        raise ValueError(f"L must be an odd prime, got {L}")
    lam1 = np.arange(L, dtype=np.int64)[:, None]
    k = np.arange(L, dtype=np.int64)
    base = (lam1 * (k**3 % L) + k**2 % L) % L  # lambda_2 = 1; the chirp adds lambda_2 - 1
    return MaskingSet("cubic", base, L, None, {"L": L})


def pr_seed(pf: ExtField, H: int) -> np.ndarray:
    """log_alpha(k) mod H for k = 0..L-1, with log(0) = 0."""
    return np.asarray(pf.log_table % H, dtype=np.int64)


def gen_pr_masks(L: int, H: int | None = None) -> MaskingSet:
    """Power-residue masks exp(2j pi l2 log(k + l1) / H), B = (H-1) L of them."""
    if not is_prime(L) or L == 2:
        raise ValueError(f"L must be an odd prime, got {L}")
    if H is None:
        H = L - 1
    if H <= 2 or (L - 1) % H != 0:
        raise ValueError(f"H must exceed 2 and divide L - 1 = {L - 1}, got {H}")
    pf = PrimeField(L)  # log(0) = 0 convention
    seed = pr_seed(pf, H)
    base = np.arange(1, H, dtype=np.int64)[:, None] * seed % H  # lambda_2 = 1 .. H-1
    return MaskingSet("pr", base, H, seed, {"L": L, "H": H, "alpha": pf.alpha})


def sidelnikov_seed(fld: ExtField, H: int) -> np.ndarray:
    """log_alpha(1 + alpha^k) mod H for k = 0..L-1, with log(0) = 0."""
    p = fld.p
    codes = fld.exp_table
    c0 = codes % p
    one_plus = codes - c0 + (c0 + 1) % p  # add 1 in the constant-term digit
    return np.asarray(fld.log_table[one_plus] % H, dtype=np.int64)


def gen_sidelnikov_masks(p: int, m: int, H: int | None = None) -> MaskingSet:
    """Sidelnikov masks exp(2j pi l2 log(1 + alpha^(k + l1)) / H), B = (H-1) L."""
    fld = build_ext_field(p, m)
    L = fld.q - 1
    if H is None:
        H = L
    if H < 2 or L % H != 0:
        raise ValueError(f"H must be >= 2 and divide L = {L}, got {H}")
    seed = sidelnikov_seed(fld, H)
    base = np.arange(1, H, dtype=np.int64)[:, None] * seed % H  # lambda_2 = 1 .. H-1
    params = {"p": p, "m": m, "L": L, "H": H, "poly": fld.poly}
    return MaskingSet("sidelnikov", base, H, seed, params)


def trace_seed(fld: ExtField) -> np.ndarray:
    """Tr(alpha^k) for k = 0..L-1 (a p-ary LFSR sequence of period L)."""
    return np.asarray(fld.trace_table[fld.exp_table], dtype=np.int64)


def gen_trace_masks(p: int, m: int) -> MaskingSet:
    """Trace masks exp(2j pi Tr(a^(k+l2) + theta a^(2(k+l2))) / p), B = L (L+1).

    theta = 0 for the first L masks and alpha^(l1 - 1) afterwards, so every
    mask phase is a sum of two shifted copies of the single seed sequence.
    """
    if p == 2:
        raise ValueError("trace masks require odd characteristic")
    fld = build_ext_field(p, m)
    L = fld.q - 1
    t1 = trace_seed(fld)
    params = {"p": p, "m": m, "L": L, "poly": fld.poly}
    return MaskingSet("trace", trace_bases(t1, p), p, t1, params)  # mask l1 L + l2: base l1 at k + l2


def mask_block(masks: MaskingSet, b) -> np.ndarray:
    """The L x L signature block diag(v_b) F_L for mask index b (0-based), or the stack of
    blocks for an array of indices: entry (k, l) is v_b[k] F_L[k, l], as in masked_dft_columns."""
    return masks.masks[b][..., :, None] * dft_matrix(masks.L)


def build_signature_matrix(masks: MaskingSet, n_devices: int, q_per_device: int) -> SignatureMatrix:
    """First N_d Q columns of the concatenated masked-DFT blocks, in block order."""
    if n_devices < 1 or q_per_device < 1:
        raise ValueError("need n_devices >= 1 and q_per_device >= 1")
    N = n_devices * q_per_device
    capacity = masks.B * masks.L
    if N > capacity:
        raise ValueError(
            f"capacity exceeded: N_d * Q = {N} > N_s = {capacity} "
            f"(at most {capacity // q_per_device} devices)"
        )
    sig = SignatureMatrix(None, n_devices, q_per_device, masks.family, dict(masks.params))
    object.__setattr__(sig, "masks", masks)
    return sig


def signature_to_csv(sig: SignatureMatrix, path) -> None:
    """Write interleaved re/im values, row-major, with a metadata header line.

    np.loadtxt(path, delimiter=",", comments="#").view(complex) reads the matrix back."""
    with open(path, "w") as fh:
        fh.write(f"# family={sig.family} L={sig.L} N={sig.N} N_d={sig.n_devices} "
                 f"Q={sig.q_per_device} params={sig.params!r}\n")
        for row in np.ascontiguousarray(sig.entries).view(np.float64):  # re, im, re, im, ...
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

