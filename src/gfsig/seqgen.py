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
    Base c is block number c among the blocks with s_b = 0. Coherence needs the |DFT| rows
    of a few block pairs (MaskingSet.pairs). `orbit_rule` names them from the family's
    symmetry orbits: cubic's affine maps (one row per cube class of the lambda_1 step, plus
    one chirp row), Sidelnikov's Frobenius map x p with the conjugate mirror (in the small
    regime and at full capacity), trace's block 0 at full capacity. It returns None when its
    algebra does not hold for the masks or the prefix of n blocks; pr has no rule.
    """

    needs: tuple[str, ...]  # config keys it cannot be built without
    takes: tuple[str, ...] = ()  # config keys it also reads
    small_columns: Callable | None = None  # (L, H) -> columns of the lambda_1 = 0 blocks
    bound: Callable | None = None  # (L, N within those columns) -> published bound
    shift_rule: Callable | None = None  # (L, H, blocks b) -> (base c_b, shift s_b), arrays
    chirp: bool = False  # s_b multiplies by the k^2 chirp instead of shifting
    orbit_rule: Callable | None = None  # (MaskingSet, n blocks) -> (bases, blocks) or None
    draw: Callable | None = None  # (rng, L, N) -> L x N entries of a random family, unnormalized

    def regime(self, L: int, H: int | None, N: int) -> tuple[float | None, str | None]:
        """(published coherence bound, "small" or "general") at N columns, the small regime
        being the lambda_1 = 0 blocks' small_columns; (None, None) for a random family."""
        if self.bound is None:
            return None, None
        small = N <= self.small_columns(L, H)
        return self.bound(L, small), "small" if small else "general"


def cubic_bases(L: int) -> np.ndarray:
    """Base rows l1 k^3 + k^2 mod L, l1 = 0 .. L-1 (lambda_2 = 1; the chirp adds lambda_2 - 1)."""
    k = np.arange(L, dtype=np.int64)
    return (np.arange(L, dtype=np.int64)[:, None] * (k**3 % L) + k**2 % L) % L


def cubic_orbits(masks: MaskingSet, n: int):
    """Blocks (l1, l2) and (l1', l2') multiply to exp(2j pi (d1 k^3 + d2 k^2) / L). For prime
    L >= 5 and d1 != 0, k -> k - t with 3 d1 t = d2 removes the k^2 term and k -> r k maps d1
    to r^3 d1; both permute the DFT frequencies, so a row's |DFT|s depend on the cube class of
    d1 alone. A d1 = 0 row is a chirp, every |DFT| sqrt(L). So block 0 against block 1 and
    against block d L, for the least d of each cube class among the steps 1 .. ceil(n / L) - 1
    the n blocks hold: at most 4 rows. None unless the base rows are cubic_bases(L)."""
    L = masks.L
    if L < 5 or not np.array_equal(masks.base_num, cubic_bases(L)):
        return None
    classes = math.gcd(3, L - 1)
    least = {}  # cube class d^((L - 1) / classes) -> least step d in it
    for d in range(1, -(-n // L)):
        least.setdefault(pow(d, (L - 1) // classes, L), d)
        if len(least) == classes:
            break
    blocks = np.array([1] + [d * L for d in least.values()])
    return np.zeros_like(blocks), blocks


def sidelnikov_orbits(masks: MaskingSet, n: int):
    """Frobenius: 1 + a^(pk) = (1 + a^k)^p, so base rows u_l (l = 1 .. H-1) obey
    u_l[p k] = u_(p l mod H)[k], which is checked on the numerators. So row (base l, base l'
    shifted by s) at k -> p k is row (p l, p l' shifted by s / p): the same |DFT|s, permuted.
    With the conjugate mirror (l', l, -s), each orbit of the triples (l, l', s) needs one row,
    the least in the order (l, l', s). Only the H - 1 bases (s = 0: the small regime) and
    full capacity are closed under x p; None for other prefixes."""
    p, m, H = (masks.params.get(key) for key in ("p", "m", "H"))
    L = masks.L
    if None in (p, m, H) or n not in (H - 1, masks.B):
        return None
    lam = np.arange(1, H)
    u = masks.base_num
    if not np.array_equal(u[:, p * np.arange(L) % L], u[p * lam % H - 1]):  # u_l[p k], u_(p l)[k]
        return None
    pj = p ** np.arange(m)  # x p^j, j < m, on the rows; x p^-j on the shifts
    moved = pj[:, None] * lam % H - 1  # (m, H - 1): base index of p^j l
    ids = np.arange((H - 1) ** 2).reshape(H - 1, H - 1)  # (l, l') in order
    img = moved[:, :, None] * (H - 1) + moved[:, None, :]
    img = np.concatenate([img, img.transpose(0, 2, 1)])  # (p^j l, p^j l'), its mirror (p^j l', p^j l)
    least = (img >= ids).all(0)
    least[np.diag_indices(H - 1)] &= n == masks.B  # (l, l, s) needs s != 0
    r, r2 = np.nonzero(least)
    if n < masks.B:
        return r, r2
    s = np.arange(L)
    mult = np.array([pow(int(x), -1, L) for x in pj])
    keeps = np.concatenate([mult, -mult])[:, None] * s % L >= s  # (2m, L): the map keeps s least
    fixes = img[:, r, r2] == ids[r, r2]  # (2m, pairs): the map fixes (l, l'), so moves s alone
    least = ~(fixes[:, :, None] & ~keeps[:, None, :]).any(0)  # (pairs, L)
    least[r == r2, 0] = False  # a block against itself
    i, s = np.nonzero(least)
    return r[i], s * (H - 1) + r2[i]


def trace_bases(t1: np.ndarray, p: int) -> np.ndarray:
    """Base rows Tr(a^k + theta a^(2k)), theta = 0, a^0, ..., a^(L-1), from t1[k] = Tr(a^k)."""
    k = np.arange(len(t1))
    return np.vstack([t1, (t1 + t1[(k[:, None] + 2 * k[None, :]) % len(t1)]) % p])


def trace_orbits(masks: MaskingSet, n: int):
    """Block 0 against every block at full capacity, if the seed obeys the primitive
    polynomial's recurrence, so is Tr(x a^k), and the base rows are its trace_bases. Then
    blocks (theta, s), (theta', s') multiply to Tr(x (y a^k + z a^(2k))),
    y = a^s' - a^s, z = theta' a^(2s') - theta a^(2s), and a shift by j,
    (y, z) -> (y a^j, z a^(2j)), keeps |DFT|. Block 0 meets every orbit: (1, z) at
    a^s' = 2, theta' = z / 4, and (0, z) at s' = 0, theta' = z. None otherwise."""
    t, p, poly = masks.seed, masks.phase_den, masks.params.get("poly")
    if n < masks.B or t is None or poly is None or p != masks.params.get("p"):
        return None
    k, m = np.arange(len(t)), len(poly) - 1
    lfsr = -np.asarray(poly[:m]) @ t[(k + np.arange(m)[:, None]) % len(t)] % p
    recurs = np.array_equal(t[(k + m) % len(t)], lfsr)
    if not recurs or not np.array_equal(masks.base_num, trace_bases(t, p)):
        return None
    return np.zeros(n - 1, np.int64), np.arange(1, n)


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
                    lambda L, H, b: np.divmod(b, L), chirp=True, orbit_rule=cubic_orbits),
    "pr": Family(("L",), ("H",), lambda L, H: (H - 1) * L,
                 lambda L, small: (math.sqrt(L) + 1) / L if small else (2 * math.sqrt(L) + 2) / L,
                 lambda L, H, b: (b % (H - 1), b // (H - 1))),
    "sidelnikov": Family(
        ("p", "m"), ("H",), lambda L, H: (H - 1) * L,
        lambda L, small: (math.sqrt(L + 1) + 3) / L if small else (2 * math.sqrt(L + 1) + 4) / L,
        lambda L, H, b: (b % (H - 1), b // (H - 1)), orbit_rule=sidelnikov_orbits),
    "trace": Family(
        ("p", "m"), (), lambda L, H: L * L,
        lambda L, small: (math.sqrt(L + 1) + 2) / L if small else (2 * math.sqrt(L + 1) + 2) / L,
        lambda L, H, b: np.divmod(b, L), orbit_rule=trace_orbits),
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
    `pairs(n)` names the block pairs whose |DFT| rows give the coherence of the first
    n masks' columns, from the family's `orbit_rule` when its algebra holds.
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

    def pairs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(base blocks c, blocks b), both < n, whose |DFT(conj(v_c) v_b)| rows hold every
        block pair's maximum among the first n blocks: the family's orbit_rule, or else every
        base against every other block, less conjugate mirrors.

        With c of base row r and b base r' shifted (or chirped) by s, conj(v_c) v_b is, up to
        a shift, the conjugate of conj(v_c') v_b' for c' of base r' and b' base r shifted by
        -s: a conjugate mirror with the same largest |DFT|. So c skips b when r' < r and
        b' < n; at full capacity it meets the blocks of base r' >= r alone."""
        fam = FAMILIES[self.family]
        found = fam.orbit_rule(self, n) if fam.orbit_rule else None
        if found is not None:
            return found
        r, s = fam.shift_rule(self.L, self.params.get("H"), np.arange(n))
        bases = np.flatnonzero(s == 0)  # base row i is block bases[i]
        present = np.zeros((len(bases), self.L), bool)
        present[r, s] = True  # (base row, shift) of each block b < n
        mirrored = (r < np.arange(len(bases))[:, None]) & present[:, -s % self.L]
        i, b = np.nonzero(~mirrored & np.not_equal.outer(bases, np.arange(n)))
        return bases[i], b


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
    return MaskingSet("cubic", cubic_bases(L), L, None, {"L": L})


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

