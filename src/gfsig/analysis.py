"""Coherence and identifiability analytics for signature matrices.

Everything here operates on plain complex arrays; objects carrying their
matrix in an ``entries`` attribute (e.g. SignatureMatrix) are accepted too.
A masked-DFT matrix that also carries its ``mask_rows`` gets its coherence
from a few of its masks (MaskingSet.bases) instead of a Gram scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqgen import FAMILIES, dft_matrix

GRAM_BLOCK = 2048  # columns per block of the Gram scan, so memory stays bounded at large N
BOUND_TOL = 1e-9  # slack of bound_failures' checks; keep it tight: pr L=47 sits 2.8e-4 under
SIGN_TOL = 1e-8  # the sign ratio counts an entry with |x_i| > SIGN_TOL max|x| as nonzero
RANK_TOL = 1e-10  # a lifted matrix's singular value above RANK_TOL times the largest counts


def as_matrix(S) -> np.ndarray:
    A = getattr(S, "entries", S)
    return np.asarray(A)


def coherence(S, with_pair: bool = False):
    """Maximum normalized inner product over distinct column pairs.

    A masked-DFT signature matrix with two or more blocks of ``mask_rows`` pairs
    the blocks MaskingSet.bases names with those .partners marks (see _masked_dft_coherence).
    Anything else goes through the normalized Gram matrix, GRAM_BLOCK columns at
    a time. Raises on zero columns. with_pair=True also returns the column pair
    (i, j), i < j, that attains the maximum.
    """
    V = getattr(S, "mask_rows", None)
    if V is not None and len(V) > 1:
        bases = S.masks.bases(len(V))
        best, pair = _masked_dft_coherence(V, bases, S.masks.partners(bases, len(V)))
    else:
        best, pair = _gram_coherence(as_matrix(S))
    best = min(best, 1.0)
    if with_pair:
        return best, pair
    return best


def _gram_coherence(A: np.ndarray) -> tuple[float, tuple[int, int]]:
    if A.ndim != 2 or A.shape[1] < 2:
        raise ValueError("need a matrix with at least 2 columns")
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms < 1e-300):
        raise ValueError("matrix has a zero column")
    L, N = A.shape
    # A tall A (such as a Khatri-Rao lift) has fewer Gram entries than entries, so its Gram
    # blocks are scaled by the norms; a wide A is cheaper to normalize column by column.
    tall = L > N
    An = A if tall else A / norms
    best = -1.0
    pair = (0, 1)
    for i0 in range(0, N, GRAM_BLOCK):
        Bi = An[:, i0 : i0 + GRAM_BLOCK]
        for j0 in range(i0, N, GRAM_BLOCK):
            Bj = An[:, j0 : j0 + GRAM_BLOCK]
            G = np.abs(Bi.conj().T @ Bj)
            if tall:
                G /= norms[i0 : i0 + GRAM_BLOCK, None]
                G /= norms[j0 : j0 + GRAM_BLOCK]
            if i0 == j0:  # each pair once, as (i, j) with i < j
                G[np.tri(len(G), dtype=bool)] = -1.0
            k = int(np.argmax(G))
            r, c = divmod(k, G.shape[1])
            if G[r, c] > best:
                best = float(G[r, c])
                pair = (i0 + r, j0 + c)
    return best, pair


def _masked_dft_coherence(V: np.ndarray, bases, partners) -> tuple[float, tuple[int, int]]:
    """Coherence of [diag(v_0) F_L, ..., diag(v_{n-1}) F_L], n >= 2, from its mask rows V.

    Column l of block c meets column l' of block b in DFT(conj(v_c) v_b)[l' - l] / L.
    Only the last block can be partial, so two blocks attain their largest |DFT|.
    With v_b base c_b shifted by s_b, blocks b, b' with s_b <= s_b' have the |DFT|s
    of base c_b and base c_b' shifted by s_b' - s_b, a block of any prefix that
    holds b'. So each unshifted block in `bases` needs one row of |DFT|s against the
    blocks its row of `partners` marks (at most every other block: a block's own columns
    are orthonormal); MaskingSet.bases and .partners keep fewer. The rows are V times
    diag(conj(v_c)) F_L, which beats np.fft.fft at prime L <= 47 and scales the L x L F_L
    rather than the rows."""
    L = V.shape[1]
    F = dft_matrix(L)
    best = -1.0
    pair = (0, L)
    for c, blocks in zip(bases, partners):
        if not blocks.any():
            continue
        G = np.abs(V[blocks] @ (V[c].conj()[:, None] * F))
        k = int(np.argmax(G))
        if G.flat[k] > best:
            best = float(G.flat[k])
            row, shift = divmod(k, L)
            b = int(np.flatnonzero(blocks)[row])
            # l' - l = shift, and column 0 of the later block, which alone may be partial
            pair = (c * L + (-shift) % L, b * L) if c < b else (b * L + shift, c * L)
    return best / math.sqrt(L), pair


def welch_bound(L: int, N: int) -> float:
    """Lower bound sqrt((N - L) / (L (N - 1))) on coherence; 0 when vacuous (N <= L)."""
    if L < 1 or N < 2:
        raise ValueError("need L >= 1 and N >= 2")
    if N <= L:
        return 0.0
    return math.sqrt((N - L) / (L * (N - 1)))


def khatri_rao_lift(S) -> np.ndarray:
    """Columnwise lift s_i -> conj(s_i) kron s_i, shape (L^2, N).

    Unit-norm columns lift to unit-norm columns, and the lifted coherence is
    the square of the original one.
    """
    A = as_matrix(S)
    L, N = A.shape
    return (A.conj()[:, None, :] * A[None, :, :]).reshape(L * L, N)


@dataclass(frozen=True)
class MlCondition:
    """Outcome of the coherence test for reliable activity estimation."""

    satisfied: bool
    threshold: float
    success_probability: float

    def __bool__(self) -> bool:
        return self.satisfied


def ml_coherence_condition(mu: float, K: int, delta: int) -> MlCondition:
    """True iff mu < 1/sqrt(K + delta - 1), strict inequality.

    When satisfied, estimation recovers any K-active configuration with
    probability exceeding 1 - 2**-delta in the large-antenna limit.
    """
    if K < 1 or delta < 1:
        raise ValueError("need K >= 1 and delta >= 1")
    threshold = 1.0 / math.sqrt(K + delta - 1)
    return MlCondition(mu < threshold, threshold, 1.0 - 2.0 ** (-delta))


def negative_fraction(x: np.ndarray) -> float:
    """Fraction of negative entries among entries with |x_i| > SIGN_TOL * max|x|."""
    ax = np.abs(x)
    mask = ax > SIGN_TOL * ax.max()
    return float(np.count_nonzero(x[mask] < 0) / np.count_nonzero(mask))


@dataclass(frozen=True)
class SignRatioReport:
    ratio: float  # nan when the null space is empty
    null_dim: int
    samples: int

    @property
    def empty(self) -> bool:
        return self.null_dim == 0


def null_space_sign_ratio(S, num_samples: int = 1000, *,
                          rng: np.random.Generator) -> SignRatioReport:
    """Average sign balance of random real null-space vectors of the lifted matrix.

    Builds an orthonormal basis of {x in R^N : lift(S) x = 0} from the stacked
    real/imaginary parts, draws random unit combinations, and averages the
    fraction of negative entries among the nonzero ones. A ratio near 1/2
    supports the equiprobable-sign assumption behind the spark argument.
    """
    Sh = khatri_rao_lift(S)
    R = np.vstack([Sh.real, Sh.imag])
    rows, N = R.shape
    _, sv, vt = np.linalg.svd(R, full_matrices=rows < N)
    rank = int(np.count_nonzero(sv > RANK_TOL * sv[0])) if sv.size else 0
    basis = vt[rank:].T  # (N, d), orthonormal columns
    d = basis.shape[1]
    if d == 0:
        return SignRatioReport(float("nan"), 0, 0)
    G = rng.standard_normal((d, num_samples))
    X = basis @ G
    ratios = [negative_fraction(X[:, j]) for j in range(num_samples)]
    return SignRatioReport(float(np.mean(ratios)), d, num_samples)


@dataclass(frozen=True)
class CoherenceReport:
    """Coherence of one signature matrix next to its applicable bounds."""

    family: str
    L: int
    H: int | None
    n_devices: int
    q_per_device: int
    mu: float
    welch: float
    bound: float | None
    regime: str | None
    argmax_pair: tuple[int, int]

    CSV_HEADER = "family,L,H,N_d,Q,mu,welch,bound,regime"

    def csv_row(self) -> str:
        h = "" if self.H is None else str(self.H)
        b = "" if self.bound is None else repr(self.bound)
        r = "" if self.regime is None else self.regime
        return (
            f"{self.family},{self.L},{h},{self.n_devices},{self.q_per_device},"
            f"{self.mu!r},{self.welch!r},{b},{r}"
        )


def coherence_report(sig) -> CoherenceReport:
    """Coherence of a SignatureMatrix next to its Welch bound and its family's Family.regime."""
    L, N = sig.shape  # a mask-built SignatureMatrix's entries stay unbuilt
    H = sig.params.get("H")
    mu, pair = coherence(sig, with_pair=True)
    bound, regime = FAMILIES[sig.family].regime(L, H, N)
    return CoherenceReport(sig.family, L, H, sig.n_devices, sig.q_per_device, mu,
                           welch_bound(L, N), bound, regime, pair)


def bound_failures(report: CoherenceReport) -> list[str]:
    """Bound violations, to BOUND_TOL, in a report; empty list means all checks passed."""
    out = []
    if report.bound is not None and report.mu > report.bound + BOUND_TOL:
        out.append(f"mu = {report.mu} exceeds the {report.regime}-regime bound {report.bound}")
    if report.welch > report.mu + BOUND_TOL:
        out.append(f"mu = {report.mu} is below the Welch bound {report.welch}")
    return out
