"""Finite fields GF(p) and GF(p^m) with dense exp/log tables.

Elements of GF(p^m) are coefficient vectors (c_0, ..., c_{m-1}) over Z_p,
stored as integer codes sum_i c_i * p**i. Code 0 is the zero element and
code 1 the multiplicative identity. Tables are built eagerly; the size cap
q <= MAX_Q = 2**20 keeps that cheap for every field this package touches. The
primitive element of every field, GF(p) included, is the root of the first
polynomial that one in-order search over monic primitive polynomials finds.

The discrete logarithm uses the log(0) = 0 convention throughout, so any
character value derived from it equals 1 at the zero element.
"""

from __future__ import annotations

import math

import numpy as np

MAX_Q = 1 << 20  # largest field order q = p**m that gets tables


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _exp_codes(p: int, m: int, poly: tuple[int, ...]) -> list[int] | None:
    """Powers of the root of `poly` as element codes, or None if not primitive.

    Multiplies by x repeatedly with reduction mod poly; the root is primitive
    exactly when the first return to 1 happens after q - 1 steps, which also
    certifies irreducibility (units of a non-field quotient ring have order
    strictly below q - 1).
    """
    q = p**m
    if poly[0] % p == 0:
        return None  # x divides poly
    red = [(-poly[i]) % p for i in range(m)]  # x^m = sum red[i] x^i
    weights = [p**i for i in range(m)]
    cur = [0] * m
    cur[0] = 1
    one = list(cur)
    codes = []
    for k in range(q - 1):
        codes.append(sum(c * w for c, w in zip(cur, weights)))
        carry = cur[m - 1]
        cur = [0] + cur[: m - 1]
        if carry:
            cur = [(cur[i] + carry * red[i]) % p for i in range(m)]
        if cur == one and k + 1 < q - 1:
            return None
    if cur != one:
        return None
    return codes


def _primitive_polys(p: int, m: int):
    """Yield (poly, exp codes) of each monic primitive polynomial of degree m over GF(p),
    low-degree coefficients first. For m >= 2 they come ordered lexicographically by
    coefficients compared high degree first; for m = 1 they are x - g in increasing g,
    so the first root is the smallest primitive root mod p."""
    for n in range(p**m):
        # x - n for m = 1; else n's base-p digits, which iterate the high digit slowest
        poly = ((-n) % p, 1) if m == 1 else tuple(n // p**i % p for i in range(m)) + (1,)
        codes = _exp_codes(p, m, poly)
        if codes is not None:
            yield poly, codes


class ExtField:
    """GF(p^m) defined by a monic primitive polynomial over GF(p), held as its tables.

    exp_table[k] is the code of alpha**k, log_table[x] its inverse (log(0) = 0) and
    trace_table[x] the absolute trace Tr(x) in [0, p); field arithmetic on codes is
    a gather from them. When no polynomial is given, the field takes the first one
    that the in-order search _primitive_polys(p, m) finds: for m >= 2 the
    lexicographically smallest primitive polynomial (coefficients compared high
    degree first), for m = 1 x - alpha with alpha the smallest primitive root, so
    that ExtField(p, 1) is PrimeField(p). p must be an odd prime and q = p**m at
    most MAX_Q.
    """

    def __init__(self, p: int, m: int, poly=None):
        if p == 2 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if m < 1:
            raise ValueError("m must be >= 1")
        q = p**m
        if q > MAX_Q:
            raise ValueError(f"q = {p}^{m} = {q} exceeds the table-size cap {MAX_Q}")
        self.p = p
        self.m = m
        self.q = q

        if poly is None:
            poly, codes = next(_primitive_polys(p, m))
        else:
            poly = tuple(int(c) % p for c in poly)
            if len(poly) != m + 1 or poly[m] != 1:
                raise ValueError("poly must be monic of degree m, low-degree coefficients first")
            codes = _exp_codes(p, m, poly)
            if codes is None:
                raise ValueError(f"poly {poly} is not primitive over GF({p})")
        self.poly = poly

        exp_table = np.asarray(codes, dtype=np.int64)
        if len(set(codes)) != q - 1:
            raise AssertionError("exp table does not enumerate the multiplicative group")
        log_table = np.zeros(q, dtype=np.int64)
        log_table[exp_table] = np.arange(q - 1, dtype=np.int64)
        # Tr(x) = sum_i x**(p**i) lies in GF(p), and field addition adds the coefficient
        # digits mod p, so Tr(alpha**j) is the sum of the conjugates' constant digits mod p
        js = np.arange(q - 1, dtype=np.int64)
        trace_table = np.zeros(q, dtype=np.int64)
        trace_table[exp_table] = sum(exp_table[js * p**i % (q - 1)] % p for i in range(m)) % p
        self.exp_table = exp_table
        self.log_table = log_table
        self.trace_table = trace_table

    @property
    def alpha(self) -> int:
        """Code of the primitive element (the root of the defining polynomial)."""
        return int(self.exp_table[1])

    def __repr__(self):
        return f"ExtField(p={self.p}, m={self.m}, poly={self.poly})"


def PrimeField(p: int) -> ExtField:
    """GF(p) for odd prime p as ExtField(p, 1), with the smallest primitive root alpha.

    The defining polynomial x - alpha is the first that _primitive_polys(p, 1) finds,
    the same in-order search that picks GF(p^m)'s polynomial, so log_table[x] = k for
    x = alpha**k mod p, and log_table[0] = 0. A chosen root alpha goes through
    ExtField(p, 1, poly=((-alpha) % p, 1)).
    """
    return ExtField(p, 1)


build_ext_field = ExtField  # GF(p^m); ExtField says how the polynomial is chosen
