"""Finite fields GF(p) and GF(p^m) with dense exp/log tables.

Elements of GF(p^m) are coefficient vectors (c_0, ..., c_{m-1}) over Z_p,
stored as integer codes sum_i c_i * p**i. Code 0 is the zero element and
code 1 the multiplicative identity. Tables are built eagerly; the size cap
q <= MAX_Q = 2**20 keeps that cheap for every field this package touches.

The discrete logarithm uses the log(0) = 0 convention throughout, so any
character value derived from it equals 1 at the zero element.
"""

from __future__ import annotations

import math

import numpy as np

MAX_Q = 1 << 20  # largest field order q = p**m that gets tables


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def find_primitive_root(p: int) -> int:
    """Smallest g >= 2 whose multiplicative order mod p is exactly p - 1."""
    _check_field(p, 1, cap=p)  # any odd prime: no table is built
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise AssertionError("no primitive root found; p is not prime")


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


def _check_field(p: int, m: int, cap: int = MAX_Q) -> int:
    """q = p**m, after rejecting an even or composite p, m < 1 and q > cap."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if m < 1:
        raise ValueError("m must be >= 1")
    q = p**m
    if q > cap:
        raise ValueError(f"q = {p}^{m} = {q} exceeds the table-size cap {cap}")
    return q


def _primitive_polys(p: int, m: int):
    """Yield (poly, exp codes) of each primitive polynomial, in primitive_polynomials' order."""
    for n in range(p**m):
        poly = tuple(n // p**i % p for i in range(m)) + (1,)  # n iterates high digit slowest
        codes = _exp_codes(p, m, poly)
        if codes is not None:
            yield poly, codes


def primitive_polynomials(p: int, m: int) -> list[tuple[int, ...]]:
    """All monic primitive polynomials of degree m over GF(p).

    Returned low-degree-first, ordered lexicographically by coefficients
    compared high degree first.
    """
    _check_field(p, m)
    return [poly for poly, _ in _primitive_polys(p, m)]


class ExtField:
    """GF(p^m) defined by a monic primitive polynomial over GF(p), held as its tables.

    exp_table[k] is the code of alpha**k, log_table[x] its inverse (log(0) = 0) and
    trace_table[x] the absolute trace Tr(x) in [0, p); field arithmetic on codes is
    a gather from them. When no polynomial is given, the lexicographically smallest
    primitive polynomial (coefficients compared high degree first) is located by
    exhaustive search. For m = 1 the defining polynomial is x - alpha with
    alpha = find_primitive_root(p), so the field is PrimeField(p).
    """

    def __init__(self, p: int, m: int, poly=None):
        q = _check_field(p, m)
        self.p = p
        self.m = m
        self.q = q

        if poly is None and m == 1:
            poly = ((-find_primitive_root(p)) % p, 1)
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
        self.exp_table = exp_table
        self.log_table = log_table
        self.trace_table = self._build_trace_table()

    def _build_trace_table(self) -> np.ndarray:
        p, m, q = self.p, self.m, self.q
        js = np.arange(q - 1, dtype=np.int64)
        acc = np.zeros((q - 1, m), dtype=np.int64)
        for i in range(m):
            codes = self.exp_table[(js * p**i) % (q - 1)]
            for d in range(m):
                acc[:, d] = (acc[:, d] + (codes // p**d) % p) % p
        if m > 1 and acc[:, 1:].any():
            raise AssertionError("trace left the prime subfield")
        table = np.zeros(q, dtype=np.int64)
        table[self.exp_table] = acc[:, 0]
        return table

    @property
    def alpha(self) -> int:
        """Code of the primitive element (the root of the defining polynomial)."""
        return int(self.exp_table[1])

    def __repr__(self):
        return f"ExtField(p={self.p}, m={self.m}, poly={self.poly})"


def PrimeField(p: int, alpha: int | None = None) -> ExtField:
    """GF(p) for odd prime p as ExtField(p, 1), with primitive root alpha.

    The defining polynomial is x - alpha, so log_table[x] = k for
    x = alpha**k mod p, and log_table[0] = 0. Without alpha, the smallest
    primitive root is used.
    """
    fld = ExtField(p, 1, poly=None if alpha is None else ((-alpha) % p, 1))
    if alpha is not None and fld.alpha != alpha:  # alpha outside [0, p), reduced mod p
        raise ValueError(f"{alpha} is not a primitive root of {p}")
    return fld


build_ext_field = ExtField  # GF(p^m); ExtField says how the polynomial is chosen
