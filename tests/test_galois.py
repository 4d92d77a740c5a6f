import numpy as np
import pytest

from gfsig.galois import (ExtField, PrimeField, build_ext_field, find_primitive_root,
                          is_prime, primitive_polynomials)


def digits(f, c):
    """Coefficient vectors (c_0, ..., c_{m-1}) of the codes c, on a new last axis."""
    return np.asarray(c)[..., None] // f.p ** np.arange(f.m) % f.p


def add(f, a, b):
    """Field sum of codes: the coefficient vectors add mod p."""
    return (digits(f, a) + digits(f, b)) % f.p @ f.p ** np.arange(f.m)


def mul(f, a, b):
    """Field product of codes: the logs add mod q - 1, and 0 absorbs."""
    prod = f.exp_table[(f.log_table[a] + f.log_table[b]) % (f.q - 1)]
    return np.where((a == 0) | (b == 0), 0, prod)


def mult_order(g, p):
    """Brute-force multiplicative order of g mod p."""
    x, k = g % p, 1
    while x != 1:
        x = x * g % p
        k += 1
    return k


def test_find_primitive_root_matches_bruteforce():
    for p in (3, 5, 7, 11, 23, 47):
        expected = next(g for g in range(2, p) if mult_order(g, p) == p - 1)
        assert find_primitive_root(p) == expected


def test_find_primitive_root_frozen_values():
    assert find_primitive_root(3) == 2
    assert find_primitive_root(7) == 3
    assert find_primitive_root(23) == 5


@pytest.mark.parametrize("p", [2, 4, 9, 1])
def test_find_primitive_root_rejects(p):
    with pytest.raises(ValueError):
        find_primitive_root(p)


def test_prime_field_log_table():
    pf = PrimeField(23)
    assert pf.alpha == 5
    assert pf.log_table[1] == 0
    assert pf.log_table[0] == 0  # log(0) = 0 convention
    assert pow(5, 8, 23) == 16  # modular exponentiation oracle
    assert pf.log_table[16] == 8
    for k in range(22):
        assert pf.log_table[pow(5, k, 23)] == k


def test_prime_field_rejects_non_primitive_alpha():
    with pytest.raises(ValueError):
        PrimeField(23, alpha=2)  # order 11


ODD_PRIMES_TO_101 = [p for p in range(3, 102) if is_prime(p)]


@pytest.mark.parametrize("p", ODD_PRIMES_TO_101)
def test_prime_field_every_primitive_root(p):
    for alpha in range(0, p + 2):
        if 2 <= alpha < p and mult_order(alpha, p) == p - 1:
            pf = PrimeField(p, alpha)
            assert pf.alpha == alpha
            for k in range(p - 1):
                assert pf.log_table[pow(alpha, k, p)] == k
            with pytest.raises(ValueError):
                PrimeField(p, alpha + p)  # a root, but not reduced mod p
        else:
            with pytest.raises(ValueError):
                PrimeField(p, alpha)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2), (5, 3), (11, 2)])
def test_ext_field_default_poly_is_the_first_primitive_polynomial(p, m):
    assert ExtField(p, m).poly == primitive_polynomials(p, m)[0]


def test_ext_field_m1_degenerates_to_prime_field():
    f = build_ext_field(5, 1)
    assert f.q == 5
    assert f.alpha == find_primitive_root(5) == 2
    assert np.array_equal(f.trace_table, np.arange(5))
    assert np.array_equal(f.log_table, PrimeField(5).log_table)


def test_gf25_default_poly_and_trace():
    f = build_ext_field(5, 2)
    assert f.poly == (2, 1, 1)  # x^2 + x + 2, smallest primitive
    assert f.trace_table[0] == 0
    assert f.trace_table[1] == 2  # Tr(1) = m mod p


def test_primitive_polynomials_gf25():
    polys = primitive_polynomials(5, 2)
    # phi(24)/2 = 4 primitive polynomials of degree 2 over GF(5)
    assert len(polys) == 4
    assert (2, 1, 1) in polys
    assert (1, 1, 1) not in polys  # x^2+x+1 divides x^3-1, order 3


def test_build_ext_field_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_ext_field(5, 2, poly=(1, 1, 1))  # non-primitive
    with pytest.raises(ValueError):
        build_ext_field(2, 3)
    with pytest.raises(ValueError):
        build_ext_field(6, 2)
    with pytest.raises(ValueError):
        build_ext_field(5, 10)  # 5^10 above the table cap MAX_Q


def test_exp_log_round_trip():
    for f in (build_ext_field(5, 2), build_ext_field(3, 3)):
        assert np.array_equal(f.exp_table[f.log_table[1:]], np.arange(1, f.q))
        assert f.log_table[0] == 0


def test_field_axioms_exhaustive():
    for f in (build_ext_field(23, 1), build_ext_field(5, 2), build_ext_field(3, 3)):
        x = np.arange(f.q)
        a, b, c = x[:, None, None], x[None, :, None], x[None, None, :]  # every triple
        assert np.array_equal(mul(f, a, mul(f, b, c)), mul(f, mul(f, a, b), c))
        assert np.array_equal(add(f, a, add(f, b, c)), add(f, add(f, a, b), c))
        assert np.array_equal(mul(f, a, add(f, b, c)), add(f, mul(f, a, b), mul(f, a, c)))
        a, b = x[:, None], x[None, :]
        assert np.array_equal(mul(f, a, b), mul(f, b, a))
        assert np.array_equal(add(f, a, b), add(f, b, a))
        assert np.array_equal(add(f, x, 0), x) and np.array_equal(mul(f, x, 1), x)
        # inverses: each row of the addition table, and of the product table on the
        # units, is a permutation, so it holds the identity exactly once
        assert np.array_equal(np.sort(add(f, a, b), axis=1), np.broadcast_to(x, (f.q, f.q)))
        units = np.sort(mul(f, a[1:], b[:, 1:]), axis=1)
        assert np.array_equal(units, np.broadcast_to(x[1:], (f.q - 1, f.q - 1)))


def test_frobenius_invariance_exhaustive():
    for f in (build_ext_field(5, 2), build_ext_field(3, 3), build_ext_field(3, 4)):
        x = np.arange(f.q)
        conj = [np.where(x == 0, 0, f.exp_table[f.log_table * f.p**i % (f.q - 1)])
                for i in range(f.m)]  # x**(p**i)
        assert np.array_equal(f.trace_table[conj[1]], f.trace_table)
        # Tr(x) is the sum of the conjugates, an element of GF(p), whose codes are < p
        tr = conj[0]
        for xi in conj[1:]:
            tr = add(f, tr, xi)
        assert np.array_equal(tr, f.trace_table)


def test_trace_is_linear():
    for f in (build_ext_field(5, 2), build_ext_field(3, 3)):
        x = np.arange(f.q)
        a, b = x[:, None], x[None, :]
        tr = f.trace_table
        assert np.array_equal(tr[add(f, a, b)], (tr[a] + tr[b]) % f.p)


def test_additive_character_exhaustive():
    for f in (build_ext_field(5, 2), build_ext_field(3, 3)):
        chi = np.exp(2j * np.pi * f.trace_table / f.p)
        x = np.arange(f.q)
        a, b = x[:, None], x[None, :]
        assert np.abs(chi[add(f, a, b)] - chi[a] * chi[b]).max() < 1e-12


def test_multiplicative_character_exhaustive():
    f = build_ext_field(5, 2)
    x = np.arange(1, f.q)
    a, b = x[:, None], x[None, :]
    for H in (24, 12, 8):
        psi = np.exp(2j * np.pi * (f.log_table % H) / H)
        assert np.abs(psi[mul(f, a, b)] - psi[a] * psi[b]).max() < 1e-12


def test_supplied_primitive_poly_is_accepted():
    for poly in primitive_polynomials(5, 2):
        f = build_ext_field(5, 2, poly=poly)
        assert f.poly == poly
        assert sorted(f.exp_table.tolist()) == list(range(1, 25))


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
