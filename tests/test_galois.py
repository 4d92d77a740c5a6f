import numpy as np
import pytest

from gfsig.galois import (ExtField, PrimeField, build_ext_field, find_primitive_root,
                          is_prime, primitive_polynomials)


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
    assert pf.discrete_log(1) == 0
    assert pf.discrete_log(0) == 0  # log(0) = 0 convention
    assert pow(5, 8, 23) == 16  # modular exponentiation oracle
    assert pf.discrete_log(16) == 8
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
    for x in range(5):
        assert f.trace(x) == x
        assert f.discrete_log(x) == PrimeField(5).discrete_log(x)


def test_gf25_default_poly_and_trace():
    f = build_ext_field(5, 2)
    assert f.poly == (2, 1, 1)  # x^2 + x + 2, smallest primitive
    assert f.trace(0) == 0
    assert f.trace(1) == 2  # Tr(1) = m mod p


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
        build_ext_field(5, 10)  # 5^10 above the default table cap


def test_exp_log_round_trip():
    for f in (build_ext_field(5, 2), build_ext_field(3, 3)):
        for x in range(1, f.q):
            assert f.exp_table[f.discrete_log(x)] == x
        assert f.discrete_log(0) == 0


def test_field_axioms_random_triples():
    rng = np.random.default_rng(0)
    for f in (build_ext_field(5, 2), build_ext_field(3, 3), build_ext_field(23, 1)):
        xs = rng.integers(0, f.q, size=(1000, 3))
        for a, b, c in xs:
            a, b, c = int(a), int(b), int(c)
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            if a != 0:
                assert f.mul(a, f.inv(a)) == 1
            assert f.add(a, f.neg(a)) == 0


def test_frobenius_invariance_exhaustive():
    for f in (build_ext_field(5, 2), build_ext_field(3, 3), build_ext_field(3, 4)):
        for x in range(f.q):
            xp = f.pow(x, f.p) if x else 0
            assert f.trace(xp) == f.trace(x)


def test_trace_is_linear():
    f = build_ext_field(5, 2)
    rng = np.random.default_rng(1)
    for a, b in rng.integers(0, 25, size=(200, 2)):
        assert f.trace(f.add(int(a), int(b))) == (f.trace(int(a)) + f.trace(int(b))) % 5


def test_additive_character_exhaustive():
    for f in (build_ext_field(5, 2), build_ext_field(3, 3)):
        chi = np.exp(2j * np.pi * np.array([f.trace(x) for x in range(f.q)]) / f.p)
        for x in range(f.q):
            for y in range(f.q):
                assert abs(chi[f.add(x, y)] - chi[x] * chi[y]) < 1e-12


def test_multiplicative_character_exhaustive():
    f = build_ext_field(5, 2)
    for H in (24, 12, 8):
        psi = np.exp(2j * np.pi * np.array([f.discrete_log(x) % H for x in range(f.q)]) / H)
        for x in range(1, f.q):
            for y in range(1, f.q):
                assert abs(psi[f.mul(x, y)] - psi[x] * psi[y]) < 1e-12


def test_element_encoding_round_trip():
    f = build_ext_field(5, 2)
    for code in range(25):
        assert f.encode(f.coeffs(code)) == code
    assert f.encode((2, 3)) == 2 + 3 * 5
    with pytest.raises(ValueError):
        f.encode((5, 0))
    with pytest.raises(ValueError):
        f.encode(25)


def test_supplied_primitive_poly_is_accepted():
    for poly in primitive_polynomials(5, 2):
        f = build_ext_field(5, 2, poly=poly)
        assert f.poly == poly
        assert sorted(f.exp_table.tolist()) == list(range(1, 25))


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
