import random
from itertools import product

import pytest

from genusfields import (InternalCheckError, MonicIrreducible, Poly, factor,
                         gcd, is_irreducible, poly_sort_key, pow_mod,
                         squarefree_decomposition, valuation, variable)
from genusfields import kernel

from conftest import (FIELD_KEYS, brute_force_factor, field,
                      fields_at_table_limit)

P = Poly.from_ints


def coeff_ints(poly):
    return [c.coeffs for c in poly.coeffs]


def test_arith_examples(F5):
    assert gcd(P(F5, [4, 0, 1]), P(F5, [4, 1])) == P(F5, [4, 1])     # T^2-1, T-1
    quo, rem = divmod(P(F5, [1, 0, 1]), P(F5, [2, 1]))
    assert quo == P(F5, [3, 1]) and rem.is_zero()                    # (T+2)(T+3)
    a = P(F5, [3, 2])
    assert gcd(a, Poly.zero(F5)) == a.monic()
    assert gcd(Poly.zero(F5), Poly.zero(F5)).is_zero()


def test_divmod_properties(F9):
    rng = random.Random(4)
    for _ in range(40):
        a = Poly(F9, [F9.from_index(rng.randrange(9)) for _ in range(rng.randint(0, 8))])
        b = Poly(F9, [F9.from_index(rng.randrange(9)) for _ in range(rng.randint(1, 5))])
        if b.is_zero():
            continue
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.degree() < b.degree()


def test_division_by_zero(F5):
    with pytest.raises(ZeroDivisionError):
        divmod(P(F5, [1, 1]), Poly.zero(F5))


def test_field_mismatch(F5, F7):
    with pytest.raises(ValueError):
        P(F5, [1]) * P(F7, [1])


def test_squarefree_examples(F5, F2):
    assert squarefree_decomposition(P(F5, [0, 1, 2, 1])) == \
        [(P(F5, [0, 1]), 1), (P(F5, [1, 1]), 2)]           # T(T+1)^2
    assert squarefree_decomposition(P(F2, [0, 0, 1])) == [(P(F2, [0, 1]), 2)]
    f = P(F5, [1, 0, 1])                                    # squarefree
    assert squarefree_decomposition(f) == [(f, 1)]
    with pytest.raises(ValueError):
        squarefree_decomposition(Poly.zero(F5))


def test_squarefree_char_p_powers(F2, F9):
    # (T^2 + T)^2 = T^4 + T^2 over F_2 exercises the p-th root branch
    assert squarefree_decomposition(P(F2, [0, 0, 1, 0, 1])) == \
        [(P(F2, [0, 1, 1]), 2)]
    # (T + 1)^3 over F_9 (char 3)
    cube = P(F9, [1, 1]) ** 3
    assert squarefree_decomposition(cube) == [(P(F9, [1, 1]), 3)]


def test_factor_examples(F5, F3, F2):
    assert [(coeff_ints(Q.poly), m) for Q, m in factor(P(F5, [1, 0, 1]))] == \
        [([(2,), (1,)], 1), ([(3,), (1,)], 1)]
    assert [(coeff_ints(Q.poly), m) for Q, m in factor(P(F3, [1, 0, 1]))] == \
        [([(1,), (0,), (1,)], 1)]
    assert [(coeff_ints(Q.poly), m) for Q, m in factor(P(F2, [0, 0, 1, 1]))] == \
        [([(0,), (1,)], 2), ([(1,), (1,)], 1)]


def test_factor_errors(F5):
    with pytest.raises(ValueError):
        factor(P(F5, [3]))
    with pytest.raises(ValueError):
        factor(Poly.zero(F5))


def test_is_irreducible_examples(F5, F3):
    assert is_irreducible(variable(F5))
    assert not is_irreducible(P(F5, [1, 0, 1]))
    assert is_irreducible(P(F3, [1, 0, 1]))
    assert not is_irreducible(P(F5, [3]))
    with pytest.raises(ValueError):
        is_irreducible(Poly.zero(F5))


def test_monic_irreducible_certifies(F5):
    with pytest.raises(ValueError):
        MonicIrreducible(P(F5, [1, 0, 1]))   # reducible
    with pytest.raises(ValueError):
        MonicIrreducible(P(F5, [1, 2]))      # not monic
    with pytest.raises(ValueError):
        MonicIrreducible(Poly.one(F5))       # monic constant
    with pytest.raises(ValueError):
        MonicIrreducible(P(F5, [3]))         # constant, not monic
    Q = MonicIrreducible(P(F5, [2, 1]))
    assert Q.deg == 1


def test_failed_certificate_in_factor_is_internal(F5, monkeypatch):
    # a prime that factor found but cannot certify is factor's own fault;
    # the public constructor still refuses reducible input by ValueError
    monkeypatch.setattr(kernel, "rabin_holds", lambda *args: False)
    with pytest.raises(InternalCheckError, match="prime certificate failed"):
        factor(P(F5, [0, 1]))
    with pytest.raises(ValueError):
        MonicIrreducible(P(F5, [0, 1]))


def test_valuation_examples(F5):
    T_plus_1 = MonicIrreducible(P(F5, [1, 1]))
    T_ = MonicIrreducible(P(F5, [0, 1]))
    assert valuation(P(F5, [0, 1, 2, 1]), T_plus_1) == 2
    assert valuation(P(F5, [1, 1]), T_) == 0
    assert valuation(P(F5, [1, 0, 1]), MonicIrreducible(P(F5, [2, 1]))) == 1
    with pytest.raises(ValueError):
        valuation(Poly.zero(F5), T_)


def random_monic(fld, rng, max_deg, min_deg=1):
    deg = rng.randint(min_deg, max_deg)
    return Poly(fld, [fld.from_index(rng.randrange(fld.q)) for _ in range(deg)]
                + [fld.one])


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (3, 2), (13, 1)])
def test_refactor_random(p, f):
    """Multiplying the factorization back together reproduces the input."""
    fld = field(p, f)
    rng = random.Random(100 * p + f)
    for _ in range(30):
        num = random_monic(fld, rng, 12)
        scale = fld.from_index(rng.randrange(1, fld.q))
        poly = Poly(fld, [c * scale for c in num.coeffs])
        factors = factor(poly, seed=rng.randrange(1 << 30))
        product = Poly(fld, [scale])
        for Q, mult in factors:
            assert is_irreducible(Q.poly)
            product = product * Q.poly ** mult
        assert product == poly
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                assert gcd(factors[i][0].poly, factors[j][0].poly).is_one()


def test_factor_agrees_with_all_divisor_oracle():
    rng = random.Random(6)
    for p, f in FIELD_KEYS:
        fld = field(p, f)
        for _ in range(12):
            poly = random_monic(fld, rng, 3)
            got = [(Q.poly, m) for Q, m in factor(poly, seed=1)]
            assert got == brute_force_factor(poly)


def test_factor_seed_reproducible(F13):
    rng = random.Random(7)
    for _ in range(20):
        poly = random_monic(F13, rng, 10)
        first = factor(poly, seed=42)
        again = factor(poly, seed=42)
        other = factor(poly, seed=43)
        assert first == again
        assert first == other  # canonical order makes any seed agree


def test_valuation_matches_factor_multiplicity(F9):
    rng = random.Random(8)
    for _ in range(25):
        poly = random_monic(F9, rng, 9)
        for Q, mult in factor(poly, seed=3):
            assert valuation(poly, Q) == mult


def test_canonical_factor_order(F5, F9):
    factors = factor(P(F5, [0, 4, 0, 0, 0, 1]), seed=0)   # T^5 + 4T = T(T^4+4)
    keys = [Q.sort_key for Q, _ in factors]
    assert keys == sorted(keys)
    # extension field: order is by dlog of coefficients, zero first
    g = F9.g
    poly = Poly(F9, [g, F9.one]) * Poly(F9, [g ** 5, F9.one]) * variable(F9)
    keys = [Q.sort_key for Q, _ in factor(poly, seed=0)]
    assert keys == sorted(keys)


def test_poly_sort_key_prefix_rule(F5):
    assert poly_sort_key(P(F5, [0, 1])) < poly_sort_key(P(F5, [1, 1]))
    assert poly_sort_key(P(F5, [0, 1])) < poly_sort_key(P(F5, [0, 1, 1]))


def _frobenius_powers(h, n):
    """x^(q^j) mod h for j = 0..n, each by pow_mod of the last."""
    powers = [variable(h.field) % h]
    for _ in range(n):
        powers.append(pow_mod(powers[-1], h.field.q, h))
    return [list(X.codes) for X in powers]


def test_certificate_refuses_product_of_equal_degree_primes(F5, F4):
    for fld, d in ((F5, 2), (F5, 3), (F4, 3)):
        monics = (Poly(fld, [fld.from_index(c) for c in codes] + [fld.one])
                  for codes in product(range(fld.q), repeat=d))
        primes = [Q for Q in monics if is_irreducible(Q)][:2]
        both = primes[0] * primes[1]
        powers = _frobenius_powers(both, 2 * d)
        with pytest.raises(ValueError):
            MonicIrreducible(both, powers.__getitem__)
        # the same powers certify each prime on its own
        for Q in primes:
            assert MonicIrreducible(Q, powers.__getitem__).poly == Q


def _gauss_count(q, n):
    """Number of monic irreducibles of degree n over F_q:
    (1/n) * sum over d | n of mu(d) * q^(n/d)."""
    def mobius(d):
        sign, k = 1, 2
        while d > 1:
            if d % k == 0:
                d //= k
                if d % k == 0:
                    return 0
                sign = -sign
            k += 1
        return sign
    return sum(mobius(d) * q ** (n // d)
               for d in range(1, n + 1) if n % d == 0) // n


_GAUSS_CASES = [pytest.param(field(p, f), n, id=f"{p}^{f}-n{n}")
                for (p, f), top in (((2, 1), 8), ((3, 1), 5), ((2, 2), 4),
                                    ((5, 1), 4), ((3, 2), 3))
                for n in range(1, top + 1)]
_GAUSS_CASES += [pytest.param(fld, n, id=f"{p}^{f}-untabled-n{n}")
                 for (p, f), fld in
                 fields_at_table_limit(1, ((2, 2), (2, 3), (3, 2))).items()
                 for n in range(1, 4)]


@pytest.mark.parametrize("fld,n", _GAUSS_CASES)
def test_is_irreducible_counts_match_gauss(fld, n):
    """is_irreducible accepts exactly Gauss's count of monics of degree n,
    on tabled and untabled fields."""
    accepted = sum(is_irreducible(Poly(fld, [fld.from_index(c) for c in codes]
                                       + [fld.one]))
                   for codes in product(range(fld.q), repeat=n))
    assert accepted == _gauss_count(fld.q, n)


def _sparse(fld, d):
    """T^d+T+1 on prime fields, T^d+gT+g otherwise."""
    c = fld.one if fld.f == 1 else fld.g
    return Poly(fld, [c, c] + [fld.zero] * (d - 2) + [fld.one])


def _check_factorization(poly, factors):
    back = Poly.one(poly.field)
    for Q, mult in factors:
        assert is_irreducible(Q.poly)
        back = back * Q.poly ** mult
    assert back == poly


@pytest.mark.parametrize("key", [(13, 1), (3, 2), (2, 3)])
def test_factor_high_degree_shapes(key):
    fld = field(*key)
    for d in range(24, 37):
        poly = _sparse(fld, d)
        _check_factorization(poly, factor(poly, seed=d))


def test_factor_leftover_prime_above_half_degree(F13):
    poly = _sparse(F13, 50)
    factors = factor(poly, seed=0)
    assert sorted(Q.deg for Q, _ in factors) == [1, 1, 6, 7, 35]
    _check_factorization(poly, factors)
