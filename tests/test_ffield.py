import random
import time

import pytest

from genusfields import Poly, build_field, element_sort_key, parse_input, render_job
from genusfields import ffield, kernel
from genusfields.intmath import is_prime, prime_factors

from conftest import FIELD_KEYS, field, fields_at_table_limit


def test_build_field_f5():
    F5 = field(5, 1)
    assert F5.q == 5
    assert F5.modulus == (0, 1)
    assert F5.g.coeffs == (2,)  # 1 has order 1; 2 has order 4


def test_build_field_f4():
    F4 = field(2, 2)
    assert F4.modulus == (1, 1, 1)  # the unique monic irreducible quadratic
    assert F4.g.coeffs == (0, 1)    # x, of order 3


def test_build_field_f9():
    F9 = field(3, 2)
    assert F9.modulus == (1, 0, 1)  # x^2 + 1 has no root mod 3
    assert F9.g.coeffs == (1, 1)    # x has order 4, x + 1 has order 8


def test_build_field_deterministic():
    a = build_field(3, 2)
    b = build_field(3, 2)
    assert a == b
    assert a.modulus == b.modulus and a.g == b.g
    x, y = a.from_index(5), b.from_index(7)
    assert (x * a.from_index(7)).coeffs == (b.from_index(5) * y).coeffs


def test_build_field_errors():
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(5, 0)
    with pytest.raises(ValueError):
        build_field(2, 21)  # 2^21 exceeds the bound 2^20
    # refused before trial division by sqrt(p) or building p ** f
    start = time.monotonic()
    with pytest.raises(ValueError):
        build_field(10000000000000061, 1)
    with pytest.raises(ValueError):
        build_field(2, 10 ** 12)
    assert time.monotonic() - start < 1.0


def test_overrides_validated():
    with pytest.raises(ValueError):
        build_field(3, 2, modulus=(0, 1, 1))  # x^2 + x is reducible
    with pytest.raises(ValueError):
        build_field(3, 2, modulus=(1, 0, 2))  # not monic
    with pytest.raises(ValueError):
        build_field(5, 1, generator=(4,))    # order 2, not 4
    alt = build_field(5, 1, generator=(3,))
    assert alt.g.coeffs == (3,)
    assert alt.dlog(alt.const(4)) == 2       # 3^2 = 9 = 4
    with pytest.raises(ValueError):
        build_field(3, 2, generator=(0, 1))  # x^2 = -1: order 4, norm x^4 = 1
    assert build_field(3, 2, generator=(2, 1)).g.coeffs == (2, 1)   # order 8


def test_arith_examples():
    F5 = field(5, 1)
    assert F5.const(2) * F5.const(3) == F5.one          # 6 = 1 mod 5
    assert F5.const(4) ** 0 == F5.one
    F4 = field(2, 2)
    x = F4.g
    assert (x * x).coeffs == (1, 1)                     # x^2 = x + 1


def test_arith_errors():
    F5, F7 = field(5, 1), field(7, 1)
    with pytest.raises(ValueError):
        F5.const(1) * F7.const(1)
    with pytest.raises(ZeroDivisionError):
        F5.one / F5.zero
    with pytest.raises(ZeroDivisionError):
        F5.zero ** -1


def test_pow_matches_repeated_product():
    rng = random.Random(1)
    for p, f in FIELD_KEYS:
        fld = field(p, f)
        for _ in range(20):
            x = fld.from_index(rng.randrange(1, fld.q))
            e = rng.randrange(-6, 12)
            expected = fld.one
            base = x if e >= 0 else fld.one / x
            for _ in range(abs(e)):
                expected = expected * base
            assert x ** e == expected


def test_dlog_examples():
    F5, F7 = field(5, 1), field(7, 1)
    assert F5.one.dlog() == 0
    assert F5.const(4).dlog() == 2      # 2^2 = 4
    assert F7.const(6).dlog() == 3      # 3^3 = 27 = 6


def test_dlog_errors():
    F5 = field(5, 1)
    with pytest.raises(ValueError):
        F5.zero.dlog()


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1),
                                 (2, 2), (3, 2), (2, 3), (5, 3), (2, 10), (3, 5)])
def test_dlog_roundtrip_exhaustive(p, f):
    fld = build_field(p, f)
    g = fld.g
    for x in fld.elements():
        if x.is_zero():
            continue
        assert g ** x.dlog() == x
    assert fld.dlog(g) == 1 or fld.q == 2


def test_dlog_is_homomorphism():
    rng = random.Random(2)
    for p, f in FIELD_KEYS:
        fld = field(p, f)
        n = fld.q - 1
        for _ in range(30):
            x = fld.from_index(rng.randrange(1, fld.q))
            y = fld.from_index(rng.randrange(1, fld.q))
            assert (x * y).dlog() == (x.dlog() + y.dlog()) % n


@pytest.mark.parametrize("p,f", [(5, 1), (13, 1), (3, 2), (2, 3), (2, 10)])
def test_nth_power_criterion(p, f):
    """x is an n-th power iff n divides dlog(x), against brute-force powering."""
    fld = build_field(p, f)
    q = fld.q
    from genusfields.intmath import divisors
    for n in divisors(q - 1):
        powers = {(y ** n).coeffs for y in fld.elements() if not y.is_zero()}
        for x in fld.elements():
            if x.is_zero():
                continue
            assert (x.dlog() % n == 0) == (x.coeffs in powers)


def test_bsgs_large_field():
    """q = 2^17 exceeds the table limit, forcing the BSGS and raw-product paths.

    The elements come from a second, equal field: a power of g taken on
    ``fld`` itself would land in its log memo and skip the search."""
    fld, other = build_field(2, 17), build_field(2, 17)
    rng = random.Random(3)
    for _ in range(5):
        k = rng.randrange(fld.q - 1)
        assert fld.dlog(fld.from_index((other.g ** k).code)) == k
    assert fld._log is None


# p = 2 and odd p, f = 1 and f > 1; the extension fields are tabled at the
# default limit
SEARCH_KEYS = ((5, 1), (13, 1), (2, 2), (2, 3), (3, 2), (3, 5), (2, 10))


@pytest.mark.parametrize("p,f", SEARCH_KEYS)
def test_search_agrees_with_tables(p, f, monkeypatch):
    tabled = build_field(p, f)
    if f == 1:   # prime fields build no tables: walk the powers of g
        logs, x = {}, tabled.one
        for k in range(tabled.q - 1):
            logs[x.code] = k
            x = x * tabled.g
        want = [logs[x.code] for x in tabled.elements() if x]
    else:
        want = [tabled.dlog(x) for x in tabled.elements() if x]
        assert tabled._log is not None
    monkeypatch.setattr(ffield, "_TABLE_LIMIT", 1)
    fld = build_field(p, f)
    fld._bind()
    got = [fld.dlog(x) for x in fld.elements() if x]
    assert fld._log is None and got == want
    assert [fld.dlog(x) for x in fld.elements() if x] == want   # memo hits


def test_search_builds_one_baby_step_table():
    """The first search builds the Pohlig-Hellman steps, one per prime
    power of q - 1 = 2 * 13 * 757, and every later search reads them."""
    fld = build_field(3, 9)
    assert fld.q > ffield._TABLE_LIMIT and fld._baby is None
    rng = random.Random(4)
    xs = [fld.from_index(rng.randrange(1, fld.q)) for _ in range(40)]
    fld.dlog(xs[0])
    table = fld._baby
    assert [(ell, e) for ell, e, *_ in table] == [(2, 1), (13, 1), (757, 1)]
    logs = [fld.dlog(x) for x in xs]
    assert fld._baby is table
    assert [fld.dlog(x) for x in xs] == logs
    assert all(fld.g ** k == x for k, x in zip(logs, xs))


def test_parsed_generator_power_renders_without_search():
    text = "field p=3 f=9\ncomponent gamma=g^12345 D=T^2+g^777*T+g^19681 m=2\n"
    config = parse_input(text)
    assert render_job(config) == text
    assert config.field._baby is None and config.field._log is None


@pytest.mark.parametrize("p,f,tabled", [(2, 13, True), (3, 8, True),
                                        (2, 14, False), (3, 9, False),
                                        (4099, 1, False), (8191, 1, False)])
def test_table_limit_sides(p, f, tabled):
    fld = build_field(p, f)
    fld._bind()
    x = fld.from_index(fld.q - 1)
    assert fld.g ** fld.dlog(x) == x
    assert (fld._log is not None) == tabled


def test_table_choice_is_made_when_built(monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(ffield, "_TABLE_LIMIT", 1)
        fld = build_field(3, 2)
        fld._bind()
    x = fld.from_index(5)
    assert fld.g ** fld.dlog(x) == x
    assert fld._log is None


@pytest.mark.parametrize("p,f", [(2, 13), (3, 8)])
def test_element_arithmetic_builds_no_tables(p, f):
    """FqElem operators run on the element arithmetic, so combining the
    elements of a fresh tabled field leaves it without tables; once built,
    the tables give the same codes."""
    fld = build_field(p, f)
    x, y = fld.from_index(fld.q - 1), fld.from_index(fld.q // 3)
    got = [x * y, x + y, x - y, -x, x / y, x ** 5, fld.g ** 1234]
    assert fld._log is None and fld._exp is None
    fld._bind()   # the kernel loops now read the tables
    assert fld._log is not None
    X, Y = Poly(fld, [x]), Poly(fld, [y])
    want = [X * Y, X + Y, X - Y, Poly(fld, []) - X, divmod(X, Y)[0]]
    assert [Poly(fld, [z]) for z in got[:5]] == want
    assert [z.code for z in got[5:]] == [fld._pow(x.code, 5), fld._exp[1234]]
    assert x + y - y == x and -(-x) == x and x - y == x + -y


# every field whose lane fits a byte: p = 2 with q <= 256, F_9, F_25, F_49
# and the primes up to 127
LANE_FIELDS = [(2, f) for f in range(1, 9)] + [(3, 2), (5, 2), (7, 2)] + \
    [(p, 1) for p in range(3, 128) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("p,f", LANE_FIELDS)
def test_lane_product_tables(p, f):
    """Each nonzero c's product table, read through one row update of c on
    the row of every code into a zero accumulator, holds c * x for every x,
    as the element arithmetic ``mul`` computes it."""
    fld = build_field(p, f)
    load, prep, axpy, _, store = fld._rows(1, ffield._LANE_ROW)
    row = prep(range(fld.q))
    assert isinstance(row, bytes)
    mul = fld._ops[0]
    for c in range(1, fld.q):
        got = store(axpy(load([], fld.q), 0, c, row), fld.q)
        assert got == [mul(c, x) for x in range(fld.q)]


def _ref_product(a, b, modulus, p):
    """Coordinate product of a and b, reduced by the monic modulus and p."""
    f = len(modulus) - 1
    out = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_fold(out, modulus, p)


def _ref_fold(out, modulus, p):
    """The coordinates of sum(out[k] x^k), k < 2f - 1, mod the modulus and p."""
    f = len(modulus) - 1
    out = list(out)
    for k in range(2 * f - 2, f - 1, -1):   # x^k = x^(k-f) * (x^f - modulus)
        c = out.pop()
        for i, m in enumerate(modulus[:-1]):
            out[k - f + i] -= c * m
    return tuple(c % p for c in out)


@pytest.mark.parametrize("p,f", [(2, 14), (3, 9), (5, 7), (7, 5), (13, 4),
                                 (17, 4), (31, 3), (37, 3), (1021, 2)])
def test_packed_reduce_at_every_width(p, f):
    """``reduce`` of 2f - 1 digits as large as a width allows, for widths of
    one to 34 bytes: each side of every choice between reading all digits
    as one base-p numeral (f >= 4, p <= 36, one-byte digits, or two bytes
    when p = 2 or p | 255) and the digit loop."""
    fld = build_field(p, f)
    rng = random.Random(p * f)
    widths = {ffield._width(p, f, k) for k in (1, 5, 40, 3000)} | {80, 272}
    for width in sorted(widths):
        _, reduce = ffield._packing(p, f, fld.modulus, width)
        # the largest digit that reducing, which adds (f - 1)(p - 1)^2, keeps
        top = (1 << width) - 1 - (f - 1) * (p - 1) ** 2
        for _ in range(60):
            digits = [rng.choice((0, top, rng.randrange(top + 1)))
                      for _ in range(2 * f - 1)]
            acc = sum(d << i * width for i, d in enumerate(digits))
            assert fld.from_index(reduce(acc)).coeffs == \
                _ref_fold(digits, fld.modulus, p)


@pytest.mark.parametrize("p,f", [(1021, 2), (3, 12), (2, 20), (5, 8)])
def test_packed_arithmetic_at_widest_digits(p, f):
    """Untabled products, sums, negation and polynomial division against a
    plain coordinate product; the codes q-1 ... q-5 have the largest digits."""
    fld = build_field(p, f)
    rng = random.Random(p * f)
    xs = [fld.from_index(c) for c in range(fld.q - 1, fld.q - 6, -1)]
    xs += [fld.from_index(rng.randrange(fld.q)) for _ in range(25)]
    for x in xs:
        assert (-x).coeffs == tuple(-c % p for c in x.coeffs)
        for y in xs:
            assert (x * y).coeffs == _ref_product(x.coeffs, y.coeffs, fld.modulus, p)
            assert (x + y).coeffs == tuple((c + d) % p
                                           for c, d in zip(x.coeffs, y.coeffs))
    assert fld._log is None
    A, B = Poly(fld, xs), Poly(fld, xs[5:9] + xs[:1])
    quo, rem = divmod(A, B)
    assert rem.degree() < B.degree()
    got = [[0] * f for _ in range(len(A.coeffs))]   # quo * B + rem, by coordinates
    for i, c in enumerate(quo.coeffs):
        for j, d in enumerate(B.coeffs):
            got[i + j] = [s + t for s, t in zip(got[i + j], _ref_product(
                c.coeffs, d.coeffs, fld.modulus, p))]
    for i, c in enumerate(rem.coeffs):
        got[i] = [s + t for s, t in zip(got[i], c.coeffs)]
    assert [tuple(s % p for s in v) for v in got] == [c.coeffs for c in A.coeffs]


def test_element_sort_key():
    F5, F9 = field(5, 1), field(3, 2)
    assert [element_sort_key(F5.const(a)) for a in range(5)] == [0, 1, 2, 3, 4]
    keys = [element_sort_key(x) for x in F9.elements()]
    assert sorted(keys) == [-1] + list(range(8))  # zero first, then by dlog
    assert element_sort_key(F9.zero) == -1
    assert element_sort_key(F9.one) == 0
    assert element_sort_key(F9.g) == 1


def _power_by_products(x, k):
    """x^k for k >= 0 by square and multiply on ``FqElem`` products, which
    neither read nor fill the log memo: the oracle of ``**``, ``/`` and
    ``dlog`` below."""
    out = x.field.one
    while k:
        if k & 1:
            out = out * x
        x, k = x * x, k >> 1
    return out


# untabled at the default limit: the extension fields of the large_field
# benchmark and 2^14 and 3^9, just past the limit; and small fields built
# untabled
LARGE_EXTENSION_KEYS = ((3, 10), (2, 16), (2, 17), (3, 11), (2, 14), (3, 9))
SMALL_UNTABLED = fields_at_table_limit(
    1, ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)))


@pytest.mark.parametrize("key", LARGE_EXTENSION_KEYS + tuple(SMALL_UNTABLED),
                         ids=lambda key: f"{key[0]}^{key[1]}")
def test_inverses_and_generator_powers_match_products(key):
    """Itoh-Tsujii inverses (``x ** -1``, ``/``, the kernel's ``_pow(c, -1)``)
    against a^(q-2), the norm against a^((q-1)/(p-1)), and powers of g,
    read from the table of g^(2^i), against square and multiply, all by
    products; the codes q - 1 ... q - 3 have the largest digits."""
    fld = SMALL_UNTABLED.get(key) or build_field(*key)
    fld._bind()
    assert fld._log is None
    p, q = fld.p, fld.q
    n, r = q - 1, (q - 1) // (p - 1)
    rng = random.Random(q)
    xs = [fld.one, -fld.one, fld.g] + [fld.from_index(c) for c in (q - 1, q - 2, q - 3)]
    xs += [fld.from_index(rng.randrange(1, q)) for _ in range(12)]
    norm = fld._ops[4]
    for x in xs:
        inverse = _power_by_products(x, q - 2)
        assert x ** -1 == inverse and fld.one / x == inverse
        assert fld._pow(x.code, -1) == inverse.code
        assert (x * inverse) == fld.one
        assert norm(x.code) * fld._one == _power_by_products(x, r).code
    y = xs[-1]
    assert [(x / y) * y for x in xs] == xs
    for k in (0, 1, 2, q - 2, q - 1, q, -1, -7,
              rng.randrange(n), rng.randrange(n, 5 * n)):
        assert fld.g ** k == _power_by_products(fld.g, k % n)


@pytest.mark.parametrize("p,f", [(2, 16), (3, 10), (3, 11), (2, 17), (65537, 1)])
def test_pohlig_hellman_round_trips(p, f):
    """dlog splits over the prime powers of q - 1: 2^16 - 1 = 3 * 5 * 17 *
    257, 3^10 - 1 = 2^3 * 11^2 * 61, 3^11 - 1 = 2 * 23 * 3851, 2^17 - 1
    prime (one baby-step giant-step search) and 65537 - 1 = 2^16.  The
    logs of +-1, of elements of every subgroup of prime or prime-power
    order and of random elements are exact; the elements come from
    products, so no log of theirs is in the memo."""
    fld = build_field(p, f)
    n, g = fld.q - 1, fld.g
    rng = random.Random(n)
    assert fld.dlog(fld.one) == 0
    assert fld.dlog(-fld.one) == (0 if p == 2 else n // 2)
    for ell in prime_factors(n):
        power = ell
        while n % power == 0:   # the subgroup of order l^i
            for _ in range(3):
                k = n // power * rng.randrange(1, power) % n
                x = fld.from_index(_power_by_products(g, k).code)
                assert fld.dlog(x) == k
            power *= ell
    for _ in range(10):
        x = fld.from_index(rng.randrange(1, fld.q))
        k = fld.dlog(x)
        assert 0 <= k < n and _power_by_products(g, k) == x and g ** k == x


def _presentation_by_rabin(p, f):
    """The modulus as the smallest monic irreducible by Rabin's test alone,
    and the generator as the smallest element with a^((q-1)/l) != 1 for
    every prime l | q - 1, by products."""
    fp, q = build_field(p, 1), p ** f
    modulus = next(cand for cand in (ffield._index_coeffs(k, p, f) + (1,)
                                     for k in range(p ** (f - 1), q))
                   if kernel.rabin(fp, list(cand)))
    fld = build_field(p, f, modulus=modulus)
    primes = prime_factors(q - 1)
    gen = next(x for x in map(fld.from_index, range(1, q))
               if all(_power_by_products(x, (q - 1) // ell) != fld.one
                      for ell in primes))
    return modulus, gen.coeffs


PRESENTATION_KEYS = [(p, f) for f in range(2, 17) for p in range(2, 257)
                     if is_prime(p) and p ** f <= 1 << 16] + \
    [(2, 17), (2, 18), (2, 19), (2, 20), (3, 11), (3, 12)]


def test_presentation_has_not_moved():
    """The root filter of the modulus search and the norm test of the
    generator search change no field: every (p, f) with f >= 2 and q <=
    2^16, and 2^17 ... 2^20, 3^11 and 3^12."""
    assert len(PRESENTATION_KEYS) == 99
    for p, f in PRESENTATION_KEYS:
        fld = build_field(p, f)
        assert (fld.modulus, fld.g.coeffs) == _presentation_by_rabin(p, f), (p, f)
