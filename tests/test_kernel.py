"""Differential tests of the int-coded polynomial kernel.

Sums, differences, products, division with remainder, gcd and modular
powers of ``Poly`` are checked against a plain schoolbook reference
written with ``FqElem`` operators, which run on the element arithmetic
(``ffield._code_ops``) and never on a field's tables, and one Frobenius
matrix step and the powers x^(q^j) of ``kernel.frobenius_powers``
against chained ``pow_mod``, on both arithmetic paths of ``ffield``: the
tabled one and the untabled one, forced by building the fields with
``_TABLE_LIMIT`` set low.  On fields whose lanes fit a byte, rows of at
least ``ffield._LANE_ROW`` coefficients take byte lanes and shorter ones
lists; the drawn cases reach both, and every kernel operation is run
on both row forms, forced by moving the crossover, with equal results.
The fields cover p = 2 and odd p, f = 1 and f > 1.
"""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from genusfields import Poly, build_field, factor, gcd, pow_mod
from genusfields import ffield, kernel, polyring

from conftest import fields_at_table_limit

KEYS = ((2, 1), (2, 2), (2, 3), (3, 2), (13, 1), (65537, 1))
TABLED = fields_at_table_limit(ffield._TABLE_LIMIT, KEYS)
UNTABLED = fields_at_table_limit(1, KEYS)
# untabled at the default limit; the fields of
# test_ffield.py::test_packed_arithmetic_at_widest_digits
WIDEST = ((2, 20), (3, 12), (5, 8), (1021, 2))
# byte-lane fields: the widest lanes (2^8, 127 and 7^2, with f * bitlen(2p - 2)
# = 8) and those of the high-degree benchmark jobs
LANE_WIDEST = ((2, 8), (127, 1), (7, 2), (3, 2), (2, 3), (13, 1))
CROSSOVER = ffield._LANE_ROW


# ---------------------------------------------------------------------------
# schoolbook reference on lists of FqElem, constant term first

def _trim(a):
    while a and a[-1].is_zero():
        a.pop()
    return a


def ref_add(fld, a, b, op):
    """a + b or a - b, by ``op`` on each coefficient."""
    n = max(len(a), len(b))
    a, b = (x + [fld.zero] * (n - len(x)) for x in (a, b))
    return _trim([op(x, y) for x, y in zip(a, b)])


def ref_mul(fld, a, b):
    if not a or not b:
        return []
    out = [fld.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def ref_divmod(fld, a, b):
    db = len(b) - 1
    rem = list(a)
    quo = [fld.zero] * max(len(a) - db, 0)
    for k in reversed(range(len(quo))):
        c = rem[k + db] / b[-1]
        quo[k] = c
        for j in range(db + 1):
            rem[k + j] = rem[k + j] - c * b[j]
    return _trim(quo), _trim(rem[:db])


def ref_gcd(fld, a, b):
    while b:
        a, b = b, ref_divmod(fld, a, b)[1]
    return [c / a[-1] for c in a]


def ref_pow_mod(fld, a, e, m):
    result = [fld.one]
    for _ in range(e):   # repeated multiplication, not square and multiply
        result = ref_divmod(fld, ref_mul(fld, result, a), m)[1]
    return result


@st.composite
def cases(draw):
    """A key, two code lists a and b and an exponent.  In one case of six
    the lists run past the byte-lane crossover, with a smaller exponent; in
    one b is a single nonzero code, a constant divisor; and in one b has
    degree >= 1 and a is x^k b + c for a nonzero code c, so Euclid's first
    remainder is the constant c."""
    key = draw(st.sampled_from(KEYS))
    q = key[0] ** key[1]
    code, nonzero = st.integers(0, q - 1), st.integers(1, q - 1)
    kind = draw(st.integers(0, 5))
    if kind:
        codes, top = st.lists(code, max_size=12), 30
    else:
        codes, top = st.lists(code, min_size=CROSSOVER, max_size=2 * CROSSOVER), 4
    a, b, e = draw(codes), draw(codes), draw(st.integers(0, top))
    if kind == 1:
        b = [draw(nonzero)]
    elif kind == 2:
        b = draw(st.lists(code, min_size=1, max_size=11)) + [draw(nonzero)]
        a = [draw(nonzero)] + [0] * draw(st.integers(0, 3)) + b
    return key, a, b, e


def _elems(fld, codes):
    return _trim([fld.from_index(c) for c in codes])


def test_paths_are_as_intended():
    """Rows shorter than the crossover are prepared as logs on tabled
    extension fields and as the residues themselves on prime fields; rows
    at or above it as bytes of lanes wherever a lane fits a byte (p = 2 with
    q <= 256, odd p with f * bitlen(2p - 2) <= 8).  Untabled extension
    fields prepare one packed int at every length, and prime fields with
    p >= 128 residues."""
    short, long = CROSSOVER - 1, CROSSOVER
    for key in KEYS:
        tabled, untabled = TABLED[key], UNTABLED[key]
        assert tabled == untabled
        one = [tabled._one]
        if key[1] > 1:
            assert tabled._log is not None
            assert untabled._log is None
            assert tabled._rows(3, short)[1](one) == [0]
            for n in (short, long):
                assert isinstance(untabled._rows(3, n)[1](one), int)
        else:
            assert tabled._rows(3, short)[1] is tuple and untabled._rows(3, short)[1] is tuple
    lanes = [TABLED[key] for key in KEYS if key != (65537, 1)] + \
        [build_field(*key) for key in ((127, 1), (7, 2), (2, 8))]
    for fld in lanes:
        assert isinstance(fld._rows(3, long)[1]([fld._one]), bytes)
    for key in ((65537, 1), (131, 1)):
        fld = TABLED.get(key) or build_field(*key)
        assert fld._rows(3, long)[1] is tuple
    for key in ((3, 3), (11, 2), (2, 9)):   # a lane would need 9, 10 and 9 bits
        fld = build_field(*key)
        assert fld._rows(3, long)[1]([fld._one]) == [0]


@pytest.mark.parametrize("fields", [TABLED, UNTABLED], ids=["tabled", "untabled"])
@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_kernel_matches_schoolbook(fields, case):
    key, a, b, e = case
    fld = fields[key]
    ea, eb = _elems(fld, a), _elems(fld, b)
    A, B = Poly(fld, ea), Poly(fld, eb)
    assert list((A + B).coeffs) == ref_add(fld, ea, eb, operator.add)
    assert list((A - B).coeffs) == ref_add(fld, ea, eb, operator.sub)
    assert list((A * B).coeffs) == ref_mul(fld, ea, eb)
    assert list(gcd(A, B).coeffs) == ref_gcd(fld, ea, eb)
    if eb:
        quo, rem = divmod(A, B)
        assert (list(quo.coeffs), list(rem.coeffs)) == ref_divmod(fld, ea, eb)
    if len(eb) > 1:
        assert list(pow_mod(A, e, B).coeffs) == ref_pow_mod(fld, ea, e, eb)


@pytest.mark.parametrize("fields", [TABLED, UNTABLED], ids=["tabled", "untabled"])
@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_frobenius_step_matches_pow_mod(fields, case):
    """One row combination of the Frobenius matrix mod h is v^q mod h,
    frobenius_powers gives x^(q^j) mod h as j chained pow_mod calls, and
    trace_mod sums chained squarings by pow_mod."""
    key, a, b, _ = case
    fld = fields[key]
    H = Poly(fld, [fld.from_index(c) for c in b or [0]] + [fld.one])
    V = Poly(fld, _elems(fld, a)) % H
    xq = pow_mod(Poly.from_ints(fld, [0, 1]), fld.q, H)
    rows = kernel.frobenius_rows(fld, list(xq.codes), H.codes)
    assert len(rows) == H.degree()
    assert tuple(kernel.frobenius(fld, rows, V.codes)) == \
        pow_mod(V, fld.q, H).codes
    frob = kernel.frobenius_powers(fld, H.codes)
    X = Poly.from_ints(fld, [0, 1]) % H
    for j in range(H.degree() + 2):
        assert tuple(frob(j)) == X.codes
        X = pow_mod(X, fld.q, H)
    k = len(b) % 4 + 1   # trace_mod: V + V^2 + ... + V^(2^(k-1)) mod H
    want = term = V
    for _ in range(k - 1):
        term = pow_mod(term, 2, H)
        want = want + term
    assert tuple(kernel.trace_mod(fld, list(V.codes), k, H.codes)) == want.codes


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_untabled_agrees_with_tabled(case):
    key, a, b, e = case
    results = []
    for fld in (TABLED[key], UNTABLED[key]):
        A, B = Poly(fld, _elems(fld, a)), Poly(fld, _elems(fld, b))
        out = [A * B, A - B, gcd(A, B), Poly._make(fld, kernel.derivative(fld, A.codes))]
        if not B.is_zero():
            out.extend(divmod(A, B))
        if B.degree() > 0:
            out.append(pow_mod(A, e, B))
        results.append([P.codes for P in out])
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# the packed form at its widest slots: every coordinate p - 1, so each digit
# of a product reaches the bound its width is chosen for

def _top_product(fld, na, nb):
    """The product of na and of nb coefficients q - 1, coefficient by
    coefficient: (q - 1)^2 times the number of pairs i + j = k."""
    sq = fld.from_index(fld.q - 1) ** 2
    return [sq * fld.const(min(k, na - 1, nb - 1, na + nb - 2 - k) + 1)
            for k in range(na + nb - 1)]


def _key_id(key):
    return f"{key[0]}^{key[1]}"


def _kernel_at_top(fld):
    """Product, gcd, division and pow_mod on operands of 400 by 150
    coefficients q - 1, against the schoolbook reference."""
    top = fld.from_index(fld.q - 1)
    ea, eb = [top] * 400, [top] * 150
    A, B = Poly(fld, ea), Poly(fld, eb)
    assert list((A * B).coeffs) == _trim(_top_product(fld, 400, 150))
    assert list(gcd(A, B).coeffs) == ref_gcd(fld, ea, eb)
    ec, em = [top] * 250, [top] * 149 + [fld.one]
    quo, rem = divmod(Poly(fld, ec), Poly(fld, em))
    assert (list(quo.coeffs), list(rem.coeffs)) == ref_divmod(fld, ec, em)
    ev, em = [top] * 149, [top] * 150 + [fld.one]
    assert list(pow_mod(Poly(fld, ev), 2, Poly(fld, em)).coeffs) == \
        ref_divmod(fld, _top_product(fld, 149, 149), em)[1]


@pytest.mark.parametrize("key", WIDEST, ids=_key_id)
def test_packed_kernel_at_widest_slots(key):
    fld = build_field(*key)
    assert fld.q > ffield._TABLE_LIMIT
    _kernel_at_top(fld)


@pytest.mark.parametrize("key", LANE_WIDEST, ids=_key_id)
def test_lane_kernel_at_widest_lanes(key):
    """Every coordinate of every coefficient is p - 1, so each lane sum
    reaches 2p - 2, the most its fields hold without a carry."""
    fld = build_field(*key)
    assert isinstance(fld._rows(1, CROSSOVER)[1]([fld._one]), bytes)
    _kernel_at_top(fld)


def _kernel_ops(fld, a, b, m):
    """Every kernel operation on code lists a, b and the monic m."""
    frob = kernel.frobenius_powers(fld, m)
    return (kernel.add(fld, a, b), kernel.sub(fld, a, b), kernel.mul(fld, a, b),
            kernel.div_mod(fld, a, b), kernel.div_mod(fld, b, m), kernel.gcd(fld, a, b),
            kernel.pow_mod(fld, a, fld.q + 5, m), [frob(j) for j in range(4)],
            kernel.rabin(fld, m))


@pytest.mark.parametrize("key", [key for key in KEYS if key != (65537, 1)] + [(127, 1)],
                         ids=_key_id)
def test_list_rows_agree_with_lanes(key, monkeypatch):
    """Each kernel operation, and ``factor`` of the operands, gives the
    same codes on list rows and on byte lanes, forced by moving the
    crossover, at lengths crossover - 1, crossover and 3 x crossover."""
    fld = TABLED.get(key) or build_field(*key)
    rng = random.Random(repr(key))
    for n in (CROSSOVER - 1, CROSSOVER, 3 * CROSSOVER):
        def codes(k):
            return [rng.randrange(fld.q) for _ in range(k - 1)] + [rng.randrange(1, fld.q)]
        a, b, m = codes(2 * n), codes(n), codes(n) + [fld._one]
        results = []
        for limit in (1 << 30, 0):   # list rows at every length, then byte lanes
            monkeypatch.setattr(ffield, "_LANE_ROW", limit)
            results.append((_kernel_ops(fld, a, b, m),
                            [factor(Poly._make(fld, c)) for c in (a, b, m)]))
        assert results[0] == results[1]


def test_slot_width_follows_operand_length():
    """A product of 600 coefficients by 600 over 5^8 puts 600 row updates
    on a coefficient: its digits need 17 bits, more than the 16 of any
    large_field job or degree-36 pow_mod step (72 updates), so it takes a
    wider slot; with the narrower slot its digits would overflow."""
    fld = build_field(5, 8)
    assert ffield._width(5, 8, 600) > ffield._width(5, 8, 72) == 16
    top = fld.from_index(fld.q - 1)
    A = Poly(fld, [top] * 600)
    assert list((A * A).coeffs) == _trim(_top_product(fld, 600, 600))
    assert ffield._width(5, 8, 600) in fld._packs


@pytest.mark.parametrize("fields", [TABLED, UNTABLED], ids=["tabled", "untabled"])
def test_moduli_are_prepared_once(fields, monkeypatch):
    """pow_mod, trace_mod, frobenius_rows and rabin_holds prepare their
    modulus once, however many reductions they make, and valuations its
    prime once per call, for all the polynomials it divides and however
    many times the prime divides them.  A divisor is stored as the row -b/lc(b) exactly
    when a coefficient may take k >= deg b row updates, and otherwise as
    b with the factor -1/lc(b) per step; here for a non-monic b over F_9
    and 3^10."""
    fld = fields[(3, 2)]
    calls, prepare = [], kernel._divisor

    def counted(F, b, *args, **kwargs):
        calls.append(b)
        return prepare(F, b, *args, **kwargs)
    monkeypatch.setattr(kernel, "_divisor", counted)
    one, g = fld._one, fld.g.code
    m = [g, one, 0, g, one]   # g + x + g x^3 + x^4; any monic m will do
    x = [0, one]
    kernel.pow_mod(fld, x, fld.q ** 3, m)
    assert calls == [m]
    calls.clear()
    kernel.trace_mod(fld, [g, g, one], 8, m)
    assert calls == [m]
    xq = kernel.pow_mod(fld, x, fld.q, m)
    calls.clear()
    kernel.frobenius_rows(fld, xq, m)
    assert calls == [m]
    h = kernel.mul(fld, m, [g, one])   # powers of x mod a multiple of m
    frob = kernel.frobenius_powers(fld, h)
    for j in range(5):
        frob(j)
    calls.clear()
    kernel.rabin_holds(fld, m, frob)
    assert calls.count(m) == 1
    P = polyring.MonicIrreducible(Poly._make(fld, [g, one]))
    for v in range(4):
        D = Poly.from_ints(fld, [0, 1]) * P.poly ** v   # x + g does not divide x
        calls.clear()
        assert polyring.valuation(D, P) == v
        assert [list(b) for b in calls] == [[g, one]]
    calls.clear()
    powers = [list((Poly.from_ints(fld, [0, 1]) * P.poly ** v).codes) for v in range(4)]
    assert kernel.valuations(fld, powers + [[g]], P.poly.codes) == [0, 1, 2, 3, 0]
    assert [list(b) for b in calls] == [[g, one]]
    for F in (fld, build_field(3, 10)):
        b = [F.g.code, 0, F._one, F.g.code, (F.g ** 3).code]
        neg = -F.one / F.from_index(b[-1])
        scaled = [(F.from_index(c) * neg).code for c in b[:-1]]
        for k in range(1, 2 * len(b)):
            rows, db, inv, t, row = prepare(F, b, k)
            assert db == 4 and inv == (F.one / F.from_index(b[-1])).code
            assert rows == F._rows(k, db)
            if k >= db:
                assert (t, row) == (None, rows[1](scaled))
            else:
                assert (t, row) == (neg.code, rows[1](b[:-1]))
