"""Differential tests of the int-coded polynomial kernel.

Sums, differences, products, division with remainder, gcd and modular
powers of ``Poly`` are checked against a plain schoolbook reference
written with ``FqElem`` operators, which run on the element arithmetic
(``ffield._code_ops``) and never on a field's tables, and one Frobenius
matrix step and the powers x^(q^j) of ``kernel.frobenius_powers``
against chained ``pow_mod``, on both arithmetic paths of ``ffield``: the
tabled one and the untabled one, forced by building the fields with
``_TABLE_LIMIT`` set low.
The fields cover p = 2 and odd p, f = 1 and f > 1.
"""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from genusfields import Poly, gcd, pow_mod
from genusfields import ffield, kernel

from conftest import fields_at_table_limit

KEYS = ((2, 1), (2, 2), (2, 3), (3, 2), (13, 1), (65537, 1))
TABLED = fields_at_table_limit(ffield._TABLE_LIMIT, KEYS)
UNTABLED = fields_at_table_limit(1, KEYS)


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
    key = draw(st.sampled_from(KEYS))
    q = key[0] ** key[1]
    codes = st.lists(st.integers(0, q - 1), max_size=12)
    return key, draw(codes), draw(codes), draw(st.integers(0, 30))


def _elems(fld, codes):
    return _trim([fld.from_index(c) for c in codes])


def test_paths_are_as_intended():
    for key in KEYS:
        assert TABLED[key] == UNTABLED[key]
        if key[1] > 1:
            assert TABLED[key]._log is not None
            assert UNTABLED[key]._log is None


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
    """One row combination of the Frobenius matrix mod h is v^q mod h, and
    frobenius_powers gives x^(q^j) mod h as j chained pow_mod calls."""
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


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_untabled_agrees_with_tabled(case):
    key, a, b, e = case
    results = []
    for fld in (TABLED[key], UNTABLED[key]):
        A, B = Poly(fld, _elems(fld, a)), Poly(fld, _elems(fld, b))
        out = [A * B, A - B, gcd(A, B), A.derivative()]
        if not B.is_zero():
            out.extend(divmod(A, B))
        if B.degree() > 0:
            out.append(pow_mod(A, e, B))
        results.append([P.codes for P in out])
    assert results[0] == results[1]
