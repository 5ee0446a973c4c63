import pytest

from genusfields import Poly, build_field, ffield, poly_sort_key

FIELD_KEYS = ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1))

_CACHE = {}


def field(p, f):
    key = (p, f)
    if key not in _CACHE:
        _CACHE[key] = build_field(p, f)
    return _CACHE[key]


def fields_at_table_limit(limit, keys):
    """The fields of ``keys`` built while ``ffield._TABLE_LIMIT`` is
    ``limit``, so a limit of 1 forces the untabled arithmetic path."""
    fields = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffield, "_TABLE_LIMIT", limit)
        for key in keys:
            fld = build_field(*key)
            fld._bind()   # pick the arithmetic path while the limit holds
            fields[key] = fld
    return fields


@pytest.fixture(scope="session")
def F2():
    return field(2, 1)


@pytest.fixture(scope="session")
def F3():
    return field(3, 1)


@pytest.fixture(scope="session")
def F4():
    return field(2, 2)


@pytest.fixture(scope="session")
def F5():
    return field(5, 1)


@pytest.fixture(scope="session")
def F7():
    return field(7, 1)


@pytest.fixture(scope="session")
def F9():
    return field(3, 2)


@pytest.fixture(scope="session")
def F13():
    return field(13, 1)


def brute_force_factor(f):
    """Factor by trial division over all monic polynomials of ascending
    degree; smaller factors are stripped first, so every divisor found
    is irreducible.  Independent of the production factorizer."""
    fld = f.field
    rem = f.monic()
    out = []
    d = 1
    while rem.degree() > 0:
        assert d <= rem.degree()
        for idx in range(fld.q ** d):
            coeffs = [fld.from_index((idx // fld.q ** j) % fld.q) for j in range(d)]
            cand = Poly(fld, coeffs + [fld.one])
            mult = 0
            while True:
                quo, r = divmod(rem, cand)
                if not r.is_zero():
                    break
                rem = quo
                mult += 1
            if mult:
                out.append((cand, mult))
        d += 1
    out.sort(key=lambda t: poly_sort_key(t[0]))
    return out
