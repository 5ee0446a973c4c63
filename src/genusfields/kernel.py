"""Dense polynomial arithmetic over F_q on lists of int coefficient codes.

A polynomial here is a list of element codes (see :mod:`ffield`), constant
term first, with no trailing zeros; the zero polynomial is the empty list.
The loops never decode a code: they use the field's ``F._mul``, ``F._pow``,
``F._int``, ``F._one`` and ``F._minus_one``, and sums, products, divisions
and Frobenius steps run on an accumulator through the operations
``load, prep, axpy, read, store = F._rows(k, size)``: ``axpy(acc, off,
c, row)`` adds c times a polynomial prepared by ``prep`` from coefficient
``off`` on, ``read`` gives one coefficient's code and ``store`` the first
n.  k bounds the row updates one coefficient takes, which sets the slot
width of the packed form, and ``size`` is the length of the call's rows
(of its accumulator, for a single update), by which small fields choose
between lists and byte lanes.  The field picks the form from its size and
characteristic and these two numbers, so a prepared row must be read only
by operations chosen with the same k and ``size``: each function here
prepares and reads its rows under one choice.

:func:`_rem` is the one long-division loop, for every divisor: it loads
a polynomial, or forms a product in the accumulator, and reduces it by a
divisor prepared once (:func:`_divisor`), one row update per step.  A
divisor prepared for k >= deg b row updates per coefficient is the row
-b/lc(b), so its steps take no product.  ``pow_mod``, ``trace_mod``,
``frobenius_rows`` and ``rabin_holds`` prepare their modulus once, and
:func:`valuations` its prime once for all the polynomials it divides.
Euclid's loop (:func:`gcd`) stops at a unit.

The Frobenius map v -> v^q on F_q[x]/(m) is F_q-linear, so once the
rows x^(iq) mod m are known (:func:`frobenius_rows`, built from x^q mod m)
each further q-th power is one combination of rows (:func:`frobenius`)
instead of a ``pow_mod``.  :func:`frobenius_powers` is the one place the
powers x^(q^j) mod m are computed, and :func:`rabin_holds` reads Rabin's
criterion from them; :func:`rabin` is the full test on m's own powers.

This module imports nothing from the package but :mod:`intmath`, so
:mod:`ffield` certifies its defining modulus with :func:`rabin` over F_p.
:mod:`polyring` wraps the same loops in its :class:`Poly` type, and runs
its factoring stages on code lists with this module's public functions.
"""

from .intmath import prime_factors


def trim(a: list) -> list:
    """Drop trailing zero codes, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _update(F, a, c, b):
    """a + c * b for a nonzero code c, as one row update."""
    n = len(a) if len(a) > len(b) else len(b)
    load, prep, axpy, _, store = F._rows(1, n)
    return trim(store(axpy(load(a, n), 0, c, prep(b)), n))


def add(F, a, b):
    return _update(F, a, F._one, b)


def sub(F, a, b):
    return _update(F, a, F._minus_one, b)


def _mul_into(axpy, acc, a, row):
    """acc plus a times the polynomial prepared as ``row``."""
    for i, c in enumerate(a):
        if c:
            acc = axpy(acc, i, c, row)
    return acc


def mul(F, a, b):
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    load, prep, axpy, _, store = F._rows(len(a), len(b))
    return store(_mul_into(axpy, load((), n), a, prep(b)), n)


def _divisor(F, b, k):
    """b prepared for long division in accumulators of at most k row
    updates per coefficient: ``(rows, deg b, inv, t, row)``, with inv =
    1/lc(b) and t * row = -b/lc(b) below its leading term, inv and t None
    where they are one.  For k >= deg b the row is -b/lc(b) and t is None,
    so no step takes a product; otherwise the row is b."""
    times, one, db = F._mul, F._one, len(b) - 1
    inv = None if b[-1] == one else F._pow(b[-1], -1)
    neg = F._minus_one if inv is None else times(inv, F._minus_one)
    rows = F._rows(k, db)
    if k >= db and neg != one:
        return rows, db, inv, None, rows[1]([times(c, neg) for c in b[:-1]])
    return rows, db, inv, None if neg == one else neg, rows[1](b[:-1])


def _rem(F, d, a, b=None, quo=None):
    """The remainder of a, or of a * b formed in the same accumulator, by
    the prepared divisor d, by schoolbook long division: one ``read`` and
    one row update per quotient coefficient.  The quotient codes go to
    ``quo`` when it is given."""
    (load, prep, axpy, read, store), db, inv, t, row = d
    if b is None:
        n = len(a)
        if n <= db:
            return list(a)
        acc = load(a, n)
    else:
        n = len(a) + len(b) - 1
        acc = _mul_into(axpy, load((), n), a, prep(b))
    times = F._mul
    for k in range(n - 1 - db, -1, -1):
        c = read(acc, k + db)
        if c:
            if quo is not None:
                quo[k] = c if inv is None else times(c, inv)
            acc = axpy(acc, k, c if t is None else times(c, t), row)
    return trim(store(acc, db))


def _mod(F, a, b, quo=None):
    """The remainder of a by b; the quotient codes go to ``quo`` when given.
    A coefficient takes at most min(len(a) - deg b, deg b) row updates: none
    for a constant b, whose prepared row is empty."""
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) <= db:
        return list(a)
    steps = len(a) - db
    return _rem(F, _divisor(F, b, steps if steps < db else db), a, quo=quo)


def div_mod(F, a, b):
    """Quotient and remainder of a by b, by schoolbook long division."""
    quo = [0] * (len(a) - len(b) + 1) if len(a) >= len(b) else []
    return quo, _mod(F, a, b, quo)


def valuations(F, polys, b):
    """The largest v with b^v dividing a, for each nonzero a of ``polys``
    and b of degree >= 1: b is prepared once for all of them, and each a
    is divided by it until a remainder is nonzero.  A coefficient takes at
    most deg b row updates."""
    d, out = _divisor(F, b, len(b) - 1), []
    for a in polys:
        v = 0
        while len(a) >= len(b):
            quo = [0] * (len(a) - len(b) + 1)
            if _rem(F, d, a, quo=quo):
                break
            a, v = quo, v + 1
        out.append(v)
    return out


def pow_mod(F, a, e, m):
    """a**e reduced modulo m (degree >= 1), by square and multiply.  A
    product of two polynomials reduced mod m puts at most deg m row updates
    on a coefficient, and its reduction fewer than deg m more."""
    d = _divisor(F, m, 2 * len(m) - 2)
    result = [F._one]
    acc = _rem(F, d, a)
    while e:
        if e & 1:
            result = _rem(F, d, result, acc)
        e >>= 1
        if e:
            acc = _rem(F, d, acc, acc)
    return result


def trace_mod(F, a, k, m):
    """a + a^2 + a^4 + ... + a^(2^(k-1)) mod m, for a reduced mod m (degree
    >= 1): in characteristic 2 with q = 2^f and k = d f, the absolute trace
    to F_2 of a in F_q[x]/(m) when m is a product of primes of degree d.
    m is prepared once for all k - 1 squarings."""
    d = _divisor(F, m, 2 * len(m) - 2)
    acc = term = a
    for _ in range(k - 1):
        term = _rem(F, d, term, term)
        acc = add(F, acc, term)
    return acc


def monic(F, a):
    if not a or a[-1] == F._one:
        return list(a)
    inv, times = F._pow(a[-1], -1), F._mul
    return [times(c, inv) for c in a]


def gcd(F, a, b):
    """Monic gcd; gcd(0, 0) = 0.  Euclid stops at a unit: the gcd is then 1."""
    while len(b) > 1:
        a, b = b, _mod(F, a, b)
    return [F._one] if b else monic(F, a)


def derivative(F, a):
    times, const = F._mul, F._int
    return trim([times(const(i), c) for i, c in enumerate(a[1:], 1)])


def pth_root(F, a):
    """The p-th root of a polynomial in T^p: every q/p-th coefficient power."""
    e, power = F.q // F.p, F._pow
    return [power(c, e) if c else 0 for c in a[::F.p]]


def frobenius_rows(F, xq, m):
    """The rows x^(iq) mod m, i < deg m, of the Frobenius map v -> v^q on
    F[x]/(m), from xq = x^q mod m, prepared for ``F._rows(deg m, deg m)``.
    Row i is row i - 1 times xq, so the build costs deg m - 2 modular
    products, all reduced by one preparation of m."""
    d, rows = _divisor(F, m, 2 * len(m) - 2), [[F._one], xq]
    for _ in range(len(m) - 3):
        rows.append(_rem(F, d, rows[-1], xq))
    prep = F._rows(d[1], d[1])[1]
    return [prep(r) for r in rows[:d[1]]]


def frobenius(F, rows, v):
    """v^q mod m for v reduced mod m, from the rows of
    :func:`frobenius_rows`: the combination of rows with v's coefficients,
    since Frobenius is F_q-linear (c^q = c on F_q)."""
    n = len(rows)
    load, _, axpy, _, store = F._rows(n, n)
    acc = load((), n)
    for c, row in zip(v, rows):
        if c:
            acc = axpy(acc, 0, c, row)
    return trim(store(acc, n))


def frobenius_powers(F, m):
    """The function j -> x^(q^j) mod m, for m of degree >= 1, keeping every
    power it computes.  x^q is one ``pow_mod``; once a second step is due
    the rows of :func:`frobenius_rows` are built, and each later power is
    one :func:`frobenius` step of the last."""
    powers = [_mod(F, [0, F._one], m)]
    rows = []

    def frob(j):
        while len(powers) <= j:
            if len(powers) == 1:
                powers.append(pow_mod(F, powers[0], F.q, m))
                continue
            if not rows:
                rows.extend(frobenius_rows(F, powers[1], m))
            powers.append(frobenius(F, rows, powers[-1]))
        return powers[j]
    return frob


def rabin_holds(F, m, frob):
    """Rabin's criterion for a monic m of degree n over F: m is
    irreducible iff n >= 1, x^(q^n) = x mod m, and
    gcd(x^(q^(n/l)) - x, m) = 1 for every prime l dividing n.  ``frob(j)``
    gives x^(q^j) modulo m or modulo any multiple of m; it is asked for
    the exponents in increasing order, and not at all when a gcd fails or
    n <= 1."""
    n = len(m) - 1
    if n <= 1:
        return n == 1
    # a reduction mod m puts at most deg m row updates on a coefficient
    x, d = [0, F._one], _divisor(F, m, n)
    for j in sorted(n // ell for ell in prime_factors(n)):
        if len(gcd(F, sub(F, _rem(F, d, frob(j)), x), m)) != 1:
            return False
    return _rem(F, d, frob(n)) == x


def rabin(F, m):
    """Rabin's test of a monic m, on its own powers."""
    return rabin_holds(F, m, frobenius_powers(F, m))
