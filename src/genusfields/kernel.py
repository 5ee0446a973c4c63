"""Dense polynomial arithmetic over F_q on lists of int coefficient codes.

A polynomial here is a list of element codes (see :mod:`ffield`), constant
term first, with no trailing zeros; the zero polynomial is the empty list.
The loops never decode a code: they use the field's ``F._mul``, ``F._pow``,
``F._int``, ``F._one`` and ``F._minus_one``, and the inner loop of sums,
products and divisions is the row update
``F._axpy(out, off, c, F._prep(b))``, which adds c * b to ``out`` from
position ``off`` on (c = 1 for a sum, c = -1 for a difference).  The
field picks the fastest form of each for its size and characteristic.

The Frobenius map v -> v^q on F_q[x]/(m) is F_q-linear, so once the
rows x^(iq) mod m are known (:func:`frobenius_rows`, built from x^q mod m)
each further q-th power is one combination of rows (:func:`frobenius`)
instead of a ``pow_mod``.  :func:`frobenius_powers` is the one place the
powers x^(q^j) mod m are computed, and :func:`rabin_holds` reads Rabin's
criterion from them; :func:`rabin` is the full test on m's own powers.

This module imports nothing from the package but :mod:`intmath`, so
:mod:`ffield` certifies its defining modulus with :func:`rabin` over F_p,
and :mod:`polyring` wraps the same loops in its :class:`Poly` type.
"""

from .intmath import prime_factors


def trim(a: list) -> list:
    """Drop trailing zero codes, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _update(F, a, c, b):
    """a + c * b for a nonzero code c, as one row update."""
    out = list(a) + [0] * (len(b) - len(a))
    F._axpy(out, 0, c, F._prep(b))
    return trim(out)


def add(F, a, b):
    return _update(F, a, F._one, b)


def sub(F, a, b):
    return _update(F, a, F._minus_one, b)


def mul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    axpy, pb = F._axpy, F._prep(b)
    for i, c in enumerate(a):
        if c:
            axpy(out, i, c, pb)
    return out


def div_mod(F, a, b):
    """Quotient and remainder of a by b, by schoolbook long division."""
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) <= db:
        return [], list(a)
    rem = list(a)
    quo = [0] * (len(a) - db)
    inv = None if b[-1] == F._one else F._pow(b[-1], -1)
    times, axpy, pb, minus_one = F._mul, F._axpy, F._prep(b[:-1]), F._minus_one
    odd = F.p > 2   # in characteristic 2, -c is c: no product
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db]
        if c:
            if inv is not None:
                c = times(c, inv)
            quo[k] = c
            axpy(rem, k, times(c, minus_one) if odd else c, pb)
    del rem[db:]
    return quo, trim(rem)


def pow_mod(F, a, e, m):
    """a**e reduced modulo m (degree >= 1), by square and multiply."""
    result = [F._one]
    acc = div_mod(F, a, m)[1]
    while e:
        if e & 1:
            result = div_mod(F, mul(F, result, acc), m)[1]
        e >>= 1
        if e:
            acc = div_mod(F, mul(F, acc, acc), m)[1]
    return result


def monic(F, a):
    if not a or a[-1] == F._one:
        return list(a)
    inv, times = F._pow(a[-1], -1), F._mul
    return [times(c, inv) for c in a]


def gcd(F, a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    while b:
        a, b = b, div_mod(F, a, b)[1]
    return monic(F, a)


def derivative(F, a):
    times, const = F._mul, F._int
    return trim([times(const(i), c) for i, c in enumerate(a[1:], 1)])


def pth_root(F, a):
    """The p-th root of a polynomial in T^p: every q/p-th coefficient power."""
    e, power = F.q // F.p, F._pow
    return [power(c, e) if c else 0 for c in a[::F.p]]


def frobenius_rows(F, xq, m):
    """The rows x^(iq) mod m, i < deg m, of the Frobenius map v -> v^q on
    F[x]/(m), from xq = x^q mod m, prepared for ``F._axpy``.  Row i is
    row i - 1 times xq, so the build costs deg m - 2 modular products."""
    rows = [[F._one], xq]
    for _ in range(len(m) - 3):
        rows.append(div_mod(F, mul(F, rows[-1], xq), m)[1])
    return [F._prep(r) for r in rows[:len(m) - 1]]


def frobenius(F, rows, v):
    """v^q mod m for v reduced mod m, from the rows of
    :func:`frobenius_rows`: the combination of rows with v's coefficients,
    since Frobenius is F_q-linear (c^q = c on F_q)."""
    out = [0] * len(rows)
    axpy = F._axpy
    for c, row in zip(v, rows):
        if c:
            axpy(out, 0, c, row)
    return trim(out)


def frobenius_powers(F, m):
    """The function j -> x^(q^j) mod m, for m of degree >= 1, keeping every
    power it computes.  x^q is one ``pow_mod``; once a second step is due
    the rows of :func:`frobenius_rows` are built, and each later power is
    one :func:`frobenius` step of the last."""
    powers = [div_mod(F, [0, F._one], m)[1]]
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
    x = div_mod(F, [0, F._one], m)[1]
    for j in sorted(n // ell for ell in prime_factors(n)):
        if len(gcd(F, sub(F, div_mod(F, frob(j), m)[1], x), m)) != 1:
            return False
    return div_mod(F, frob(n), m)[1] == x


def rabin(F, m):
    """Rabin's test of a monic m, on its own powers."""
    return rabin_holds(F, m, frobenius_powers(F, m))
