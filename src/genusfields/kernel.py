"""Dense polynomial arithmetic over F_q on lists of int coefficient codes.

A polynomial here is a list of element codes (see :mod:`ffield`), constant
term first, with no trailing zeros; the zero polynomial is the empty list.
The loops never decode a code.  Every coefficient operation goes through
the field's code operations ``F._add``, ``F._neg``, ``F._mul``, ``F._pow``
and ``F._int``, and the inner loop of products and divisions is the row
update ``F._axpy(out, off, c, F._prep(b))``, which adds c * b to ``out``
from position ``off`` on.  The field picks the fastest form of each for
its size and characteristic.

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


def add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    plus = F._add
    for i, c in enumerate(b):
        out[i] = plus(out[i], c)
    return trim(out)


def neg(F, a):
    return list(map(F._neg, a))


def sub(F, a, b):
    return add(F, a, neg(F, b))


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
    times, minus, axpy, pb = F._mul, F._neg, F._axpy, F._prep(b[:-1])
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db]
        if c:
            if inv is not None:
                c = times(c, inv)
            quo[k] = c
            axpy(rem, k, minus(c), pb)
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


def rabin(F, m, pow_mod=pow_mod, gcd=gcd):
    """Rabin's criterion for a monic m of degree n >= 1 over F: m is
    irreducible iff x^(q^n) = x mod m and gcd(x^(q^(n/l)) - x, m) = 1 for
    every prime l dividing n.  ``pow_mod`` and ``gcd`` default to this
    module's; :mod:`polyring` passes its public ones."""
    n = len(m) - 1
    if n == 1:
        return True
    x = div_mod(F, [0, F._one], m)[1]
    needed = {n // ell for ell in prime_factors(n)}
    frob = x
    for j in range(1, n + 1):
        frob = pow_mod(F, frob, F.q, m)
        if j in needed and j < n and len(gcd(F, sub(F, frob, x), m)) != 1:
            return False
    return frob == x
