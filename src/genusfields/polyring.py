"""Dense univariate polynomials over F_q, with full factorization.

A :class:`Poly` is an immutable tuple of int coefficient codes (see
:mod:`ffield`), constant term first, with no trailing zeros (the zero
polynomial is the empty tuple); ``Poly.coeffs`` decodes them to
:class:`FqElem` values.  The arithmetic runs the int loops of
:mod:`kernel`.  The primes of the rational function field are monic
irreducibles, wrapped in :class:`MonicIrreducible` which certifies
irreducibility when built, by Rabin's criterion on Frobenius powers:
those :func:`factor`'s distinct-degree stage computed, or else the
polynomial's own.

Everything here follows one canonical ordering, used for all sorted
output and for the coordinates of radicand vectors: polynomials compare
lexicographically on their coefficient vectors, constant term first,
where a prime-field coefficient sorts by its integer value and an
extension-field coefficient sorts by discrete logarithm with 0 first.

`factor` runs squarefree decomposition, then distinct-degree splitting,
then Cantor-Zassenhaus equal-degree splitting.  The distinct-degree
stage computes x^(q^j) mod each squarefree part h once, by
:func:`kernel.frobenius_powers`, which keeps every power: a prime P of
degree d divides h, so the powers mod h give Rabin's criterion for P,
x^(q^d) = x mod P and gcd(x^(q^(d/l)) - x, P) = 1 for each prime l | d.
A prime left over after the splitting has its powers carried on up to its
degree.  The equal-degree stage is randomized but consumes an explicit
seed, so a fixed seed gives a bit-reproducible factorization.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass
from functools import cached_property

from . import kernel as _k
from .errors import InternalCheckError
from .ffield import FqField, FqElem, element_sort_key


class Poly:
    """A dense polynomial over one fixed FqField.

    ``codes`` holds the int codes of the coefficients (see :mod:`ffield`);
    ``coeffs`` gives them as :class:`FqElem` values.
    """

    __slots__ = ("field", "codes")

    def __init__(self, field: FqField, coeffs):
        codes = []
        for c in coeffs:
            if not isinstance(c, FqElem) or (c.field is not field and c.field != field):
                raise ValueError("coefficient does not belong to the given field")
            codes.append(c.code)
        self.field = field
        self.codes = tuple(_k.trim(codes))

    @classmethod
    def _make(cls, field: FqField, codes) -> "Poly":
        """Polynomial from a list of codes, trimmed; no validation."""
        out = cls.__new__(cls)
        out.field = field
        out.codes = tuple(_k.trim(codes))
        return out

    @classmethod
    def from_ints(cls, field: FqField, ints) -> "Poly":
        """Polynomial with prime-subfield coefficients given as integers."""
        return cls._make(field, [field._int(a) for a in ints])

    @classmethod
    def zero(cls, field: FqField) -> "Poly":
        return cls._make(field, [])

    @classmethod
    def one(cls, field: FqField) -> "Poly":
        return cls._make(field, [field._one])

    @property
    def coeffs(self) -> tuple[FqElem, ...]:
        return tuple(FqElem(self.field, c) for c in self.codes)

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.codes) - 1

    def is_zero(self) -> bool:
        return not self.codes

    def is_one(self) -> bool:
        return self.codes == (self.field._one,)

    def is_monic(self) -> bool:
        return bool(self.codes) and self.codes[-1] == self.field._one

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return Poly._make(self.field, _k.monic(self.field, self.codes))

    def _same_field(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"cannot combine Poly with {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise ValueError("field mismatch")

    def __add__(self, other):
        self._same_field(other)
        return Poly._make(self.field, _k.add(self.field, self.codes, other.codes))

    def __sub__(self, other):
        self._same_field(other)
        return Poly._make(self.field, _k.sub(self.field, self.codes, other.codes))

    def __neg__(self):
        return Poly._make(self.field, _k.neg(self.field, self.codes))

    def __mul__(self, other):
        self._same_field(other)
        return Poly._make(self.field, _k.mul(self.field, self.codes, other.codes))

    def __divmod__(self, other):
        self._same_field(other)
        quo, rem = _k.div_mod(self.field, self.codes, other.codes)
        return Poly._make(self.field, quo), Poly._make(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def derivative(self) -> "Poly":
        return Poly._make(self.field, _k.derivative(self.field, self.codes))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.codes == other.codes and \
            (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.codes, self.field._hash))

    def __repr__(self):
        return f"Poly(deg={self.degree()}, coeffs={[c.coeffs for c in self.coeffs]})"


def variable(field: FqField) -> Poly:
    """The polynomial T."""
    return Poly._make(field, [0, field._one])


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic generator of the ideal (a, b); gcd(0, 0) = 0."""
    a._same_field(b)
    return Poly._make(a.field, _k.gcd(a.field, a.codes, b.codes))


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    """base**e reduced modulo ``mod``, by square and multiply."""
    if mod.degree() < 1:
        raise ValueError("modulus must have degree >= 1")
    base._same_field(mod)
    return Poly._make(base.field, _k.pow_mod(base.field, base.codes, e, mod.codes))


def poly_sort_key(poly: Poly):
    """Canonical comparison key (see the module docstring)."""
    return tuple(element_sort_key(c) for c in poly.coeffs)


# ---------------------------------------------------------------------------
# squarefree decomposition

def _pth_root(h: Poly) -> Poly:
    """The p-th root of a polynomial whose derivative vanishes."""
    return Poly._make(h.field, _k.pth_root(h.field, h.codes))


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Write f = lc(f) * prod S_j^(m_j) with the S_j monic, squarefree and
    pairwise coprime and the m_j strictly increasing.

    Correct in characteristic p: a vanishing derivative means f is a
    p-th power and the decomposition recurses on its p-th root.
    Constants decompose into the empty product.
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    field = f.field
    parts: dict[int, Poly] = {}

    def accumulate(h: Poly, scale: int):
        d = h.derivative()
        if d.is_zero():
            accumulate(_pth_root(h), scale * field.p)
            return
        c = gcd(h, d)
        w = h // c
        i = 1
        while w.degree() > 0:
            y = gcd(w, c)
            z = w // y
            if z.degree() > 0:
                key = i * scale
                parts[key] = parts[key] * z if key in parts else z
            w, c, i = y, c // y, i + 1
        if c.degree() > 0:
            accumulate(_pth_root(c), scale * field.p)

    m = f.monic()
    if m.degree() > 0:
        accumulate(m, 1)
    return [(parts[k], k) for k in sorted(parts)]


# ---------------------------------------------------------------------------
# irreducibility and factorization

def is_irreducible(f: Poly) -> bool:
    """Rabin's criterion over F_q.  Constants are not irreducible."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no irreducibility status")
    return _k.rabin(f.field, f.monic().codes)


def _random_poly(field: FqField, rng: random.Random, max_deg: int) -> Poly:
    # a code is the from_index index, so this draws from_index elements
    return Poly._make(field, [rng.randrange(field.q) for _ in range(max_deg + 1)])


def _distinct_degree(h: Poly):
    """Split a monic squarefree polynomial into products of irreducibles of
    equal degree, as (product, degree) pairs, and return them with
    ``frob = kernel.frobenius_powers(field, h)``: ``frob(j)`` is the code
    list of x^(q^j) mod h.  It keeps every power, so it also serves the
    certificate of each prime found here, the leftover prime's included."""
    field = h.field
    t = variable(field)
    frob = _k.frobenius_powers(field, h.codes)
    out = []
    rem = h
    d = 0
    while rem.degree() >= 2 * (d + 1):
        d += 1
        g = gcd(rem, Poly._make(field, frob(d)) - t)
        if g.degree() > 0:
            out.append((g, d))
            rem = rem // g
    if rem.degree() > 0:
        out.append((rem, rem.degree()))
    return out, frob


def _equal_degree(h: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus splitting of a product of distinct monic
    irreducibles, all of degree d."""
    n = h.degree()
    if n == d:
        return [h]
    field = h.field
    one = Poly.one(field)
    while True:
        r = _random_poly(field, rng, n - 1)
        if r.degree() < 1:
            continue
        if field.p != 2:
            u = pow_mod(r, (field.q ** d - 1) // 2, h)
            split = gcd(h, u - one)
        else:
            # absolute trace map to F_2 over F_(2^f): sum of 2^j-th powers
            acc = r % h
            term = acc
            for _ in range(d * field.f - 1):
                term = pow_mod(term, 2, h)
                acc = acc + term
            split = gcd(h, acc)
        if 0 < split.degree() < n:
            return _equal_degree(split, d, rng) + _equal_degree(h // split, d, rng)


@dataclass(frozen=True)
class MonicIrreducible:
    """A monic irreducible polynomial, certified at construction by
    Rabin's criterion (:func:`kernel.rabin_holds`).  ``frob(j)``, if
    given, is the code list of x^(q^j) modulo a multiple of ``poly``, as
    :func:`factor`'s distinct-degree stage keeps them; otherwise the
    powers of ``poly`` itself are computed.  ``frob`` is not stored."""

    poly: Poly
    frob: InitVar = None

    def __post_init__(self, frob):
        poly = self.poly
        if not poly.is_monic():
            raise ValueError("prime must be monic")
        if frob is None:
            frob = _k.frobenius_powers(poly.field, poly.codes)
        if not _k.rabin_holds(poly.field, poly.codes, frob):
            raise ValueError("prime must be irreducible")

    @property
    def deg(self) -> int:
        return self.poly.degree()

    @cached_property
    def sort_key(self):
        """Canonical order key, computed once per prime."""
        return poly_sort_key(self.poly)

    def __repr__(self):
        return f"MonicIrreducible({self.poly!r})"


def factor(f: Poly, seed: int = 0) -> list[tuple[MonicIrreducible, int]]:
    """Factor f = lc(f) * prod P_i^(a_i) into distinct monic irreducibles,
    sorted canonically.  The same seed reproduces the identical run; any
    seed yields the same sorted factor list.  A factor that fails its
    prime certificate raises :class:`InternalCheckError`."""
    if f.is_zero() or f.degree() < 1:
        raise ValueError("cannot factor a constant or zero polynomial")
    rng = random.Random(seed)
    out = []
    for part, mult in squarefree_decomposition(f):
        pairs, frob = _distinct_degree(part)
        for prod_, d in pairs:
            for irr in _equal_degree(prod_, d, rng):
                try:
                    out.append((MonicIrreducible(irr, frob), mult))
                except ValueError as exc:
                    raise InternalCheckError(
                        f"prime certificate failed for factor {irr!r} "
                        f"of {f!r}: {exc}") from exc
    out.sort(key=lambda item: item[0].sort_key)
    return out


def valuation(D: Poly, P: MonicIrreducible) -> int:
    """Largest a with P^a dividing D, for nonzero D."""
    if D.is_zero():
        raise ValueError("valuation of the zero polynomial is undefined")
    count = 0
    cur = D
    while cur.degree() >= P.deg:
        quo, rem = divmod(cur, P.poly)
        if not rem.is_zero():
            break
        cur = quo
        count += 1
    return count
