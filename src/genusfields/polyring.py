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
then Cantor-Zassenhaus equal-degree splitting.  The three stages run on
code lists with :mod:`kernel`'s public functions, so a :class:`Poly` is
built only at `factor`'s edges: its input, the squarefree parts, each
prime found and the text of a failed split.  The distinct-degree stage
computes x^(q^j) mod each squarefree part h once, by
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

    def __mul__(self, other):
        self._same_field(other)
        return Poly._make(self.field, _k.mul(self.field, self.codes, other.codes))

    def __divmod__(self, other):
        self._same_field(other)
        quo, rem = _k.div_mod(self.field, self.codes, other.codes)
        return Poly._make(self.field, quo), Poly._make(self.field, rem)

    def __mod__(self, other):
        self._same_field(other)
        return Poly._make(self.field, _k._mod(self.field, self.codes, other.codes))

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

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.codes == other.codes and \
            (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.codes, self.field._hash))

    def __repr__(self):
        return f"Poly(deg={self.degree()}, coeffs={[c.coeffs for c in self.coeffs]})"


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

def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Write f = lc(f) * prod S_j^(m_j) with the S_j monic, squarefree and
    pairwise coprime and the m_j strictly increasing.

    Correct in characteristic p: a vanishing derivative means f is a
    p-th power and the decomposition recurses on its p-th root.
    Constants decompose into the empty product.
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    F = f.field
    parts: dict[int, list] = {}

    def accumulate(h, scale: int):
        d = _k.derivative(F, h)
        if not d:
            accumulate(_k.pth_root(F, h), scale * F.p)
            return
        c = _k.gcd(F, h, d)
        w, i = h if len(c) == 1 else _k.div_mod(F, h, c)[0], 1
        # w is the product of the S_j with j >= i not divisible by p; a
        # constant gcd(w, c) leaves only multiplicity i in it, so the loop
        # stops there and never divides by a constant (c = 1: w = h)
        while len(y := _k.gcd(F, w, c)) > 1:
            z = _k.div_mod(F, w, y)[0]
            if len(z) > 1:
                parts[i * scale] = z
            w, c, i = y, _k.div_mod(F, c, y)[0], i + 1
        parts[i * scale] = w
        if len(c) > 1:
            accumulate(_k.pth_root(F, c), scale * F.p)

    m = _k.monic(F, f.codes)
    if len(m) > 1:
        accumulate(m, 1)
    return [(Poly._make(F, parts[k]), k) for k in sorted(parts)]


# ---------------------------------------------------------------------------
# irreducibility and factorization

def is_irreducible(f: Poly) -> bool:
    """Rabin's criterion over F_q.  Constants are not irreducible."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no irreducibility status")
    return _k.rabin(f.field, f.monic().codes)


def _distinct_degree(F: FqField, h):
    """Split a monic squarefree h into products of irreducibles of equal
    degree, as (product, degree) pairs of code lists, and return them with
    ``frob = kernel.frobenius_powers(F, h)``: ``frob(j)`` is x^(q^j) mod h.
    It keeps every power, so it also serves the certificate of each prime
    found here, the leftover prime's included."""
    x = [0, F._one]
    frob = _k.frobenius_powers(F, h)
    out, rem, d = [], h, 0
    while len(rem) > 2 * d + 2:
        d += 1
        g = _k.gcd(F, rem, _k.sub(F, frob(d), x))
        if len(g) > 1:
            out.append((g, d))
            rem = _k.div_mod(F, rem, g)[0]
    if len(rem) > 1:
        out.append((rem, len(rem) - 1))
    return out, frob


# a draw fails to split a product of distinct primes of one degree with
# probability about 1/2 at most, so an h that this many draws leave whole
# is not such a product
_SPLIT_DRAWS = 100


def _equal_degree(F: FqField, h, d: int, rng: random.Random) -> list:
    """Cantor-Zassenhaus splitting of a product of distinct monic
    irreducibles, all of degree d, on code lists;
    :class:`InternalCheckError` if it is not such a product."""
    n = len(h) - 1
    if n == d:
        return [h]
    for _ in range(_SPLIT_DRAWS):
        # a code is the from_index index, so this draws from_index elements
        r = _k.trim([rng.randrange(F.q) for _ in range(n)])
        if len(r) < 2:
            continue
        if F.p != 2:
            u = _k.pow_mod(F, r, (F.q ** d - 1) // 2, h)
            split = _k.gcd(F, h, _k.sub(F, u, [F._one]))
        else:   # the absolute trace to F_2; deg r < deg h
            split = _k.gcd(F, h, _k.trace_mod(F, r, d * F.f, h))
        if 1 < len(split) <= n:
            return _equal_degree(F, split, d, rng) + \
                _equal_degree(F, _k.div_mod(F, h, split)[0], d, rng)
    raise InternalCheckError(
        f"no equal-degree split of {Poly._make(F, h)!r} with d = {d}")


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
    F, rng = f.field, random.Random(seed)
    out = []
    for part, mult in squarefree_decomposition(f):
        pairs, frob = _distinct_degree(F, part.codes)
        for prod_, d in pairs:
            for codes in _equal_degree(F, prod_, d, rng):
                irr = Poly._make(F, codes)
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
    D._same_field(P.poly)
    return _k.valuations(D.field, [D.codes], P.poly.codes)[0]
