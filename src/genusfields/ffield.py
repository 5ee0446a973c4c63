"""Exact arithmetic in small finite fields F_q with q = p^f.

Fields come from :func:`build_field` and are deterministic in (p, f):
the defining modulus is the lexicographically smallest monic
irreducible polynomial of degree f over F_p, and the canonical
generator of the multiplicative group is the lexicographically
smallest element of order q - 1.  Coefficient vectors are written
constant term first, and element coordinates refer to the power basis
1, x, ..., x^(f-1) of the modulus.

Inside the package an element is an int code, its index in
lexicographic coordinate order (:meth:`FqField.from_index`): the code of
(c_0, ..., c_(f-1)) is c_0 p^(f-1) + ... + c_(f-1), so on prime fields
it is the residue, 0 is zero and p^(f-1) is one.  This module is the
only one that knows the coding.  :class:`FqElem` wraps a code for the
public API, and the polynomial loops of :mod:`kernel` run on lists of
codes through each field's code operations (``_add``, ``_neg``,
``_mul``, ``_pow``, ``_int``, ``_prep``, ``_axpy``), bound on first use:

- prime fields: residue arithmetic mod p;
- f > 1 and q <= ``_TABLE_LIMIT`` = 2^13: ``array`` tables, built once per
  field.  ``_log[c]`` is the discrete log of code c, with ``_log[0] =
  2(q-1)`` marking zero; ``_exp[k]`` is the code of g^(k mod (q-1)) for
  k < 2(q-1) and 0 from 2(q-1) to 4(q-1), so ``_exp[_log[a] + _log[b]]``
  is the code of a * b even when a or b is zero.  In characteristic 2
  addition is XOR of codes; for odd p, ``_zech[k]`` is the log of
  1 + g^k (the Zech logarithm), or 2(q-1) when that is zero;
- f > 1 and q > 2^13: coordinate arithmetic, each product one packed
  integer multiplication (``_coord_mul``).

The limit is where a job stops earning back its q table entries: with
two random degree-6 radicands per job, tables win up to 2^13 and 3^8
and lose from 2^14 and 3^9.

Discrete logarithms are always taken to the canonical generator: read
from ``_log`` when q <= 2^13 (prime fields build it on the first
``dlog``).  Beyond, each field keeps a log memo (code -> k) that every
``dlog`` and every power of g fills, so a parsed ``g^k`` renders back
without a search; a miss runs baby-step giant-step against one baby-step
table per field, built by the first search.  Everything is exact.
"""

from __future__ import annotations

from array import array
from math import isqrt
from operator import lshift, mul, pos, xor

from .errors import FieldArgumentError
from .intmath import is_prime, prime_factors
from .kernel import rabin

DEFAULT_MAX_Q = 1 << 20
_TABLE_LIMIT = 1 << 13


# ---------------------------------------------------------------------------
# coordinate vectors (tuples of ints mod p, constant term first)

def _index_coeffs(k: int, p: int, f: int) -> tuple[int, ...]:
    """The k-th coordinate vector in lexicographic order, c_0 compared first."""
    out = [0] * f
    for i in range(f - 1, -1, -1):
        k, out[i] = divmod(k, p)
    return tuple(out)


def _index(coeffs, p: int) -> int:
    """Inverse of :func:`_index_coeffs`: the code of a coordinate vector."""
    k = 0
    for c in coeffs:
        k = k * p + c
    return k


def _coord_mul(modulus, p):
    """``(pack, times)`` for multiplying coordinate vectors modulo ``modulus``.

    ``pack(b)`` packs a vector into one int, a digit per coordinate, and
    ``times(a, pack(b))`` is the vector of a * b: the packed factors are
    multiplied as integers (Kronecker substitution), the digits from x^f
    up are folded back with the packed x^k mod ``modulus``, and the sum is
    unpacked mod p.  Digits are wide enough that no sum spills over.
    """
    f = len(modulus) - 1
    width = ((2 * f - 1) * (p - 1) ** 2).bit_length()
    mask = (1 << width) - 1
    low = range(0, width * f, width)
    high = range(width * f, width * (2 * f - 1), width)
    low_mask = (1 << width * f) - 1

    def pack(t):
        return sum(map(lshift, t, low))

    folds, row = [], (0,) * (f - 1) + (1,)
    for _ in high:
        top = row[-1]   # row * x, with x^f replaced by its remainder
        row = tuple((a - top * m) % p for a, m in zip((0,) + row[:-1], modulus))
        folds.append(pack(row))

    def times(a, pb):
        prod = pack(a) * pb
        acc = (prod & low_mask) + sum(map(mul, [(prod >> s & mask) % p
                                                for s in high], folds))
        return tuple([(acc >> s & mask) % p for s in low])
    return pack, times


def _fq_pow(a, e, pack, times):
    result = (1,) + (0,) * (len(a) - 1)
    while e:
        if e & 1:
            result = times(result, pack(a))
        e >>= 1
        if e:
            a = times(a, pack(a))
    return result


def _element_order(a, q, pack, times):
    one = (1,) + (0,) * (len(a) - 1)
    n = q - 1
    order = n
    for ell in prime_factors(n):
        while order % ell == 0 and _fq_pow(a, order // ell, pack, times) == one:
            order //= ell
    return order


def _prime_field(p):
    return FqField(p, 1, (0, 1), _find_generator(p, 1, p, (0, 1)))


def _find_modulus(p, f):
    if f == 1:
        return (0, 1)
    fp = _prime_field(p)
    # constant term 0 means divisibility by x, so start past those vectors
    for k in range(p ** (f - 1), p ** f):
        cand = _index_coeffs(k, p, f) + (1,)
        if rabin(fp, list(cand)):
            return cand
    raise ValueError(f"no monic irreducible of degree {f} over F_{p}")  # unreachable


def _find_generator(p, f, q, modulus):
    pack, times = _coord_mul(modulus, p)
    for k in range(1, q):
        coeffs = _index_coeffs(k, p, f)
        if _element_order(coeffs, q, pack, times) == q - 1:
            return coeffs
    raise ValueError("no generator found")  # unreachable: F_q* is cyclic


# ---------------------------------------------------------------------------

def field_order(p: int, f: int, max_q: int = DEFAULT_MAX_Q) -> int:
    """q = p^f, once p and f pass :func:`build_field`'s checks on them."""
    if not isinstance(f, int) or f < 1:
        raise FieldArgumentError("f", f"f must be a positive integer, got {f!r}")
    # refused before is_prime(p) and p ** f, whose costs grow with p and f
    if isinstance(p, int) and (p > max_q or f > max_q.bit_length()):
        raise FieldArgumentError("p" if p > max_q else "f",
                                 f"q = p^f exceeds the configured bound {max_q}")
    if not isinstance(p, int) or not is_prime(p):
        raise FieldArgumentError("p", f"p must be prime, got {p!r}")
    q = p ** f
    if q > max_q:
        raise FieldArgumentError("f", f"q = {q} exceeds the configured bound {max_q}")
    return q


def build_field(p: int, f: int, *, modulus=None, generator=None,
                max_q: int = DEFAULT_MAX_Q) -> "FqField":
    """Construct F_{p^f} deterministically.

    Without overrides the defining modulus is the lexicographically
    smallest monic irreducible of degree f over F_p (for f = 1 the
    polynomial x) and the generator is the lexicographically smallest
    element of multiplicative order q - 1, so two calls with the same
    (p, f) give bit-identical fields.

    ``modulus`` overrides the defining polynomial (monic, degree f,
    irreducible, constant term first including the leading 1) and
    ``generator`` overrides the canonical generator (a coefficient
    vector of length f); both are validated.  A refusal is a
    :class:`FieldArgumentError` whose ``arg`` names the argument refused;
    a q over ``max_q`` is charged to f unless p alone exceeds it.
    """
    q = field_order(p, f, max_q)
    if modulus is None:
        modulus = _find_modulus(p, f)
    else:
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise FieldArgumentError("modulus", "modulus must be monic of degree f")
        if any(not 0 <= c < p for c in modulus):
            raise FieldArgumentError("modulus",
                                     "modulus coefficients must lie in [0, p)")
        if f > 1 and not rabin(_prime_field(p), list(modulus)):
            raise FieldArgumentError("modulus", "modulus is not irreducible over F_p")

    if generator is None:
        generator = _find_generator(p, f, q, modulus)
    else:
        generator = tuple(int(c) % p for c in generator)
        if len(generator) != f:
            raise FieldArgumentError("generator", "generator must have f coordinates")
        if not any(generator) or \
                _element_order(generator, q, *_coord_mul(modulus, p)) != q - 1:
            raise FieldArgumentError("generator",
                                     "generator does not have order q - 1")

    return FqField(p, f, modulus, generator)


_CODE_OPS = ("_add", "_neg", "_mul", "_pow", "_prep", "_axpy")


class FqField:
    """The field with q = p^f elements; use :func:`build_field` to create one."""

    __slots__ = ("p", "f", "q", "modulus", "_gen", "_gcode", "_one", "_hash",
                 "_pack", "_times", "_exp", "_log", "_zech", "_memo",
                 "_baby") + _CODE_OPS

    def __init__(self, p, f, modulus, generator):
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = tuple(modulus)
        self._gen = tuple(generator)
        self._gcode = _index(self._gen, p)
        self._one = p ** (f - 1)
        self._pack, self._times = _coord_mul(self.modulus, p)
        self._exp = self._log = self._zech = self._baby = None
        self._memo = {}
        self._hash = hash(("FqField", p, f, self.modulus, self._gen))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FqField):
            return NotImplemented
        return (self.p, self.f, self.modulus, self._gen) == \
            (other.p, other.f, other.modulus, other._gen)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FqField(p={self.p}, f={self.f})"

    def __getattr__(self, name):
        # reached only for an unset slot: the code operations are bound on
        # first use, after the tables they read
        if name not in _CODE_OPS:
            raise AttributeError(name)
        self._bind()
        return object.__getattribute__(self, name)

    # -- element constructors ------------------------------------------------

    @property
    def zero(self) -> "FqElem":
        return FqElem(self, 0)

    @property
    def one(self) -> "FqElem":
        return FqElem(self, self._one)

    @property
    def g(self) -> "FqElem":
        """The canonical generator of the multiplicative group."""
        return FqElem(self, self._gcode)

    def elem(self, coeffs) -> "FqElem":
        """Element from its coordinate vector (length f, reduced mod p)."""
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.f:
            raise ValueError(f"expected {self.f} coordinates, got {len(coeffs)}")
        return FqElem(self, _index(coeffs, self.p))

    def const(self, a: int) -> "FqElem":
        """The prime-subfield constant a mod p."""
        return FqElem(self, self._int(a))

    def from_index(self, k: int) -> "FqElem":
        """The k-th element in lexicographic coordinate order, 0 <= k < q."""
        if not 0 <= k < self.q:
            raise ValueError(f"index {k} out of range for q = {self.q}")
        return FqElem(self, k)

    def elements(self):
        """All q elements in lexicographic coordinate order."""
        for k in range(self.q):
            yield FqElem(self, k)

    # -- code arithmetic -------------------------------------------------------

    def _int(self, a: int) -> int:
        """The code of the prime-subfield constant a mod p."""
        return int(a) % self.p * self._one

    def _tables(self) -> bool:
        """Build the exp/log (and Zech) arrays once; False above the limit."""
        if self._log is not None:
            return True
        if self.q > _TABLE_LIMIT:
            return False
        p, f, q, n = self.p, self.f, self.q, self.q - 1
        exp = array("l", [0]) * (4 * n + 1)
        log = array("l", [2 * n]) * q
        if f == 1:
            code, g = 1, self._gcode
            for i in range(n):
                exp[i] = exp[i + n] = code
                log[code] = i
                code = code * g % p
        else:
            times, g = self._times, self._pack(self._gen)
            t = (1,) + (0,) * (f - 1)
            for i in range(n):
                code = _index(t, p)
                exp[i] = exp[i + n] = code
                log[code] = i
                t = times(t, g)
        if f > 1 and p > 2:
            # 1 is the top digit of a code, so adding 1 is adding p^(f-1) mod q
            self._zech = array("l", (log[(exp[k] + self._one) % q]
                                     for k in range(n)))
        self._exp, self._log = exp, log
        return True

    def _bind(self):
        """Bind the code operations used by FqElem and the kernel loops."""
        p, f, n = self.p, self.f, self.q - 1
        if f == 1:
            def axpy(out, off, c, b):
                end = off + len(b)
                out[off:end] = [(o + c * x) % p for o, x in zip(out[off:end], b)]
            self._add = lambda a, b: (a + b) % p
            self._neg = lambda a: -a % p
            self._mul = lambda a, b: a * b % p
            self._pow = lambda a, e: pow(a, e % n, p)
            self._prep, self._axpy = tuple, axpy
            return
        if self._tables():
            exp, log, zech, half = self._exp, self._log, self._zech, n // 2
            if p == 2:
                def axpy(out, off, c, lb):
                    lc, end = log[c], off + len(lb)
                    out[off:end] = [o ^ exp[lc + l]
                                    for o, l in zip(out[off:end], lb)]
                self._add, self._neg = xor, pos
            else:
                def add(a, b):
                    if not a or not b:
                        return a or b
                    la = log[a]
                    return exp[la + zech[(log[b] - la) % n]]

                def axpy(out, off, c, lb):
                    lc = log[c]
                    for j, l in enumerate(lb, off):
                        if l < n:
                            o = out[j]
                            if o:
                                lo = log[o]
                                out[j] = exp[lo + zech[(lc + l - lo) % n]]
                            else:
                                out[j] = exp[lc + l]
                self._add = add
                self._neg = lambda a: exp[log[a] + half]
            self._mul = lambda a, b: exp[log[a] + log[b]]
            self._pow = lambda a, e: exp[log[a] * e % n]
            self._prep = lambda b: [log[x] for x in b]
            self._axpy = axpy
            return
        pack, times = self._pack, self._times

        def coords(a):
            return _index_coeffs(a, p, f)

        if p == 2:
            def plus(a, v):   # code a plus coordinate vector v
                return a ^ _index(v, 2)
            self._neg = pos
        else:
            def plus(a, v):
                return _index([(x + y) % p for x, y in zip(coords(a), v)], p)
            self._neg = lambda a: _index([-x % p for x in coords(a)], p)

        def add(a, b):
            return plus(a, coords(b))

        def axpy(out, off, c, pb):
            c = coords(c)
            for j, t in enumerate(pb, off):
                out[j] = plus(out[j], times(c, t))
        self._add = add
        self._mul = lambda a, b: _index(times(coords(a), pack(coords(b))), p)
        self._pow = lambda a, e: _index(_fq_pow(coords(a), e % n, pack, times), p)
        self._prep = lambda b: [pack(coords(x)) for x in b]
        self._axpy = axpy

    # -- discrete logarithms ---------------------------------------------------

    def dlog(self, x: "FqElem") -> int:
        """Exponent k with g^k = x, for nonzero x; a residue modulo q - 1.

        Read from ``_log`` on tabled fields, else from the log memo, else
        found by baby-step giant-step and noted in the memo."""
        self._check_elem(x)
        code = x.code
        if not code:
            raise ValueError("dlog of zero is undefined")
        if self._tables():
            return self._log[code]
        k = self._memo.get(code)
        if k is None:
            k = self._memo[code] = self._search(x.coeffs)
        return k

    def _search(self, coeffs):
        """Baby-step giant-step: the first search stores the baby steps
        g^j -> j (j < m = ceil(sqrt(q - 1))) and the packed giant step
        g^(-m) on the field, and every search takes at most m + 1 giant
        steps from ``coeffs``."""
        n, times = self.q - 1, self._times
        if self._baby is None:
            m, pack = isqrt(n - 1) + 1, self._pack
            baby, g, t = {}, pack(self._gen), (1,) + (0,) * (self.f - 1)
            for j in range(m):
                baby.setdefault(t, j)
                t = times(t, g)
            self._baby = m, baby, pack(_fq_pow(self._gen, n - m, pack, times))
        m, baby, giant = self._baby
        y = coeffs
        for i in range(m + 1):
            j = baby.get(y)
            if j is not None:
                return (i * m + j) % n
            y = times(y, giant)
        raise ValueError("dlog failed; element not in the multiplicative group")

    def _gen_pow(self, e: int) -> int:
        """The code of g^e, binding nothing: read from ``_exp`` once tables
        exist, else taken on g's coordinates and noted in the log memo.  So
        the default field that a job's ``gen=`` is read on stays unbound."""
        k = e % (self.q - 1)
        if self._exp is not None:
            return self._exp[k]
        code = _index(_fq_pow(self._gen, k, self._pack, self._times), self.p)
        self._memo[code] = k
        return code

    def _check_elem(self, x):
        if not isinstance(x, FqElem) or (x.field is not self and x.field != self):
            raise ValueError("element does not belong to this field")


class FqElem:
    """An immutable element of an :class:`FqField`, held as its int code."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coordinates in the power basis, constant term first."""
        return _index_coeffs(self.code, self.field.p, self.field.f)

    def is_zero(self) -> bool:
        return not self.code

    def __bool__(self):
        return self.code != 0

    def _same_field(self, other):
        if not isinstance(other, FqElem):
            raise TypeError(f"cannot combine FqElem with {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise ValueError("field mismatch")

    def __add__(self, other):
        self._same_field(other)
        return FqElem(self.field, self.field._add(self.code, other.code))

    def __sub__(self, other):
        self._same_field(other)
        F = self.field
        return FqElem(F, F._add(self.code, F._neg(other.code)))

    def __neg__(self):
        return FqElem(self.field, self.field._neg(self.code))

    def __mul__(self, other):
        self._same_field(other)
        return FqElem(self.field, self.field._mul(self.code, other.code))

    def __truediv__(self, other):
        self._same_field(other)
        if not other:
            raise ZeroDivisionError("division by zero in F_q")
        F = self.field
        return FqElem(F, F._mul(self.code, F._pow(other.code, -1)))

    def __pow__(self, e):
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        if not self:
            if e > 0:
                return self.field.zero
            if e == 0:
                return self.field.one
            raise ZeroDivisionError("negative power of zero in F_q")
        F = self.field
        if self.code == F._gcode:
            return FqElem(F, F._gen_pow(e))
        return FqElem(F, F._pow(self.code, e))

    def __eq__(self, other):
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.code == other.code and \
            (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.code, self.field._hash))

    def __repr__(self):
        if self.field.f == 1:
            return f"FqElem({self.code} in F_{self.field.q})"
        return f"FqElem({list(self.coeffs)} in F_{self.field.q})"

    def dlog(self) -> int:
        return self.field.dlog(self)


def element_sort_key(x: FqElem):
    """Canonical sort key: integer value on prime fields, dlog (0 first) otherwise."""
    if x.field.f == 1:
        return x.code
    return -1 if x.is_zero() else x.dlog()
