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
it is the residue, 0 is zero and p^(f-1) is one.  This module alone knows
the coding, and every loop in it runs on codes; coordinate tuples are
only read or written at its API.  The element arithmetic is
:func:`_code_ops`: residues mod p on prime fields, and for f > 1 one
packed integer product per element product, its digits reduced straight
into a code.  :class:`FqElem` wraps a code and computes with it, as do the
generator search, the table build and the baby-step search.

The polynomial loops of :mod:`kernel` run through three operations a
field binds on first use: ``_mul``, ``_pow`` and ``_rows(k, size)``,
the accumulator operations for at most k row updates per coefficient on
rows or accumulators of ``size`` coefficients (:meth:`FqField._bind`).
There are four forms:

- prime fields accumulate residues in a list;
- extension fields with q <= ``_TABLE_LIMIT`` = 2^13 when the field is
  built accumulate codes in a list and read ``array`` tables, built once
  per field.  ``_log[c]`` is the discrete log of code c, with
  ``_log[0] = 2(q-1)`` marking zero; ``_exp[k]`` is the code of
  g^(k mod (q-1)) for k < 2(q-1) and 0 from 2(q-1) to 4(q-1), so
  ``_exp[_log[a] + _log[b]]`` is the code of a * b even when a or b is
  zero.  In characteristic 2 a row update XORs codes; for odd p,
  ``_zech[k]`` is the log of 1 + g^k (the Zech logarithm), or 2(q-1)
  when that is zero.  Element arithmetic never builds the tables;
- on those two kinds of field, when a lane fits in one byte (p = 2 with
  q <= 256; odd p with f * bitlen(2p - 2) <= 8: the prime fields up to
  F_127, F_9, F_25 and F_49), rows of at least ``_LANE_ROW``
  coefficients are ``bytes`` of lanes (:func:`_lane_rows`): c * row is
  one ``bytes.translate`` through c's product table, and a row update
  adds or XORs the whole slice as one int.  A shorter row keeps the
  list, which costs less to load and store than the lanes save;
- other extension fields pack a whole polynomial into one int
  (Kronecker substitution): coefficient i is slot i, 2f - 1 digits wide,
  and the digit width is chosen per call from k (:func:`_width`), so a
  row update is one integer product and each coefficient is reduced
  once, when it is read or stored.  Each width's pack tables and folds
  are kept on the field.

So the form of a call follows the field and ``size``, and the packed
width k; a row prepared by ``_rows(k, size)`` is only read by the
operations of the same choice.  The table limit is where a job stopped
earning back its q table entries before whole polynomials were packed:
with two random degree-6 radicands per job, tables won up to 2^13 and
3^8 and lost from 2^14 and 3^9.  Against packing, fields from 4097 to
2^13 run such jobs about 2x slower with the tables but degree-16 to 20
radicands 18-54% faster, so the limit stays.  ``_LANE_ROW`` is the
middle of the lengths (6 to 16) at which byte lanes ran fastest end to
end on the factoring of degree-24 to 36 radicands over F_13, F_9 and
F_8; the acceptance-style jobs, whose rows have at most 7 coefficients,
keep the lists.

Discrete logarithms are always taken to the canonical generator: read
from ``_log`` on tabled fields.  Other fields, prime ones included, keep
a log memo (code -> k) that every ``dlog`` and every power of g fills,
so a parsed ``g^k`` renders back without a search; a miss runs
baby-step giant-step, whose first search writes the baby steps into the
memo.  Everything is exact.
"""

from __future__ import annotations

from array import array
from math import isqrt
from operator import getitem, lshift, pos

from .errors import FieldArgumentError
from .intmath import is_prime, prime_factors
from .kernel import rabin

_MAX_Q = 1 << 20
_DIGITS = b"0123456789abcdefghijklmnopqrstuvwxyz"
_TABLE_LIMIT = 1 << 13


# ---------------------------------------------------------------------------
# codes and coordinate vectors (tuples of ints mod p, constant term first)

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


def _width(p, f, k):
    """Bits per packed digit that hold k row additions of f (p - 1)^2 on a
    reduced digit and the (f - 1) (p - 1)^2 that reducing adds, in whole
    bytes, so a field builds few widths and a slot is whole bytes."""
    bits = ((k * f + f - 1) * (p - 1) ** 2 + p - 1).bit_length()
    return -(-bits // 8) * 8


def _digit_table(units, digits):
    """sum(digits[i_j] * units[j]) for every index vector (i_0, i_1, ...) in
    lexicographic order, so units[0] weighs the most significant digit."""
    out = [0]
    for u in units:
        out = [t + d * u for t in out for d in digits]
    return out


def _packing(p, f, modulus, width):
    """``(pack, reduce)`` for f > 1 and digits of ``width`` bits.

    ``pack(a)`` holds a's coordinates in one int, c_i as digit i, read
    from tables of the packed high and low halves of the code.  The
    integer product of two packed elements is their packed coordinate
    product (Kronecker substitution): digit k < 2f - 1 sums at most f
    terms c_i d_j, so it is at most f (p - 1)^2.  ``reduce(acc)`` takes
    2f - 1 digits: the digits from x^f up, mod p, add their folds (x^k mod
    ``modulus``, packed), at most (f - 1) (p - 1)^2 on a low digit, and
    the low digits mod p are the code.  So ``reduce`` is exact while the
    digits hold what :func:`_width` allows.  For f >= 4, p <= 36 and
    digits of one byte (or two, when p = 2 or p | 255) a few bytes
    operations read all digits mod p as one base-p numeral, and the folds
    come from two tables, one per half of the high digits; otherwise a
    loop reads the digits one by one.
    """
    mask, low_mask = (1 << width) - 1, (1 << width * f) - 1
    low = range(0, width * f, width)
    high = range(width * f, width * (2 * f - 1), width)
    digits, split = range(p), p ** (f // 2)
    tops = _digit_table([1 << s for s in low[:f - f // 2]], digits)
    bottoms = _digit_table([1 << s for s in low[f - f // 2:]], digits)

    def pack(a):
        top, bottom = divmod(a, split)
        return tops[top] + bottoms[bottom]

    folds, row = [], (0,) * (f - 1) + (1,)
    for _ in high:
        top = row[-1]   # row * x, with x^f replaced by its remainder
        row = tuple((a - top * m) % p for a, m in zip((0,) + row[:-1], modulus))
        folds.append(sum(map(lshift, row, low)))

    size = width // 8   # bytes per digit
    if p > 36 or f < 4 or not (size == 1 or p == 2 or size == 2 and 255 % p == 0):
        def reduce(acc):
            acc = (acc & low_mask) + sum([(acc >> s & mask) % p * t
                                          for s, t in zip(high, folds)])
            code = 0
            for s in low:
                code = code * p + (acc >> s & mask) % p
            return code
        return pack, reduce

    # A digit's low byte has its parity when p = 2; when 256 = 1 mod p,
    # adding a two-byte digit's high byte into its low byte, twice, leaves
    # a byte congruent to the digit.  Each byte then reads as its residue.
    chars = (_DIGITS[:p] * (256 // p + 1))[:256]
    lows = {n: int.from_bytes(b"\xff\0" * n, "little") for n in (f - 1, f)}
    fold_bytes = size == 2 and p > 2

    def residues(acc, n):   # the n digits of acc mod p, read as one base-p numeral
        if fold_bytes:
            acc = (acc & lows[n]) + (acc >> 8 & lows[n])
            acc = (acc & lows[n]) + (acc >> 8 & lows[n])
        return int(acc.to_bytes(n * size, "little")[::size].translate(chars), p)
    split_high = p ** ((f - 1) // 2)   # f // 2 high digits on top, (f - 1) // 2 below
    tops_high = _digit_table(folds[:f // 2], digits)
    bottoms_high = _digit_table(folds[f // 2:], digits)

    def reduce(acc):
        top, bottom = divmod(residues(acc >> width * f, f - 1), split_high)
        return residues((acc & low_mask) + tops_high[top] + bottoms_high[bottom], f)
    return pack, reduce


def _code_ops(p, f, modulus):
    """``(mul, power, pack, reduce)`` on the codes of F_(p^f) mod ``modulus``.

    ``mul(a, b)`` is the code of a * b, ``power(a, e)`` that of
    a^(e mod (q - 1)).  Prime fields get residue arithmetic, with
    ``pack`` the identity and ``reduce`` the residue mod p.  For f > 1
    ``pack`` and ``reduce`` are :func:`_packing`'s for one product on a
    reduced digit, so ``reduce(pack(c) * pack(b) + pack(a))`` is
    c * b + a.
    """
    n = p ** f - 1
    if f == 1:
        return (lambda a, b: a * b % p, lambda a, e: pow(a, e % n, p),
                pos, p.__rmod__)
    pack, reduce = _packing(p, f, modulus, _width(p, f, 1))

    def mul(a, b):
        return reduce(pack(a) * pack(b))

    def power(a, e):
        r, e, pa = p ** (f - 1), e % n, pack(a)
        while e:
            if e & 1:
                r = reduce(pack(r) * pa)
            e >>= 1
            if e:
                pa = pack(reduce(pa * pa))
        return r
    return mul, power, pack, reduce


def _is_generator(a, q, one, power):
    """Whether code a has order q - 1: a^((q-1)/l) != 1 for each prime l | q - 1."""
    return a != 0 and all(power(a, (q - 1) // ell) != one
                          for ell in prime_factors(q - 1))


def _find_modulus(p, f):
    if f == 1:
        return (0, 1)
    fp = build_field(p, 1)
    # constant term 0 means divisibility by x, so start past those vectors
    for k in range(p ** (f - 1), p ** f):
        cand = _index_coeffs(k, p, f) + (1,)
        if rabin(fp, list(cand)):
            return cand
    raise ValueError(f"no monic irreducible of degree {f} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------

def field_order(p: int, f: int) -> int:
    """q = p^f, once p and f pass :func:`build_field`'s checks on them."""
    if not isinstance(f, int) or f < 1:
        raise FieldArgumentError("f", f"f must be a positive integer, got {f!r}")
    # refused before is_prime(p) and p ** f, whose costs grow with p and f
    if isinstance(p, int) and (p > _MAX_Q or f > _MAX_Q.bit_length()):
        raise FieldArgumentError("p" if p > _MAX_Q else "f",
                                 f"q = p^f exceeds the configured bound {_MAX_Q}")
    if not isinstance(p, int) or not is_prime(p):
        raise FieldArgumentError("p", f"p must be prime, got {p!r}")
    q = p ** f
    if q > _MAX_Q:
        raise FieldArgumentError("f", f"q = {q} exceeds the configured bound {_MAX_Q}")
    return q


def build_field(p: int, f: int, *, modulus=None, generator=None) -> "FqField":
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
    a q over the bound 2^20 is charged to f unless p alone exceeds it.
    """
    q = field_order(p, f)
    if modulus is None:
        modulus = _find_modulus(p, f)
    else:
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise FieldArgumentError("modulus", "modulus must be monic of degree f")
        if any(not 0 <= c < p for c in modulus):
            raise FieldArgumentError("modulus",
                                     "modulus coefficients must lie in [0, p)")
        if f > 1 and not rabin(build_field(p, 1), list(modulus)):
            raise FieldArgumentError("modulus", "modulus is not irreducible over F_p")

    ops, one = _code_ops(p, f, modulus), p ** (f - 1)
    if generator is None:
        gcode = next(a for a in range(1, q) if _is_generator(a, q, one, ops[1]))
    else:
        generator = tuple(int(c) % p for c in generator)
        if len(generator) != f:
            raise FieldArgumentError("generator", "generator must have f coordinates")
        gcode = _index(generator, p)
        if not _is_generator(gcode, q, one, ops[1]):
            raise FieldArgumentError("generator",
                                     "generator does not have order q - 1")

    return FqField(p, f, modulus, gcode, ops)


_CODE_OPS = ("_mul", "_pow", "_rows")
# rows or accumulators of at least this many coefficients take byte lanes
# where a lane fits in one byte (see the module docstring)
_LANE_ROW = 10


def _list_rows(prep, axpy):
    """The accumulator operations of a list of codes or logs."""
    def load(a, n):
        return [*a, *[0] * (n - len(a))] if n > len(a) else list(a)

    def store(acc, n):
        del acc[n:]
        return acc
    return load, prep, axpy, getitem, store


def _sized_rows(F, short):
    """``_rows(k, size)`` of a prime or tabled field F: the list operations
    ``short``, but byte lanes for a size of at least ``_LANE_ROW`` where a
    lane fits in one byte.  The lanes are built on first use."""
    bits = (2 * F.p - 2).bit_length() if F.p > 2 else 1
    if F.f * bits > 8:
        return lambda k, size: short
    lanes = []

    def rows(k, size):
        if size < _LANE_ROW:
            return short
        if not lanes:
            lanes.append(_lane_rows(F.p, F.f, bits, F._mul, F._gcode))
        return lanes[0]
    return rows


def _lane_rows(p, f, bits, mul, g):
    """The byte-lane accumulator operations of F_(p^f), for f * bits <= 8.
    A row is ``bytes``, one lane per coefficient, and an accumulator a
    ``bytearray``.  For p = 2 (bits = 1) the lane is the code and a sum
    XORs lanes.  For odd p the lane spreads the code's base-p digits over
    fields of bits = bitlen(2p - 2), so two lanes add as integers without a
    carry out of any field, and a ``translate`` reduces each field mod p;
    on prime fields that lane is the code.  c * row is ``row.translate``
    through c's product table ``times[c]``: only g's table ``step`` takes
    products by ``mul``, and the table of g^(i+1) is g^i's translated
    through ``step``.  ``axpy`` XORs or adds the whole slice as one int."""
    units = [1 << bits * j for j in range(f - 1, -1, -1)]
    lanes = _digit_table(units, range(p))
    to_code, step = bytearray(256), bytearray(256)
    for x, lane in enumerate(lanes):
        to_code[lane], step[lane] = x, lanes[mul(g, x)]
    times, table = [bytes(256)] * len(lanes), bytes(step)
    one, to_int = lanes[p ** (f - 1)], int.from_bytes
    for _ in lanes[1:]:   # table is g^i's: at the lane of 1 it holds g^i's lane
        times[to_code[table[one]]] = table
        table = table.translate(step)

    if p == 2 or f == 1:   # the lane is the code
        def prep(b):
            return bytes(b)

        def load(a, n):
            return bytearray(a).ljust(n, b"\0")

        def store(acc, n):
            return list(acc[:n])
        read = getitem
    else:
        to_lane = bytearray(256)
        to_lane[:len(lanes)] = lanes

        def prep(b):
            return bytes(b).translate(to_lane)

        def load(a, n):
            return bytearray(a).translate(to_lane).ljust(n, b"\0")

        def read(acc, i):
            return to_code[acc[i]]

        def store(acc, n):
            return list(acc[:n].translate(to_code))

    if p == 2:
        def axpy(acc, off, c, row):
            end = off + len(row)
            acc[off:end] = (to_int(acc[off:end], "little") ^ to_int(
                row.translate(times[c]), "little")).to_bytes(end - off, "little")
            return acc
    else:
        reduced = bytes(_digit_table(units, [v % p for v in range(1 << bits)])
                        ).ljust(256, b"\0")

        def axpy(acc, off, c, row):
            end = off + len(row)
            acc[off:end] = (to_int(acc[off:end], "little") + to_int(
                row.translate(times[c]), "little")).to_bytes(
                    end - off, "little").translate(reduced)
            return acc
    return load, prep, axpy, read, store


class FqField:
    """The field with q = p^f elements; use :func:`build_field` to create one."""

    __slots__ = ("p", "f", "q", "modulus", "_gcode", "_one", "_hash", "_ops",
                 "_tabled", "_exp", "_log", "_zech", "_memo", "_baby",
                 "_minus_one", "_packs") + _CODE_OPS

    def __init__(self, p, f, modulus, gcode, ops):
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = tuple(modulus)
        self._gcode = gcode
        self._one = p ** (f - 1)
        self._minus_one = self._int(-1)
        self._ops = ops
        self._tabled = f > 1 and self.q <= _TABLE_LIMIT
        self._exp = self._log = self._zech = self._baby = None
        self._memo, self._packs = {}, {}
        self._hash = hash(("FqField", p, f, self.modulus, gcode))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FqField):
            return NotImplemented
        return (self.p, self.f, self.modulus, self._gcode) == \
            (other.p, other.f, other.modulus, other._gcode)

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
        """Build the exp/log (and Zech) arrays once; False if built untabled."""
        if self._tabled and self._log is None:
            p, q, n, mul = self.p, self.q, self.q - 1, self._ops[0]
            exp = array("l", [0]) * (4 * n + 1)
            log = array("l", [2 * n]) * q
            code = self._one
            for i in range(n):
                exp[i] = exp[i + n] = code
                log[code] = i
                code = mul(code, self._gcode)
            if p > 2:
                # 1 is the top digit of a code, so adding 1 is adding p^(f-1) mod q
                self._zech = array("l", (log[(exp[k] + self._one) % q]
                                         for k in range(n)))
            self._exp, self._log = exp, log
        return self._tabled

    def _bind(self):
        """Bind the operations the kernel loops read: ``_mul``, ``_pow`` and
        ``_rows(k, size)``, the accumulator operations of :mod:`kernel` for
        at most k row updates per coefficient on rows or accumulators of
        ``size`` coefficients.  Untabled extension fields pack a whole
        polynomial into one int (:meth:`_packed_rows`) and ignore size.
        Prime and tabled fields accumulate in a list and ignore k
        (:func:`_list_rows`); on those whose lanes fit a byte, a size of
        at least ``_LANE_ROW`` takes byte lanes (:func:`_lane_rows`)."""
        p, n = self.p, self.q - 1
        self._mul, self._pow = self._ops[:2]
        if self.f == 1:
            def axpy(out, off, c, b):
                end = off + len(b)
                out[off:end] = [(o + c * x) % p for o, x in zip(out[off:end], b)]
                return out
            self._rows = _sized_rows(self, _list_rows(tuple, axpy))
            return
        if not self._tables():
            self._rows = self._packed_rows
            return
        exp, log, zech = self._exp, self._log, self._zech
        if p == 2:
            def axpy(out, off, c, lb):
                lc, end = log[c], off + len(lb)
                out[off:end] = [o ^ exp[lc + l]
                                for o, l in zip(out[off:end], lb)]
                return out
        else:
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
                return out
        self._mul = lambda a, b: exp[log[a] + log[b]]
        self._pow = lambda a, e: exp[log[a] * e % n]
        self._rows = _sized_rows(self, _list_rows(lambda b: [log[x] for x in b], axpy))

    def _packed_rows(self, k, size):
        """``_rows(k, size)`` on untabled extension fields: one int,
        coefficient i in slot i of 2f - 1 digits of :func:`_width` bits, at
        every size.  One set per width is kept on the field, sharing the
        element arithmetic's."""
        p, f = self.p, self.f
        width = _width(p, f, k)
        rows = self._packs.get(width)
        if rows is None:
            pack, reduce = self._ops[2:] if width == _width(p, f, 1) else \
                _packing(p, f, self.modulus, width)
            size = (2 * f - 1) * width // 8   # bytes per slot
            bits, slot = 8 * size, (1 << 8 * size) - 1

            def prep(b):
                return int.from_bytes(b"".join([pack(c).to_bytes(size, "little")
                                                for c in b]), "little")

            def axpy(acc, off, c, row):
                return acc + (pack(c) * row << off * bits)

            def read(acc, i):
                return reduce(acc >> i * bits & slot)

            def store(acc, n):
                end = n * size
                buf = acc.to_bytes(max(end, (acc.bit_length() + 7) // 8), "little")
                return [reduce(int.from_bytes(buf[i:i + size], "little"))
                        for i in range(0, end, size)]
            rows = self._packs[width] = (lambda a, n: prep(a), prep, axpy, read, store)
        return rows

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
            k = self._memo[code] = self._search(code)
        return k

    def _search(self, code):
        """Baby-step giant-step: the first search writes the baby steps, code
        of g^j -> j for j < m = ceil(sqrt(q - 1)), into the log memo and keeps
        the packed giant step g^(-m); a search takes at most m + 1 giant
        steps, up to the first code whose log the memo holds."""
        n, memo = self.q - 1, self._memo
        _, power, pack, reduce = self._ops
        if self._baby is None:
            m, g, t = isqrt(n - 1) + 1, pack(self._gcode), self._one
            for j in range(m):
                memo[t] = j
                t = reduce(pack(t) * g)
            self._baby = m, pack(power(self._gcode, n - m))
        m, giant = self._baby
        for i in range(m + 1):
            j = memo.get(code)
            if j is not None:
                return (i * m + j) % n
            code = reduce(pack(code) * giant)
        raise ValueError("dlog failed; element not in the multiplicative group")

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
        _, _, pack, reduce = self.field._ops
        return FqElem(self.field, reduce(pack(self.code) + pack(other.code)))

    def __sub__(self, other):
        self._same_field(other)
        F = self.field
        _, _, pack, reduce = F._ops
        return FqElem(F, reduce(pack(self.code) + pack(other.code) * (F.p - 1)))

    def __neg__(self):
        _, _, pack, reduce = self.field._ops
        return FqElem(self.field, reduce(pack(self.code) * (self.field.p - 1)))

    def __mul__(self, other):
        self._same_field(other)
        return FqElem(self.field, self.field._ops[0](self.code, other.code))

    def __truediv__(self, other):
        self._same_field(other)
        if not other:
            raise ZeroDivisionError("division by zero in F_q")
        mul, power, _, _ = self.field._ops
        return FqElem(self.field, mul(self.code, power(other.code, -1)))

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
        code = F._ops[1](self.code, e)
        if self.code == F._gcode:   # so a parsed g^k renders back without a search
            F._memo[code] = e % (F.q - 1)
        return FqElem(F, code)

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
