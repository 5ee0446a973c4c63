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
into a code.  For f > 1 it also takes the Frobenius maps a -> a^(p^k),
F_p-linear, by one table read per quarter of the code and one reduction,
and from them inverses (Itoh and Tsujii's chain, inside ``power``) and the
norm to F_p.  :class:`FqElem` wraps a code and computes with it, as do
the generator search, the table build and the discrete-log search.

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
so a parsed ``g^k`` renders back without a search.  A miss runs
Pohlig-Hellman over the prime powers of q - 1: each base-l digit of the
log is a baby-step giant-step search in the subgroup of prime order l,
whose baby steps the first search writes into the memo, so when q - 1 is
prime it is one such search over the whole group.  On extension fields
a power of g is a product of entries of a table of g^(2^i), built on the
first power of g.

The field searches are cheap tests first: the modulus search skips
Rabin's test for a candidate with the root 0, 1 or -1, and the
generator search tests each prime l | p - 1 on the candidate's norm, in
F_p.  Neither moves the presentation.  Everything is exact.
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
    """``(mul, power, pack, reduce, norm)`` on the codes of F_(p^f) mod
    ``modulus``.

    ``mul(a, b)`` is the code of a * b, ``power(a, e)`` that of
    a^(e mod (q - 1)), and ``norm(a)`` the residue in [0, p) of the norm
    N(a) = a^r to F_p, r = (q - 1)/(p - 1).  Prime fields get residue
    arithmetic, with ``pack`` the identity, ``reduce`` the residue mod p
    and ``norm`` the identity.  For f > 1 ``pack`` and ``reduce`` are
    :func:`_packing`'s for one product on a reduced digit, so
    ``reduce(pack(c) * pack(b) + pack(a))`` is c * b + a.

    For f > 1 the Frobenius maps a -> a^(p^k) are F_p-linear, so each is
    built as ``pack`` is, from tables of packed images of parts of the
    code, and one ``reduce`` (:func:`frob`); the tables of each k are made
    on first use and kept with these operations.  They are quarters, not
    halves: a job takes 30 to 50 inverses, and half tables, about p^(f/2)
    entries per k, cost more to build at 2^16 and 2^17 than those
    inverses save.  Itoh and Tsujii's addition chain takes a^(r-1) from
    them (:func:`chain`), so the norm is one more product, and ``power``
    inverts (e = -1 mod q - 1) as a^(-1) = N(a)^(-1) a^(r-1), N(a) being
    in F_p.  Other exponents go by square and multiply.
    """
    n = p ** f - 1
    if f == 1:
        return (lambda a, b: a * b % p, lambda a, e: pow(a, e % n, p),
                pos, p.__rmod__, pos)
    pack, reduce = _packing(p, f, modulus, _width(p, f, 1))
    one, frobs = p ** (f - 1), {}
    quarter = -(-f // 4)   # coordinates per quarter of a code
    base = p ** quarter

    def mul(a, b):
        return reduce(pack(a) * pack(b))

    def square_multiply(a, e):
        r, pa = one, pack(a)
        while e:
            if e & 1:
                r = reduce(pack(r) * pa)
            e >>= 1
            if e:
                pa = pack(reduce(pa * pa))
        return r

    def frob(a, k):
        """a^(p^k), the sum of c_i (x^(p^k))^i over a's coordinates c_i:
        four tables, one per quarter of the code from its low end, hold
        the packed sums of a quarter, and one ``reduce`` takes their total,
        whose digits stay below what one product leaves."""
        t = frobs.get(k)
        if t is None:
            # x^(p^k), from x's code p^(f-2)
            image = square_multiply(p ** (f - 2), p ** k)
            images = [pack(one), pack(image)]
            for _ in range(f - 2):
                images.append(pack(reduce(images[-1] * images[1])))
            ends = [max(f - j * quarter, 0) for j in range(5)]
            t = frobs[k] = [_digit_table(images[lo:hi], range(p))
                            for hi, lo in zip(ends, ends[1:])]
        a, r0 = divmod(a, base)
        a, r1 = divmod(a, base)
        r3, r2 = divmod(a, base)
        return reduce(t[0][r0] + t[1][r1] + t[2][r2] + t[3][r3])

    def chain(a):
        """``(a^(r-1), N(a))``: with b_k = a^(1 + p + ... + p^(k-1)),
        b_(2k) = b_k^(p^k) b_k and b_(k+1) = b_k^p a reach b_(f-1) in about
        2 log2(f) products, and a^(r-1) = b_(f-1)^p."""
        b, k = a, 1
        for bit in bin(f - 1)[3:]:
            b, k = mul(frob(b, k), b), 2 * k
            if bit == "1":
                b, k = mul(frob(b, 1), a), k + 1
        b = frob(b, 1)
        return b, mul(b, a) // one

    def power(a, e):
        e %= n
        if e == n - 1 and a:
            b, c = chain(a)
            return reduce(pack(b) * pow(c, -1, p))
        return square_multiply(a, e)
    return mul, power, pack, reduce, lambda a: chain(a)[1]


def _generator_test(p, q, ops):
    """The test whether a code has order q - 1: a^((q-1)/l) != 1 for each
    prime l | q - 1.  For l | p - 1 that power is N(a)^((p-1)/l), so those
    tests read one norm, in F_p, and come first."""
    power, norm, one = ops[1], ops[4], q // p
    primes = prime_factors(q - 1)
    small = [(p - 1) // ell for ell in primes if (p - 1) % ell == 0]
    large = [(q - 1) // ell for ell in primes if (p - 1) % ell]

    def test(a):
        if not a:
            return False
        if small:
            c = norm(a)
            if any(pow(c, e, p) == 1 for e in small):
                return False
        return all(power(a, e) != one for e in large)
    return test


def _find_modulus(p, f):
    if f == 1:
        return (0, 1)
    fp = build_field(p, 1)
    # A root in F_p is a linear factor, so a candidate with the root 0
    # (constant term 0; the search starts past those vectors), 1 or -1 (a
    # coefficient sum, or alternating sum, of 0 mod p) skips Rabin's test.
    # Those are all of F_2's and F_3's roots; trying every root costs O(p)
    # per candidate, more than Rabin's test at large p.
    for k in range(p ** (f - 1), p ** f):
        cand = _index_coeffs(k, p, f) + (1,)
        if sum(cand) % p and (sum(cand[::2]) - sum(cand[1::2])) % p and \
                rabin(fp, list(cand)):
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

    ops = _code_ops(p, f, modulus)
    is_generator = _generator_test(p, q, ops)
    if generator is None:
        gcode = next(filter(is_generator, range(1, q)))
    else:
        generator = tuple(int(c) % p for c in generator)
        if len(generator) != f:
            raise FieldArgumentError("generator", "generator must have f coordinates")
        gcode = _index(generator, p)
        if not is_generator(gcode):
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
                 "_squares", "_minus_one", "_packs") + _CODE_OPS

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
        self._exp = self._log = self._zech = self._baby = self._squares = None
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
            pack, reduce = self._ops[2:4] if width == _width(p, f, 1) else \
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
        found by :meth:`_search` and noted in the memo."""
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

    def _gpower(self, e):
        """The code of g^(e mod (q - 1)), noted in the log memo so that a
        parsed ``g^k`` renders back without a search.  For f > 1 it is a
        product of entries of the table of g^(2^i), built on the first
        power of g."""
        e %= self.q - 1
        if self.f == 1:
            code = self._ops[1](self._gcode, e)
        else:
            if self._squares is None:
                self._squares = self._square_table(self._gcode)
            code = self._table_power(self._squares, e)
        self._memo[code] = e
        return code

    def _square_table(self, code):
        """The packed code^(2^i) for i < bitlen(q - 1), for f > 1."""
        _, _, pack, reduce, _ = self._ops
        table = [pack(code)]
        for _ in range((self.q - 1).bit_length() - 1):
            table.append(pack(reduce(table[-1] ** 2)))
        return table

    def _table_power(self, table, e):
        """The code of the product of table[i] over the set bits i of e."""
        _, _, pack, reduce, _ = self._ops
        picked = [t for i, t in enumerate(table) if e >> i & 1]
        code = reduce(picked[0]) if picked else self._one
        for t in picked[1:]:
            code = reduce(pack(code) * t)
        return code

    def _prime_powers(self):
        """What every search reads, built on the first: for each prime power
        l^e of q - 1, ``(l, e, c, w, m, giant)`` with c = (q - 1)/l^e, w the
        CRT weight of a log mod l^e (w = 1 mod l^e, 0 mod c), and the
        baby-step giant-step data of the subgroup of order l, generated by
        g^s, s = (q - 1)/l: m = ceil(sqrt(l)) baby steps, code of g^(s j) ->
        s j, written into the log memo, and the packed giant step
        g^(-s m)."""
        n, memo, mul, pack = self.q - 1, self._memo, self._ops[0], self._ops[2]
        steps = []
        for ell in prime_factors(n):
            e, c = 0, n
            while c % ell == 0:
                e, c = e + 1, c // ell
            s, m, t = n // ell, isqrt(ell - 1) + 1, self._one
            step = self._gpower(s)
            for j in range(m):
                memo[t] = s * j
                t = mul(t, step)
            steps.append((ell, e, c, c * pow(c, -1, ell ** e) % n, m,
                          pack(self._gpower(-s * m))))
        return steps

    def _search(self, code):
        """Pohlig-Hellman: the log of x mod each prime power l^e of q - 1 is
        that of y = x^c to the base g^c, found one base-l digit at a time
        by a baby-step giant-step search in the subgroup of order l
        (:meth:`_prime_powers`), which takes at most m + 1 giant steps, up
        to the first code whose log the memo holds.  The logs mod the prime
        powers join by their CRT weights.  For f > 1 the powers x^c are
        products of one table of x^(2^i).  When q - 1 is prime this is one
        baby-step giant-step search over the whole group."""
        n, memo = self.q - 1, self._memo
        mul, power, pack, reduce, _ = self._ops
        if self._baby is None:
            self._baby = self._prime_powers()
        table = None
        if self.f > 1 and len(self._baby) > 1:   # x^c for several c
            table = self._square_table(code)
        k = 0
        for ell, e, c, w, m, giant in self._baby:
            # y = x^c = (g^c)^t; the digits of t go into t and out of y
            y = self._table_power(table, c) if table else power(code, c)
            t, s = 0, n // ell
            for j in range(e):
                h = power(y, ell ** (e - 1 - j)) if j < e - 1 else y   # g^(s d)
                for i in range(m + 1):
                    d = memo.get(h)
                    if d is not None:
                        break
                    h = reduce(pack(h) * giant)
                else:
                    raise ValueError("dlog failed; element not in the "
                                     "multiplicative group")
                d = (d // s + i * m) % ell * ell ** j
                if d and j < e - 1:
                    y = mul(y, self._gpower(-c * d))
                t += d
            k += t * w
        return k % n

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
        _, _, pack, reduce, _ = self.field._ops
        return FqElem(self.field, reduce(pack(self.code) + pack(other.code)))

    def __sub__(self, other):
        self._same_field(other)
        F = self.field
        _, _, pack, reduce, _ = F._ops
        return FqElem(F, reduce(pack(self.code) + pack(other.code) * (F.p - 1)))

    def __neg__(self):
        _, _, pack, reduce, _ = self.field._ops
        return FqElem(self.field, reduce(pack(self.code) * (self.field.p - 1)))

    def __mul__(self, other):
        self._same_field(other)
        return FqElem(self.field, self.field._ops[0](self.code, other.code))

    def __truediv__(self, other):
        self._same_field(other)
        if not other:
            raise ZeroDivisionError("division by zero in F_q")
        mul, power, *_ = self.field._ops
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
        if self.code == F._gcode:
            return FqElem(F, F._gpower(e))
        return FqElem(F, F._ops[1](self.code, e))

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
