"""Finitely generated subgroups of (Z/M)^d, answered exactly.

A subgroup spanned by generator rows A is the image of the lattice
L = rowspace(A) + M * Z^d, and membership, order, containment,
invariant factors and the constant line are all lattice arithmetic on
one form of L: a matrix V, invertible mod M, and s_1 | s_2 | ... | s_d | M
with L V = (+)_j s_j Z.  :func:`smith_normal_form` builds it locally.
For each prime power p^e exactly dividing M it eliminates the rows of A
mod p^e, held sparse: each row is a {column: entry} dict of its nonzero
entries, and each column of V a {row: entry} dict, since the radicand
rows have a few nonzero entries among many columns.  Each pivot is an
entry of least p-adic valuation v, the first one in the first row that
holds one (rows start sorted by length), so it divides every remaining
entry of its row and column, and each step clears them with exact
quotients, touching only the rows that hold the pivot column; the
diagonal entry is p^v, padded with p^e.  The column operations act on V
alone, whose entries stay below p^e.  The Chinese remainder theorem
joins the primes: s_j = prod_p p^(v_p,j), and column j of V is the sum
of each prime's column j times its idempotent (1 mod p^e, 0 mod
M / p^e), reduced mod s_j, which is all that membership and the
constant line read.  A prime with v_p,j = 0 adds nothing there.  V
depends on the pivot order, but every answer read from the form is an
invariant of L.

A :class:`LatticeForm` holds the s_j and the columns of V as dense
tuples.  Each group's form is built once and cached, and the cache keeps
the last 64 forms.  Membership and the image orders loop over the
nonzero entries of their vector only.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod

from .intmath import prime_factors


# ---------------------------------------------------------------------------
# the lattice form

# L V = (+)_j s_j Z for the lattice L of a group: ``diag`` holds the s_j
# and ``columns[j]`` is column j of V reduced mod s_j
LatticeForm = namedtuple("LatticeForm", "diag columns")


def _sub(a, c, b, q):
    """a - c * b mod q, in place, for {index: entry} dicts without zeros."""
    for k, x in b.items():
        y = (a.get(k, 0) - c * x) % q
        if y:
            a[k] = y
        else:
            a.pop(k, None)


def _local_form(rows, n, p, q):
    """(p^(v_j), column j of V) pairs, the p^(v_j) ascending and padded
    with q, for the sparse rows mod q = p^e (see the module docstring).
    Each multiplier c is a unit times a nonzero entry / p^v, which is
    below q / p^v, so c is nonzero mod q."""
    S = sorted((r for r in ({j: x % q for j, x in row.items() if x % q}
                            for row in rows) if r), key=len)
    V = {j: {j: 1} for j in range(n)}   # the columns not yet pivoted
    out, d = [], 1
    while S:
        dp = d * p
        while not any(x % dp for r in S for x in r.values()):
            d, dp = dp, dp * p   # d = p^v for the least valuation v left
        i, j = next((i, k) for i, r in enumerate(S) for k, x in r.items() if x % dp)
        top = S.pop(i)
        inv = pow(top.pop(j) // d, -1, q)
        for row in [r for r in S if j in r]:
            _sub(row, row.pop(j) // d * inv % q, top, q)
        S = [r for r in S if r]
        col = V.pop(j)
        for k, b in top.items():
            _sub(V[k], b // d * inv % q, col, q)
        out.append((d, col))
    return out + [(q, col) for col in V.values()]


def smith_normal_form(matrix, modulus) -> LatticeForm:
    """The form of L = rowspace(matrix) + modulus * Z^n (see the module
    docstring)."""
    rows = [list(map(int, row)) for row in matrix]
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("matrix rows must have equal length")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    rows = [{j: x for j, x in enumerate(row) if x} for row in rows]
    diag = [1] * n
    columns = [[0] * n for _ in range(n)]
    for p in prime_factors(modulus):
        q = gcd(modulus, p ** modulus.bit_length())
        unit = modulus // q * pow(modulus // q, -1, q)  # the idempotent
        for j, (t, col) in enumerate(_local_form(rows, n, p, q)):
            if t > 1:
                diag[j] *= t
                for i, x in col.items():
                    columns[j][i] += unit * x
    return LatticeForm(tuple(diag), tuple(tuple(x % s for x in col)
                                          for s, col in zip(diag, columns)))


# ---------------------------------------------------------------------------
# subgroups of (Z/M)^d

@dataclass(frozen=True)
class RadicandGroup:
    """Subgroup of (Z/M)^d spanned by generator rows (entries in [0, M))."""

    modulus: int
    dim: int
    generators: tuple[tuple[int, ...], ...]

    @classmethod
    def spanned_by(cls, modulus: int, dim: int, generators) -> "RadicandGroup":
        if modulus < 1 or dim < 1:
            raise ValueError("modulus and dimension must be positive")
        reduced = []
        for vec in generators:
            row = tuple(int(x) % modulus for x in vec)
            if len(row) != dim:
                raise ValueError(f"generator has length {len(row)}, expected {dim}")
            if any(row):
                reduced.append(row)
        return cls(modulus, dim, tuple(dict.fromkeys(reduced)))

    def _form(self) -> LatticeForm:
        return _lattice_form(self.modulus, self.dim, self.generators)

    def _check_compatible(self, other: "RadicandGroup"):
        if not isinstance(other, RadicandGroup):
            raise TypeError("expected a RadicandGroup")
        if other.modulus != self.modulus or other.dim != self.dim:
            raise ValueError("modulus or dimension mismatch")

    def member(self, vector) -> bool:
        """Exact membership of a vector: (v V)_j must vanish mod s_j, read
        over the nonzero entries of v and the s_j > 1."""
        v = [int(x) % self.modulus for x in vector]
        if len(v) != self.dim:
            raise ValueError(f"vector has length {len(v)}, expected {self.dim}")
        nonzero = [(i, x) for i, x in enumerate(v) if x]
        return all(sum(x * col[i] for i, x in nonzero) % s == 0
                   for s, col in zip(*self._form()) if s > 1)

    def order(self) -> int:
        """Number of elements of the subgroup."""
        return self.modulus ** self.dim // prod(self._form().diag)

    def invariant_factors(self) -> tuple[int, ...]:
        """Cyclic decomposition d_1 | d_2 | ..., factors > 1 only, largest last."""
        M = self.modulus
        facs = [M // s for s in reversed(self._form().diag)]
        return tuple(d for d in facs if d > 1)

    def exponent(self) -> int:
        """Largest invariant factor (1 for the trivial group)."""
        return self.modulus // self._form().diag[0]

    def contains(self, other: "RadicandGroup") -> bool:
        self._check_compatible(other)
        return all(self.member(g) for g in other.generators)

    def equals(self, other: "RadicandGroup") -> bool:
        """Group equality: containment and equal orders."""
        return self.contains(other) and self.order() == other.order()

    def join(self, extra_generators) -> "RadicandGroup":
        """The subgroup generated by this one and further vectors."""
        return RadicandGroup.spanned_by(
            self.modulus, self.dim, self.generators + tuple(extra_generators))

    def constant_subgroup_order(self) -> int:
        """Order of the intersection with the pure-constant line Z/M x 0 x ...

        With L V = (+)_j s_j Z for the lattice L of the group,
        (c, 0, ..., 0) is a member exactly when s_j | c * V[0][j] for all
        j, so the order is d = M / lcm_j(s_j / gcd(s_j, V[0][j])), and the
        Kummer field of the group has constants F_(q^d).
        """
        form = self._form()
        return self.modulus // lcm(*(s // gcd(s, col[0])
                                     for s, col in zip(form.diag, form.columns)))

    def image_order(self, weights) -> int:
        """Order of the image under v -> v . weights mod M, that is
        M / gcd(M, g . weights) over the generators g."""
        M = self.modulus
        nonzero = [(i, w) for i, w in enumerate(weights) if w % M]
        return M // gcd(M, *(sum(g[i] * w for i, w in nonzero)
                             for g in self.generators))


@lru_cache(maxsize=64)
def _lattice_form(modulus, dim, generators) -> LatticeForm:
    """The form of rowspace(generators) + modulus * Z^dim."""
    return smith_normal_form(generators or [(0,) * dim], modulus)


def enumerate_subgroup(group: RadicandGroup) -> frozenset:
    """All elements, at most 2^16, by closure from the generators; independent
    of the Smith-form machinery, intended as a brute-force oracle."""
    M, d = group.modulus, group.dim
    zero = (0,) * d
    seen = {zero}
    stack = [zero]
    while stack:
        cur = stack.pop()
        for g in group.generators:
            nxt = tuple((a + b) % M for a, b in zip(cur, g))
            if nxt not in seen:
                if len(seen) >= 1 << 16:
                    raise ValueError("subgroup too large to enumerate")
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)
