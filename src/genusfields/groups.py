"""Finitely generated subgroups of (Z/M)^d, answered exactly.

A subgroup spanned by generator rows A is the image of the lattice
L = rowspace(A) + M * Z^d, and membership, order, containment,
invariant factors and the constant line are all lattice arithmetic over
Z on one form of L.  :func:`smith_normal_form` builds it: integer
elimination on the rows of A stacked over I_d gives A V = U^-1 diag(a),
with U and V unimodular, V the last d rows of the stack and a padded
with zeros to length d.  So L V = (+)_j (a_j Z + M Z) = (+)_j s_j Z with
s_j = gcd(a_j, M), where gcd(0, M) = M keeps the chain
s_1 | s_2 | ... | M.  The form keeps the s_j and each column of V
reduced mod its s_j.  That is exact: membership reads (v V)_j only mod
s_j, and the constant line only gcd(s_j, V[0][j]).  V's own entries
reach 81 bits on 60 jobs of the wide_basis benchmark.  Each group's form
is built once and cached, and the cache keeps the last 64 forms.

Pivoting is deterministic: the entry of smallest nonzero absolute
value, ties broken by row-major position.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul


# ---------------------------------------------------------------------------
# the lattice form

# L V = (+)_j s_j Z for the lattice L of a group: ``diag`` holds the s_j
# and ``columns[j]`` is column j of V reduced mod s_j
LatticeForm = namedtuple("LatticeForm", "diag columns")


def _find_pivot(S, t, m, n):
    best = None
    where = None
    for i in range(t, m):
        for j in range(t, n):
            a = S[i][j]
            if a != 0 and (best is None or abs(a) < best):
                best = abs(a)
                where = (i, j)
    return where


def smith_normal_form(matrix, modulus) -> LatticeForm:
    """The form of L = rowspace(matrix) + modulus * Z^n (see the module
    docstring).  The elimination runs on the m matrix rows stacked over
    I_n, so every column operation also builds V, the last n rows."""
    S = [list(map(int, row)) for row in matrix]
    m = len(S)
    n = len(S[0]) if m else 0
    if any(len(row) != n for row in S):
        raise ValueError("matrix rows must have equal length")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    S += [[int(i == j) for j in range(n)] for i in range(n)]

    def add_row(dst, src, mult):
        S[dst] = [a + mult * b for a, b in zip(S[dst], S[src])]

    def add_col(dst, src, mult):
        for row in S:
            row[dst] += mult * row[src]

    def swap_cols(i, j):
        if i != j:
            for row in S:
                row[i], row[j] = row[j], row[i]

    for t in range(min(m, n)):
        piv = _find_pivot(S, t, m, n)
        if piv is None:
            break
        while True:
            S[t], S[piv[0]] = S[piv[0]], S[t]
            swap_cols(t, piv[1])
            a = S[t][t]
            for i in range(t + 1, m):
                if S[i][t]:
                    add_row(i, t, -(S[i][t] // a))
            for j in range(t + 1, n):
                if S[t][j]:
                    add_col(j, t, -(S[t][j] // a))
            if any(S[i][t] for i in range(t + 1, m)) or \
               any(S[t][j] for j in range(t + 1, n)):
                piv = _find_pivot(S, t, m, n)
                continue
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % a != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
            piv = (t, t)

    diag = tuple(gcd(S[i][i] if i < m else 0, modulus) for i in range(n))
    return LatticeForm(diag, tuple(tuple(x % s for x in col)
                                   for s, col in zip(diag, zip(*S[m:]))))


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
        """Exact membership of a vector: (v V)_j must vanish mod s_j."""
        v = tuple(int(x) % self.modulus for x in vector)
        if len(v) != self.dim:
            raise ValueError(f"vector has length {len(v)}, expected {self.dim}")
        form = self._form()
        return all(sum(map(mul, v, col)) % s == 0
                   for s, col in zip(form.diag, form.columns))

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
        return M // gcd(M, *(sum(map(mul, g, weights)) for g in self.generators))


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
