"""Kummer extensions of k = F_q(T), normalized to radicand vectors.

A descriptor lists components (gamma, D, m): gamma a nonzero constant,
D a monic polynomial, m a divisor of q - 1, one component per adjoined
m-th root of gamma * D.  `normalize` rewrites each component as a
plain integer row modulo M = q - 1 over ``ext.basis``, the sorted tuple
of the primes dividing any D.  :func:`radical_row` is the one builder of
that row format, here and in :mod:`genus`: entry 0 carries the discrete
log of the constant part, entry 1 + j the valuation at ``ext.basis[j]``,
and the whole row is (M / m) times that data, the class of
(gamma * D)^(M/m).  ``ext.rows`` holds one such row per component.  The
subgroup the rows span decides the degree, the Galois structure and
every containment question for the extension.

Ramification at a finite prime is tame here (m | q - 1), so its index is
the order of the group's image under the projection to that prime's
coordinate (`RadicandGroup.image_order`), read once per extension into
``ext.ramification``.  An oracle recomputes it componentwise over the
basis that `normalize` built, with its own valuations.  The valuation of
a radicand at the infinite place is -deg(D), so the index over 1/T is
the order of the image under the weights -deg P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .errors import InvalidDescriptorError
from .ffield import FqField, FqElem
from .groups import RadicandGroup
from .polyring import MonicIrreducible, Poly, factor, valuation


@dataclass(frozen=True)
class KummerComponent:
    """One adjoined radical: the m-th root of gamma * D."""

    gamma: FqElem
    D: Poly
    m: int


@dataclass(frozen=True)
class KummerDescriptor:
    """User-facing extension data; validates the Kummer conditions."""

    field: FqField
    components: tuple[KummerComponent, ...]

    def __post_init__(self):
        q = self.field.q
        for i, comp in enumerate(self.components, 1):
            if comp.gamma.field != self.field or comp.D.field != self.field:
                raise InvalidDescriptorError(
                    f"component {i}: constant or polynomial from a different field")
            if comp.gamma.is_zero():
                raise InvalidDescriptorError(f"component {i}: gamma must be nonzero")
            if not comp.D.is_monic():
                raise InvalidDescriptorError(f"component {i}: D must be monic")
            if comp.m < 1 or (q - 1) % comp.m != 0:
                raise InvalidDescriptorError(
                    f"component {i}: m = {comp.m} does not divide q - 1 = {q - 1}")


@dataclass(frozen=True)
class NormalizedExtension:
    """A validated descriptor together with its vector model."""

    descriptor: KummerDescriptor
    basis: tuple[MonicIrreducible, ...]   # sorted, duplicate-free
    rows: tuple[tuple[int, ...], ...]     # (const dlog, exps...) per component
    kept: tuple[int, ...]                 # indices of non-trivial components
    group: RadicandGroup
    n: int                                # exponent of the Galois group
    degenerate: bool                      # K = k

    @property
    def field(self) -> FqField:
        return self.descriptor.field

    @property
    def dropped(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.rows)) if i not in self.kept)

    def degree(self) -> int:
        return self.group.order()

    @cached_property
    def ramification(self) -> tuple[tuple[MonicIrreducible, int], ...]:
        """The ramified finite primes with their indices, computed once."""
        return ramification_indices(self)


def radical_row(M: int, dim: int, m: int, c_dlog: int, exponents=()):
    """Row of the m-th root of c * prod_j P_j^(a_j): (M / m) * (dlog c, a_0,
    a_1, ...) mod M, of length dim; ``exponents`` holds (j, a_j) pairs."""
    scale = M // m
    row = [scale * c_dlog % M] + [0] * (dim - 1)
    for j, a in exponents:
        row[1 + j] = scale * a % M
    return tuple(row)


def normalize(desc: KummerDescriptor, seed: int = 0) -> NormalizedExtension:
    """Factor the radicands, build the vector model and span the group.

    Each distinct radicand is factored once, and the primes of all of
    them, sorted and deduplicated, form ``basis``.  Components whose
    radicand is already an m-th power contribute the zero row; they are dropped
    from the generating set (their index appears in ``dropped``) and if
    nothing remains the extension is the base field itself, flagged
    ``degenerate``.
    """
    field = desc.field
    M = field.q - 1
    factored = {}
    for comp in desc.components:
        if comp.D.degree() > 0 and comp.D not in factored:
            factored[comp.D] = factor(comp.D, seed)
    primes = {P.sort_key: P for fac in factored.values() for P, _ in fac}
    basis = tuple(primes[k] for k in sorted(primes))

    dim = 1 + len(basis)
    rows = tuple(
        radical_row(M, dim, comp.m, field.dlog(comp.gamma),
                    [(basis.index(P), a) for P, a in factored.get(comp.D, ())])
        for comp in desc.components)
    kept = tuple(i for i, row in enumerate(rows) if any(row))
    group = RadicandGroup.spanned_by(M, dim, [rows[i] for i in kept])
    return NormalizedExtension(
        descriptor=desc, basis=basis, rows=rows, kept=kept,
        group=group, n=group.exponent(), degenerate=not kept)


def ramification_indices(ext: NormalizedExtension) -> tuple:
    """(P, e_P) pairs in basis order, e_P the order of the group's image
    under projection to the P-coordinate; primes with e_P = 1 are omitted."""
    dim = ext.group.dim
    entries = []
    for j, P in enumerate(ext.basis):
        e = ext.group.image_order([int(i == 1 + j) for i in range(dim)])
        if e > 1:
            entries.append((P, e))
    return tuple(entries)


def ramification_lcm_oracle(ext: NormalizedExtension) -> tuple:
    """Independent componentwise formula: e_P = lcm_i m_i / gcd(m_i, v_P(D_i)).

    Valuations by trial division at each prime of ``ext.basis``, not from
    the rows.  Inertia in a tame abelian compositum is cyclic of lcm
    order, so this must agree with :func:`ramification_indices`.
    """
    entries = []
    for P in ext.basis:
        e = 1
        for comp in ext.descriptor.components:
            v = valuation(comp.D, P) if comp.D.degree() > 0 else 0
            e = lcm(e, comp.m // gcd(comp.m, v))
        if e > 1:
            entries.append((P, e))
    return tuple(entries)


def infinite_ramification(ext: NormalizedExtension) -> int:
    """Ramification index over the infinite place of k.

    The valuation of a radicand gamma * D at infinity is -deg(D), so the
    image of the group under v -> -sum_P deg(P) * v_P determines the
    index, exactly as the finite projections do.
    """
    return ext.group.image_order([0] + [-P.deg for P in ext.basis])


# ---------------------------------------------------------------------------
# basis alignment, for comparing groups built over different prime sets

def embed_group(group: RadicandGroup, old_basis: tuple,
                new_basis: tuple) -> RadicandGroup:
    """Re-embed a group in a larger basis; missing coordinates are exact
    zeros because coordinates are valuation data."""
    positions = [1 + new_basis.index(P) for P in old_basis]
    dim = 1 + len(new_basis)
    gens = []
    for vec in group.generators:
        row = [0] * dim
        row[0] = vec[0]
        for old_j, new_j in enumerate(positions):
            row[new_j] = vec[1 + old_j]
        gens.append(tuple(row))
    return RadicandGroup.spanned_by(group.modulus, dim, gens)
