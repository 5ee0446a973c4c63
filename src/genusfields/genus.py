"""Extended genus fields of a Kummer extension, two constructions.

``clement_genus_field`` builds the field obtained by extending the
constants to degree n (the exponent of the Galois group) and adjoining
an e_P-th root of every ramified prime P, where e_P is the ramification
index.  Its degree over the base is n times the product of the e_P, and
that identity is checked exactly on every run.

``rarzvi_genus_field`` composites the extension itself with roots of
the signed primes (-1)^(deg P) * P, one per ramified prime.  It always
sits between the extension and the clement field; the comparison
machinery reports the containments and the degree index.

Both constructions live in the same radicand-vector lattice as the
extension, so containment is an exact subgroup question, and nested
finite groups are equal exactly when their orders (degrees) are.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .ffield import FqField, FqElem
from .groups import RadicandGroup
from .kummer import (KummerComponent, KummerDescriptor, NormalizedExtension,
                     radical_row)
from .polyring import MonicIrreducible, Poly


@dataclass(frozen=True)
class GenusField:
    """A constructed genus field: constant extension degree plus radicals.

    ``radicals`` entries (e, c, P) mean the e-th root of c * P is
    adjoined.  For the compositum construction the radical list is not
    canonical and is left empty; the group is always authoritative.
    """

    field: FqField
    constant_degree: int
    radicals: tuple[tuple[int, FqElem, MonicIrreducible], ...]
    group: RadicandGroup
    degree: int
    galois: tuple[int, ...]
    canonical: bool


@dataclass(frozen=True)
class ComparisonReport:
    k_in_rarzvi: bool
    rarzvi_in_clement: bool
    rarzvi_eq_clement: bool
    index_rarzvi_in_clement: int
    degree_k: int
    degree_rarzvi: int
    degree_clement: int


def _sign_dlog(field: FqField) -> int:
    """dlog of -1: zero in characteristic 2, (q - 1) / 2 otherwise."""
    return 0 if field.p == 2 else (field.q - 1) // 2


def clement_genus_field(ext: NormalizedExtension) -> GenusField:
    """The extended genus field: constants of degree n, plus an e_P-th
    root of each ramified prime.  Degenerate extensions give the base
    field back (n = 1, no radicals, degree 1)."""
    field = ext.field
    M = ext.group.modulus
    dim = ext.group.dim
    n = ext.n

    # the n-th root of g gives the constants of degree n; at n = 1 the row
    # is zero and spanned_by drops it
    gens = [radical_row(M, dim, n, 1)]
    radicals = []
    for P, e in ext.ramification:
        radicals.append((e, field.one, P))
        gens.append(radical_row(M, dim, e, 0, [(ext.position[P], 1)]))
    group = RadicandGroup.spanned_by(M, dim, gens)
    return GenusField(field=field, constant_degree=n,
                      radicals=tuple(radicals), group=group,
                      degree=group.order(), galois=group.invariant_factors(),
                      canonical=True)


def verify_degree_formula(gf: GenusField, ext: NormalizedExtension) -> bool:
    """Exact check that the genus field degree is n times the product of
    the ramification indices."""
    return gf.group.order() == ext.n * prod(e for _, e in ext.ramification)


def rarzvi_genus_field(ext: NormalizedExtension) -> GenusField:
    """Compositum of the extension with the e_P-th roots of the signed
    primes (-1)^(deg P) * P over the ramified primes."""
    field = ext.field
    M = ext.group.modulus
    dim = ext.group.dim
    sign = _sign_dlog(field)
    gens = [radical_row(M, dim, e, P.deg * sign, [(ext.position[P], 1)])
            for P, e in ext.ramification]
    group = ext.group.join(gens)
    return GenusField(field=field,
                      constant_degree=group.constant_subgroup_order(),
                      radicals=(), group=group, degree=group.order(),
                      galois=group.invariant_factors(), canonical=False)


def compare(ext: NormalizedExtension, cl: GenusField,
            ra: GenusField) -> ComparisonReport:
    """Containments and degrees of extension, compositum ``ra`` and
    genus field ``cl``.

    All three groups live over the extension's own prime basis, so the
    subgroup engine answers both containments directly; equality is
    then equality of degrees, since nested finite groups of equal order
    coincide.
    """
    k_in_r = ra.group.contains(ext.group)
    r_in_c = cl.group.contains(ra.group)
    eq = r_in_c and ra.degree == cl.degree
    index = cl.degree // ra.degree if r_in_c else 0
    return ComparisonReport(
        k_in_rarzvi=k_in_r, rarzvi_in_clement=r_in_c, rarzvi_eq_clement=eq,
        index_rarzvi_in_clement=index, degree_k=ext.group.order(),
        degree_rarzvi=ra.degree, degree_clement=cl.degree)


def as_descriptor(gf: GenusField) -> KummerDescriptor:
    """Express a genus field as a Kummer descriptor of its own.

    The constant extension of degree d is cut out by a d-th root of the
    canonical generator g (whose radicand class has exact order d for
    every divisor d of q - 1), and each radical (e, 1, P) becomes the
    component (1, P, e).  Normalizing the result reproduces the group
    exactly, which makes the genus field construction a fixed point.
    """
    if not gf.canonical:
        raise ValueError("only the canonical radical form can be re-described")
    field = gf.field
    comps = []
    if gf.constant_degree > 1:
        comps.append(KummerComponent(field.g, Poly.one(field), gf.constant_degree))
    for e, c, P in gf.radicals:
        comps.append(KummerComponent(c, P.poly, e))
    return KummerDescriptor(field, tuple(comps))


def signed_closed_form_agrees(ext: NormalizedExtension, ra: GenusField):
    """Diagnostic for the rewritten form of the compositum ``ra``.

    When every non-trivial component adjoins a root of gamma_i * P_i
    with the P_i distinct irreducibles that are exactly the ramified
    primes, the compositum can also be written with constants
    eps_i = (-1)^(deg P_i) * gamma_i split off the primes.  Returns True
    or False when that rewriting is well-defined (it does not always
    produce the same field), or None when it is not applicable.
    """
    desc = ext.descriptor
    field = ext.field
    M = ext.group.modulus
    dim = ext.group.dim
    ram = ext.ramification
    kept_comps = [desc.components[i] for i in ext.kept]
    if not kept_comps or len(kept_comps) != len(ram):
        return None
    ram_by_poly = {P.poly: (P, e) for P, e in ram}
    if {c.D for c in kept_comps} != set(ram_by_poly):
        return None

    sign = _sign_dlog(field)
    gens = []
    for comp in kept_comps:
        P, e = ram_by_poly[comp.D]
        eps_dlog = field.dlog(comp.gamma) + P.deg * sign
        gens.append(radical_row(M, dim, e, eps_dlog))
        gens.append(radical_row(M, dim, e, 0, [(ext.position[P], 1)]))
    closed = RadicandGroup.spanned_by(M, dim, gens)
    return closed.equals(ra.group)
