import random
from math import lcm

import pytest

from genusfields import (KummerComponent, KummerDescriptor, Poly, as_descriptor,
                         clement_genus_field, compare, embed_group, normalize,
                         ramification_indices, rarzvi_genus_field, render_const,
                         render_poly, signed_closed_form_agrees,
                         smith_normal_form, verify_degree_formula)
from genusfields.selftest import random_descriptor

from conftest import field

P = Poly.from_ints


def comp(fld, gamma, d_ints, m):
    return KummerComponent(fld.const(gamma), P(fld, d_ints), m)


def ext_of(fld, *comps):
    return normalize(KummerDescriptor(fld, tuple(comps)))


def compare_of(ext):
    return compare(ext, clement_genus_field(ext), rarzvi_genus_field(ext))


def closed_form_of(ext):
    return signed_closed_form_agrees(ext, rarzvi_genus_field(ext))


def test_clement_sqrt_T(F5):
    ext = ext_of(F5, comp(F5, 1, [0, 1], 2))
    gf = clement_genus_field(ext)
    assert gf.constant_degree == 2
    assert [(e, render_const(F5, c), render_poly(Q.poly))
            for e, c, Q in gf.radicals] == [(2, "1", "T")]
    assert gf.degree == 4
    assert gf.galois == (2, 2)
    assert gf.group.generators == ((2, 0), (0, 2))


def test_clement_quartic(F5):
    ext = ext_of(F5, comp(F5, 2, [0, 1, 2, 1], 4))
    gf = clement_genus_field(ext)
    assert gf.constant_degree == 4
    assert [(e, render_poly(Q.poly)) for e, _, Q in gf.radicals] == \
        [(4, "T"), (2, "T+1")]
    assert gf.degree == 32
    assert gf.galois == (2, 4, 4)


def test_clement_degenerate(F5):
    ext = ext_of(F5, comp(F5, 4, [1], 2))
    gf = clement_genus_field(ext)
    assert gf.constant_degree == 1 and gf.degree == 1
    assert gf.radicals == () and gf.galois == ()


def test_degree_formula_examples(F5):
    ext = ext_of(F5, comp(F5, 2, [0, 1, 2, 1], 4))
    assert verify_degree_formula(clement_genus_field(ext), ext)
    ext = ext_of(F5, comp(F5, 4, [1], 2))
    assert verify_degree_formula(clement_genus_field(ext), ext)
    # constant quadratic: no ramified primes, degree n alone
    ext = ext_of(F5, comp(F5, 2, [1], 2))
    gf = clement_genus_field(ext)
    assert gf.degree == 2
    assert verify_degree_formula(gf, ext)


def test_rarzvi_examples(F5, F7):
    # K = k(sqrt(-T)) = k(sqrt(4T)) over F_5: the signed generator is K's own
    ext = ext_of(F5, comp(F5, 4, [0, 1], 2))
    ra = rarzvi_genus_field(ext)
    assert ra.group.generators == ((0, 2),)
    assert ra.degree == 2
    assert ra.group.equals(ext.group)
    # same shape over F_7: dlog(6) = 3, group <(3,3)> mod 6
    ext7 = ext_of(F7, comp(F7, 6, [0, 1], 2))
    ra7 = rarzvi_genus_field(ext7)
    assert ra7.group.generators == ((3, 3),)
    assert ra7.degree == 2 and ra7.constant_degree == 1
    # K = k(sqrt T) over F_5: signed prime adds K's own generator again
    extT = ext_of(F5, comp(F5, 1, [0, 1], 2))
    assert rarzvi_genus_field(extT).group.equals(extT.group)


def test_compare_examples(F5, F7):
    rep = compare_of(ext_of(F5, comp(F5, 4, [0, 1], 2)))
    assert rep.k_in_rarzvi and rep.rarzvi_in_clement
    assert not rep.rarzvi_eq_clement
    assert rep.index_rarzvi_in_clement == 2
    rep7 = compare_of(ext_of(F7, comp(F7, 6, [0, 1], 2)))
    assert (rep7.degree_k, rep7.degree_rarzvi, rep7.degree_clement) == (2, 2, 4)
    rep_deg = compare_of(ext_of(F5, comp(F5, 4, [1], 2)))
    assert rep_deg.rarzvi_eq_clement and rep_deg.index_rarzvi_in_clement == 1


def test_as_descriptor_round_trip(F5):
    # F_25(T, sqrt T): constant part must be a root of g itself, since the
    # class of g has exact order d for every divisor d of q - 1
    ext = ext_of(F5, comp(F5, 1, [0, 1], 2))
    gf = clement_genus_field(ext)
    desc = as_descriptor(gf)
    assert [(render_const(F5, c.gamma), render_poly(c.D), c.m)
            for c in desc.components] == [("2", "1", 2), ("1", "T", 2)]
    redone = normalize(desc)
    assert embed_group(redone.group, redone.basis, ext.basis).equals(gf.group)


def test_as_descriptor_quartic(F5):
    ext = ext_of(F5, comp(F5, 2, [0, 1, 2, 1], 4))
    gf = clement_genus_field(ext)
    desc = as_descriptor(gf)
    assert [(render_const(F5, c.gamma), render_poly(c.D), c.m)
            for c in desc.components] == \
        [("2", "1", 4), ("1", "T", 4), ("1", "T+1", 2)]
    redone = normalize(desc)
    assert embed_group(redone.group, redone.basis, ext.basis).equals(gf.group)


def test_as_descriptor_degenerate(F5):
    gf = clement_genus_field(ext_of(F5, comp(F5, 4, [1], 2)))
    assert as_descriptor(gf).components == ()


def test_as_descriptor_requires_canonical(F5):
    ext = ext_of(F5, comp(F5, 1, [0, 1], 2))
    with pytest.raises(ValueError):
        as_descriptor(rarzvi_genus_field(ext))


def test_idempotence_random():
    rng = random.Random(31)
    for _ in range(60):
        ext = normalize(random_descriptor(rng))
        gf = clement_genus_field(ext)
        redone = normalize(as_descriptor(gf))
        aligned = embed_group(redone.group, redone.basis, ext.basis)
        assert aligned.equals(gf.group)
        again = clement_genus_field(redone)
        assert embed_group(again.group, redone.basis, ext.basis).equals(gf.group)


def test_galois_matches_abstract_structure():
    rng = random.Random(32)
    for _ in range(60):
        ext = normalize(random_descriptor(rng))
        gf = clement_genus_field(ext)
        sizes = [ext.n] + [e for _, e in ramification_indices(ext)]
        diag = [[sizes[i] if i == j else 0 for j in range(len(sizes))]
                for i in range(len(sizes))]
        abstract = tuple(d for d in smith_normal_form(diag, lcm(*sizes)).diag if d > 1)
        assert tuple(sorted(gf.galois)) == abstract


def test_chain_random():
    rng = random.Random(33)
    for _ in range(80):
        ext = normalize(random_descriptor(rng))
        cl = clement_genus_field(ext)
        ra = rarzvi_genus_field(ext)
        assert ra.group.contains(ext.group)
        assert cl.group.contains(ra.group)
        assert verify_degree_formula(cl, ext)
        assert cl.group.constant_subgroup_order() == ext.n


def test_rarzvi_eq_clement_matches_mutual_containment():
    # compare decides equality from the degrees; mutual containment is the
    # reference for that shortcut
    rng = random.Random(34)
    for _ in range(300):
        ext = normalize(random_descriptor(rng))
        cl = clement_genus_field(ext)
        ra = rarzvi_genus_field(ext)
        assert compare(ext, cl, ra).rarzvi_eq_clement == ra.group.equals(cl.group)


def test_closed_form_diagnostic(F5, F7):
    # gamma itself a non-square over F_7: the rewritten form drops the
    # non-square unit and lands in a different field
    assert closed_form_of(ext_of(F7, comp(F7, 3, [0, 1], 2))) is False
    # over F_5 the sign is a square, both constructions agree
    assert closed_form_of(ext_of(F5, comp(F5, 2, [0, 1], 2))) is True
    # not applicable when D is not irreducible
    assert closed_form_of(
        ext_of(F5, comp(F5, 2, [0, 1, 2, 1], 4))) is None
    # not applicable when a component is trivial
    assert closed_form_of(ext_of(F5, comp(F5, 4, [1], 2))) is None


def test_signed_prime_family_random():
    """For any prime l dividing q - 1 and monic irreducible P, the root of
    the signed prime has compositum equal to K and genus field of index l."""
    from genusfields.intmath import prime_factors
    from genusfields.polyring import is_irreducible as irr
    rng = random.Random(34)
    fields = [(5, 1), (7, 1), (13, 1), (3, 2), (2, 2), (2, 3)]
    done = 0
    while done < 40:
        fld = field(*rng.choice(fields))
        ells = prime_factors(fld.q - 1)
        if not ells:
            continue
        ell = rng.choice(ells)
        deg = rng.randint(1, 3)
        cand = Poly(fld, [fld.from_index(rng.randrange(fld.q))
                          for _ in range(deg)] + [fld.one])
        if not irr(cand):
            continue
        sign = (-fld.one) ** cand.degree()
        ext = ext_of(fld, KummerComponent(sign, cand, ell))
        ra = rarzvi_genus_field(ext)
        cl = clement_genus_field(ext)
        assert ra.group.equals(ext.group)
        M = fld.q - 1
        assert cl.group.equals(ext.group.join(
            [(M // ell,) + (0,) * (ext.group.dim - 1)]))
        assert cl.degree == ell * ext.degree()
        done += 1


def test_signed_prime_family_f5(F5):
    # K = k(sqrt((-1)^deg(T) * T)) = k(sqrt(4T)): compositum equals K,
    # the genus field adds exactly one constant of order 2
    ext = ext_of(F5, comp(F5, 4, [0, 1], 2))
    ra = rarzvi_genus_field(ext)
    cl = clement_genus_field(ext)
    assert ra.group.equals(ext.group)
    expected = ext.group.join([(2, 0)])
    assert cl.group.equals(expected)
    assert cl.degree == 2 * ext.degree()
    assert not ext.group.contains(cl.group)
