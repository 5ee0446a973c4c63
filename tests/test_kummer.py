import random
from math import gcd, lcm, prod

import pytest

from genusfields import (InvalidDescriptorError, KummerComponent,
                         KummerDescriptor, Poly, build_field,
                         infinite_ramification, kernel, normalize,
                         ramification_indices, ramification_lcm_oracle,
                         render_poly)
from genusfields.selftest import random_descriptor

P = Poly.from_ints


def comp(fld, gamma, d_ints, m):
    return KummerComponent(fld.const(gamma), P(fld, d_ints), m)


def ram_list(data):
    return [(render_poly(Q.poly), e) for Q, e in data]


def test_descriptor_validation(F5, F7):
    with pytest.raises(InvalidDescriptorError):
        KummerDescriptor(F5, (comp(F5, 1, [0, 1], 3),))     # 3 does not divide 4
    with pytest.raises(InvalidDescriptorError):
        KummerDescriptor(F5, (comp(F5, 0, [0, 1], 2),))     # gamma = 0
    with pytest.raises(InvalidDescriptorError):
        KummerDescriptor(F5, (comp(F5, 1, [0, 2], 2),))     # 2T is not monic
    with pytest.raises(InvalidDescriptorError):
        KummerDescriptor(F5, (KummerComponent(F7.one, P(F5, [0, 1]), 2),))


def test_normalize_sqrt_T(F5):
    ext = normalize(KummerDescriptor(F5, (comp(F5, 1, [0, 1], 2),)))
    assert [render_poly(Q.poly) for Q in ext.basis] == ["T"]
    assert ext.rows[0] == (0, 2)
    assert ext.n == 2 and ext.degree() == 2
    assert not ext.degenerate and ext.dropped == ()


def test_normalize_trivial_component(F5):
    ext = normalize(KummerDescriptor(F5, (comp(F5, 4, [1], 2),)))
    assert not any(ext.rows[0])
    assert ext.dropped == (0,)
    assert ext.degenerate
    assert ext.degree() == 1 and ext.n == 1


def test_normalize_quartic(F5):
    ext = normalize(KummerDescriptor(F5, (comp(F5, 2, [0, 1, 2, 1], 4),)))
    assert [render_poly(Q.poly) for Q in ext.basis] == ["T", "T+1"]
    assert ext.rows[0] == (1, 1, 2)
    assert ext.n == 4 and ext.degree() == 4
    assert [4 // gcd(4, *row) for row in ext.rows] == [4]


def test_empty_descriptor_is_degenerate(F5):
    ext = normalize(KummerDescriptor(F5, ()))
    assert ext.degenerate and ext.degree() == 1


def test_ramification_examples(F5):
    ext = normalize(KummerDescriptor(F5, (comp(F5, 1, [0, 1], 2),)))
    assert ram_list(ramification_indices(ext)) == [("T", 2)]
    ext = normalize(KummerDescriptor(F5, (comp(F5, 2, [0, 1, 2, 1], 4),)))
    assert ram_list(ramification_indices(ext)) == [("T", 4), ("T+1", 2)]
    ext = normalize(KummerDescriptor(F5, (comp(F5, 2, [1], 2),)))
    assert ram_list(ramification_indices(ext)) == []


def test_lcm_oracle_examples(F5):
    desc = KummerDescriptor(F5, (comp(F5, 1, [0, 1], 2),
                                 comp(F5, 1, [1, 0, 1], 4)))
    assert ram_list(ramification_lcm_oracle(normalize(desc))) == \
        [("T", 2), ("T+2", 4), ("T+3", 4)]
    desc = KummerDescriptor(F5, (comp(F5, 1, [0, 0, 1], 4),))   # T^2 under m=4
    assert ram_list(ramification_lcm_oracle(normalize(desc))) == [("T", 2)]
    desc = KummerDescriptor(F5, (comp(F5, 2, [2, 3, 1], 4),))   # squarefree D
    assert all(e == 4 for _, e in ramification_lcm_oracle(normalize(desc)))


def test_lcm_oracle_prepares_each_prime_once(monkeypatch):
    """One job of ten components over F_181, radicands of degree 6-12:
    the oracle prepares each basis prime once for all radicands, and
    agrees with the group's indices."""
    fld = build_field(181, 1)
    rng = random.Random(26)
    comps = [KummerComponent(fld.from_index(rng.randrange(1, 181)),
                             P(fld, [rng.randrange(181) for _ in range(d)] + [1]),
                             rng.choice([2, 3, 4, 6, 9, 10, 12, 20, 36, 180]))
             for d in rng.choices(range(6, 13), k=10)]
    ext = normalize(KummerDescriptor(fld, tuple(comps)))
    calls, prepare = [], kernel._divisor

    def counted(F, b, *args):
        calls.append(tuple(b))
        return prepare(F, b, *args)
    monkeypatch.setattr(kernel, "_divisor", counted)
    assert ramification_lcm_oracle(ext) == ramification_indices(ext)
    assert len(ext.basis) >= 20
    assert sorted(calls) == sorted(Q.poly.codes for Q in ext.basis)


def test_infinite_ramification_examples(F5):
    ext = normalize(KummerDescriptor(F5, (comp(F5, 1, [0, 1], 2),)))
    assert infinite_ramification(ext) == 2
    ext = normalize(KummerDescriptor(F5, (comp(F5, 1, [0, 1, 1], 2),)))
    assert infinite_ramification(ext) == 1
    ext = normalize(KummerDescriptor(F5, (comp(F5, 2, [1], 2),)))
    assert infinite_ramification(ext) == 1


def test_infinite_ramification_oracle_random():
    # v_inf(gamma * D) = -deg D, and tame inertia has lcm order
    rng = random.Random(24)
    for _ in range(400):
        desc = random_descriptor(rng)
        expected = lcm(1, *(c.m // gcd(c.m, c.D.degree())
                            for c in desc.components))
        assert infinite_ramification(normalize(desc)) == expected


def test_oracle_equivalence_random():
    rng = random.Random(20)
    for _ in range(150):
        ext = normalize(random_descriptor(rng))
        assert ramification_indices(ext) == ramification_lcm_oracle(ext)


def test_divisibility_invariants():
    rng = random.Random(21)
    for _ in range(80):
        desc = random_descriptor(rng)
        ext = normalize(desc)
        q = desc.field.q
        assert (q - 1) % ext.n == 0
        for _, e in ramification_indices(ext):
            assert ext.n % e == 0
        M = q - 1
        assert ext.n == lcm(1, *(M // gcd(M, *row) for row in ext.rows))
        factors = ext.group.invariant_factors()
        assert prod(factors) == ext.degree()
        assert (max(factors) if factors else 1) == ext.n


def test_component_permutation_invariance():
    rng = random.Random(22)
    for _ in range(40):
        desc = random_descriptor(rng, max_components=3)
        if len(desc.components) < 2:
            continue
        shuffled = list(desc.components)
        rng.shuffle(shuffled)
        a = normalize(desc)
        b = normalize(KummerDescriptor(desc.field, tuple(shuffled)))
        assert a.group.equals(b.group)


def test_radicand_scaling_by_mth_power_of_constant():
    rng = random.Random(23)
    for _ in range(40):
        desc = random_descriptor(rng)
        fld = desc.field
        comps = list(desc.components)
        i = rng.randrange(len(comps))
        c = fld.from_index(rng.randrange(1, fld.q))
        old = comps[i]
        comps[i] = KummerComponent(old.gamma * c ** old.m, old.D, old.m)
        a = normalize(desc)
        b = normalize(KummerDescriptor(fld, tuple(comps)))
        assert a.group.equals(b.group)


def test_dropping_trivial_component_keeps_group(F5):
    base = KummerDescriptor(F5, (comp(F5, 2, [0, 1], 4),))
    padded = KummerDescriptor(F5, (comp(F5, 2, [0, 1], 4),
                                   comp(F5, 4, [1], 2)))
    a, b = normalize(base), normalize(padded)
    assert b.dropped == (1,)
    assert a.group.equals(b.group)


def test_shared_primes_across_components(F13):
    # both components meet at T; the group model absorbs the overlap
    desc = KummerDescriptor(F13, (comp(F13, 1, [0, 1], 4),
                                  comp(F13, 1, [0, 0, 1], 3)))
    ext = normalize(desc)
    assert len(ext.basis) == 1
    assert ram_list(ramification_indices(ext)) == [("T", 12)]
    assert ramification_lcm_oracle(ext) == ramification_indices(ext)


def test_perfect_power_component_is_trivial(F13):
    # T^3 under a cube root lies in k already
    desc = KummerDescriptor(F13, (comp(F13, 1, [0, 1], 4),
                                  comp(F13, 1, [0, 0, 0, 1], 3)))
    ext = normalize(desc)
    assert ext.dropped == (1,)
    assert ram_list(ramification_indices(ext)) == [("T", 4)]
    assert ramification_lcm_oracle(ext) == ramification_indices(ext)


def test_normalize_computes_each_sort_key_once(F7, monkeypatch):
    import genusfields.polyring as polyring_mod
    calls = []
    real = polyring_mod.poly_sort_key
    monkeypatch.setattr(polyring_mod, "poly_sort_key",
                        lambda poly: calls.append(poly) or real(poly))
    # T(T+1)(T+2), T^2(T+3), and T(T+1)(T+2) again, which is factored once
    D1, D2 = [0, 2, 3, 1], [0, 0, 3, 1]
    normalize(KummerDescriptor(F7, (comp(F7, 1, D1, 2), comp(F7, 3, D2, 3),
                                    comp(F7, 2, D1, 6))))
    assert len(calls) == 3 + 2   # one per (radicand, prime) pair
