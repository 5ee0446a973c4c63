"""Acceptance suite: every criterion is exact (tolerance none) and prints
one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The shared corpus draws at least 200 random valid descriptors over
q in {3, 4, 5, 7, 8, 9, 13} with up to 3 components, deg D <= 6 and
m dividing q - 1, all from a fixed seed.
"""

import random
import time
from math import prod

import pytest

from genusfields import (JobConfig, KummerComponent, KummerDescriptor, Poly,
                         clement_genus_field, embed_group, enumerate_subgroup,
                         normalize, ramification_indices,
                         ramification_lcm_oracle, rarzvi_genus_field, run)
from genusfields.cli import main
from genusfields.selftest import random_descriptor, random_group, \
    torsion_counts_match

from conftest import brute_force_factor, field

CORPUS_SIZE = 220
ENUM_LIMIT = 1 << 16


def _report(num, text, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260808)
    out = []
    for _ in range(CORPUS_SIZE):
        desc = random_descriptor(rng, max_components=3, max_deg=6)
        out.append((desc, normalize(desc)))
    return out


def test_criterion_01_degree_formula(corpus):
    start = time.monotonic()
    ok = True
    for _, ext in corpus:
        gf = clement_genus_field(ext)
        expected = ext.n * prod(e for _, e in ramification_indices(ext))
        ok &= gf.group.order() == expected
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _report(1, f"degree = n * prod(e_P) on {len(corpus)} descriptors "
               f"({elapsed:.2f}s)", ok)


def test_criterion_02_literal_radical_list(corpus):
    ok = True
    for _, ext in corpus:
        fld = ext.field
        gf = clement_genus_field(ext)
        comps = []
        if ext.n > 1:
            comps.append(KummerComponent(fld.g, Poly.one(fld), ext.n))
        for P, e in ramification_indices(ext):
            comps.append(KummerComponent(fld.one, P.poly, e))
        literal = normalize(KummerDescriptor(fld, tuple(comps)))
        aligned = embed_group(literal.group, literal.basis, ext.basis)
        ok &= aligned.equals(gf.group)
    _report(2, "genus group equals the span of the literal radical list", ok)


def test_criterion_03_containment_chain(corpus):
    ok = True
    for _, ext in corpus:
        cl = clement_genus_field(ext)
        ra = rarzvi_genus_field(ext)
        ok &= ra.group.contains(ext.group) and cl.group.contains(ra.group)
    _report(3, "K-group within rarzvi-group within clement-group", ok)


def test_criterion_04_idempotence(corpus):
    from genusfields import as_descriptor
    ok = True
    for _, ext in corpus:
        gf = clement_genus_field(ext)
        redone = normalize(as_descriptor(gf))
        ok &= embed_group(redone.group, redone.basis, ext.basis).equals(gf.group)
        ok &= embed_group(clement_genus_field(redone).group, redone.basis,
                          ext.basis).equals(gf.group)
    _report(4, "genus field construction is its own fixed point", ok)


def test_criterion_05_constant_field(corpus):
    ok = True
    for _, ext in corpus:
        ok &= clement_genus_field(ext).group.constant_subgroup_order() == ext.n
    _report(5, "constant subgroup of the genus group has order n", ok)


def test_criterion_06_signed_prime_family():
    start = time.monotonic()
    cases = [
        (5, 1, 2, [0, 1]),
        (7, 1, 2, [0, 1]),
        (13, 1, 2, [0, 1]),
        (13, 1, 3, [0, 1]),
        (7, 1, 2, [3, 1, 1]),   # T^2 + T + 3, irreducible over F_7
    ]
    ok = True
    for p, f, ell, d_ints in cases:
        fld = field(p, f)
        D = Poly.from_ints(fld, d_ints)
        sign = (-fld.one) ** D.degree()
        ext = normalize(KummerDescriptor(
            fld, (KummerComponent(sign, D, ell),)))
        cl = clement_genus_field(ext)
        ra = rarzvi_genus_field(ext)
        M = fld.q - 1
        ok &= ra.group.equals(ext.group)
        with_const = ext.group.join([(M // ell,) + (0,) * (ext.group.dim - 1)])
        ok &= cl.group.equals(with_const)
        ok &= cl.degree == ell * ext.degree()
        ok &= cl.degree // ra.degree == ell
        ok &= not ext.group.contains(cl.group)   # proper containment
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _report(6, f"signed-prime radicals: rarzvi = K strictly inside clement, "
               f"index l ({elapsed:.2f}s)", ok)


def test_criterion_07_ramification_oracles(corpus):
    ok = True
    checked_small = 0
    for desc, ext in corpus:
        ok &= ramification_indices(ext) == ramification_lcm_oracle(ext)
        M, dim = ext.group.modulus, ext.group.dim
        if M ** dim <= ENUM_LIMIT:
            checked_small += 1
            elems = enumerate_subgroup(ext.group)
            by_prime = {P: e for P, e in ramification_indices(ext)}
            for j, P in enumerate(ext.basis):
                image = {v[1 + j] for v in elems}
                ok &= len(image) == by_prime.get(P, 1)
    ok &= checked_small > 0
    _report(7, f"projection and lcm ramification formulas agree "
               f"({checked_small} cases re-checked by enumeration)", ok)


def test_criterion_08_group_engine_oracle():
    rng = random.Random(4242)
    ok = True
    for i in range(520):
        cap = ENUM_LIMIT if i % 10 == 0 else 1 << 12
        G = random_group(rng, max_enum=cap)
        elems = enumerate_subgroup(G)
        ok &= G.order() == len(elems)
        ok &= torsion_counts_match(G, elems)
        for _ in range(6):
            v = tuple(rng.randrange(G.modulus) for _ in range(G.dim))
            ok &= G.member(v) == (v in elems)
        other = G.__class__.spanned_by(
            G.modulus, G.dim,
            [tuple(rng.randrange(G.modulus) for _ in range(G.dim))
             for _ in range(rng.randint(0, 2))])
        ok &= G.contains(other) == (enumerate_subgroup(other) <= elems)
    _report(8, "member/order/contains/invariant factors match enumeration "
               "on 520 random subgroups", ok)


def test_criterion_09_factorization():
    from genusfields import factor, is_irreducible
    start = time.monotonic()
    rng = random.Random(99)
    pool = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1)]
    ok = True
    for _ in range(1000):
        fld = field(*rng.choice(pool))
        deg = rng.randint(1, 12)
        poly = Poly(fld, [fld.from_index(rng.randrange(fld.q))
                          for _ in range(deg)] + [fld.one])
        scale = fld.from_index(rng.randrange(1, fld.q))
        poly = Poly(fld, [c * scale for c in poly.coeffs])
        product = Poly(fld, [scale])
        for Q, mult in factor(poly, seed=rng.randrange(1 << 30)):
            ok &= is_irreducible(Q.poly)
            product = product * Q.poly ** mult
        ok &= product == poly
    for _ in range(150):
        fld = field(*rng.choice(pool))
        deg = rng.randint(1, 3)
        poly = Poly(fld, [fld.from_index(rng.randrange(fld.q))
                          for _ in range(deg)] + [fld.one])
        got = [(Q.poly, m) for Q, m in factor(poly, seed=7)]
        ok &= got == brute_force_factor(poly)
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    _report(9, f"1000 refactoring checks plus all-divisor oracle at low degree "
               f"({elapsed:.2f}s)", ok)


def test_criterion_10_determinism(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text("field p=13 f=1\n"
                   "component gamma=12 D=T m=3\n"
                   "component gamma=2 D=T^2+1 m=4\n", encoding="utf-8")
    outs = []
    for i in range(2):
        dest = tmp_path / f"run{i}.json"
        code = main(["compute", "--format", "json", "--seed", "11",
                     "--infinite", "--output", str(dest), str(job)])
        outs.append((code, dest.read_bytes()))
    ok = outs[0] == outs[1] and outs[0][0] == 0
    fld = field(13, 1)
    config = JobConfig(field=fld, components=(
        KummerComponent(fld.const(12), Poly.from_ints(fld, [0, 1]), 3),),
        seed=11, include_comparison=True)
    ok &= run(config).to_json() == run(config).to_json()
    _report(10, "byte-identical JSON for identical config and seed", ok)
