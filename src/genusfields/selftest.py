"""Reduced-size property suites, runnable as ``genusfields selftest``.

These re-run the package's main invariants on small random corpora:
discrete-log round trips (tabled, and by search above the table
limit), refactoring of random polynomials (over the field pool, and
over 3^9 and 2^14, whose odd-p and p = 2 arithmetic is untabled) and
of radicands of degree 25 to 50 over F_13, F_9 and F_8 (on byte-lane
rows), the subgroup engine against exhaustive enumeration, every
cross-check of ``report._audit`` on random extensions (the two
ramification formulas, the degree formula, the containment chain, the
constant field), the fixed-point property of the genus field
construction, and byte determinism of the JSON report.  The full-size versions live in the
test suite; this is a quick health check with no test dependencies.
"""

from __future__ import annotations

import random
from math import gcd, prod

from .errors import InternalCheckError
from .ffield import build_field
from .genus import as_descriptor, clement_genus_field, compare, rarzvi_genus_field
from .groups import RadicandGroup, enumerate_subgroup
from .intmath import divisors
from .kummer import KummerComponent, KummerDescriptor, embed_group, normalize
from .polyring import Poly, factor, is_irreducible
from .report import JobConfig, _audit, run

FIELD_POOL = ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1))

_FIELDS = {}


def pooled_field(p, f):
    key = (p, f)
    if key not in _FIELDS:
        _FIELDS[key] = build_field(p, f)
    return _FIELDS[key]


def random_monic(field, rng, max_deg):
    deg = rng.randint(0, max_deg)
    coeffs = [field.from_index(rng.randrange(field.q)) for _ in range(deg)]
    return Poly(field, coeffs + [field.one])


def random_descriptor(rng, field=None, max_components=3, max_deg=6):
    """A uniformly messy but always valid descriptor."""
    if field is None:
        field = pooled_field(*rng.choice(FIELD_POOL))
    q = field.q
    nontrivial = [d for d in divisors(q - 1) if d > 1]
    comps = []
    for _ in range(rng.randint(1, max_components)):
        gamma = field.from_index(rng.randrange(1, q))
        D = random_monic(field, rng, max_deg)
        if nontrivial and rng.random() >= 0.1:
            m = rng.choice(nontrivial)
        else:
            m = 1
        comps.append(KummerComponent(gamma, D, m))
    return KummerDescriptor(field, tuple(comps))


def random_group(rng, max_enum=1 << 12):
    """A random subgroup small enough to enumerate."""
    while True:
        modulus = rng.randint(2, 16)
        dim = rng.randint(1, 4)
        if modulus ** dim <= max_enum:
            break
    gens = [tuple(rng.randrange(modulus) for _ in range(dim))
            for _ in range(rng.randint(0, 3))]
    return RadicandGroup.spanned_by(modulus, dim, gens)


def torsion_counts_match(group, elems) -> bool:
    """The number of solutions of d*x = 0 determines the invariant
    factors; compare enumerated counts with the computed factorization."""
    M = group.modulus
    factors = group.invariant_factors()
    if prod(factors) != len(elems):
        return False
    for d in divisors(M):
        counted = sum(1 for x in elems if all((d * c) % M == 0 for c in x))
        if counted != prod(gcd(d, di) for di in factors):
            return False
    return True


# ---------------------------------------------------------------------------
# individual checks; each returns True on success

def check_dlog_roundtrip():
    for p, f in FIELD_POOL:
        field = pooled_field(p, f)
        g = field.g
        for x in field.elements():
            if x.is_zero():
                continue
            if g ** x.dlog() != x:
                return False
    return True


def check_dlog_search(rng, count=50):
    """Round trips above the table limit: on 2^16, where q - 1 = 3 * 5 * 17
    * 257 and the Pohlig-Hellman search splits, and on 2^17, where q - 1
    is prime and it is one baby-step giant-step search; and the log memo."""
    for p, f in ((2, 16), (2, 17)):
        field = build_field(p, f)
        g = field.g
        for _ in range(count):
            x = field.from_index(rng.randrange(1, field.q))
            # the second dlog of x is read from the memo the first one filled
            if g ** x.dlog() != x or g ** x.dlog() != x:
                return False
    return True


def check_inverse(rng, count=50):
    """Itoh-Tsujii inverses on 3^11, above the table limit: x * x^(-1) = 1
    and (x^(-1))^(-1) = x."""
    field = build_field(3, 11)
    for _ in range(count):
        x = field.from_index(rng.randrange(1, field.q))
        if x * x ** -1 != field.one or (field.one / x) ** -1 != x:
            return False
    return True


def _refactors(f, known, seed) -> bool:
    """f's factorization lists every polynomial of ``known``, and its
    factors are irreducible and multiply back to f."""
    try:
        found = factor(f, seed=seed)
    except InternalCheckError:   # a factor that fails its prime certificate
        return False
    product = Poly.one(f.field)
    for P, mult in found:
        if not is_irreducible(P.poly):
            return False
        product = product * P.poly ** mult
    return product == f and all(k in [P.poly for P, _ in found] for k in known)


def check_factor_refactors(rng, count=80, keys=FIELD_POOL, max_deg=8):
    """Each polynomial is a random multiple of a linear factor, which its
    factorization must list; the factors are irreducible and multiply back."""
    for _ in range(count):
        field = pooled_field(*rng.choice(keys))
        linear = Poly(field, [field.from_index(rng.randrange(field.q)), field.one])
        f = random_monic(field, rng, max_deg - 1) * linear
        if not _refactors(f, [linear], rng.randrange(1 << 30)):
            return False
    return True


def check_long_refactors(rng):
    """T^t - g times T + 1 over F_13, F_9 and F_8, factored on byte-lane
    rows.  T^t - g is irreducible because every prime factor of t divides
    the order q - 1 of the generator g, and q = 1 mod 4 when 4 | t
    (Lidl and Niederreiter, Theorem 3.75)."""
    for (p, f), t in (((13, 1), 24), ((3, 2), 32), ((2, 3), 49)):
        field = pooled_field(p, f)
        binomial = Poly(field, [-field.g] + [field.zero] * (t - 1) + [field.one])
        linear = Poly(field, [field.one, field.one])
        if not _refactors(binomial * linear, [binomial, linear], rng.randrange(1 << 30)):
            return False
    return True


def check_group_engine(rng, count=60):
    for _ in range(count):
        group = random_group(rng)
        elems = enumerate_subgroup(group)
        if group.order() != len(elems):
            return False
        if not torsion_counts_match(group, elems):
            return False
        for _ in range(10):
            vec = tuple(rng.randrange(group.modulus) for _ in range(group.dim))
            if group.member(vec) != (vec in elems):
                return False
    return True


def check_extension_pipeline(rng, count=40):
    for _ in range(count):
        desc = random_descriptor(rng)
        ext = normalize(desc)
        cl = clement_genus_field(ext)
        ra = rarzvi_genus_field(ext)
        try:
            _audit(ext, cl, ra, compare(ext, cl, ra))
        except InternalCheckError:
            return False
        redone = normalize(as_descriptor(cl))
        if not embed_group(redone.group, redone.basis, ext.basis).equals(cl.group):
            return False
    return True


def check_report_determinism(rng):
    field = pooled_field(5, 1)
    comps = (KummerComponent(field.const(2), Poly.from_ints(field, [0, 1, 2, 1]), 4),)
    config = JobConfig(field=field, components=comps, seed=7,
                       include_comparison=True, include_infinite=True)
    return run(config).to_json() == run(config).to_json()


def run_selftest(seed: int = 0, write=print) -> bool:
    rng = random.Random(seed)
    checks = [
        ("dlog round trip", check_dlog_roundtrip),
        ("dlog search round trip",
         lambda: check_dlog_search(random.Random(seed))),
        ("untabled inverse round trip", lambda: check_inverse(random.Random(seed))),
        ("factorization refactors", lambda: check_factor_refactors(rng)),
        ("untabled odd-p refactors",
         lambda: check_factor_refactors(random.Random(seed), 4, ((3, 9),), 5)),
        ("untabled p = 2 refactors",
         lambda: check_factor_refactors(random.Random(seed), 4, ((2, 14),), 5)),
        ("degree 25 to 50 refactors", lambda: check_long_refactors(random.Random(seed))),
        ("subgroup engine vs enumeration", lambda: check_group_engine(rng)),
        ("extension pipeline invariants", lambda: check_extension_pipeline(rng)),
        ("report determinism", lambda: check_report_determinism(rng)),
    ]
    all_ok = True
    for name, fn in checks:
        ok = fn()
        all_ok &= ok
        write(f"{'ok  ' if ok else 'FAIL'} {name}")
    write("selftest passed" if all_ok else "selftest FAILED")
    return all_ok
