"""Job streams for the benchmark workloads, as genusfields job text.

Each workload is a function ``rounds(seed)`` that yields rounds: lists of
job texts that the benchmark runs in order.  A run executes whole rounds
until its time is up, so every run sees the same balanced mix of job
shapes and its medians do not depend on where the clock ran out.

The generators use only this file and :mod:`random`; they never import
genusfields, so the program under test sees nothing but the job text.
Constants are written as integers on prime fields and as ``g^k`` on
extension fields, exactly as a user would write them.  No job text
repeats within one stream.
"""

from __future__ import annotations

import functools
import random

CORPUS_FIELDS = ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1))
LARGE_FIELDS = ((3, 10), (2, 16), (65537, 1), (2, 17), (3, 11))
WIDE_SLOTS = ((37, 8), (61, 9), (181, 10), (37, 12), (61, 11))


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def kummer_exponents(q: int) -> list[int]:
    """The m > 1 that divide q - 1."""
    return [d for d in divisors(q - 1) if d > 1]


# ---------------------------------------------------------------------------
# text rendering; an element is an int 0..p-1 on prime fields and a
# discrete log k (meaning g^k) or None (zero) on extension fields


def const_text(f: int, c) -> str:
    return str(c) if f == 1 else f"g^{c}"


def is_zero(f: int, c) -> bool:
    return c == 0 if f == 1 else c is None


def random_elem(rng: random.Random, p: int, f: int):
    q = p ** f
    if f == 1:
        return rng.randrange(p)
    k = rng.randrange(q)
    return None if k == q - 1 else k


def random_nonzero(rng: random.Random, p: int, f: int):
    return rng.randrange(1, p) if f == 1 else rng.randrange(p ** f - 1)


def monic_text(f: int, coeffs) -> str:
    """T^d + sum c_i T^i, coefficients constant term first, d = len(coeffs)."""
    d = len(coeffs)
    if d == 0:
        return "1"
    terms = ["T" if d == 1 else f"T^{d}"]
    for i in range(d - 1, -1, -1):
        c = coeffs[i]
        if is_zero(f, c):
            continue
        ct = const_text(f, c)
        if i == 0:
            terms.append(ct)
        else:
            terms.append(f"{ct}*{'T' if i == 1 else f'T^{i}'}")
    return "+".join(terms)


def job_text(p: int, f: int, components) -> str:
    """components: (gamma, monic coefficient list, m) triples."""
    lines = [f"field p={p} f={f}"]
    for gamma, coeffs, m in components:
        lines.append(f"component gamma={const_text(f, gamma)} "
                     f"D={monic_text(f, coeffs)} m={m}")
    return "\n".join(lines) + "\n"


def _unique(seen: set, make):
    """Call ``make()`` until it returns a text not yet in ``seen``."""
    for _ in range(1000):
        text = make()
        if text not in seen:
            seen.add(text)
            return text
    raise RuntimeError("job generator keeps repeating itself")


# ---------------------------------------------------------------------------
# corpus: drawn like the acceptance corpus of the test suite


def _corpus_job(rng: random.Random) -> str:
    p, f = rng.choice(CORPUS_FIELDS)
    ms = kummer_exponents(p ** f)
    comps = []
    for _ in range(rng.randint(1, 3)):
        gamma = random_nonzero(rng, p, f)
        coeffs = [random_elem(rng, p, f) for _ in range(rng.randint(0, 6))]
        m = rng.choice(ms) if rng.random() >= 0.1 else 1
        comps.append((gamma, coeffs, m))
    return job_text(p, f, comps)


def corpus(seed: int):
    rng = random.Random(seed)
    seen: set = set()
    while True:
        yield [_unique(seen, lambda: _corpus_job(rng)) for _ in range(10)]


# ---------------------------------------------------------------------------
# high_degree and large_field: radicands with a fixed factorization pattern
#
# Factoring cost depends on the degrees of the radicand's irreducible
# factors, which vary wildly between random polynomials of one degree.  So
# each slot of a round fixes its base radicands (a sparse trinomial, or a
# random polynomial drawn once from a fixed seed), and each job uses images
# of them under T -> T + a, a Frobenius twist of the coefficients
# (extension fields) and T -> cT, made monic again.  These maps preserve
# the factorization pattern, so the run's seed changes every radicand
# while the cost of a round stays comparable between seeds.  The sparse
# trinomial is T^d+T+1 over F_13 and T^d+g*T+g over F_9 and F_8:
# coefficients outside the prime field keep Frobenius from fixing it, so
# all q * (q - 1) * f images of every base are distinct.
#
# A round has an odd number of slots, chosen so that the median and the
# 90th percentile of a run's job times fall inside a group of jobs of
# similar cost rather than in a wide gap between two groups.

_BASE_SEED = 20240301
# (p, f, base radicands as ("sparse" | "random", degree), small components)
_HD_SLOTS = ((2, 3, [("sparse", 36)], 0), (13, 1, [("sparse", 24)], 0),
             (3, 2, [("sparse", 32)], 0), (2, 3, [("random", 32)], 1),
             (3, 2, [("random", 32)], 1))
_LF_SLOTS = tuple((p, f, [("random", 6)] * 2, 0) for p, f in LARGE_FIELDS)
# genusfields' presentation of the small extension fields, as its ffield
# module fixes it: the smallest monic irreducible modulus and the smallest
# generator, coefficients constant term first.  Translations T -> T + a on
# an extension field need its addition, so they are used only here.
_PRESENTATIONS = {(2, 3): ((1, 0, 1, 1), (0, 0, 1)),
                  (3, 2): ((1, 0, 1), (1, 1))}


def _bases(slots):
    rng = random.Random(_BASE_SEED)
    out = []
    for p, f, specs, _ in slots:
        zero = 0 if f == 1 else None
        # T^d+T+1 on prime fields, T^d+g*T+g (discrete logs 1) otherwise
        out.append([[1, 1] + [zero] * (d - 2) if kind == "sparse" else
                    [random_elem(rng, p, f) for _ in range(d)]
                    for kind, d in specs])
    return out


@functools.cache
def _log_table(p: int, f: int) -> dict:
    """Coordinate vector of g^k -> k, for a field in _PRESENTATIONS."""
    modulus, gen = _PRESENTATIONS[(p, f)]
    table, x = {}, (1,) + (0,) * (f - 1)
    for k in range(p ** f - 1):
        table[x] = k
        prod = [0] * (2 * f - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(gen):
                prod[i + j] = (prod[i + j] + a * b) % p
        for i in range(2 * f - 2, f - 1, -1):
            for j in range(f + 1):
                prod[i - f + j] = (prod[i - f + j] - prod[i] * modulus[j]) % p
        x = tuple(prod[:f])
    return table


def _translate(coeffs, a, p: int, f: int):
    """Lower coefficients of D(T + a), D monic with the given lower
    coefficients, by repeated synthetic division (Taylor shift).  On
    extension fields elements are discrete logs (None for zero)."""
    if f == 1:
        add = lambda x, y: (x + y) % p
        mul = lambda x, y: x * y % p
        c = list(coeffs) + [1]
    else:
        logs = _log_table(p, f)
        vec = {k: v for v, k in logs.items()}
        n = p ** f - 1

        def add(x, y):
            if x is None or y is None:
                return y if x is None else x
            return logs.get(tuple((s + t) % p for s, t in zip(vec[x], vec[y])))

        def mul(x, y):
            return None if x is None or y is None else (x + y) % n
        c = list(coeffs) + [0]
    m = len(c)
    for i in range(m):
        for j in range(m - 2, i - 1, -1):
            c[j] = add(c[j], mul(a, c[j + 1]))
    return c[:-1]


def _image(coeffs, p: int, f: int, variant) -> list:
    """Image of the monic radicand under T -> T + a, coefficient
    Frobenius x -> x^(p^j) and T -> cT (then made monic again)."""
    shift, frob, scale = variant
    d = len(coeffs)
    if shift is not None:
        coeffs = _translate(coeffs, shift, p, f)
    if f == 1:
        return [(a * pow(scale, i - d, p)) % p for i, a in enumerate(coeffs)]
    n = p ** f - 1
    return [None if k is None else (k * p ** frob + scale * (i - d)) % n
            for i, k in enumerate(coeffs)]


def _variant(rng: random.Random, used: set, p: int, f: int):
    """A map not in ``used`` yet; ``used`` starts over once all were used."""
    q = p ** f
    shifts = f == 1 or (p, f) in _PRESENTATIONS
    if len(used) >= (q if shifts else 1) * f * (q - 1):
        used.clear()
    while True:
        if f == 1:
            v = (rng.randrange(p), 0, rng.randrange(1, p))
        else:
            v = (random_elem(rng, p, f) if shifts else None,
                 rng.randrange(f), rng.randrange(q - 1))
        if v not in used:
            used.add(v)
            return v


def _pattern_rounds(seed: int, slots):
    rng = random.Random(seed)
    bases = _bases(slots)
    exponents = [kummer_exponents(p ** f) for p, f, *_ in slots]
    used = [set() for _ in slots]
    seen: set = set()
    while True:
        batch = []
        for slot, (p, f, _, nsmall) in enumerate(slots):
            ms = exponents[slot]
            bigs = [_image(b, p, f, _variant(rng, used[slot], p, f))
                    for b in bases[slot]]

            def make():
                comps = [(random_nonzero(rng, p, f), big, rng.choice(ms))
                         for big in bigs]
                for _ in range(nsmall):
                    small = [random_elem(rng, p, f)
                             for _ in range(rng.randint(1, 3))]
                    comps.append((random_nonzero(rng, p, f), small,
                                  rng.choice(ms)))
                return job_text(p, f, comps)
            batch.append(_unique(seen, make))
        yield batch


def high_degree(seed: int):
    """A few big radicands per round, over F_13, F_9 and F_8."""
    return _pattern_rounds(seed, _HD_SLOTS)


def large_field(seed: int):
    """One job per field per round: tabled and untabled, prime and
    extension fields."""
    return _pattern_rounds(seed, _LF_SLOTS)


# ---------------------------------------------------------------------------
# wide_basis: many components whose radicands share small prime factors


def _poly_mul(a, b, p):
    """Product of two monic polynomials over F_p, lower coefficients only."""
    a, b = list(a) + [1], list(b) + [1]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out[:-1]


def _wide_job(rng: random.Random, p: int, ncomp: int) -> str:
    ms = kummer_exponents(p)
    comps = []
    for _ in range(ncomp):
        D = []
        for _ in range(3):
            D = _poly_mul(D, [rng.randrange(p)
                              for _ in range(rng.randint(1, 2))], p)
        comps.append((rng.randrange(1, p), D, rng.choice(ms)))
    return job_text(p, 1, comps)


def wide_basis(seed: int):
    rng = random.Random(seed)
    seen: set = set()
    while True:
        yield [_unique(seen, lambda: _wide_job(rng, p, n))
               for p, n in WIDE_SLOTS]


WORKLOADS = {
    "corpus": corpus,
    "high_degree": high_degree,
    "large_field": large_field,
    "wide_basis": wide_basis,
}
