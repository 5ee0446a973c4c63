import random
from itertools import combinations
from math import gcd, lcm, prod

import pytest

from genusfields import RadicandGroup, enumerate_subgroup, smith_normal_form
from genusfields.groups import _lattice_form
from genusfields.intmath import divisors
from genusfields.selftest import random_group, torsion_counts_match


def determinant(matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    A = [list(map(int, row)) for row in matrix]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def minors_gcd(A, k) -> int:
    """gcd of all k x k minors of A."""
    rows, cols = range(len(A)), range(len(A[0]))
    return gcd(*(determinant([[A[i][j] for j in cs] for i in rs])
                 for rs in combinations(rows, k) for cs in combinations(cols, k)))


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 2]], 4).diag == (2, 2)
    assert smith_normal_form([[4, 2], [0, 4]], 16).diag == (2, 8)
    assert smith_normal_form([[0, 0], [0, 0]], 6).diag == (6, 6)
    with pytest.raises(ValueError):
        smith_normal_form([[0, 0], [0, 0]], 0)


def test_snf_transform_properties():
    # the form of L = rowspace(A) + M * Z^n: s_1 | ... | s_n | M, the s_j
    # are the invariant factors of L, and L V lies in (+)_j s_j Z
    rng = random.Random(11)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        M = rng.choice([1, 12, 60, 360, 5040, rng.randint(2, 400)])
        form = smith_normal_form(A, M)
        diag = form.diag
        assert len(diag) == len(form.columns) == n
        for a, b in zip(diag, diag[1:] + (M,)):
            assert b % a == 0
        # s_1 ... s_k is the gcd of the k x k minors of [A; M * I_n]
        stacked = A + [[M * (i == j) for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            assert prod(diag[:k]) == minors_gcd(stacked, k)
        # every row of the stack maps to 0 mod s_j under column j of V
        for row in stacked:
            for s, col in zip(diag, form.columns):
                assert len(col) == n and all(0 <= x < s for x in col)
                assert sum(a * x for a, x in zip(row, col)) % s == 0


def test_lattice_form_matches_stacked_lattice():
    # the Smith form of the generator rows alone, each entry replaced by
    # gcd(a_j, M), against the Smith form of the generators stacked on M * I
    rng = random.Random(17)
    for t in range(240):
        M = rng.choice([1, 2, 12, 60, 360, 720, 5040, rng.randint(2, 400)])
        d = rng.randint(1, 9)
        k = (0, d + rng.randint(1, 4), rng.randint(1, d))[t % 3]
        gens = tuple(tuple(rng.randrange(M) for _ in range(d)) for _ in range(k))
        stacked = [list(g) for g in gens] + [
            [M * (i == j) for j in range(d)] for i in range(d)]
        assert _lattice_form(M, d, gens).diag == smith_normal_form(stacked, M).diag


def test_member_examples():
    G = RadicandGroup.spanned_by(4, 2, [(2, 0), (0, 2)])
    assert G.member((2, 0))
    assert not G.member((1, 0))
    assert G.member((2, 2))


def test_order_examples():
    assert RadicandGroup.spanned_by(4, 2, [(0, 2)]).order() == 2
    assert RadicandGroup.spanned_by(4, 2, [(2, 0), (0, 2)]).order() == 4
    assert RadicandGroup.spanned_by(4, 2, []).order() == 1


def test_contains_examples():
    G = RadicandGroup.spanned_by(4, 2, [(2, 0), (0, 2)])
    assert G.contains(G)
    assert G.contains(RadicandGroup.spanned_by(4, 2, [(2, 2)]))
    assert not RadicandGroup.spanned_by(4, 2, [(0, 2)]).contains(
        RadicandGroup.spanned_by(4, 2, [(1, 0)]))


def test_invariant_factor_examples():
    assert RadicandGroup.spanned_by(4, 2, [(2, 0), (0, 2)]).invariant_factors() \
        == (2, 2)
    assert RadicandGroup.spanned_by(4, 3, [(1, 1, 2)]).invariant_factors() == (4,)
    assert RadicandGroup.spanned_by(4, 2, []).invariant_factors() == ()


def test_constant_subgroup_order_examples():
    assert RadicandGroup.spanned_by(4, 2, [(0, 2)]).constant_subgroup_order() == 1
    assert RadicandGroup.spanned_by(4, 1, [(2,)]).constant_subgroup_order() == 2
    assert RadicandGroup.spanned_by(6, 2, [(2, 0), (3, 3)]).constant_subgroup_order() == 3


def test_mismatch_errors():
    G = RadicandGroup.spanned_by(4, 2, [(2, 0)])
    with pytest.raises(ValueError):
        G.contains(RadicandGroup.spanned_by(4, 3, [(2, 0, 0)]))
    with pytest.raises(ValueError):
        G.contains(RadicandGroup.spanned_by(8, 2, [(2, 0)]))
    with pytest.raises(ValueError):
        G.member((1, 2, 3))


def element_order(vec, M):
    return M // gcd(M, *vec)


def test_engine_against_enumeration():
    rng = random.Random(12)
    for _ in range(150):
        G = random_group(rng)
        elems = enumerate_subgroup(G)
        assert G.order() == len(elems)
        assert torsion_counts_match(G, elems)
        assert G.exponent() == lcm(1, *(element_order(v, G.modulus) for v in elems))
        assert prod(G.invariant_factors()) == len(elems)
        for v in list(elems)[:8]:
            assert G.member(v)
        for _ in range(8):
            v = tuple(rng.randrange(G.modulus) for _ in range(G.dim))
            assert G.member(v) == (v in elems)
        # entries >= M and negative ones are read mod M
        for _ in range(8):
            v = tuple(rng.randrange(G.modulus) for _ in range(G.dim))
            shifted = tuple(x + G.modulus * rng.randint(-3, 3) for x in v)
            assert G.member(shifted) == (v in elems)


def test_contains_against_enumeration():
    rng = random.Random(13)
    for _ in range(80):
        M = rng.randint(2, 12)
        d = rng.randint(1, 3)
        A = RadicandGroup.spanned_by(
            M, d, [tuple(rng.randrange(M) for _ in range(d))
                   for _ in range(rng.randint(0, 3))])
        B = RadicandGroup.spanned_by(
            M, d, [tuple(rng.randrange(M) for _ in range(d))
                   for _ in range(rng.randint(0, 3))])
        ea, eb = enumerate_subgroup(A), enumerate_subgroup(B)
        assert A.contains(B) == (eb <= ea)
        assert A.equals(B) == (ea == eb)


def test_contains_is_partial_order():
    rng = random.Random(14)
    for _ in range(50):
        M = rng.randint(2, 10)
        d = rng.randint(1, 3)
        groups = [RadicandGroup.spanned_by(
            M, d, [tuple(rng.randrange(M) for _ in range(d))
                   for _ in range(rng.randint(0, 2))]) for _ in range(3)]
        A, B, C = groups
        assert A.contains(A)
        if A.contains(B) and B.contains(C):
            assert A.contains(C)
        if A.contains(B) and B.contains(A):
            assert A.equals(B)


def test_join_spans_union():
    rng = random.Random(15)
    for _ in range(40):
        G = random_group(rng)
        extra = [tuple(rng.randrange(G.modulus) for _ in range(G.dim))]
        joined = G.join(extra)
        assert joined.contains(G)
        assert joined.member(extra[0])


def test_image_order_against_enumeration():
    # the order of the image under v -> v . w mod M, for unit and
    # random weights, against the distinct images of every element
    rng = random.Random(18)
    for _ in range(120):
        G = random_group(rng)
        elems = enumerate_subgroup(G)
        M = G.modulus
        weights = [[int(i == j) for i in range(G.dim)] for j in range(G.dim)]
        weights += [[rng.randint(-2 * M, 2 * M) for _ in range(G.dim)]
                    for _ in range(4)]
        for w in weights:
            images = {sum(a * b for a, b in zip(v, w)) % M for v in elems}
            assert G.image_order(w) == len(images)


def test_constant_subgroup_order_against_enumeration():
    rng = random.Random(16)
    for _ in range(60):
        G = random_group(rng)
        elems = enumerate_subgroup(G)
        M = G.modulus
        best = 1
        for d in divisors(M):
            vec = (M // d,) + (0,) * (G.dim - 1)
            if vec in elems:
                best = max(best, d)
        assert G.constant_subgroup_order() == best
