"""Exact linear algebra backends: GF(2) bitsets, integer lattices and Z/p kernels."""

import random

from chowlab.linalg import F2Span, ZSpan, f2_kernel, modp_kernel, z_kernel


def test_f2_span_membership_and_witness():
    rows = [0b011, 0b110]
    span = F2Span(rows)
    assert span.rank == 2
    wit = span.witness(0b101)
    assert wit is not None
    acc = 0
    for i in range(2):
        if (wit >> i) & 1:
            acc ^= rows[i]
    assert acc == 0b101
    assert not span.contains(0b001)


def test_f2_kernel_finds_dependencies():
    rows = [0b01, 0b10, 0b11]
    kern = f2_kernel(rows)
    assert kern == [0b111]


def test_zspan_membership_examples():
    # lattice spanned by a^2+b^2 and 2ab on the basis (a^2, ab, b^2)
    span = ZSpan([[1, 0, 1], [0, 2, 0]])
    assert span.contains([0, 2, 0])
    assert span.witness([0, 2, 0]) == [0, 1]
    assert not span.contains([0, 1, 0])  # parity obstruction
    assert span.contains([3, 4, 3])
    assert span.witness([3, 4, 3]) == [3, 2]


def test_zspan_gcd_pivots():
    span = ZSpan([[4, 0], [6, 1]])
    # gcd(4, 6) = 2 is reachable
    wit = span.witness([2, -1])
    assert wit is not None
    a, b = wit
    assert [4 * a + 6 * b, b] == [2, -1]
    assert not span.contains([1, 0])


def test_z_kernel_exactness():
    rows = [[1, 2], [2, 4], [1, 0]]
    kern = z_kernel(rows)
    assert len(kern) == 1
    x = kern[0]
    assert [sum(x[i] * rows[i][j] for i in range(3)) for j in range(2)] == [0, 0]
    # the dependency 2*r0 - r1 = 0 must be primitive (not a multiple)
    from math import gcd

    g = 0
    for v in x:
        g = gcd(g, v)
    assert g == 1


def test_z_kernel_random_consistency():
    rng = random.Random(7)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        span = ZSpan(rows)
        for x in span.kernel_vectors():
            combo = [sum(x[i] * rows[i][j] for i in range(nrows)) for j in range(ncols)]
            assert combo == [0] * ncols
        assert span.rank + len(span.kernel) == nrows
        # every row is trivially a member, with an exact witness
        for r in rows:
            wit = span.witness(r)
            assert wit is not None
            combo = [sum(wit[i] * rows[i][j] for i in range(nrows)) for j in range(ncols)]
            assert combo == r


def test_modp_kernel():
    basis = modp_kernel([[1, 1, 0], [0, 1, 1]], 2)
    assert len(basis) == 1
    v = basis[0]
    assert [(v[0] + v[1]) % 2, (v[1] + v[2]) % 2] == [0, 0]
    assert any(v)


def test_z_kernel_generates_all_small_solutions():
    # brute-force oracle: every kernel vector in a small coefficient box must
    # lie in the integer span of the computed kernel basis
    import itertools

    rng = random.Random(13)
    for _ in range(10):
        nrows, ncols = 3, 2
        rows = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)]
        basis = z_kernel(rows)
        basis_span = ZSpan(basis) if basis else None
        for x in itertools.product(range(-3, 4), repeat=nrows):
            combo = [sum(x[i] * rows[i][j] for i in range(nrows)) for j in range(ncols)]
            if combo == [0] * ncols:
                if not any(x):
                    continue
                assert basis_span is not None
                assert basis_span.contains(list(x)), (rows, x, basis)


def test_modp_kernel_over_a_prime_too_large_to_enumerate():
    # Z/p is looked up only where the elimination reads it, so a large prime
    # costs no p x p tables
    p = 1009
    rng = random.Random(1330)
    for nrows in range(1, 4):
        matrix = [[rng.randrange(-p, 2 * p) for _ in range(5)] for _ in range(nrows)]
        basis = modp_kernel(matrix, p)
        assert len(basis) == 5 - nrows  # a seeded draw of full rank
        free = [next(j for j in reversed(range(5)) if v[j]) for v in basis]
        for v, f in zip(basis, free):
            assert [v[g] for g in free] == [int(g == f) for g in free]
            assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in matrix)
