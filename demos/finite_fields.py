"""Finite-field oracles: Witt index doubling and point counts against polynomials.

Every statement the symbolic layers prove at the ring or motive level is
checked here over F_4/F_2 and F_9/F_3: the quadratic form h(v, v) has
twice the hermitian Witt index (a subspace search over F_{p^2} against
hyperbolic splitting over F_p), and the number of isotropic subspaces,
found by enumeration, equals the essential-motive polynomial at q = p.
"""

import itertools

from chowlab.finitefields import (
    PrimeField,
    QuadExtField,
    QuadraticSpace,
    count_isotropic,
    count_singular,
    hermitian_space,
    jacobson_check,
    orth_count_polynomial,
    trace_quadratic,
    witt_index_hermitian,
    witt_index_quadratic,
)
from chowlab.motives import essential_poincare

K = QuadExtField(PrimeField(3))
print(f"quadratic extension of F_3: modulus t^2 + {K.b}t + {K.c}")
print(f"norms of the nonzero elements: {sorted({K.norm(x) for x in K.elements() if x})}")

print("\nWitt index doubling, all diagonal forms with entries in F_p^*:")
for p in (2, 3):
    for n in (1, 2, 3, 4):
        for diag in itertools.product(range(1, p), repeat=n):
            H = hermitian_space(p, diag)
            ih = witt_index_hermitian(H)
            iq = witt_index_quadratic(trace_quadratic(H))
            assert iq == 2 * ih
    print(f"  p={p}: i(q) = 2 i(h) for every diagonal form with n <= 4")

print("\nisotropic subspace counts vs the motive polynomial at q = p:")
for p in (2, 3):
    for n in (2, 3, 4):
        H = hermitian_space(p, [1] * n)
        for r in range(1, n // 2 + 1):
            count = count_isotropic(H, r)
            predicted = essential_poincare(n, r)(p)
            print(f"  p={p} n={n} r={r}: count={count} predicted={predicted}")
            assert count == predicted

print("\nsplit orthogonal counts vs the product polynomial:")
for N in (2, 3):
    Q = QuadraticSpace.split(PrimeField(2), N)
    for m in (1, N):
        print(
            f"  2N={2*N} m={m}: enumerated {count_singular(Q, m)}, "
            f"polynomial value {orth_count_polynomial(N, m)(2)}"
        )

print("\nJacobson correspondence on a non-square rescaling:")
print(f"  <1,1> vs <1,2> over F_9/F_3: {jacobson_check(hermitian_space(3, [1, 1]), hermitian_space(3, [1, 2]))}")
