"""The glued double projective-bundle ring and its unique monic relation.

Two rank-r bundle rings over a shared base are exchanged by an involution;
the invariant class c = a*b generates everything modulo norms, as a free
module on 1, c, ..., c^(r-1) over the base invariants, subject to the one
relation  sum_i (c_i c'_i) c^(r-i) = 0.  A mutated ring with the fake
relation a^r = 0 is rejected by the same checks.  ``build`` returns the
involution; its ``algebra`` is the ring.
"""

from chowlab.weil import (
    base_generation_check,
    build,
    freeness_check,
    product_relation_check,
    relation_element,
)

for r in (1, 2, 3):
    for coeff in ("Z", "F2"):
        sigma = build(r, coeff, D=2 * r + 4)
        print(f"rank r={r} over {coeff}:")
        print(f"  relation element: {relation_element(sigma.algebra)}")
        print(f"  relation lies in the norm module: {product_relation_check(sigma)}")
        report = freeness_check(sigma)
        print(f"  module spanning per degree: {report.spanning}")
        print(f"  freeness per degree:        {report.freeness}")
        print(f"  fake relation a^r = 0 rejected: {report.mutation_rejected}")
        base = base_generation_check(sigma)
        print(f"  base invariants generated by c_i*c'_i modulo norms: {base.passed}")
        print()

sigma = build(2, "Z", 8)
ring = sigma.algebra
print("normal form of a^2 over Z:", ring.monomial({"a": 2}))
print("its involution image:      ", sigma.apply(ring.monomial({"a": 2})))
