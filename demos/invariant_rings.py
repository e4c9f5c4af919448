"""Invariants of the pair-swap involution, and what generation modulo norms buys.

The ring is Z[a_1, b_1, ..., a_r, b_r] with the involution swapping each
a_i with b_i.  Working modulo the norm module (all m + sigma(m)), the
invariants are generated by the products a_i b_i alone; without norms the
degree-3 element a_1 a_2 a_3 + b_1 b_2 b_3 is a genuine obstruction over Z
that disappears as soon as 2 is invertible.
"""

from chowlab.invariants import (
    codim_le2_generation_check,
    invariant_basis,
    non_generation_witness,
    norm_image_basis,
    quotient_generation_check,
    swap_polynomial_ring,
)

ring, sigma = swap_polynomial_ring(r_pairs=2, k_fixed=0, coefficients="Z", truncation=6)

print("invariant basis in low degrees (r = 2):")
for d in range(1, 4):
    print(f"  degree {d}: {invariant_basis(sigma, d)}")

print("\nnorm module spanning set in degree 2:")
print(f"  {norm_image_basis(sigma, 2)}")

gens = [ring.gen("a1") * ring.gen("b1"), ring.gen("a2") * ring.gen("b2")]
report = quotient_generation_check(sigma, gens, max_degree=6)
print(f"\ngenerated modulo norms by a_i*b_i up to degree 6: {report.passed}")

for k_fixed in (0, 1):
    rep = codim_le2_generation_check(k_fixed, 3, 6, "Z")
    label = "with a fixed degree-1 variable" if k_fixed else "pairs only"
    print(f"generation by codimension <= 2 ({label}): {rep.passed}")

print("\nthe degree-3 obstruction over Z:")
witness = non_generation_witness()
print(f"  P = {witness.witness}")
print(f"  P in the ring generated by degree <= 2 invariants: {witness.witness_in_low_degree_span}")
print(f"  2P in that ring:                                   {witness.doubled_in_low_degree_span}")
print(f"  P lies in the norm module:                         {witness.witness_is_norm}")
