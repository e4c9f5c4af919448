"""Ring models of split orthogonal grassmannians and their annihilator quotients.

The maximal model on e_1..e_{N-1} (with e_i^2 = e_{2i}) has the square-free
monomial basis.  Multiplying by the canonical even-subring class and passing
to the quotient by its annihilator produces an exterior algebra on the odd
degrees 1, 3, ..., 2r-1; the analogous odd-case pipeline is reported with
all candidate readings side by side.
"""

import json

from chowlab.grassmann import (
    annihilator,
    class_xr_even,
    isochow_quotient,
    max_orth_ring,
    odd_case_pipeline,
    prev_max_orth_ring,
    prev_max_sigma,
    subring_basis,
    uniqueness_in_codim,
)
from chowlab.motives import essential_poincare
from chowlab.polynomials import PoincarePolynomial
from chowlab.suites import report_json

ring = max_orth_ring(4)
print(f"maximal model N=4: rank {ring.poincare().total}, poincare {ring.poincare().to_list()}")
print(f"  e1^2 = {ring.monomial({'e1': 2})},  e3^2 = {ring.monomial({'e3': 2})}")

ring, cls = class_xr_even(2)
print(f"\ncanonical class for r=2: {cls} in codimension {cls.homogeneous_degree()}")
print(f"unique nonzero even-subring class there: {uniqueness_in_codim(2)}")
ann = annihilator(cls, ring)
print(f"annihilator dimensions by degree: {[len(ann[d]) for d in range(ring.max_degree + 1)]}")

for r in (1, 2, 3):
    quotient = isochow_quotient(r)
    closed = PoincarePolynomial.exterior(2 * i - 1 for i in range(1, r + 1))
    motive = essential_poincare(2 * r, r)
    print(f"\nr={r}: quotient {quotient.to_list()}")
    print(f"      exterior algebra on 1,3,...,{2*r-1}: {closed.to_list()}  match={quotient == closed}")
    print(f"      motive recursion:                    {motive.to_list()}  match={quotient == motive}")

print("\nodd-case pipeline (previous-to-maximal model):")
e1 = prev_max_orth_ring(1).gen("e1")
print(f"  norm of e1: {e1 + prev_max_sigma(e1)}")
for r in (1, 2):
    report = odd_case_pipeline(r)
    print(f"  r={r}: {json.dumps(report_json(report), sort_keys=True)}")

ring6 = max_orth_ring(6)
print("\nthe even subring of the N=6 model in degree 6:",
      subring_basis(ring6, [ring6.gen("e2"), ring6.gen("e4")], 6))
