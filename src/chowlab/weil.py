"""Split model of a quadratic Weil transfer of a projective bundle.

Two rank-r projective-bundle rings over a common base are glued by the
involution swapping the two factors; the distinguished degree-2 class is
c = a*b.  The checks verify that modulo the norm module the invariants form
a free module on 1, c, ..., c^(r-1) over the base invariants, with the
single monic relation sum_i c_i c'_i c^(r-i) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AlgebraPresentation, Element, GeneratorSpec
from .errors import UsageError
from .invariants import (
    SwapInvolution,
    generator_products,
    norm_image_basis,
    quotient_generation_check,
    uncovered_invariant,
)


@dataclass(frozen=True)
class DoubleBundleRing:
    """The glued double projective-bundle presentation with its swap involution."""

    r: int
    coefficients: str
    D: int
    ring: AlgebraPresentation = field(compare=False)
    base: AlgebraPresentation = field(compare=False)
    sigma: SwapInvolution = field(compare=False)
    base_sigma: SwapInvolution = field(compare=False)

    def c(self) -> Element:
        return self.ring.gen("a") * self.ring.gen("b")

    def chern_pair(self, i: int) -> Element:
        """The invariant product c_i * c'_i (1 for i = 0)."""
        if i == 0:
            return self.ring.one()
        return self.ring.gen(f"c{i}") * self.ring.gen(f"cp{i}")

    def base_in_full(self, x: Element) -> Element:
        """Reinterpret a base-ring element inside the full ring (names agree)."""
        return self.ring.element([(c, named) for c, named in x.to_pairs()])


def _fiber_rule(r: int, chern_prefix: str, fiber_name: str):
    # a^r -> sum_{i=1..r} (-1)^(i+1) c_i a^(r-i)
    terms = []
    for i in range(1, r + 1):
        sign = 1 if i % 2 == 1 else -1
        mono = {f"{chern_prefix}{i}": 1}
        if r - i:
            mono[fiber_name] = r - i
        terms.append((sign, tuple(sorted(mono.items()))))
    return tuple(terms)


def build(r: int, coefficients: str, D: int) -> DoubleBundleRing:
    """Construct the rank-r double-bundle ring truncated above degree D."""
    if r < 1:
        raise UsageError(f"rank r={r} must be at least 1")
    if D < 2 * r:
        raise UsageError(f"truncation D={D} must be at least 2r={2 * r}")
    gens = []
    for prefix in ("c", "cp"):
        gens += [GeneratorSpec(f"{prefix}{i}", degree=i) for i in range(1, r + 1)]
    gens.append(GeneratorSpec("a", degree=1, power_bound=r, replacement=_fiber_rule(r, "c", "a")))
    gens.append(GeneratorSpec("b", degree=1, power_bound=r, replacement=_fiber_rule(r, "cp", "b")))
    ring = AlgebraPresentation(gens, coefficients, truncation=D)
    base = AlgebraPresentation(
        [GeneratorSpec(f"{p}{i}", degree=i) for p in ("c", "cp") for i in range(1, r + 1)],
        coefficients,
        truncation=D,
    )
    pairs = tuple((f"c{i}", f"cp{i}") for i in range(1, r + 1))
    sigma = SwapInvolution(ring, pairs + (("a", "b"),))
    base_sigma = SwapInvolution(base, pairs)
    return DoubleBundleRing(
        r=r,
        coefficients=coefficients,
        D=D,
        ring=ring,
        base=base,
        sigma=sigma,
        base_sigma=base_sigma,
    )


def _mutated(R: DoubleBundleRing) -> DoubleBundleRing:
    """Same ring but with the fiber relations replaced by a^r = b^r = 0."""
    gens = []
    for g in R.ring.generators:
        if g.name in ("a", "b"):
            gens.append(GeneratorSpec(g.name, degree=1, power_bound=R.r, replacement=()))
        else:
            gens.append(g)
    ring = AlgebraPresentation(gens, R.coefficients, truncation=R.D)
    return DoubleBundleRing(
        r=R.r,
        coefficients=R.coefficients,
        D=R.D,
        ring=ring,
        base=R.base,
        sigma=SwapInvolution(ring, R.sigma.pairs, R.sigma.fixed),
        base_sigma=R.base_sigma,
    )


def relation_element(R: DoubleBundleRing) -> Element:
    """sum_{i=0..r} c_i c'_i c^(r-i), normalized in the ring."""
    c = R.c()
    acc = R.ring.zero()
    for i in range(R.r + 1):
        acc = acc + R.chern_pair(i) * c ** (R.r - i)
    return acc


def product_relation_check(R: DoubleBundleRing) -> bool:
    """Does the product relation land in the norm module in degree 2r?"""
    return R.sigma.norm_class(relation_element(R)).is_zero


@dataclass(frozen=True)
class FreenessReport:
    r: int
    coefficients: str
    D: int
    spanning: dict
    freeness: dict
    module_rank: int
    relation_in_norms: bool
    mutation_rejected: bool
    mutation_witness: list

    @property
    def passed(self) -> bool:
        return (
            all(self.spanning.values())
            and all(self.freeness.values())
            and self.relation_in_norms
            and self.mutation_rejected
        )


def _power_monomials(R: DoubleBundleRing, d: int) -> list[Element]:
    """Products (c_1 c'_1)^m1 ... (c_r c'_r)^mr * c^k with k < r and total degree d."""
    pairs = [R.chern_pair(i) for i in range(1, R.r + 1)]
    c = R.c()
    return [
        c ** k * x
        for k in range(min(R.r, d // 2 + 1))
        for x in generator_products(R.ring, pairs, d - 2 * k)
    ]


def freeness_check(R: DoubleBundleRing) -> FreenessReport:
    """Module spanning and freeness of 1, c, ..., c^(r-1) modulo norms, per degree.

    Both are questions about classes in invariants modulo norms, which is F2 on
    the fixed monomials (``SwapInvolution.norm_class``).  Spanning: the classes of
    base-pair monomials times powers of c span it.  Freeness: the kernel of the
    evaluation (beta_k) -> sum_k beta_k c^k of base invariants is exactly the
    tuple of base norm modules, checked by both inclusions.
    """
    spanning: dict[int, bool] = {}
    freeness: dict[int, bool] = {}
    for d in range(R.D - 2 * R.r + 1):
        spanning[d] = uncovered_invariant(R.sigma, _power_monomials(R, d), d) is None
        freeness[d] = _kernel_matches_base_norms(R, d)
    relation_ok = product_relation_check(R)
    mutated = _mutated(R)
    mutated_relation = relation_element(mutated)
    mutation_rejected = not product_relation_check(mutated)
    return FreenessReport(
        r=R.r,
        coefficients=R.coefficients,
        D=R.D,
        spanning=spanning,
        freeness=freeness,
        module_rank=R.r,
        relation_in_norms=relation_ok,
        mutation_rejected=mutation_rejected,
        mutation_witness=mutated_relation.to_pairs(),
    )


def _kernel_matches_base_norms(R: DoubleBundleRing, d: int) -> bool:
    """Both inclusions between the evaluation kernel and the base norm modules in degree d.

    Base invariants modulo base norms is F2 on the base fixed monomials, so once
    every base norm times c^k has class zero, the kernel is no larger exactly
    when the classes of the base fixed monomials times c^k are F2-independent.
    """
    c = R.c()
    ks = range(min(R.r, d // 2 + 1))
    # inclusion 1: base norms times c^k land in the full norm module
    for k in ks:
        for nu in norm_image_basis(R.base_sigma, d - 2 * k):
            if not R.sigma.norm_class(R.base_in_full(nu) * c ** k).is_zero:
                return False
    # inclusion 2: the evaluation is injective on base invariants modulo base norms
    images = [
        R.sigma.norm_class(R.base_in_full(Element(R.base, {R.base_sigma.lift(m): 1})) * c ** k)
        for k in ks
        for m in R.base_sigma.classes.degree_basis(d - 2 * k)
    ]
    return R.sigma.classes.span_solver(images, d).rank == len(images)


def base_generation_check(R: DoubleBundleRing, max_degree: int | None = None):
    """The base invariants modulo norms are generated by the products c_i c'_i."""
    if max_degree is None:
        max_degree = R.D - 2 * R.r
    gens = [R.base.gen(f"c{i}") * R.base.gen(f"cp{i}") for i in range(1, R.r + 1)]
    return quotient_generation_check(R.base_sigma, gens, max_degree)
