"""Split model of a quadratic Weil transfer of a projective bundle.

Two rank-r projective-bundle rings over a common base are glued by the
involution swapping the two factors; the distinguished degree-2 class is
c = a*b.  The checks verify that modulo the norm module the invariants form
a free module on 1, c, ..., c^(r-1) over the base invariants, with the
single monic relation sum_i c_i c'_i c^(r-i) = 0.  In each degree one list,
the base fixed monomials times c^k for k < r, answers both module questions:
its classes span when their rank is the number of fixed monomials, and are
free when they are independent and base norms times c^k have class zero.

The model is its swap: ``build`` returns the ``SwapInvolution`` of the ring on
c_1..c_r, c'_1..c'_r, a, b, and the checks read r, D and the coefficients off
that ring.  The base ring is its leading 2r generators.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import AlgebraPresentation, Element, GeneratorSpec
from .errors import UsageError
from .invariants import SwapInvolution, norm_image_basis, quotient_generation_check


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


def _chern_pairs(r: int) -> tuple[tuple[str, str], ...]:
    return tuple((f"c{i}", f"cp{i}") for i in range(1, r + 1))


def build(r: int, coefficients: str, D: int) -> SwapInvolution:
    """The swap of the rank-r double-bundle ring truncated above degree D."""
    if r < 1:
        raise UsageError(f"rank r={r} must be at least 1")
    if D < 2 * r:
        raise UsageError(f"truncation D={D} must be at least 2r={2 * r}")
    gens = [GeneratorSpec(f"{p}{i}", degree=i) for p in ("c", "cp") for i in range(1, r + 1)]
    gens.append(GeneratorSpec("a", degree=1, power_bound=r, replacement=_fiber_rule(r, "c", "a")))
    gens.append(GeneratorSpec("b", degree=1, power_bound=r, replacement=_fiber_rule(r, "cp", "b")))
    ring = AlgebraPresentation(gens, coefficients, truncation=D)
    return SwapInvolution(ring, _chern_pairs(r) + (("a", "b"),))


def _rank(ring: AlgebraPresentation) -> int:
    """r, the number of Chern pairs c_i / c'_i."""
    return sum(g.name.startswith("cp") for g in ring.generators)


def _base(ring: AlgebraPresentation) -> SwapInvolution:
    """The swap of the base ring on the ring's leading 2r generators, the Chern classes."""
    r = _rank(ring)
    base = AlgebraPresentation(ring.generators[: 2 * r], ring.coefficients, ring.truncation)
    return SwapInvolution(base, _chern_pairs(r))


def _chern_products(ring: AlgebraPresentation) -> list[Element]:
    """The invariant products c_i * c'_i, i = 1..r."""
    return [ring.gen(f"c{i}") * ring.gen(f"cp{i}") for i in range(1, _rank(ring) + 1)]


def _c_powers(ring: AlgebraPresentation, n: int) -> list[Element]:
    """c^0, ..., c^(n-1) for the class c = a*b, one product each."""
    c = ring.gen("a") * ring.gen("b")
    powers = [ring.one()]
    for _ in range(1, n):
        powers.append(powers[-1] * c)
    return powers


def _mutated(sigma: SwapInvolution) -> SwapInvolution:
    """The same swap on the ring with the fiber relations replaced by a^r = b^r = 0."""
    ring = sigma.algebra
    gens = [
        GeneratorSpec(g.name, degree=1, power_bound=_rank(ring)) if g.name in ("a", "b") else g
        for g in ring.generators
    ]
    mutated = AlgebraPresentation(gens, ring.coefficients, ring.truncation)
    return SwapInvolution(mutated, sigma.pairs, sigma.fixed)


def relation_element(ring: AlgebraPresentation) -> Element:
    """sum_{i=0..r} c_i c'_i c^(r-i), normalized in the ring."""
    r = _rank(ring)
    powers = _c_powers(ring, r + 1)
    acc = powers[r]
    for i, pair in enumerate(_chern_products(ring), 1):
        acc = acc + pair * powers[r - i]
    return acc


def product_relation_check(sigma: SwapInvolution) -> bool:
    """Does the product relation land in the norm module in degree 2r?"""
    return sigma.norm_class(relation_element(sigma.algebra)).is_zero


class FreenessReport(
    namedtuple(
        "FreenessReport",
        "r coefficients D spanning freeness module_rank"
        " relation_in_norms mutation_rejected mutation_witness",
    )
):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            all(self.spanning.values())
            and all(self.freeness.values())
            and self.relation_in_norms
            and self.mutation_rejected
        )


def freeness_check(sigma: SwapInvolution) -> FreenessReport:
    """Module spanning and freeness of 1, c, ..., c^(r-1) modulo norms, per degree.

    Both are questions about classes in invariants modulo norms, which is F2 on
    the fixed monomials (``SwapInvolution.norm_class``).  Spanning: the classes of
    the base fixed monomials (the base-pair monomials) times powers of c span it.
    Freeness: the kernel of the evaluation (beta_k) -> sum_k beta_k c^k of base
    invariants is exactly the tuple of base norm modules, checked by both inclusions.
    """
    ring = sigma.algebra
    r, D, base = _rank(ring), ring.truncation, _base(ring)
    c_powers = _c_powers(ring, r)
    checks = {d: _module_checks(sigma, base, d, c_powers) for d in range(D - 2 * r + 1)}
    mutated = _mutated(sigma)
    mutated_relation = relation_element(mutated.algebra)
    return FreenessReport(
        r=r,
        coefficients=ring.coefficients,
        D=D,
        spanning={d: spans for d, (spans, _) in checks.items()},
        freeness={d: free for d, (_, free) in checks.items()},
        module_rank=r,
        relation_in_norms=product_relation_check(sigma),
        mutation_rejected=not mutated.norm_class(mutated_relation).is_zero,
        mutation_witness=mutated_relation.to_pairs(),
    )


def _module_checks(
    sigma: SwapInvolution, base: SwapInvolution, d: int, c_powers: list[Element]
) -> tuple[bool, bool]:
    """Spanning and freeness in degree d, from one span of images.

    The images are the classes of the base fixed monomials times c^k, k < r,
    with c^k taken from ``c_powers`` = c^0, ..., c^(r-1).  They span
    invariants modulo norms when their rank is the number of degree-d fixed
    monomials.  Base invariants modulo base norms is F2 on the base fixed
    monomials, so once every base norm times c^k has class zero, the kernel
    is no larger exactly when the images are F2-independent.
    """
    ring = sigma.algebra
    powers = list(enumerate(c_powers[: d // 2 + 1]))
    images = [
        sigma.norm_class(Element(ring, {base.lift(m) + (0, 0): 1}) * ck)
        for k, ck in powers
        for m in base.classes.degree_basis(d - 2 * k)
    ]
    rank = sigma.classes.span_solver(images, d).rank
    spans = rank == len(sigma.classes.degree_basis(d))
    # inclusion 1: base norms times c^k land in the full norm module
    for k, ck in powers:
        for nu in norm_image_basis(base, d - 2 * k):
            lifted = Element(ring, {m + (0, 0): v for m, v in nu.terms.items()})
            if not sigma.norm_class(lifted * ck).is_zero:
                return spans, False
    # inclusion 2: the evaluation is injective on base invariants modulo base norms
    return spans, rank == len(images)


def base_generation_check(sigma: SwapInvolution):
    """The base invariants modulo norms, to degree D - 2r, are generated by the c_i c'_i."""
    base = _base(sigma.algebra)
    max_degree = base.algebra.truncation - 2 * _rank(base.algebra)
    return quotient_generation_check(base, _chern_products(base.algebra), max_degree)
