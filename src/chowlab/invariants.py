"""Invariants of a variable-swap involution and generation checks modulo norms.

The ambient ring is a polynomial ring with swapped variable pairs (a_i, b_i)
and optional fixed variables; ``SwapInvolution(ring, pairs, fixed)`` is the
swap on that one ring.  Equal degrees and power bounds on each swapped pair,
checked when it is built, make the swap permute every degree-d normal basis.
So the invariant module has the fixed monomials and the orbit sums
m + sigma(m) as a basis, and the norm module is spanned by all m + sigma(m):
the orbit sums, and 2m for a fixed monomial m (nothing mod 2).  Invariants
modulo norms is therefore F2 on the fixed monomials, the Tate cohomology
H^0(Z/2, A_d), and an invariant's class keeps its fixed monomials with odd
coefficients (``SwapInvolution.norm_class``).  The classes live in
``SwapInvolution.classes``, an F2 presentation with one generator per orbit of
generators, whose normal basis in each degree is the fixed monomials; so the
checks walk the fixed monomials only, never the ring's whole degree basis.
Every "generated modulo norms" statement is tested degreewise as an F2 rank
question on those classes, on the generators' products of every degree built
in one walk (``generator_products``); the integer lattice of products and
norms, which answers the same questions, is the reference the tests compare
against.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import F2, AlgebraPresentation, Element, GeneratorSpec, free_polynomial_ring
from .errors import ConfigurationError, UsageError


class SwapInvolution:
    """A degree-preserving involution of one presentation, swapping generator pairs.

    The pairs and the fixed names must partition the generators, and each
    swapped pair must share its degree and its power bound.  Then the swap
    permutes every degree's normal basis, so each degree splits into fixed
    monomials and orbit pairs.  The swap must also permute the rewrite
    rules: a swapped generator's rule is the swap of its partner's, and a
    fixed generator's rule is swap-invariant, so that ``apply`` is a ring map.

    ``classes`` is the bare F2 presentation of invariants modulo norms: one
    generator per orbit of generators, a fixed generator g as itself and a
    swapped pair (a, b) as ``a*b`` of twice the degree, each with the same
    power bound and ordered by the orbit's first position in the ring.  Its
    normal basis in degree d is the degree-d fixed monomials, in their
    canonical order (``lift``).
    """

    def __init__(self, A: AlgebraPresentation, pairs, fixed=()):
        self.algebra = A
        self.pairs = tuple((a, b) for a, b in pairs)
        self.fixed = tuple(fixed)
        index = {g.name: i for i, g in enumerate(A.generators)}
        touched = [n for pair in self.pairs for n in pair] + list(self.fixed)
        if sorted(touched) != sorted(index):
            raise ConfigurationError("involution does not partition the generator set")
        perm = list(range(len(A.generators)))
        for a, b in self.pairs:
            ga, gb = A.generators[index[a]], A.generators[index[b]]
            if ga.degree != gb.degree:
                raise ConfigurationError(f"swapped pair ({a}, {b}) mixes degrees")
            if ga.power_bound != gb.power_bound:
                raise ConfigurationError(f"swapped pair ({a}, {b}) has unequal power bounds")
            perm[index[a]], perm[index[b]] = index[b], index[a]
        self._perm = tuple(perm)
        for i, rule in A._replacements.items():
            image = A._normalize([(self.permute(exps), c) for c, exps in rule])
            if image != A._normalize([(exps, c) for c, exps in A._replacements[perm[i]]]):
                name, partner = A.generators[i].name, A.generators[perm[i]].name
                raise ConfigurationError(
                    f"rule of fixed generator {name!r} is not swap-invariant" if i == perm[i]
                    else f"rule of {partner!r} is not the swap image of the rule of {name!r}"
                )
        self._orbits: dict[int, tuple[list, list]] = {}
        # Lexicographic order on fixed monomials is decided at each orbit's first position.
        self._generator_orbits = sorted(
            tuple(sorted(index[n] for n in orbit))
            for orbit in self.pairs + tuple((n,) for n in self.fixed)
        )
        self.classes = AlgebraPresentation(
            [
                GeneratorSpec(
                    "*".join(A.generators[i].name for i in orbit),
                    degree=len(orbit) * A.generators[orbit[0]].degree,
                    power_bound=A.generators[orbit[0]].power_bound,
                )
                for orbit in self._generator_orbits
            ],
            F2,
            A.truncation,
        )

    def permute(self, mono: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(mono[self._perm[i]] for i in range(len(mono)))

    def apply(self, x: Element) -> Element:
        terms = [(self.permute(mono), c) for mono, c in x.terms.items()]
        return Element(self.algebra, self.algebra._normalize(terms))

    def orbit_pairs(self, d: int):
        """Fixed monomials and canonical orbit pairs of the degree-d basis."""
        if d not in self._orbits:
            fixed, orbits = [], []
            for mono in self.algebra.degree_basis(d):
                image = self.permute(mono)
                if image == mono:
                    fixed.append(mono)
                elif mono < image:
                    orbits.append((mono, image))
            self._orbits[d] = fixed, orbits
        return self._orbits[d]

    def lift(self, mono: tuple[int, ...]) -> tuple[int, ...]:
        """The fixed monomial of the ring whose class is the ``classes`` monomial ``mono``."""
        exps = [0] * len(self.algebra.generators)
        for e, orbit in zip(mono, self._generator_orbits):
            for i in orbit:
                exps[i] = e
        return tuple(exps)

    def norm_class(self, x: Element) -> Element:
        """The class of the invariant ``x`` modulo norms, as an element of ``classes``.

        The class keeps x's fixed monomials with odd coefficients.  Raises
        ConfigurationError when x is not invariant or not in this swap's ring.
        """
        if x.algebra is not self.algebra:
            raise ConfigurationError("element is not in the swap involution's presentation")
        images = {m: self.permute(m) for m in x.terms}
        if any(x.terms.get(images[m]) != c for m, c in x.terms.items()):
            raise ConfigurationError(f"{x!r} is not invariant under the swap involution")
        fixed = {
            tuple(m[orbit[0]] for orbit in self._generator_orbits): 1
            for m, c in x.terms.items()
            if c % 2 and images[m] == m
        }
        return Element(self.classes, fixed)


def swap_polynomial_ring(
    r_pairs: int, k_fixed: int, coefficients: str, truncation: int
) -> tuple[AlgebraPresentation, SwapInvolution]:
    """Degree-one polynomial ring with k fixed variables and r swapped pairs."""
    names = [(f"t{j}", 1) for j in range(1, k_fixed + 1)]
    pairs = []
    for i in range(1, r_pairs + 1):
        names += [(f"a{i}", 1), (f"b{i}", 1)]
        pairs.append((f"a{i}", f"b{i}"))
    ring = free_polynomial_ring(names, coefficients, truncation)
    sigma = SwapInvolution(ring, pairs, fixed=[f"t{j}" for j in range(1, k_fixed + 1)])
    return ring, sigma


def invariant_basis(sigma: SwapInvolution, d: int) -> list[Element]:
    """Basis of the invariant module in degree d: fixed monomials and orbit sums."""
    A = sigma.algebra
    fixed, orbits = sigma.orbit_pairs(d)
    out = [Element(A, {mono: 1}) for mono in fixed]
    out += [Element(A, {mono: 1, image: 1}) for mono, image in orbits]
    return out


def antisymmetric_rank(sigma: SwapInvolution, d: int) -> int:
    """Rank of the span of all m - sigma(m) in degree d (the orbit count)."""
    return len(sigma.orbit_pairs(d)[1])


def norm_image_basis(sigma: SwapInvolution, d: int) -> list[Element]:
    """Spanning set of the norm module in degree d: all m + sigma(m)."""
    A = sigma.algebra
    fixed, orbits = sigma.orbit_pairs(d)
    out = []
    for mono in fixed:
        nu = Element(A, A._normalize([(mono, 2)]))
        if not nu.is_zero:
            out.append(nu)
    out += [Element(A, {mono: 1, image: 1}) for mono, image in orbits]
    return out


def generator_products(A: AlgebraPresentation, generators, top: int) -> list[list[Element]]:
    """The nonzero products of the given homogeneous elements, by degree 0..top.

    One walk: each generator in turn extends every product found so far by
    its powers up to degree ``top``, so each product costs one multiplication
    and a zero one is never extended.  Within a degree the products are in
    lexicographic order of their exponent vectors.
    """
    degrees = []
    for g in generators:
        gd = g.homogeneous_degree()
        if gd is None or gd < 1:
            raise UsageError("generators must be homogeneous of positive degree")
        degrees.append(gd)
    walk = [(0, A.one())]
    for g, gd in zip(generators, degrees):
        extended = []
        for deg, power in walk:
            extended.append((deg, power))
            while deg + gd <= top:
                deg, power = deg + gd, power * g
                if power.is_zero:
                    break
                extended.append((deg, power))
        walk = extended
    out: list[list[Element]] = [[] for _ in range(top + 1)]
    for deg, x in walk:
        out[deg].append(x)
    return out


def uncovered_invariant(sigma: SwapInvolution, products: list[Element], d: int) -> Element | None:
    """First degree-d invariant basis element outside span(products + norms), or None.

    Every product must be invariant.  Orbit sums are norms, so the answer is the
    first fixed monomial whose class is outside the F2 span of the products' classes.
    """
    C = sigma.classes
    span = C.span_solver([sigma.norm_class(x) for x in products], d)
    basis = C.degree_basis(d)
    if span.rank == len(basis):  # the classes span every fixed monomial
        return None
    for mono in basis:
        if not span.contains(Element(C, {mono: 1})):
            return Element(sigma.algebra, {sigma.lift(mono): 1})
    return None


DegreeCheck = namedtuple("DegreeCheck", "d passed witness")


class GenerationReport(namedtuple("GenerationReport", "degrees")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(dc.passed for dc in self.degrees)


def quotient_generation_check(
    sigma: SwapInvolution, generators, max_degree: int
) -> GenerationReport:
    """Degreewise test that the invariants modulo norms are generated as stated.

    In each degree every invariant basis element must lie in the span of the
    degree-d products of the given generators together with the norm module.
    The generators must be invariant; otherwise ConfigurationError is raised.
    """
    products = generator_products(sigma.algebra, generators, max_degree)
    results = []
    for d in range(max_degree + 1):
        witness = uncovered_invariant(sigma, products[d], d)
        results.append(DegreeCheck(d=d, passed=witness is None, witness=witness))
    return GenerationReport(degrees=tuple(results))


def codim_le2_generation_check(
    k_fixed: int, r_pairs: int, max_degree: int, coefficients: str = "Z"
) -> GenerationReport:
    """Generation by the fixed degree-1 variables and the degree-2 orbit products."""
    if k_fixed not in (0, 1):
        raise UsageError("k_fixed must be 0 or 1")
    ring, sigma = swap_polynomial_ring(r_pairs, k_fixed, coefficients, max_degree)
    gens = [ring.gen(f"t{j}") for j in range(1, k_fixed + 1)]
    gens += [ring.gen(f"a{i}") * ring.gen(f"b{i}") for i in range(1, r_pairs + 1)]
    return quotient_generation_check(sigma, gens, max_degree)


class ObstructionReport(
    namedtuple(
        "ObstructionReport",
        "witness witness_in_low_degree_span doubled_in_low_degree_span witness_is_norm",
    )
):
    """The degree-3 witness separating integral generation from generation after doubling."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            not self.witness_in_low_degree_span
            and self.doubled_in_low_degree_span
            and self.witness_is_norm
        )


def non_generation_witness() -> ObstructionReport:
    """a_1 a_2 a_3 + b_1 b_2 b_3 escapes the ring generated by low-degree invariants over Z.

    The same element doubled is a product combination of degree <= 2
    invariants, and it is itself a norm.
    """
    ring, sigma = swap_polynomial_ring(3, 0, "Z", truncation=3)
    p = ring.monomial({"a1": 1, "a2": 1, "a3": 1}) + ring.monomial(
        {"b1": 1, "b2": 1, "b3": 1}
    )
    low = invariant_basis(sigma, 1) + invariant_basis(sigma, 2)
    span = ring.span_solver(generator_products(ring, low, 3)[3], 3)
    in_span = span.contains(p)
    doubled = span.contains(2 * p)
    is_norm, _ = ring.span_membership(p, norm_image_basis(sigma, 3))
    return ObstructionReport(
        witness=p,
        witness_in_low_degree_span=in_span,
        doubled_in_low_degree_span=doubled,
        witness_is_norm=is_norm,
    )
