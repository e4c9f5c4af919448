"""Mod-2 ring models of split orthogonal grassmannians and their quotients.

The maximal grassmannian ring has generators e_1..e_{N-1} of codimensions
1..N-1 with e_i^2 = e_{2i} (zero once the index leaves range); its basis is
the square-free monomials.  The previous-to-maximal ring adds a degree-one
generator e with e^(2r+1) = 0 and carries the basis-linear involution
e_1 -> e + e_1 used to compute norm images.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce

from .algebra import F2, AlgebraPresentation, Element, GeneratorSpec
from .errors import UsageError
from .motives import essential_poincare
from .polynomials import PoincarePolynomial


def _square_free(first: int, last: int, extra=()) -> AlgebraPresentation:
    """The F2 model on ``extra`` and e_first..e_last with e_i^2 = e_{2i}, zero past e_last."""
    gens = list(extra)
    for i in range(first, last + 1):
        square = ((1, ((f"e{2 * i}", 1),)),) if 2 * i <= last else ()
        gens.append(GeneratorSpec(f"e{i}", degree=i, power_bound=2, replacement=square))
    return AlgebraPresentation(gens, F2)


def max_orth_ring(N: int) -> AlgebraPresentation:
    """Chow ring model of the maximal grassmannian of a split 2N-dimensional form."""
    if N < 2:
        raise UsageError("N must be >= 2")
    return _square_free(1, N - 1)


def prev_max_orth_ring(r: int) -> AlgebraPresentation:
    """Ring model of the previous-to-maximal grassmannian: e, with e^(2r+1) = 0, and e_1..e_2r."""
    if r < 1:
        raise UsageError("r must be >= 1")
    return _square_free(1, 2 * r, [GeneratorSpec("e", degree=1, power_bound=2 * r + 1)])


def prev_max_sigma(x: Element) -> Element:
    """The basis-linear involution e_1 -> e + e_1 of the previous-to-maximal model.

    Every other generator is fixed and e_1 is square-free in a normal monomial,
    so sigma(m) = m when e_1 does not divide m and (m/e_1)(e + e_1) when it
    does: sigma(x) = x + (x/e_1) * e, one product.
    """
    ring = x.algebra
    i = ring._index["e1"]
    quotient = {m[:i] + (0,) + m[i + 1:]: c for m, c in x.terms.items() if m[i]}
    return x + Element(ring, quotient) * ring.gen("e")


def odd_quotient_ring(r: int) -> AlgebraPresentation:
    """The quotient-modulo-norms model: generators e_2..e_{2r} with e_i^2 = e_{2i}."""
    if r < 1:
        raise UsageError("r must be >= 1")
    return _square_free(2, 2 * r)


class SubringClosure:
    """Per-degree bases of the unital subring generated by homogeneous elements."""

    def __init__(self, ambient: AlgebraPresentation, generators):
        self.ambient = ambient
        self.generators = tuple(generators)
        self._degrees = [g.homogeneous_degree() for g in self.generators]
        if any(d is None or d < 1 for d in self._degrees):
            raise UsageError("subring generators must be homogeneous of positive degree")
        self._cache: dict[int, list[Element]] = {0: [ambient.one()]}

    def basis(self, d: int) -> list[Element]:
        """Basis of the degree-d component, built by iterated span closure.

        Every degree the closure reaches is admitted to the ambient monomial
        budget before the first of them is indexed.
        """
        if d < 0:
            return []
        if d not in self._cache:
            self.ambient._admit(self._reached(d))
            spanners: list[Element] = []
            for g, gd in zip(self.generators, self._degrees):
                for x in self.basis(d - gd):
                    y = g * x
                    if not y.is_zero:
                        spanners.append(y)
            span = self.ambient.span_solver([], d)
            self._cache[d] = [y for y in spanners if span.add(y)]
        return list(self._cache[d])

    def _reached(self, d: int) -> list[int]:
        """The degrees 0 < d' <= d with d - d' a sum of generator degrees."""
        reached = [False] * d + [True]
        for e in range(d, 0, -1):
            if reached[e]:
                for gd in self._degrees:
                    if gd <= e:
                        reached[e - gd] = True
        return [e for e in range(1, d + 1) if reached[e]]


def subring_basis(ambient: AlgebraPresentation, gens, d: int) -> list[Element]:
    return SubringClosure(ambient, gens).basis(d)


def _canonical_class(ring: AlgebraPresentation, top: int) -> tuple[AlgebraPresentation, Element]:
    """The class e_2 e_4 ... e_top of ``ring``, which must not vanish."""
    cls = reduce(lambda acc, i: acc * ring.gen(f"e{i}"), range(2, top + 1, 2), ring.one())
    if cls.is_zero:
        raise UsageError("canonical class vanished; model inconsistent")
    return ring, cls


def class_xr_even(r: int) -> tuple[AlgebraPresentation, Element]:
    """The canonical class e_2 e_4 ... e_{2r-2} in the rank-2r maximal model."""
    if r < 1:
        raise UsageError("r must be >= 1")
    return _canonical_class(max_orth_ring(2 * r), 2 * r - 2)


def class_xr_odd(r: int) -> tuple[AlgebraPresentation, Element]:
    """The canonical class e_2 e_4 ... e_{2r} in the odd-case quotient model."""
    return _canonical_class(odd_quotient_ring(r), 2 * r)


def _unique_in_even_subring(ring: AlgebraPresentation, cls: Element) -> bool:
    """Is cls the only nonzero element of its codimension in the subring on e_2, e_4, ...?"""
    evens = [ring.gen(g.name) for g in ring.generators if g.degree % 2 == 0]
    basis = SubringClosure(ring, evens).basis(cls.homogeneous_degree())
    return len(basis) == 1 and basis[0] == cls


def uniqueness_in_codim(r: int) -> bool:
    """Is the canonical class of the rank-2r maximal model unique in its codimension?"""
    return _unique_in_even_subring(*class_xr_even(r))


def _times_x(ambient: AlgebraPresentation, x: Element):
    """Each degree's basis with the Span of its products with x; None past the top degree."""
    if x.is_zero:
        raise UsageError("annihilator of zero is everything; rejected")
    codim = x.homogeneous_degree()
    if codim is None:
        raise UsageError("annihilator requires a homogeneous element")
    ambient._admit(range(ambient.max_degree + 1))  # the whole ring, before any degree is indexed
    for d in range(ambient.max_degree + 1):
        basis = ambient.basis_elements(d)
        if d + codim <= ambient.max_degree:
            yield basis, ambient.span_solver([b * x for b in basis], d + codim)
        else:
            yield basis, None


def annihilator(x: Element, ambient: AlgebraPresentation) -> dict[int, list[Element]]:
    """Per-degree bases of {a : a*x = 0}."""
    return {
        d: basis if span is None else [
            sum((b * c for c, b in zip(combo, basis) if c), ambient.zero())
            for combo in span.kernel()
        ]
        for d, (basis, span) in enumerate(_times_x(ambient, x))
    }


def _quotient_poincare(ambient: AlgebraPresentation, x: Element) -> PoincarePolynomial:
    """Poincare polynomial of ambient/Ann(x): ranks of multiplication by x."""
    ranks = [0 if span is None else span.rank for _, span in _times_x(ambient, x)]
    return PoincarePolynomial(ranks)


def isochow_quotient(r: int) -> PoincarePolynomial:
    """Poincare polynomial of the rank-2r maximal model modulo the annihilator of the class."""
    return _quotient_poincare(*class_xr_even(r))


def odd_squares_vanish(r: int) -> bool:
    """Do the odd-codimension generators square to zero in the even-case quotient?"""
    ring, cls = class_xr_even(r)
    for i in range(1, 2 * r, 2):
        if not (ring.gen(f"e{i}") ** 2 * cls).is_zero:
            return False
    return True


# -- the odd-case comparison pipeline -----------------------------------------


OddCaseReport = namedtuple(
    "OddCaseReport",
    "r norm_equals_ideal model_consistent class_nonzero class_unique_in_codim"
    " quotient_poincare candidates matches rank_matches",
)


def odd_case_pipeline(r: int) -> OddCaseReport:
    """Norm ideal, quotient model, annihilator quotient and candidate comparisons.

    The comparison block is deliberately judgement-free: the computed
    quotient is matched against each reading of the expected answer and the
    outcomes are recorded.
    """
    ring = prev_max_orth_ring(r)
    sub = SubringClosure(
        ring, [ring.gen("e")] + [ring.gen(f"e{i}") for i in range(2, 2 * r + 1)]
    )
    e = ring.gen("e")
    model = odd_quotient_ring(r)
    norm_equals_ideal = model_consistent = True
    for d in range(ring.max_degree + 1):
        norms = ring.span_solver([x + prev_max_sigma(x) for x in ring.basis_elements(d)], d)
        rank_n = norms.rank

        # (i) the norm image coincides with e * <e, e_2, ..., e_2r>: equal F2
        # ranks, and the ideal inside the norm span
        ideal = [e * x for x in sub.basis(d - 1)]
        if ring.span_solver(ideal, d).rank != rank_n or not all(norms.contains(x) for x in ideal):
            norm_equals_ideal = False

        # (ii) the subring modulo norms matches the model ring
        sub_basis = sub.basis(d)
        model_basis = model.degree_basis(d) if d <= model.max_degree else []
        for m in model_basis:
            norms.add(ring.element([(1, model.monomial_named(m))]))
        rank_total = norms.rank
        if len(sub_basis) != rank_n + len(model_basis) or rank_total != len(sub_basis):
            model_consistent = False

    # (iii) the canonical class, its uniqueness, its annihilator and the quotient,
    # on the model whose degree bases (ii) indexed
    model, cls = _canonical_class(model, 2 * r)
    quotient = _quotient_poincare(model, cls)

    # (iv) compare against both printed readings and the motive recursion
    candidates = {
        "exterior_printed": PoincarePolynomial.exterior(range(3, 2 * r, 2)),
        "exterior_shifted_top": PoincarePolynomial.exterior(range(3, 2 * r + 2, 2)),
        "essential_motive": essential_poincare(2 * r + 1, r),
    }
    matches = {k: v == quotient for k, v in candidates.items()}
    rank_matches = {k: v.total == quotient.total for k, v in candidates.items()}
    return OddCaseReport(
        r=r,
        norm_equals_ideal=norm_equals_ideal,
        model_consistent=model_consistent,
        class_nonzero=not cls.is_zero,
        class_unique_in_codim=_unique_in_even_subring(model, cls),
        quotient_poincare=quotient,
        candidates=candidates,
        matches=matches,
        rank_matches=rank_matches,
    )
