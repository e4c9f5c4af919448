"""Swap-involution invariants, norm modules and generation checks."""

import random

import pytest

from chowlab import algebra
from chowlab.algebra import F2, AlgebraPresentation, Element, GeneratorSpec, Z, free_polynomial_ring
from chowlab.errors import ConfigurationError, UsageError
from chowlab.grassmann import max_orth_ring, prev_max_orth_ring
from chowlab.invariants import (
    SwapInvolution,
    antisymmetric_rank,
    codim_le2_generation_check,
    generator_products,
    invariant_basis,
    non_generation_witness,
    norm_image_basis,
    quotient_generation_check,
    swap_polynomial_ring,
)
from chowlab.suites import report_json
from chowlab.weil import _base, _mutated
from chowlab.weil import build as build_weil


def test_invariant_basis_examples():
    ring, sigma = swap_polynomial_ring(1, 0, Z, truncation=4)
    a, b = ring.gen("a1"), ring.gen("b1")
    assert invariant_basis(sigma, 1) == [a + b]
    basis2 = invariant_basis(sigma, 2)
    assert set(map(repr, basis2)) == {"a1*b1", "b1^2 + a1^2"}
    ring0, sigma0 = swap_polynomial_ring(0, 1, Z, truncation=5)
    for d in range(1, 6):
        assert invariant_basis(sigma0, d) == [ring0.monomial({"t1": d})]


def test_invariant_dimension_count():
    # dim invariants + dim antisymmetric part = dim of the whole degree component
    ring, sigma = swap_polynomial_ring(2, 1, Z, truncation=5)
    for d in range(6):
        inv = len(invariant_basis(sigma, d))
        anti = antisymmetric_rank(sigma, d)
        assert inv + anti == len(ring.degree_basis(d))


def test_norm_image_basis_examples():
    ring, sigma = swap_polynomial_ring(1, 0, Z, truncation=4)
    a, b = ring.gen("a1"), ring.gen("b1")
    norms = norm_image_basis(sigma, 2)
    assert set(map(repr, norms)) == {"2*a1*b1", "b1^2 + a1^2"}
    assert norm_image_basis(sigma, 0) == [2 * ring.one()]
    ring2, sigma2 = swap_polynomial_ring(1, 0, F2, truncation=4)
    norms2 = norm_image_basis(sigma2, 2)
    assert set(map(repr, norms2)) == {"b1^2 + a1^2"}


def test_norm_image_is_ideal():
    rng = random.Random(19)
    for coeff in (Z, F2):
        ring, sigma = swap_polynomial_ring(2, 0, coeff, truncation=6)
        for _ in range(12):
            d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
            invs = invariant_basis(sigma, d1)
            norms = norm_image_basis(sigma, d2)
            x = invs[rng.randrange(len(invs))]
            nu = norms[rng.randrange(len(norms))]
            target = x * nu
            ok, _ = ring.span_membership(target, norm_image_basis(sigma, d1 + d2))
            assert ok


def test_quotient_generation_lemma_instance():
    for coeff in (Z, F2):
        ring, sigma = swap_polynomial_ring(2, 0, coeff, truncation=6)
        gens = [ring.gen("a1") * ring.gen("b1"), ring.gen("a2") * ring.gen("b2")]
        report = quotient_generation_check(sigma, gens, 6)
        assert report.passed


def test_quotient_generation_failure_witness():
    ring, sigma = swap_polynomial_ring(1, 0, Z, truncation=2)
    report = quotient_generation_check(sigma, [], 2)
    assert not report.passed
    failing = [dc for dc in report.degrees if not dc.passed]
    assert failing[0].d == 2
    assert failing[0].witness == ring.gen("a1") * ring.gen("b1")


def test_non_invariant_generator_rejected():
    for coeff in (Z, F2):
        ring, sigma = swap_polynomial_ring(1, 0, coeff, truncation=3)
        with pytest.raises(ConfigurationError, match="not invariant"):
            quotient_generation_check(sigma, [ring.gen("a1")], 3)


def test_norm_class_rejects_element_of_another_ring():
    ring, sigma = swap_polynomial_ring(1, 0, Z, truncation=3)
    other, _ = swap_polynomial_ring(1, 0, Z, truncation=3)
    x = other.gen("a1") * other.gen("b1")
    with pytest.raises(ConfigurationError, match="presentation"):
        sigma.norm_class(x)
    pair = ring.gen("a1") * ring.gen("b1")
    assert sigma.norm_class(pair) == sigma.classes.monomial({"a1*b1": 1})


def _swaps():
    for k in (0, 1):
        for r in range(5):
            yield swap_polynomial_ring(r, k, Z, truncation=8)[1]
    for coeff in (Z, F2):
        for r in (1, 2, 3):
            sigma = build_weil(r, coeff, 2 * r + 4)
            yield sigma
            yield _base(sigma.algebra)
    # orbits interleaved, so that ordering them by last position differs from
    # ordering by first position; with bounds, truncated or not
    for t_bound, truncation in ((None, 8), (2, None)):
        gens = [
            GeneratorSpec("a", 1, power_bound=3),
            GeneratorSpec("t", 1, power_bound=t_bound),
            GeneratorSpec("c", 2, power_bound=2),
            GeneratorSpec("b", 1, power_bound=3),
            GeneratorSpec("d", 2, power_bound=2),
        ]
        ring = AlgebraPresentation(gens, Z, truncation)
        yield SwapInvolution(ring, [("a", "b"), ("d", "c")], ["t"])


def test_class_basis_lifts_to_the_fixed_monomials_in_order():
    # the class presentation is built from the generators alone; orbit_pairs
    # finds the fixed monomials by permuting the whole degree basis
    for sigma in _swaps():
        A, C = sigma.algebra, sigma.classes
        top = A.truncation if A.truncation is not None else A.max_degree + 2
        for d in range(top + 1):
            classes = C.degree_basis(d)
            assert [sigma.lift(m) for m in classes] == sigma.orbit_pairs(d)[0], (A, d)
            for m in classes:
                assert sigma.norm_class(Element(A, {sigma.lift(m): 1})) == Element(C, {m: 1})


def test_generation_check_never_walks_the_ring_basis(indexed_bases):
    # a work guard without timing: only the class presentation's basis is walked
    ring, sigma = swap_polynomial_ring(6, 1, Z, truncation=8)
    gens = [ring.gen("t1")] + [ring.gen(f"a{i}") * ring.gen(f"b{i}") for i in range(1, 7)]
    assert quotient_generation_check(sigma, gens, 8).passed
    assert list(indexed_bases.algebras) == [sigma.classes]
    assert indexed_bases.degrees(ring) == []


def test_quotient_generation_r0_trivial():
    ring, sigma = swap_polynomial_ring(0, 0, Z, truncation=4)
    report = quotient_generation_check(sigma, [], 4)
    assert report.passed


def test_codim_le2_instances():
    for coeff in (Z, F2):
        for k in (0, 1):
            for r in (1, 2, 3):
                report = codim_le2_generation_check(k, r, 6, coefficients=coeff)
                assert report.passed, (coeff, k, r)
    report = codim_le2_generation_check(0, 0, 4, Z)
    assert report.passed


def test_codim_le2_k_validation():
    with pytest.raises(UsageError):
        codim_le2_generation_check(2, 1, 4, Z)


def test_involution_validation():
    ring, _ = swap_polynomial_ring(1, 0, Z, truncation=3)
    mixed = free_polynomial_ring([("a", 1), ("b", 2)], Z, truncation=4)
    # b^2 is a basis monomial and its image a^2 = 0 is not, so the swap would
    # not permute the degree-2 basis
    unbounded = AlgebraPresentation(
        [GeneratorSpec("a", degree=1, power_bound=2), GeneratorSpec("b", degree=1)], Z, 4
    )
    refused = [
        (ring, [("a1", "b1"), ("x", "y")], (), "partition"),
        (ring, [("a1", "b1")], ("a1",), "partition"),
        (mixed, [("a", "b")], (), "mixes degrees"),
        (unbounded, [("a", "b")], (), "unequal power bounds"),
    ]
    for A, pairs, fixed, message in refused:
        with pytest.raises(ConfigurationError, match=message):
            SwapInvolution(A, pairs, fixed)


def test_swap_must_permute_the_rewrite_rules():
    # a^2 = 0 and b^2 = t: sigma(a*a) = 0 but sigma(a)*sigma(a) = t, so the
    # swap of a and b fixing t is not a ring map
    gens = [
        GeneratorSpec("t", degree=2),
        GeneratorSpec("a", degree=1, power_bound=2),
        GeneratorSpec("b", degree=1, power_bound=2, replacement=((1, {"t": 1}),)),
    ]
    with pytest.raises(ConfigurationError, match="rule of 'b' is not the swap image of the rule of 'a'"):
        SwapInvolution(AlgebraPresentation(gens, Z, 6), [("a", "b")], ["t"])
    # t^2 = a^4 is not fixed by the swap
    gens = [
        GeneratorSpec("a", degree=1),
        GeneratorSpec("b", degree=1),
        GeneratorSpec("t", degree=2, power_bound=2, replacement=((1, {"a": 4}),)),
    ]
    with pytest.raises(ConfigurationError, match="rule of fixed generator 't' is not swap-invariant"):
        SwapInvolution(AlgebraPresentation(gens, Z, 6), [("a", "b")], ["t"])
    # the weil fiber rules are written in c_i and c'_i, so swapping a and b
    # while fixing the Chern classes is refused
    for r in (1, 2, 3):
        ring = build_weil(r, Z, 2 * r + 4).algebra
        chern = [g.name for g in ring.generators if g.name not in ("a", "b")]
        with pytest.raises(ConfigurationError, match="not the swap image"):
            SwapInvolution(ring, [("a", "b")], chern)
    # symmetric rules are accepted, and then the swap is multiplicative
    gens = [
        GeneratorSpec("t", degree=2),
        GeneratorSpec("a", degree=1, power_bound=2, replacement=((1, {"t": 1}),)),
        GeneratorSpec("b", degree=1, power_bound=2, replacement=((1, {"t": 1}),)),
    ]
    ring = AlgebraPresentation(gens, Z, 6)
    sigma = SwapInvolution(ring, [("a", "b")], ["t"])
    basis = [ring.monomial(dict(zip("tab", m))) for d in range(4) for m in ring.degree_basis(d)]
    for x in basis:
        for y in basis:
            assert sigma.apply(x * y) == sigma.apply(x) * sigma.apply(y)
    # every shipped swap still builds
    for coeff in (Z, F2):
        swap_polynomial_ring(3, 2, coeff, 6)
        for r in (1, 2, 3):
            _mutated(build_weil(r, coeff, 2 * r + 4))


def test_generator_products_degree_zero():
    ring, _ = swap_polynomial_ring(1, 0, Z, truncation=3)
    prods = generator_products(ring, [ring.gen("a1") * ring.gen("b1")], 0)
    assert prods == [[ring.one()]]


def _reference_products(A: AlgebraPresentation, generators, d: int) -> list[Element]:
    """All products of the given homogeneous elements with total degree d."""
    degrees = []
    for g in generators:
        gd = g.homogeneous_degree()
        if gd is None or gd < 1:
            raise UsageError("generators must be homogeneous of positive degree")
        degrees.append(gd)
    out: list[Element] = []

    def rec(i: int, remaining: int, acc: Element) -> None:
        if acc.is_zero:
            return
        if i == len(degrees):
            if remaining == 0:
                out.append(acc)
            return
        power = acc
        e = 0
        while True:
            rec(i + 1, remaining - e * degrees[i], power)
            e += 1
            if e * degrees[i] > remaining:
                break
            power = power * generators[i]

    rec(0, d, A.one())
    return out


def _swap_generators(coeff):
    ring, _ = swap_polynomial_ring(2, 1, coeff, truncation=7)
    a1, b1, a2, b2, t1 = (ring.gen(n) for n in ("a1", "b1", "a2", "b2", "t1"))
    return ring, [t1, a1 * b1, a2 * b2, a1 + b1, a1 * a1 + b1 * b1], 7


def _weil_generators(r):
    ring = build_weil(r, Z, 2 * r + 2).algebra
    c = ring.gen("a") * ring.gen("b")
    pairs = [ring.gen(f"c{i}") * ring.gen(f"cp{i}") for i in range(1, r + 1)]
    return ring, pairs + [c, ring.gen("a") + ring.gen("b")], 2 * r + 2


def _max_orth_generators():
    ring = max_orth_ring(7)
    return ring, [ring.gen(f"e{i}") for i in range(1, 7)], 12


def _prev_max_generators():
    ring = prev_max_orth_ring(2)
    e, e1 = ring.gen("e"), ring.gen("e1")
    return ring, [e, e1, e * e1] + [ring.gen(f"e{i}") for i in range(2, 5)], 9


def _high_generator():
    ring, _ = swap_polynomial_ring(1, 1, Z, truncation=6)
    t1, a1, b1 = ring.gen("t1"), ring.gen("a1"), ring.gen("b1")
    return ring, [t1, t1 ** 3 + a1 * a1 * b1, a1 * b1], 2


PRODUCT_CASES = {
    "swap_Z": lambda: _swap_generators(Z),
    "swap_F2": lambda: _swap_generators(F2),
    "weil_r1": lambda: _weil_generators(1),
    "weil_r2": lambda: _weil_generators(2),
    "max_orth_7": _max_orth_generators,
    "prev_max_2": _prev_max_generators,
    "generator_above_top": _high_generator,
}


@pytest.mark.parametrize("case", list(PRODUCT_CASES))
def test_generator_products_match_the_recursive_reference(case):
    ring, gens, top = PRODUCT_CASES[case]()
    for t in (0, top):
        products = generator_products(ring, gens, t)
        assert len(products) == t + 1
        for d in range(t + 1):
            expected = _reference_products(ring, gens, d)
            assert len(products[d]) == len(expected), (case, t, d)
            assert all(x == y for x, y in zip(products[d], expected)), (case, t, d)


def test_generator_products_vanishing_products_are_pruned():
    # e4^2 = e8 lies past e6, so e1^8 = e4^2 and all its multiples vanish
    ring, gens, top = _max_orth_generators()
    products = generator_products(ring, gens, top)
    assert all(not x.is_zero for layer in products for x in layer)
    exponent_vectors = [1] + [0] * top  # exponent vectors of each total degree
    for g in gens:
        gd = g.homogeneous_degree()
        for d in range(gd, top + 1):
            exponent_vectors[d] += exponent_vectors[d - gd]
    assert len(products[8]) < exponent_vectors[8]


def test_generator_products_rejects_a_non_homogeneous_generator():
    ring, _ = swap_polynomial_ring(1, 1, Z, truncation=4)
    t1, a1 = ring.gen("t1"), ring.gen("a1")
    for gens in ([t1, t1 + a1 * a1], [t1, ring.one()], [t1 * t1 * t1 + a1]):
        with pytest.raises(UsageError):
            generator_products(ring, gens, 4)
        with pytest.raises(UsageError):
            generator_products(ring, gens, 0)


def test_non_generation_witness():
    report = non_generation_witness()
    assert report.passed
    assert not report.witness_in_low_degree_span
    assert report.doubled_in_low_degree_span
    assert report.witness_is_norm
    named = {frozenset(m.items()) for _, m in report.witness.to_pairs()}
    assert named == {
        frozenset({("a1", 1), ("a2", 1), ("a3", 1)}),
        frozenset({("b1", 1), ("b2", 1), ("b3", 1)}),
    }


def test_generation_check_tests_membership_only_when_the_span_falls_short(monkeypatch):
    calls = []
    contains = algebra.Span.contains
    monkeypatch.setattr(algebra.Span, "contains", lambda self, x: calls.append(x) or contains(self, x))
    assert codim_le2_generation_check(1, 3, 8, F2).passed
    assert calls == []
    # the first uncovered fixed monomial, past covered ones: t1 covers t1^2 but
    # not a1*b1, and a1*b1 covers a1^2*b1^2 but not a1*b1*t1^2
    ring, sigma = swap_polynomial_ring(1, 1, F2, 4)
    a1, b1, t1 = ring.gen("a1"), ring.gen("b1"), ring.gen("t1")
    for gens, expected in (
        ([t1], [None, None, a1 * b1, a1 * b1 * t1, a1 * a1 * b1 * b1]),
        ([a1 * b1], [None, t1, t1 * t1, a1 * b1 * t1, a1 * b1 * t1 * t1]),
    ):
        report = quotient_generation_check(sigma, gens, 4)
        assert [dc.witness for dc in report.degrees] == expected, gens
    assert calls


def test_generation_report_json_schema():
    report = codim_le2_generation_check(1, 2, 4, Z)
    data = report_json(report)
    assert set(data) == {"degrees", "pass"}
    assert data["pass"] is True
    for entry in data["degrees"]:
        assert set(entry) == {"d", "pass", "witness"}
