"""The lattice of products and norms as the reference for invariants modulo norms.

The checks decide "modulo norms" on classes in F2 on the fixed monomials
(``SwapInvolution.norm_class`` of a swap built as
``SwapInvolution(ring, pairs, fixed)``).  The reference decides the same
questions in the Z or F2 lattice spanned by the products together with the
whole norm module, and Weil freeness by the kernel of that lattice.  Both must agree degree by
degree, witnesses included.
"""

import pytest

from chowlab.algebra import F2, AlgebraPresentation, GeneratorSpec, Z
from chowlab.invariants import (
    SwapInvolution,
    codim_le2_generation_check,
    generator_products,
    invariant_basis,
    norm_image_basis,
    quotient_generation_check,
    swap_polynomial_ring,
)
from chowlab.suites import report_json
from chowlab.weil import (
    _base,
    _mutated,
    base_generation_check,
    build,
    freeness_check,
    relation_element,
)


def lattice_uncovered(sigma, products, d):
    """First invariant basis element outside the lattice span(products + norms), or None."""
    span = sigma.algebra.span_solver(products + norm_image_basis(sigma, d), d)
    return next((v for v in invariant_basis(sigma, d) if not span.contains(v)), None)


def lattice_generation(sigma, generators, max_degree):
    """Per-degree JSON of the lattice answer, in the form ``report_json`` gives a ``DegreeCheck``."""
    products = generator_products(sigma.algebra, generators, max_degree)
    out = []
    for d in range(max_degree + 1):
        witness = lattice_uncovered(sigma, products[d], d)
        pairs = witness.to_pairs() if witness is not None else None
        out.append({"d": d, "pass": witness is None, "witness": pairs})
    return out


def assert_matches_lattice(report, sigma, generators, max_degree):
    got = [report_json(dc) for dc in report.degrees]
    assert got == lattice_generation(sigma, generators, max_degree)


def lattice_kernel_matches_base_norms(sigma, r, d):
    """Both inclusions, on the kernel of the lattice of base invariants times c^k and norms."""
    ring = sigma.algebra
    base_sigma = _base(ring)
    base = base_sigma.algebra
    c = ring.gen("a") * ring.gen("b")
    ks = range(min(r, d // 2 + 1))
    base_inv = {k: invariant_basis(base_sigma, d - 2 * k) for k in ks}
    base_norms = {k: norm_image_basis(base_sigma, d - 2 * k) for k in ks}
    labels = [(k, idx) for k in ks for idx in range(len(base_inv[k]))]
    # a base element enters the ring by its generator names
    vectors = [ring.element(base_inv[k][idx].to_pairs()) * c ** k for k, idx in labels]
    norms = norm_image_basis(sigma, d)
    full_solver = ring.span_solver(norms, d)
    for k in ks:
        for nu in base_norms[k]:
            if not full_solver.contains(ring.element(nu.to_pairs()) * c ** k):
                return False
    base_norm_solvers = {k: base.span_solver(base_norms[k], d - 2 * k) for k in ks}
    for combo in ring.span_solver(vectors + norms, d).kernel():
        for k, betas in base_inv.items():
            acc = base.zero()
            for coeff, (kk, idx) in zip(combo, labels):
                if kk == k and coeff:
                    acc = acc + betas[idx] * coeff
            if not base_norm_solvers[k].contains(acc):
                return False
    return True


def pair_power_products(ring, r, d):
    """(c_1 c'_1)^m1 ... (c_r c'_r)^mr * c^k with k < r and total degree d, multiplied out."""
    pairs = [ring.gen(f"c{i}") * ring.gen(f"cp{i}") for i in range(1, r + 1)]
    products = generator_products(ring, pairs, d)
    c = ring.gen("a") * ring.gen("b")
    return [x * c ** k for k in range(min(r, d // 2 + 1)) for x in products[d - 2 * k]]


def lattice_relation_in_norms(sigma, r):
    ok, _ = sigma.algebra.span_membership(
        relation_element(sigma.algebra), norm_image_basis(sigma, 2 * r)
    )
    return ok


SUITE_CASES = [
    (coeff, k, r, max_degree)
    for max_degree, max_r in ((5, 2), (6, 3))  # the golden report's options, the defaults
    for coeff in (Z, F2)
    for k in (0, 1)
    for r in range(1, max_r + 1)
]


@pytest.mark.parametrize("coeff,k,r,max_degree", SUITE_CASES)
def test_suite_generation_matches_lattice(coeff, k, r, max_degree):
    report = codim_le2_generation_check(k, r, max_degree, coefficients=coeff)
    ring, sigma = swap_polynomial_ring(r, k, coeff, max_degree)
    gens = [ring.gen(f"t{j}") for j in range(1, k + 1)]
    gens += [ring.gen(f"a{i}") * ring.gen(f"b{i}") for i in range(1, r + 1)]
    assert report.passed
    assert_matches_lattice(report, sigma, gens, max_degree)


def _pair(ring, i):
    return ring.gen(f"a{i}") * ring.gen(f"b{i}")


def _sum(ring, i):
    return ring.gen(f"a{i}") + ring.gen(f"b{i}")


FAILING_SETS = {
    "last_pair_dropped": lambda ring, r: [_pair(ring, i) for i in range(1, r)],
    "sums": lambda ring, r: [_sum(ring, i) for i in range(1, r + 1)],
    "sums_and_pairs_from_2": lambda ring, r: (
        [_sum(ring, i) for i in range(1, r + 1)] + [_pair(ring, i) for i in range(2, r + 1)]
    ),
    "doubled_pairs": lambda ring, r: [2 * _pair(ring, i) for i in range(1, r + 1)],
}

FAILING_CASES = [
    (name, coeff, k, r)
    for name in FAILING_SETS
    for coeff in (Z, F2)
    if name != "doubled_pairs" or coeff == Z  # 2 a_i b_i vanishes mod 2
    for k in (0, 1)
    for r in (1, 2, 3)
]


@pytest.mark.parametrize("name,coeff,k,r", FAILING_CASES)
def test_failing_generators_match_lattice(name, coeff, k, r):
    ring, sigma = swap_polynomial_ring(r, k, coeff, 7)
    gens = [ring.gen(f"t{j}") for j in range(1, k + 1)] + FAILING_SETS[name](ring, r)
    report = quotient_generation_check(sigma, gens, 7)
    assert not report.passed
    assert_matches_lattice(report, sigma, gens, 7)


def _collapsed(sigma):
    """The fiber generators a and b set to zero, so c = 0 and freeness fails for r >= 2."""
    ring = sigma.algebra
    gens = [
        GeneratorSpec(g.name, degree=1, power_bound=1) if g.name in ("a", "b") else g
        for g in ring.generators
    ]
    return SwapInvolution(AlgebraPresentation(gens, ring.coefficients, ring.truncation), sigma.pairs)


def _misglued(sigma):
    """The identity involution of the ring, fixing every Chern class unlike the base involution.

    Base norms such as c_1 + c'_1 are then invariant non-norms of the ring, so
    the first inclusion fails.  Swapping only a and b is no involution of the
    ring, because the fiber rules are not swap images of each other; the
    constructor refuses it (``test_swap_must_permute_the_rewrite_rules``).
    """
    names = tuple(g.name for g in sigma.algebra.generators)
    return SwapInvolution(sigma.algebra, [], fixed=names)


WEIL_VARIANTS = {
    "built": lambda sigma: sigma,
    "mutated": _mutated,
    "collapsed": _collapsed,
    "misglued": _misglued,
}


@pytest.mark.parametrize("coeff", [Z, F2])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("variant", list(WEIL_VARIANTS))
def test_weil_freeness_matches_lattice(coeff, r, variant):
    sigma = WEIL_VARIANTS[variant](build(r, coeff, 2 * r + 4))
    report = freeness_check(sigma)
    degrees = range(5)  # relative degrees 0..D - 2r
    assert report.spanning == {
        d: lattice_uncovered(sigma, pair_power_products(sigma.algebra, r, d), d) is None
        for d in degrees
    }
    assert report.freeness == {d: lattice_kernel_matches_base_norms(sigma, r, d) for d in degrees}
    assert report.relation_in_norms == lattice_relation_in_norms(sigma, r)
    mutated = _mutated(sigma)
    assert report.mutation_rejected == (not lattice_relation_in_norms(mutated, r))
    free = variant in ("built", "mutated") or (variant == "collapsed" and r == 1)
    assert all(report.freeness.values()) == free
    assert report.passed == (variant == "built")
    # r, D and the coefficients are read off the ring; the collapsed variant's
    # a and b have power bound 1, so a rank read from that bound would show here
    assert (report.r, report.module_rank, report.D, report.coefficients) == (r, r, 2 * r + 4, coeff)
    assert report.mutation_witness == relation_element(mutated.algebra).to_pairs()
    assert [(g.power_bound, g.replacement) for g in mutated.algebra.generators[-2:]] == [(r, ())] * 2


@pytest.mark.parametrize("coeff", [Z, F2])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_weil_base_generation_matches_lattice(coeff, r):
    sigma = build(r, coeff, 2 * r + 4)
    base_sigma = _base(sigma.algebra)
    base = base_sigma.algebra
    gens = [base.gen(f"c{i}") * base.gen(f"cp{i}") for i in range(1, r + 1)]
    report = base_generation_check(sigma)
    assert_matches_lattice(report, base_sigma, gens, 4)
