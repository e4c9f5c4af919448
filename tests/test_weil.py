"""Double projective-bundle model: relation membership and module freeness."""

import random

import pytest

from chowlab.algebra import F2, Z
from chowlab.errors import UsageError
from chowlab.invariants import norm_image_basis
from chowlab.suites import report_json
from chowlab.weil import (
    base_generation_check,
    build,
    freeness_check,
    product_relation_check,
    relation_element,
)


def test_build_requires_room():
    with pytest.raises(UsageError):
        build(2, Z, 3)
    with pytest.raises(UsageError):
        build(0, Z, 4)


def test_rank_one_degenerates():
    ring = build(1, Z, 6).algebra
    a, b, c1, cp1 = ring.gen("a"), ring.gen("b"), ring.gen("c1"), ring.gen("cp1")
    assert a == c1
    assert a * b == c1 * cp1


def test_fiber_relation_signs_over_z():
    sigma = build(2, Z, 8)
    ring = sigma.algebra
    a2 = ring.monomial({"a": 2})
    assert a2 == ring.gen("c1") * ring.gen("a") - ring.gen("c2")
    assert sigma.apply(a2) == ring.gen("cp1") * ring.gen("b") - ring.gen("cp2")
    assert sigma.apply(a2) == ring.monomial({"b": 2})


def test_sigma_is_ring_involution():
    rng = random.Random(23)
    sigma = build(2, Z, 8)
    ring = sigma.algebra
    names = [g.name for g in ring.generators]

    def rand_elt():
        pairs = []
        for _ in range(rng.randint(1, 4)):
            mono = {rng.choice(names): rng.randint(1, 2)}
            mono[rng.choice(names)] = rng.randint(0, 2)
            pairs.append((rng.randint(-2, 2), mono))
        return ring.element(pairs)

    for _ in range(20):
        x, y = rand_elt(), rand_elt()
        assert sigma.apply(sigma.apply(x)) == x
        assert sigma.apply(x * y) == sigma.apply(x) * sigma.apply(y)


def test_norm_span_is_ideal():
    rng = random.Random(29)
    for coeff in (Z, F2):
        sigma = build(2, coeff, 8)
        ring = sigma.algebra
        for _ in range(8):
            d1, d2 = rng.randint(1, 2), rng.randint(1, 3)
            inv = ring.basis_elements(d1)
            x = inv[rng.randrange(len(inv))]
            x = x + sigma.apply(x)  # invariant
            norms = norm_image_basis(sigma, d2)
            nu = norms[rng.randrange(len(norms))]
            ok, _ = ring.span_membership(x * nu, norm_image_basis(sigma, d1 + d2))
            assert ok


def test_product_relation_instances():
    for r in (1, 2, 3):
        for coeff in (Z, F2):
            assert product_relation_check(build(r, coeff, 2 * r + 4)), (r, coeff)


def test_relation_element_r1_vanishes():
    assert relation_element(build(1, F2, 6).algebra).is_zero


def test_freeness_instances():
    for r in (1, 2, 3):
        for coeff in (Z, F2):
            report = freeness_check(build(r, coeff, 2 * r + 4))
            assert report.passed, (r, coeff, report_json(report))
            assert report.module_rank == r
            assert report.mutation_rejected


def test_mutation_witness_shape():
    report = freeness_check(build(2, F2, 8))
    # with the fake relation c^2 = 0 the leftover c_1 c'_1 c + c_2 c'_2 escapes the norms
    named = {frozenset(m.items()) for _, m in report.mutation_witness}
    assert named == {
        frozenset({("c1", 1), ("cp1", 1), ("a", 1), ("b", 1)}),
        frozenset({("c2", 1), ("cp2", 1)}),
    }


def test_base_generation_by_pair_products():
    for r in (1, 2, 3):
        for coeff in (Z, F2):
            report = base_generation_check(build(r, coeff, 2 * r + 4))
            assert report.passed, (r, coeff)
