"""Orthogonal grassmannian ring models, annihilator quotients and the odd pipeline."""

import random

import pytest

from chowlab import grassmann
from chowlab.algebra import Element
from chowlab.errors import BudgetError, UsageError
from chowlab.grassmann import (
    SubringClosure,
    annihilator,
    class_xr_even,
    class_xr_odd,
    isochow_quotient,
    max_orth_ring,
    odd_case_pipeline,
    odd_quotient_ring,
    odd_squares_vanish,
    prev_max_orth_ring,
    prev_max_sigma,
    subring_basis,
    uniqueness_in_codim,
)
from chowlab.motives import essential_poincare
from chowlab.polynomials import PoincarePolynomial


def test_max_orth_ring_counts():
    for n in range(2, 8):
        ring = max_orth_ring(n)
        p = ring.poincare()
        assert p.total == 2 ** (n - 1)
        assert p.degree == ring.max_degree == n * (n - 1) // 2
        assert p.is_palindromic()


def _shifted_staircase_tableaux(N: int) -> int:
    """Standard shifted tableaux of shape (N-1, ..., 1), counted by corner removal."""
    counts = {(): 1}

    def count(shape):
        if shape not in counts:
            total = 0
            for i, row in enumerate(shape):
                later = shape[i + 1] if i + 1 < len(shape) else 0
                if row - 1 > later or row == 1:
                    smaller = shape[:i] + ((row - 1,) if row > 1 else ()) + shape[i + 1:]
                    total += count(smaller)
            counts[shape] = total
        return counts[shape]

    return count(tuple(range(N - 1, 0, -1)))


def test_top_power_of_e1_sees_spinor_degree_parity():
    # deg of the spinor variety = number of standard shifted staircase
    # tableaux, and e1^top is that degree times the point class mod 2
    degrees = [_shifted_staircase_tableaux(N) for N in range(2, 8)]
    assert degrees == [1, 1, 2, 12, 286, 33592]
    for N, degree in zip(range(2, 8), degrees):
        ring = max_orth_ring(N)
        top_power = ring.gen("e1") ** ring.max_degree
        assert (not top_power.is_zero) == (degree % 2 == 1), N


def test_subring_basis_examples():
    ring = max_orth_ring(4)
    assert subring_basis(ring, [ring.gen("e2")], 2) == [ring.gen("e2")]
    assert subring_basis(ring, [], 0) == [ring.one()]
    ring6 = max_orth_ring(6)
    basis = subring_basis(ring6, [ring6.gen("e2"), ring6.gen("e4")], 6)
    assert basis == [ring6.gen("e2") * ring6.gen("e4")]


def test_class_xr_even_examples():
    ring, cls = class_xr_even(2)
    assert cls == ring.gen("e2")
    assert cls.homogeneous_degree() == 2
    ring1, cls1 = class_xr_even(1)
    assert cls1 == ring1.one()
    ring3, cls3 = class_xr_odd(1)
    assert cls3 == ring3.gen("e2")
    assert cls3.homogeneous_degree() == 2


def test_uniqueness_in_codim():
    for r in (1, 2, 3):
        assert uniqueness_in_codim(r)
    # codimension 6 of the rank-8 model holds both e6 and e2*e4 in the even subring
    ring = max_orth_ring(8)
    assert not grassmann._unique_in_even_subring(ring, ring.gen("e6"))


def test_subring_closure_admits_its_degrees_before_indexing():
    # the even subring of max_orth_ring(24) reaches 1,848,458 monomials up to
    # codimension 132, more than the budget: refused with no degree indexed
    ring, cls = class_xr_even(12)
    with pytest.raises(BudgetError, match="needs 1848458 normal monomials indexed"):
        grassmann._unique_in_even_subring(ring, cls)
    assert ring._bases == {}


def test_annihilator_maxorth4():
    ring = max_orth_ring(4)
    e1, e2, e3 = ring.gen("e1"), ring.gen("e2"), ring.gen("e3")
    ann = annihilator(e2, ring)
    assert ann[2] == [e2]
    assert ann[3] == [e1 * e2]
    assert ann[1] == []
    assert ann[4] == []
    # e3 * e2 = e2 e3 is nonzero, so e3 is not annihilated
    assert not (e3 * e2).is_zero
    ann_one = annihilator(ring.one(), ring)
    assert all(not v for v in ann_one.values())
    with pytest.raises(UsageError):
        annihilator(ring.zero(), ring)


def test_rank_nullity_per_degree():
    for r in (1, 2, 3):
        ring, cls = class_xr_even(r)
        ann = annihilator(cls, ring)
        quotient = isochow_quotient(r)
        for d in range(ring.max_degree + 1):
            dim_d = len(ring.degree_basis(d))
            assert dim_d == len(ann[d]) + quotient[d]


def test_isochow_quotient_values():
    assert isochow_quotient(1) == [1, 1]
    assert isochow_quotient(2) == [1, 1, 0, 1, 1]
    assert isochow_quotient(3) == PoincarePolynomial.exterior([1, 3, 5])


def test_isochow_closed_form_and_motive_match():
    for r in (1, 2, 3):
        q = isochow_quotient(r)
        assert q == PoincarePolynomial.exterior(2 * i - 1 for i in range(1, r + 1))
        assert q == essential_poincare(2 * r, r)


def test_odd_generators_square_to_zero_in_quotient():
    for r in (1, 2, 3):
        assert odd_squares_vanish(r)


def test_prev_max_ring_shape():
    for r in (1, 2):
        p = prev_max_orth_ring(r).poincare()
        assert p.total == (2 * r + 1) * 2 ** (2 * r)


def test_prev_max_sigma_involution():
    rng = random.Random(31)
    for r in (1, 2):
        ring = prev_max_orth_ring(r)
        names = [g.name for g in ring.generators]
        for _ in range(15):
            pairs = []
            for _ in range(rng.randint(1, 3)):
                mono = {rng.choice(names): 1, rng.choice(names): rng.randint(0, 2)}
                pairs.append((1, mono))
            x = ring.element(pairs)
            assert prev_max_sigma(prev_max_sigma(x)) == x


def test_prev_max_sigma_semilinear_over_fixed_subring():
    # sigma(x*y) = x*sigma(y) whenever x avoids the moved generator
    rng = random.Random(37)
    ring = prev_max_orth_ring(2)
    fixed_names = [g.name for g in ring.generators if g.name != "e1"]
    names = [g.name for g in ring.generators]
    for _ in range(15):
        x = ring.element(
            [(1, {rng.choice(fixed_names): rng.randint(1, 2)}) for _ in range(2)]
        )
        y = ring.element([(1, {rng.choice(names): 1}) for _ in range(2)])
        assert prev_max_sigma(x * y) == x * prev_max_sigma(y)
        assert prev_max_sigma(x) == x


def test_prev_max_sigma_against_substitute():
    # the monomial rule against the generic ring map sending e1 to e + e1
    rng = random.Random(41)
    for r in (1, 2, 3):
        ring = prev_max_orth_ring(r)
        e, e1 = ring.gen("e"), ring.gen("e1")
        images = {g.name: ring.gen(g.name) for g in ring.generators}
        images["e1"] = e + e1
        monomials = [x for d in range(ring.max_degree + 1) for x in ring.basis_elements(d)]
        moved = 0
        for x in monomials:
            assert prev_max_sigma(x) == ring.substitute(x, images), x
            named = ring.monomial_named(*x.terms)
            if named.pop("e1", 0):
                q = ring.monomial(named)
                assert e1 * q == x
                assert x + prev_max_sigma(x) == q * e, x
                moved += 1
        assert moved == len(monomials) // 2
        for _ in range(40):
            x = sum(rng.sample(monomials, rng.randint(2, 12)), ring.zero())
            assert prev_max_sigma(x) == ring.substitute(x, images), x


def test_odd_case_pipeline_multiplies_within_a_work_bound(monkeypatch):
    # a count, not a timing: sigma by its monomial rule takes 2024 products here,
    # the generic substitute of every generator's image into each element 6440
    products = 0
    mul = Element.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    report = odd_case_pipeline(3)
    assert report.norm_equals_ideal and report.model_consistent and report.class_nonzero
    assert products <= 2230, products


def test_prev_max_norm_examples():
    ring = prev_max_orth_ring(1)
    e, e1, e2 = ring.gen("e"), ring.gen("e1"), ring.gen("e2")

    def norm(x):
        return x + prev_max_sigma(x)

    assert norm(e1) == e
    assert norm(ring.one()).is_zero
    assert norm(e1 * e2) == e * e2
    assert norm(ring.monomial({"e": 2, "e1": 1})).is_zero  # e^3 = 0


def test_odd_quotient_ring_rank():
    for r in (1, 2, 3):
        ring = odd_quotient_ring(r)
        assert ring.poincare().total == 2 ** (2 * r - 1)


def test_odd_case_pipeline_small():
    for r in (1, 2):
        report = odd_case_pipeline(r)
        assert report.norm_equals_ideal
        assert report.model_consistent
        assert report.class_nonzero
        assert report.class_unique_in_codim
        # the mechanical quotient agrees with the printed generator list and
        # disagrees with both the shifted reading and the motive recursion
        assert report.matches["exterior_printed"]
        assert not report.matches["exterior_shifted_top"]
        assert not report.matches["essential_motive"]
        assert not report.rank_matches["essential_motive"]


def test_odd_squares_check_fails_for_a_class_they_do_not_kill(monkeypatch):
    # with the unit as the class, e1^2 = e2 survives in the rank-4 model
    real = grassmann.class_xr_even

    def unit_class(r):
        ring, _ = real(r)
        return ring, ring.one()

    monkeypatch.setattr(grassmann, "class_xr_even", unit_class)
    assert odd_squares_vanish(2) is False


def test_odd_case_pipeline_fails_when_sigma_is_the_identity(monkeypatch):
    # every norm x + x vanishes over F2, so neither the ideal nor the model fits
    monkeypatch.setattr(grassmann, "prev_max_sigma", lambda x: x)
    for r in (1, 2):
        report = odd_case_pipeline(r)
        assert report.norm_equals_ideal is False and report.model_consistent is False
        assert report.class_nonzero


def test_odd_case_quotient_values():
    assert odd_case_pipeline(1).quotient_poincare == [1]
    assert odd_case_pipeline(2).quotient_poincare == [1, 0, 0, 1]


def test_subring_closure_validates_generators():
    ring = max_orth_ring(4)
    with pytest.raises(UsageError):
        SubringClosure(ring, [ring.gen("e1") + ring.gen("e2")])
