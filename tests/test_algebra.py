"""Presented graded algebras: normal forms, bases, counting, span membership."""

import itertools
import json
import random
import re

import pytest

from chowlab import algebra, grassmann, weil
from chowlab.algebra import (
    F2,
    Z,
    AlgebraPresentation,
    Element,
    GeneratorSpec,
    free_polynomial_ring,
)
from chowlab.errors import BudgetError, ConfigurationError, PresentationError, UsageError
from chowlab.grassmann import max_orth_ring, odd_quotient_ring, prev_max_orth_ring
from chowlab.invariants import swap_polynomial_ring
from chowlab.weil import build as build_weil


def _maxorth(n):
    return max_orth_ring(n)


def test_normal_form_square_rewrites():
    ring = _maxorth(4)
    assert ring.monomial({"e1": 2}) == ring.gen("e2")
    assert ring.monomial({"e3": 2}).is_zero
    for name in ("e1", "e2", "e3"):
        assert ring.monomial({name: 1}) == ring.gen(name)


def test_normal_form_unknown_generator():
    ring = _maxorth(4)
    with pytest.raises(PresentationError):
        ring.monomial({"x": 1})


def test_multiply_examples():
    ring = _maxorth(4)
    e1, e2 = ring.gen("e1"), ring.gen("e2")
    x = e1 + e2
    assert x * ring.one() == x
    assert e1 * e1 == e2
    assert (e1 + e2) * e1 == e2 + ring.monomial({"e1": 1, "e2": 1})


def test_multiply_bilinear_random():
    rng = random.Random(11)
    ring = _maxorth(5)

    def rand_elt():
        pairs = []
        for _ in range(rng.randint(0, 4)):
            mono = {f"e{i}": rng.randint(0, 2) for i in range(1, 5)}
            pairs.append((1, mono))
        return ring.element(pairs)

    for _ in range(40):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


def test_degree_additivity_random():
    rng = random.Random(5)
    ring = _maxorth(6)
    for _ in range(30):
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        basis1, basis2 = ring.degree_basis(d1), ring.degree_basis(d2)
        if not basis1 or not basis2:
            continue
        m1 = rng.choice(basis1)
        m2 = rng.choice(basis2)
        from chowlab.algebra import Element

        prod = Element(ring, {m1: 1}) * Element(ring, {m2: 1})
        if not prod.is_zero:
            assert prod.homogeneous_degree() == d1 + d2


def test_degree_basis_examples():
    ring = _maxorth(4)
    named = [ring.monomial_named(m) for m in ring.degree_basis(3)]
    assert {frozenset(d.items()) for d in named} == {
        frozenset({("e3", 1)}),
        frozenset({("e1", 1), ("e2", 1)}),
    }
    assert ring.degree_basis(0) == [(0, 0, 0)]
    assert [ring.monomial_named(m) for m in ring.degree_basis(6)] == [
        {"e1": 1, "e2": 1, "e3": 1}
    ]


def test_degree_basis_against_exhaustive_enumeration():
    # independent oracle: filter raw exponent boxes by the normal-form predicate;
    # the order is canonical, and degrees past max_degree (3, 6, 10) are empty
    for n in (3, 4, 5):
        ring = _maxorth(n)
        for d in range(13):
            expected = set()
            ranges = [range(0, 2) for _ in range(n - 1)]  # square-free bound
            for exps in itertools.product(*ranges):
                if sum(e * i for e, i in zip(exps, range(1, n))) == d:
                    expected.add(exps)
            assert ring.degree_basis(d) == sorted(expected)


def test_poincare_examples():
    assert _maxorth(4).poincare() == [1, 1, 1, 2, 1, 1, 1]
    assert _maxorth(4).poincare().total == 8
    assert _maxorth(6).poincare().total == 32
    empty = AlgebraPresentation([], F2, truncation=4)
    assert empty.poincare() == [1]


def test_poincare_duality_maxorth():
    for n in range(2, 8):
        p = _maxorth(n).poincare()
        assert p.is_palindromic()
        assert p.degree == n * (n - 1) // 2
        assert p.total == 2 ** (n - 1)


def test_span_membership_over_z():
    ring = free_polynomial_ring([("a", 1), ("b", 1)], Z, truncation=4)
    a, b = ring.gen("a"), ring.gen("b")
    sym = a * a + b * b
    twice = 2 * a * b
    ok, coeffs = ring.span_membership(2 * a * b, [sym, twice])
    assert ok and coeffs == [0, 1]
    ok, coeffs = ring.span_membership(a * b, [sym, twice])
    assert not ok and coeffs is None
    ok, coeffs = ring.span_membership(ring.zero(), [sym, twice])
    assert ok and coeffs == [0, 0]


def test_span_membership_mixed_degree_rejected():
    ring = free_polynomial_ring([("a", 1), ("b", 1)], Z, truncation=4)
    with pytest.raises(UsageError):
        ring.span_membership(ring.gen("a"), [ring.gen("a") * ring.gen("b")])


def _combination(ring, coeffs, elements):
    return sum((x * c for c, x in zip(coeffs, elements)), ring.zero())


@pytest.mark.parametrize("coefficients", [F2, Z])
def test_span_answers_in_elements(coefficients):
    from chowlab.invariants import swap_polynomial_ring

    if coefficients == F2:
        ring, d, coeffs, seed = _maxorth(4), 3, [0, 1], 20
    else:
        ring, d, coeffs, seed = swap_polynomial_ring(1, 1, Z, 3)[0], 2, [-2, -1, 0, 1, 2], 21
    rng = random.Random(seed)
    basis = ring.basis_elements(d)
    pool = [_combination(ring, [rng.choice(coeffs) for _ in basis], basis) for _ in range(6)]
    pool += [pool[0] + pool[1], 2 * pool[2], ring.zero(), basis[-1]]
    span = ring.span_solver(pool[:2], d)
    added = pool[:2]
    rose = []
    for x in pool[2:]:
        before = span.rank
        rose.append(span.add(x))
        added.append(x)
        assert rose[-1] == (span.rank == before + 1)
    assert True in rose and False in rose
    kernel = span.kernel()
    assert len(kernel) == len(added) - span.rank
    for combo in kernel:
        assert len(combo) == len(added) and any(combo)
        assert _combination(ring, combo, added).is_zero
    probes = basis + [_combination(ring, [rng.choice(coeffs) for _ in added], added)
                      for _ in range(4)]
    for target in probes:
        ok, witness = ring.span_membership(target, added)
        assert span.contains(target) == ok
        assert span.witness(target) == witness
        if ok:
            assert _combination(ring, witness, added) == target
    assert all(span.contains(x) for x in added)


def test_truncation_projects_high_degrees():
    ring = free_polynomial_ring([("a", 1)], Z, truncation=3)
    a = ring.gen("a")
    assert (a ** 3) == ring.monomial({"a": 3})
    assert (a ** 4).is_zero


def test_named_monomial_above_max_degree_is_zero():
    # rewriting e1^N one square at a time would take time linear in N
    ring = _maxorth(4)
    assert ring.monomial({"e1": 10**12}).is_zero
    assert ring.element([(1, {"e1": 10**12}), (3, {"e2": 1})]) == ring.element([(3, {"e2": 1})])
    # below and above the top degree alike, the same normal form as plain rewriting
    for ring in (_maxorth(4), _maxorth(5), free_polynomial_ring([("a", 1)], Z, truncation=3)):
        for name in (g.name for g in ring.generators):
            for e in range(ring.max_degree + 4):
                exps = ring._exps_from_named({name: e})
                assert ring.monomial({name: e}).terms == ring._normalize([(exps, 1)])


def test_power_stops_at_the_first_zero_product(monkeypatch):
    # multiplying on after the power is zero would take time linear in n
    ring = _maxorth(4)
    e1 = ring.gen("e1")
    assert [(e1**k).terms for k in range(ring.max_degree + 3)] == [
        ring.monomial({"e1": k}).terms for k in range(ring.max_degree + 3)
    ]
    products = 0
    mul = Element.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        if products > ring.max_degree + 1:
            raise AssertionError("multiplied past the top degree")
        return mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    assert (e1 ** 10**12).is_zero


def _reference_normalize(self, raw_terms):
    # the pending-loop normal form that the kernel replaced, kept as its oracle
    def _reduce_coeff(c):
        return c % 2 if self.coefficients == F2 else c

    pending = {}
    for mono, coeff in raw_terms:
        pending[mono] = pending.get(mono, 0) + coeff
    out = {}
    while pending:
        mono, coeff = pending.popitem()
        coeff = _reduce_coeff(coeff)
        if coeff == 0:
            continue
        if self.truncation is not None and self.monomial_degree(mono) > self.truncation:
            continue
        hot = None
        for i, e in enumerate(mono):
            b = self._bounds[i]
            if b is not None and e >= b:
                hot = i
                break
        if hot is None:
            new = out.get(mono, 0) + coeff
            new = _reduce_coeff(new)
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
            continue
        rest = list(mono)
        rest[hot] -= self._bounds[hot]
        for rc, rmono in self._replacements[hot]:
            new_mono = tuple(x + y for x, y in zip(rest, rmono))
            pending[new_mono] = pending.get(new_mono, 0) + coeff * rc
    return out


def test_normalize_against_the_pending_loop_reference():
    # fiber rules (weil over Z and F2), chained e_i^2 = e_2i, a truncated free
    # ring and a swap's class presentation, on seeded raw term lists
    rng = random.Random(17)
    rings = [
        build_weil(2, Z, 8).algebra,
        build_weil(3, F2, 9).algebra,
        max_orth_ring(7),
        prev_max_orth_ring(2),
        free_polynomial_ring([("a", 1), ("b", 2)], Z, truncation=7),
        free_polynomial_ring([("a", 1), ("b", 3)], F2, truncation=7),
        build_weil(2, Z, 8).classes,
    ]
    for ring in rings:
        top = ring.max_degree
        normal = [m for d in range(top + 1) for m in ring.degree_basis(d)]
        caps = [(g.power_bound or 3) + 2 for g in ring.generators]  # above every bound
        kinds = (
            lambda: rng.choice(normal),
            # a product of normal monomials: often rewritten into a normal one met again
            lambda: tuple(x + y for x, y in zip(rng.choice(normal), rng.choice(normal))),
            lambda: tuple(rng.randrange(c) for c in caps),
        )
        seen = {"cancelled": 0, "above_top": 0, "rewritten": 0}
        for _ in range(200):
            pool = [rng.choice(kinds)() for _ in range(rng.randint(1, 4))]
            raw = [(rng.choice(pool), rng.randint(-3, 3)) for _ in range(rng.randint(1, 8))]
            mono, coeff = rng.choice(raw)
            raw.append((mono, -coeff))  # a coefficient that cancels what came before it
            expected = _reference_normalize(ring, raw)
            assert ring._normalize(raw) == expected, (ring, raw)
            assert ring._normalize(list(reversed(raw))) == expected, (ring, raw)
            seen["cancelled"] += not expected
            seen["above_top"] += any(ring.monomial_degree(m) > top for m, _ in raw)
            seen["rewritten"] += any(
                e >= b for m, _ in raw for e, b in zip(m, ring._bounds) if b is not None
            )
        if all(b is None for b in ring._bounds):  # a free ring rewrites nothing
            del seen["rewritten"]
        assert all(seen.values()), (ring, seen)


def test_unbounded_generator_requires_truncation():
    with pytest.raises(ConfigurationError):
        AlgebraPresentation([GeneratorSpec("a", 1)], Z, truncation=None)


def test_replacement_validation():
    with pytest.raises(PresentationError):
        # non-homogeneous replacement
        AlgebraPresentation(
            [
                GeneratorSpec("a", 1, power_bound=2, replacement=((1, (("b", 1),)),)),
                GeneratorSpec("b", 3),
            ],
            Z,
            truncation=6,
        )
    # g^2 -> h^4 has more factors than g^2, but the rule graph g -> h is acyclic
    ring = AlgebraPresentation(
        [
            GeneratorSpec("g", 2, power_bound=2, replacement=((1, (("h", 4),)),)),
            GeneratorSpec("h", 1, power_bound=5),
        ],
        F2,
    )
    assert ring.monomial({"g": 2}) == ring.monomial({"h": 4})
    assert not ring.monomial({"h": 4}).is_zero
    with pytest.raises(PresentationError, match="exponent below 2"):
        # g^2 -> g^2 does not lower g's own exponent
        AlgebraPresentation(
            [GeneratorSpec("g", 1, power_bound=2, replacement=((1, (("g", 2),)),))], F2
        )


def test_rewrite_termination_on_random_inputs():
    # rewriting reaches a homogeneous normal form on a shipped presentation
    rng = random.Random(3)
    ring = _maxorth(6)
    for _ in range(50):
        mono = {f"e{i}": rng.randint(0, 4) for i in range(1, 6)}
        elt = ring.monomial(mono)
        if not elt.is_zero:
            assert elt.homogeneous_degree() is not None


def test_presentation_json_roundtrip():
    ring = _maxorth(4)
    data = ring.to_json()
    clone = AlgebraPresentation.from_json(data)
    assert clone.to_json() == data
    assert clone.poincare() == ring.poincare()
    x = clone.gen("e1") * clone.gen("e1")
    assert x == clone.gen("e2")


def _presentation_json():
    # g^2 -> h over Z, truncated at degree 4
    return {
        "coefficients": "Z",
        "truncation": 4,
        "generators": [
            {"name": "g", "degree": 1, "power_bound": 2, "replacement": [[1, {"h": 1}]]},
            {"name": "h", "degree": 2, "power_bound": None, "replacement": []},
        ],
    }


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("generators", 0, "replacement", 0, 0), 1.5, "coefficient must be of type int, got 1.5"),
        (("generators", 0, "replacement", 0, 1, "h"), 2.7, "'h' must be of type int, got 2.7"),
        (("truncation",), True, "truncation degree must be of type int, got True"),
        (("truncation",), "4", "truncation degree must be of type int, got '4'"),
        (("generators", 0, "degree"), True, "'g' degree must be of type int, got True"),
        (("generators", 0, "degree"), 1.5, "'g' degree must be of type int, got 1.5"),
        (("generators", 0, "degree"), "2", "'g' degree must be of type int, got '2'"),
        (("generators", 0, "power_bound"), 2.5, "'g' power bound must be of type int, got 2.5"),
        (("generators", 1, "name"), 5, "generator name must be of type str, got 5"),
    ],
    ids=[
        "coefficient-float", "exponent-float", "truncation-bool", "truncation-str",
        "degree-bool", "degree-float", "degree-str", "power_bound-float", "name-int",
    ],
)
def test_presentation_json_is_validated_not_coerced(path, value, message):
    data = _presentation_json()
    assert AlgebraPresentation.from_json(data).to_json() == data
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(PresentationError, match=re.escape(message)):
        AlgebraPresentation.from_json(json.dumps(data))


def _drop(*path):
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return data

    return edit


def _put(*path, value):
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return data

    return edit


@pytest.mark.parametrize(
    "edit,message",
    [
        (_drop("generators"), "presentation has no 'generators'"),
        (_drop("coefficients"), "presentation has no 'coefficients'"),
        (_drop("generators", 0, "name"), "generator has no 'name'"),
        (lambda data: [data], "presentation must be a JSON object, got list"),
        (_put("generators", 0, value=["g", 1]), "generator must be a JSON object, got list"),
        (_put("generators", value=5), "generators must be of type list, got 5"),
        (_put("generators", 0, "replacement", value=[[1]]), "'g' replacement must be a list of pairs, got [[1]]"),
        (_put("generators", 0, "replacement", 0, 1, value=["h"]), "monomial must be a list of pairs, got ['h']"),
    ],
    ids=[
        "no-generators", "no-coefficients", "generator-no-name", "top-level-list",
        "generator-list", "generators-int", "replacement-entry-short", "monomial-list",
    ],
)
def test_presentation_json_of_the_wrong_shape_is_a_presentation_error(edit, message):
    data = edit(_presentation_json())
    with pytest.raises(PresentationError, match=re.escape(message)):
        AlgebraPresentation.from_json(json.dumps(data))


@pytest.mark.parametrize("coeff", [1.5, True, "1"])
def test_element_takes_int_coefficients_only(coeff):
    ring = _maxorth(4)
    assert ring.element([(1, {"e1": 1})]) == ring.gen("e1")
    with pytest.raises(PresentationError, match=re.escape(f"coefficient must be of type int, got {coeff!r}")):
        ring.element([(coeff, {"e1": 1})])


def test_element_canonical_pairs():
    ring = _maxorth(4)
    x = ring.gen("e2") + ring.monomial({"e1": 1, "e2": 1}) + ring.gen("e1")
    pairs = x.to_pairs()
    degrees = [sum(e * int(n[1:]) for n, e in m.items()) for _, m in pairs]
    assert degrees == sorted(degrees)
    assert all(c == 1 for c, _ in pairs)


def _cyclic_pair():
    # g^2 -> gh and h^2 -> gh: each rule is homogeneous and lowers its own
    # exponent, yet g^2 h^2 -> g h^3 -> g^2 h^2 loops forever
    return [
        GeneratorSpec("g", 1, power_bound=2, replacement=((1, (("g", 1), ("h", 1))),)),
        GeneratorSpec("h", 1, power_bound=2, replacement=((1, (("g", 1), ("h", 1))),)),
    ]


def test_cyclic_rules_rejected_at_construction():
    with pytest.raises(PresentationError, match="cycle through generators g, h"):
        AlgebraPresentation(_cyclic_pair(), F2)


def test_cyclic_rules_rejected_from_json():
    data = {
        "coefficients": "F2",
        "truncation": None,
        "generators": [
            {"name": g.name, "degree": g.degree, "power_bound": g.power_bound,
             "replacement": [[c, dict(m)] for c, m in g.replacement]}
            for g in _cyclic_pair()
        ],
    }
    with pytest.raises(PresentationError, match="cycle"):
        AlgebraPresentation.from_json(json.dumps(data))


def test_three_generator_cycle_rejected():
    # a -> b -> c -> a, plus d feeding into the cycle without lying on it
    gens = [
        GeneratorSpec("a", 1, power_bound=2, replacement=((1, (("b", 2),)),)),
        GeneratorSpec("b", 1, power_bound=2, replacement=((1, (("c", 2),)),)),
        GeneratorSpec("c", 1, power_bound=2, replacement=((1, (("a", 2),)),)),
        GeneratorSpec("d", 2, power_bound=2, replacement=((1, (("a", 1), ("b", 3))),)),
    ]
    with pytest.raises(PresentationError, match="cycle through generators a, b, c$"):
        AlgebraPresentation(gens, F2)
    # breaking the cycle at c makes the same rules acceptable
    gens[2] = GeneratorSpec("c", 1, power_bound=2)
    ring = AlgebraPresentation(gens, F2)
    assert ring.monomial({"a": 2}) == ring.monomial({"c": 2})
    assert ring.monomial({"a": 2}).is_zero


def test_degree_basis_oracle_all_shipped_presentations(indexed_bases):
    # independent oracle on every shipped presentation shape, d <= 10, asked
    # ascending, then descending and shuffled on fresh copies
    rng = random.Random(16)
    rings = [
        max_orth_ring(5),
        prev_max_orth_ring(2),
        odd_quotient_ring(2),
        build_weil(2, Z, 10).algebra,
        free_polynomial_ring([("a", 1), ("b", 2)], Z, truncation=10),
    ]
    for ring in rings:
        degrees = [g.degree for g in ring.generators]
        bounds = [g.power_bound for g in ring.generators]
        # untruncated rings are also asked past their max_degree
        asked = list(range(11 if ring.truncation is not None else ring.max_degree + 3))
        expected = {}
        for d in asked:
            caps = [
                min(d // deg, (b - 1) if b is not None else d)
                for deg, b in zip(degrees, bounds)
            ]
            expected[d] = sorted(
                exps
                for exps in itertools.product(*[range(c + 1) for c in caps])
                if sum(e * deg for e, deg in zip(exps, degrees)) == d
            )
        shuffled = asked[:]
        rng.shuffle(shuffled)
        for order, algebra in (
            (asked, ring),
            (asked[::-1], AlgebraPresentation.from_json(ring.to_json())),
            (shuffled, AlgebraPresentation.from_json(ring.to_json())),
        ):
            for k, d in enumerate(order):
                assert algebra.degree_basis(d) == expected[d], (ring, order, d)
                # asking degree d indexes d alone, never a degree above it
                assert indexed_bases.degrees(algebra) == sorted(order[: k + 1]), (ring, d)


def _shipped_rings():
    """Every presentation shape the package builds, at small parameters."""
    for N in range(2, 10):
        yield max_orth_ring(N)
    for r in range(1, 4):
        yield prev_max_orth_ring(r)
        yield odd_quotient_ring(r)
        for coefficients in (F2, Z):
            sigma = build_weil(r, coefficients, 2 * r + 4)
            yield from (sigma.algebra, sigma.classes, weil._mutated(sigma).algebra)
            yield weil._base(sigma.algebra).algebra
    for r, k in ((1, 0), (2, 1), (1, 2)):
        ring, sigma = swap_polynomial_ring(r, k, Z, 6)
        yield from (ring, sigma.classes)


def test_predicted_basis_sizes_match_every_shipped_ring():
    # the Poincare series read off the degrees and power bounds, against enumeration
    rings = 0
    for ring in _shipped_rings():
        enumerated = [len(ring.degree_basis(d)) for d in range(ring.max_degree + 1)]
        assert ring._predicted_sizes() == enumerated, ring
        rings += 1
    assert rings == 44


def test_monomial_budget_refuses_before_indexing(monkeypatch):
    # max_orth_ring(5) has 2^4 = 16 normal monomials, one or two per degree 0..10
    monkeypatch.setattr(algebra, "_MONOMIAL_BUDGET", 16)
    assert max_orth_ring(5).poincare().total == 16
    monkeypatch.setattr(algebra, "_MONOMIAL_BUDGET", 15)
    message = r"the F2 ring on 4 generators e1\.\.e4 needs 16 normal monomials indexed, limit 15$"
    ring = max_orth_ring(5)
    for whole_ring in (ring.poincare, lambda: grassmann.annihilator(ring.gen("e2"), ring)):
        with pytest.raises(BudgetError, match=message):
            whole_ring()
        assert ring._bases == {}
    # degree by degree, the degree that would pass the budget is refused unindexed
    for d in range(10):
        ring.degree_basis(d)
    with pytest.raises(BudgetError, match=message):
        ring.degree_basis(10)
    assert sorted(ring._bases) == list(range(10))


def test_monomial_budget_admits_primerchik_r10_only():
    # verify primerchik --max-r r walks max_orth_ring(2r), of 2^(2r-1) monomials
    ring = max_orth_ring(20)
    ring._admit(range(ring.max_degree + 1))
    ring = max_orth_ring(22)
    with pytest.raises(BudgetError, match=f"needs {1 << 21} normal monomials indexed, limit {1 << 19}"):
        ring._admit(range(ring.max_degree + 1))
