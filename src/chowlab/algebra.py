"""Graded commutative algebras presented by generators and pure power rewrite rules.

A presentation consists of named generators with positive degrees.  Each
generator may carry a rule ``g^k -> replacement`` (possibly zero); monomials
are kept in normal form, i.e. with every exponent below its generator's
power bound and total degree at most the truncation bound.  Degrees above
the truncation are projected to zero, which models working "up to degree D"
in an infinite polynomial ring.  Termination of rewriting is proved when a
presentation is built (:meth:`AlgebraPresentation._check_termination`).
Every normal form comes from one kernel, :meth:`AlgebraPresentation._normalize`:
rules keep degrees, so it drops terms above the truncation once, on entry, and
it looks for an exponent to rewrite among the bounded generators only.
A degree's normal basis is enumerated the first time that degree is asked for
(:meth:`AlgebraPresentation._basis_index`), and only while the presentation's
indexed monomials, predicted from its Poincare series, stay within
``_MONOMIAL_BUDGET``; whole-ring walks ask for every degree before the first.

Coefficients are either ``"F2"`` or ``"Z"``.  Linear algebra in one degree goes
through :class:`Span` (``span_solver``), which takes elements and answers with
integer coefficient lists; only it and :mod:`chowlab.linalg` see rows.
"""

from __future__ import annotations

import json
from collections import namedtuple
from operator import add, mul

from .errors import BudgetError, ConfigurationError, PresentationError, UsageError
from .linalg import F2Span, ZSpan
from .polynomials import PoincarePolynomial

F2 = "F2"
Z = "Z"
_MONOMIAL_BUDGET = 1 << 19  # normal monomials one presentation may index: max_orth_ring(20)


def _require(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind``, so a bool is no int; else a PresentationError."""
    if type(value) is not kind:
        raise PresentationError(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


def _pairs(value, what: str):
    """``value`` if it is a list or tuple of 2-item lists or tuples; else a PresentationError."""
    if type(value) not in (list, tuple) or any(type(v) not in (list, tuple) or len(v) != 2 for v in value):
        raise PresentationError(f"{what} must be a list of pairs, got {value!r}")
    return value


def _entry(doc, key: str, what: str):
    """``doc[key]`` for a JSON object ``doc`` that has ``key``; else a PresentationError."""
    if type(doc) is not dict:
        raise PresentationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise PresentationError(f"{what} has no {key!r}")
    return doc[key]


def _freeze_monomial(mono) -> tuple[tuple[str, int], ...]:
    items = mono.items() if isinstance(mono, dict) else _pairs(mono, "monomial")
    checked = [(_require(n, str, "generator name"), _require(e, int, f"exponent of {n!r}"))
               for n, e in items]
    return tuple(sorted(item for item in checked if item[1]))


class GeneratorSpec(namedtuple("GeneratorSpec", "name degree power_bound replacement")):
    """A named generator: degree, optional power bound and rewrite image of g^bound.

    ``replacement`` holds (coefficient, monomial) pairs with name-keyed
    monomials; an empty replacement with a finite bound means g^bound = 0.
    """

    __slots__ = ()

    def __new__(cls, name: str, degree: int, power_bound: int | None = None, replacement=()):
        _require(name, str, "generator name")
        if power_bound is not None:
            _require(power_bound, int, f"generator {name!r} power bound")
        replacement = tuple(
            (_require(c, int, f"generator {name!r} coefficient"), _freeze_monomial(m))
            for c, m in _pairs(replacement, f"generator {name!r} replacement")
        )
        if _require(degree, int, f"generator {name!r} degree") < 1:
            raise PresentationError(f"generator {name!r} must have positive degree")
        if power_bound is not None and power_bound < 1:
            raise PresentationError(f"generator {name!r} power bound must be >= 1")
        if power_bound is None and replacement:
            raise PresentationError(f"generator {name!r} is unbounded but has a replacement")
        return super().__new__(cls, name, degree, power_bound, replacement)


class AlgebraPresentation:
    """A graded commutative algebra over F2 or Z given by generators and rules."""

    def __init__(self, generators, coefficients: str, truncation: int | None = None):
        generators = tuple(generators)
        if coefficients not in (F2, Z):
            raise PresentationError(f"unknown coefficient ring {coefficients!r}")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise PresentationError("generator names must be distinct")
        if truncation is not None and _require(truncation, int, "truncation degree") < 0:
            raise PresentationError("truncation degree must be nonnegative")
        if truncation is None and any(g.power_bound is None for g in generators):
            raise ConfigurationError(
                "a power-unbounded generator requires a finite truncation degree"
            )
        self.generators = generators
        self.coefficients = coefficients
        self.truncation = truncation
        self._index = {g.name: i for i, g in enumerate(generators)}
        self._degrees = tuple(g.degree for g in generators)
        self._bounds = tuple(g.power_bound for g in generators)
        self._replacements: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}
        for i, g in enumerate(generators):
            if g.power_bound is None:
                continue
            terms = []
            for coeff, mono in g.replacement:
                exps = self._exps_from_named(mono)
                self._validate_replacement(g, exps)
                terms.append((coeff, exps))
            self._replacements[i] = tuple(terms)
        self._check_termination()
        # the (index, bound) pairs where _normalize looks for an exponent to rewrite
        self._hot = tuple((i, b) for i, b in enumerate(self._bounds) if b is not None)
        self._bases: dict[int, dict[tuple[int, ...], int]] = {}
        self._tails: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self._sizes = self._total = None  # predicted basis size per degree, and their sum

    # -- construction helpers ------------------------------------------------

    def _exps_from_named(self, mono) -> tuple[int, ...]:
        exps = [0] * len(self.generators)
        for name, e in dict(mono).items():
            if name not in self._index:
                raise PresentationError(f"unknown generator name {name!r}")
            if e < 0:
                raise PresentationError(f"negative exponent for {name!r}")
            exps[self._index[name]] = e
        return tuple(exps)

    def _validate_replacement(self, g: GeneratorSpec, exps: tuple[int, ...]) -> None:
        i = self._index[g.name]
        target_degree = g.power_bound * g.degree
        if self.monomial_degree(exps) != target_degree:
            raise PresentationError(
                f"replacement monomial for {g.name!r} is not homogeneous of degree {target_degree}"
            )
        if exps[i] >= g.power_bound:
            raise PresentationError(
                f"replacement for {g.name!r} must keep its exponent below {g.power_bound}"
            )

    def _check_termination(self) -> None:
        # Edge g -> h: g's rule introduces h != g.  Without a cycle, a rewrite lowers g's
        # exponent and raises only later generators in a topological order, so it terminates.
        edges = {
            i: {j for _, exps in terms for j, e in enumerate(exps) if e and j != i}
            for i, terms in self._replacements.items()
        }
        while ends := [i for i in edges if not edges[i] & edges.keys()
                       or not any(i in edges[j] for j in edges)]:
            for i in ends:
                del edges[i]
        if edges:
            names = ", ".join(sorted(self.generators[i].name for i in edges))
            raise PresentationError(f"rewrite rules cycle through generators {names}")

    def monomial_degree(self, exps) -> int:
        return sum(map(mul, exps, self._degrees))

    @property
    def max_degree(self) -> int:
        """Top degree carrying a nonzero monomial (truncation or bound-limited)."""
        if self.truncation is not None:
            return self.truncation
        return sum((b - 1) * d for b, d in zip(self._bounds, self._degrees))

    # -- normalization -------------------------------------------------------

    def _normalize(self, raw_terms) -> dict[tuple[int, ...], int]:
        """Normal form of (exponents, coefficient) pairs, as a monomial -> coefficient map.

        Rules keep degrees, so terms above the truncation are dropped on entry.  A
        pending monomial is rewritten at its first bounded generator at or above the
        bound; a normal one is added to the result.  F2 coefficients reduce by ``& 1``.
        """
        top, degrees, hot = self.truncation, self._degrees, self._hot
        f2 = self.coefficients == F2
        pending = {}
        for mono, coeff in raw_terms:
            if top is None or sum(map(mul, mono, degrees)) <= top:
                pending[mono] = pending.get(mono, 0) + coeff
        out: dict[tuple[int, ...], int] = {}
        while pending:
            mono, coeff = pending.popitem()
            if f2:
                coeff &= 1
            if not coeff:
                continue
            for i, bound in hot:
                if mono[i] >= bound:
                    rest = list(mono)
                    rest[i] -= bound
                    for rc, rmono in self._replacements[i]:
                        new_mono = tuple(map(add, rest, rmono))
                        pending[new_mono] = pending.get(new_mono, 0) + coeff * rc
                    break
            else:
                new = out.get(mono, 0) + coeff
                if f2:
                    new &= 1
                if new:
                    out[mono] = new
                else:
                    del out[mono]
        return out

    # -- element constructors -------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, self._normalize([(tuple([0] * len(self.generators)), 1)]))

    def gen(self, name: str) -> "Element":
        return self.monomial({name: 1})

    def monomial(self, mono) -> "Element":
        """Normal form of ``product(g^e)`` for a name-keyed monomial."""
        return self.element([(1, mono)])

    def element(self, pairs) -> "Element":
        """Build a normalized element from (coeff, name-monomial) pairs.

        Rules keep degrees, so a monomial above ``max_degree`` is zero unrewritten.
        """
        top = self.max_degree
        raw = []
        for coeff, mono in pairs:
            _require(coeff, int, "coefficient")
            exps = self._exps_from_named(_freeze_monomial(mono))
            if self.monomial_degree(exps) <= top:
                raw.append((exps, coeff))
        return Element(self, self._normalize(raw))

    # -- bases and counting ----------------------------------------------------

    def degree_basis(self, d: int) -> list[tuple[int, ...]]:
        """All normal-form monomials of degree ``d`` in canonical order."""
        return list(self._basis_index(d))

    def _basis_index(self, d: int) -> dict[tuple[int, ...], int]:
        """Position of each degree-d normal-form monomial in canonical order.

        Built from :meth:`_tail` the first time degree d is asked for.
        """
        if d < 0:
            raise UsageError("degree must be nonnegative")
        if self.truncation is not None and d > self.truncation:
            raise UsageError(f"degree {d} exceeds truncation {self.truncation}")
        if d not in self._bases:
            self._admit((d,))
            self._bases[d] = {exps: k for k, exps in enumerate(self._tail(0, d))}
        return self._bases[d]

    def _predicted_sizes(self) -> list[int]:
        """``len(degree_basis(d))`` for d = 0..max_degree, read off the Poincare series.

        The normal monomials are the exponent vectors below the power bounds, so
        the series is the product of (1 - t^(b*g)) / (1 - t^g) over the generators
        of degree g and bound b, times 1 / (1 - t^g) over the unbounded ones.
        """
        if self._sizes is None:
            top = self.max_degree
            sizes = [1] + [0] * top
            for g, b in zip(self._degrees, self._bounds):
                for d in range(g, top + 1):  # times 1 / (1 - t^g)
                    sizes[d] += sizes[d - g]
                if b is not None:  # times 1 - t^(b*g)
                    for d in range(top, b * g - 1, -1):
                        sizes[d] -= sizes[d - b * g]
            self._sizes, self._total = sizes, sum(sizes)
        return self._sizes

    def _admit(self, degrees) -> None:
        """Raise BudgetError unless indexing ``degrees`` too keeps within the monomial budget."""
        sizes = self._predicted_sizes()
        if self._total <= _MONOMIAL_BUDGET:  # the whole ring fits
            return
        needed = sum(map(len, self._bases.values())) + sum(
            sizes[d] for d in degrees if d not in self._bases and d < len(sizes)
        )
        if needed > _MONOMIAL_BUDGET:
            first, last = self.generators[0].name, self.generators[-1].name
            raise BudgetError(
                f"monomial budget exceeded: the {self.coefficients} ring on "
                f"{len(self.generators)} generators {first}..{last} needs {needed} normal "
                f"monomials indexed, limit {_MONOMIAL_BUDGET}"
            )

    def _tail(self, i: int, left: int) -> list[tuple[int, ...]]:
        """Exponent vectors of generators i.. of degree ``left``, in canonical order.

        Exponents ascend, capped by the power bound and by the degree left, so
        the vectors come out lexicographically.  Tails of later generators are
        memoised: no prefix is walked twice, and degree d touches only degrees <= d.
        """
        if i == len(self._degrees):
            return [()] if left == 0 else []
        deg, bound = self._degrees[i], self._bounds[i]
        out = []
        for e in range(min(left // deg, left if bound is None else bound - 1) + 1):
            key = (i + 1, left - e * deg)
            if key not in self._tails:
                self._tails[key] = self._tail(*key)
            out += [(e,) + rest for rest in self._tails[key]]
        return out

    def poincare(self) -> PoincarePolynomial:
        """Poincare polynomial with coefficient |degree basis| at each degree, from the series."""
        self._admit(range(self.max_degree + 1))  # refused as if the whole ring were indexed
        return PoincarePolynomial(self._predicted_sizes())

    def basis_elements(self, d: int) -> list["Element"]:
        return [Element(self, {m: 1}) for m in self.degree_basis(d)]

    # -- linear algebra in fixed degree ----------------------------------------

    def vectorize(self, elements, d: int):
        """Coordinate vectors of homogeneous degree-d elements on the degree basis."""
        index = self._basis_index(d)
        if self.coefficients == F2:
            out = []
            for x in elements:
                mask = 0
                for mono in x.terms:
                    mask |= 1 << index[mono]
                out.append(mask)
            return out
        width = len(index)
        vecs = []
        for x in elements:
            row = [0] * width
            for mono, c in x.terms.items():
                row[index[mono]] = c
            vecs.append(row)
        return vecs

    def span_solver(self, elements, d: int) -> "Span":
        """The span of homogeneous degree-d elements, queried with elements."""
        return Span(self, d, elements)

    def span_membership(self, target: "Element", spanners) -> tuple[bool, list[int] | None]:
        """Decide membership of ``target`` in the span of ``spanners``; witness on success."""
        degrees = {x.homogeneous_degree() for x in spanners if not x.is_zero}
        degrees.discard(None)
        if len(degrees) > 1:
            raise UsageError("spanners must share a single degree")
        if target.is_zero:
            return True, [0] * len(spanners)
        d = target.homogeneous_degree()
        if d is None:
            raise UsageError("target must be homogeneous")
        if degrees and degrees != {d}:
            raise UsageError("target and spanners have mixed degrees")
        wit = self.span_solver(spanners, d).witness(target)
        return wit is not None, wit

    # -- ring maps ---------------------------------------------------------------

    def substitute(self, x: "Element", images: dict[str, "Element"]):
        """Apply the endomorphism sending each generator to its image, extended over terms."""
        missing = [g.name for g in self.generators if g.name not in images]
        if missing:
            raise ConfigurationError(f"missing images for generators: {missing}")
        acc = self.zero()
        for mono, coeff in x.terms.items():
            term = self.one() * coeff
            for i, e in enumerate(mono):
                if e:
                    term = term * (images[self.generators[i].name] ** e)
            acc = acc + term
        return acc

    # -- serialization -------------------------------------------------------------

    def monomial_named(self, exps) -> dict[str, int]:
        return {self.generators[i].name: e for i, e in enumerate(exps) if e}

    def to_json(self) -> dict:
        return {
            "coefficients": self.coefficients,
            "truncation": self.truncation,
            "generators": [
                {
                    "name": g.name,
                    "degree": g.degree,
                    "power_bound": g.power_bound,
                    "replacement": [[c, dict(m)] for c, m in g.replacement],
                }
                for g in self.generators
            ],
        }

    @classmethod
    def from_json(cls, data) -> "AlgebraPresentation":
        if isinstance(data, str):
            data = json.loads(data)
        gens = [
            GeneratorSpec(
                name=_entry(g, "name", "generator"),
                degree=_entry(g, "degree", "generator"),
                power_bound=g.get("power_bound"),
                replacement=g.get("replacement", ()),
            )
            for g in _require(_entry(data, "generators", "presentation"), list, "generators")
        ]
        return cls(gens, _entry(data, "coefficients", "presentation"), data.get("truncation"))

    def __repr__(self) -> str:
        names = ",".join(g.name for g in self.generators)
        return f"AlgebraPresentation([{names}], {self.coefficients}, truncation={self.truncation})"


class Span:
    """The span of homogeneous degree-d elements of one presentation.

    Elements go in; ranks, membership and integer coefficient lists over the
    elements added (in insertion order) come out, over F2 and Z alike.
    """

    def __init__(self, algebra: AlgebraPresentation, d: int, elements):
        self._algebra = algebra
        self._d = d
        self._f2 = algebra.coefficients == F2
        self._rows = F2Span() if self._f2 else ZSpan()
        for x in elements:  # one row at a time: a whole dense Z matrix would set peak memory
            self.add(x)

    def _row(self, x: "Element"):
        return self._algebra.vectorize([x], self._d)[0]

    def _coefficients(self, mask: int) -> list[int]:
        added = self._rows.rank + len(self._rows.kernel)
        return [(mask >> i) & 1 for i in range(added)]

    def add(self, x: "Element") -> bool:
        """Add ``x``; True when the rank rose."""
        rank = self._rows.rank
        self._rows.add(self._row(x))
        return self._rows.rank > rank

    @property
    def rank(self) -> int:
        return self._rows.rank

    def contains(self, x: "Element") -> bool:
        return self._rows.contains(self._row(x))

    def witness(self, x: "Element") -> list[int] | None:
        """Coefficients on the added elements combining to ``x``, or None."""
        wit = self._rows.witness(self._row(x))
        return self._coefficients(wit) if self._f2 and wit is not None else wit

    def kernel(self) -> list[list[int]]:
        """A basis of the relations among the added elements, as coefficient lists."""
        if self._f2:
            return [self._coefficients(mask) for mask in self._rows.kernel]
        return self._rows.kernel_vectors()


class Element:
    """A normalized element: map from normal-form monomials to nonzero coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: AlgebraPresentation, terms: dict):
        self.algebra = algebra
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None (zero element included)."""
        degs = {self.algebra.monomial_degree(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def _check_compatible(self, other: "Element") -> None:
        if self.algebra is not other.algebra:
            raise UsageError("elements belong to different presentations")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.algebra.one() * other
        self._check_compatible(other)
        raw = list(self.terms.items()) + list(other.terms.items())
        return Element(self.algebra, self.algebra._normalize(raw))

    __radd__ = __add__

    def __neg__(self):
        return Element(
            self.algebra,
            self.algebra._normalize([(m, -c) for m, c in self.terms.items()]),
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Element(
                self.algebra,
                self.algebra._normalize([(m, c * other) for m, c in self.terms.items()]),
            )
        self._check_compatible(other)
        raw = [
            (tuple(map(add, m1, m2)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        ]
        return Element(self.algebra, self.algebra._normalize(raw))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative powers are not defined")
        acc = self.algebra.one()
        for _ in range(n):
            acc = acc * self
            if acc.is_zero:  # so is every higher power
                break
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.terms.items()))))

    def to_pairs(self) -> list:
        """Canonical (coefficient, name-monomial) pairs sorted by monomial order."""
        keys = sorted(self.terms, key=lambda m: (self.algebra.monomial_degree(m), m))
        return [[self.terms[m], self.algebra.monomial_named(m)] for m in keys]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for coeff, named in self.to_pairs():
            factors = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in sorted(named.items())
            )
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(factors)
            elif coeff == -1:
                parts.append(f"-{factors}")
            else:
                parts.append(f"{coeff}*{factors}")
        return " + ".join(parts)


def free_polynomial_ring(names_degrees, coefficients: str, truncation: int) -> AlgebraPresentation:
    """Polynomial ring on (name, degree) pairs truncated above ``truncation``."""
    gens = [GeneratorSpec(name=n, degree=d) for n, d in names_degrees]
    return AlgebraPresentation(gens, coefficients, truncation)
