"""Formal motive bookkeeping: the motive of X_r(h) and the comparisons built on it.

Atoms are Tate, SpecK (the class of the quadratic extension point) and
Essential(n, r) (the part of the rank-r isotropic grassmannian motive
complementary to all SpecK shifts).  Split h hyperbolic planes off a rank-n
space and let b = n - 2h, s the bottom rank, k = r - s and e = h - k >= 0: the
shifts of Essential(b, s) (Tate for s = 0) have the generating polynomial

    P_s(t) = t^(2se) [h; k]_{t^2} prod_{i<k} (1 + t^(2(b-s+e)+2i+1)),

from the sigma-fixed Schubert words and the q-binomial theorem.  A ``Motive`` keeps
each P_s whole: ``witt_decompose_whole`` is every P_s, ``essential_poincare`` P_0 at
h = n // 2 and ``decompose_step`` the h = 1 case.  The products are refused, before
their first pass, past one budget of coefficient updates.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import merge
from itertools import count, repeat

from .errors import BudgetError, UsageError
from .finitefields import orth_count_polynomial
from .polynomials import (
    PoincarePolynomial,
    gaussian_binomial,
    poly_add,
    poly_divexact,
    poly_mul,
    poly_mul_binomial,
    poly_sub,
)


# -- dimensions ------------------------------------------------------------


def dim_unitary(n: int, r: int) -> int:
    """Dimension of the variety of r-dimensional totally isotropic subspaces, r(2n-3r)."""
    if not 0 <= r <= n // 2:
        raise UsageError(f"r={r} out of range for n={n}")
    return r * (2 * n - 3 * r)


def dim_orthogonal(n: int, m: int) -> int:
    """Dimension of the totally singular m-grassmannian of a 2n-dimensional form."""
    if not 0 <= m <= n:
        raise UsageError(f"m={m} out of range for n={n}")
    return m * (4 * n - 3 * m - 1) // 2


# -- atoms and motives -------------------------------------------------------


class Atom(namedtuple("Atom", "kind n r")):
    __slots__ = ()

    def __new__(cls, kind: str, n: int | None = None, r: int | None = None):
        if kind not in ("Tate", "SpecK", "Essential"):
            raise UsageError(f"unknown atom kind {kind!r}")
        if kind == "Essential":
            if n is None or r is None or not 0 <= r <= n // 2:
                raise UsageError(f"Essential atom out of range: n={n}, r={r}")
        elif n is not None or r is not None:
            raise UsageError(f"{kind} atom takes no parameters")
        return super().__new__(cls, kind, n, r)

    def __repr__(self) -> str:
        if self.kind == "Essential":
            return f"Essential({self.n},{self.r})"
        return self.kind


TATE = Atom("Tate")
SPEC_K = Atom("SpecK")


def essential(n: int, r: int) -> Atom:
    return Atom("Essential", n, r)


class Motive(namedtuple("Motive", "atoms speck_residual")):
    """Shifted atoms with multiplicities, plus an optional unspecified SpecK remainder.

    Built from (atom, lowest shift, multiplicities) triples, one per atom: the atom
    occurs at shift + d with multiplicity multiplicities[d], the first and last positive.
    ``atoms`` holds them, multiplicities as tuples, in (lowest shift, atom) order.
    """

    __slots__ = ()

    def __new__(cls, atoms, speck_residual: bool = False):
        atoms = tuple(atoms)
        if len({a for a, _, _ in atoms}) < len(atoms) or not all(
            isinstance(a, Atom) and type(s) is int and isinstance(ms, (list, tuple)) and ms
            and ms[0] and ms[-1] and {type(m) for m in ms} == {int} and min(ms) >= 0
            for a, s, ms in atoms
        ):
            raise TypeError("a Motive takes (atom, shift, multiplicities) triples, one per atom")
        ordered = sorted(((a, s, tuple(ms)) for a, s, ms in atoms), key=lambda e: (e[1], e[0]))
        return super().__new__(cls, tuple(ordered), speck_residual)

    def __add__(self, other):
        raise TypeError("motives are not concatenated; add their summands' multiplicities")

    def poincare(self) -> PoincarePolynomial:
        """Tate realization; defined only when no SpecK content is present."""
        if self.speck_residual or any(a.kind == "SpecK" for a, _, _ in self.atoms):
            raise UsageError("Poincare polynomial undefined with SpecK summands")
        acc: list[int] = []
        for atom, shift, coeffs in self.atoms:
            if atom.kind != "Tate":
                coeffs = poly_mul(coeffs, essential_poincare(atom.n, atom.r).to_list())
            acc = poly_add(acc, [0] * shift + list(coeffs))
        return PoincarePolynomial(acc)

    def to_json(self) -> dict:
        out = {"atoms": [{"atom": repr(a), "shift": s, "multiplicities": list(ms)}
                         for a, s, ms in self.atoms]}
        if self.speck_residual:
            out["speck_residual"] = True
        return out

    def __repr__(self) -> str:
        summands = merge(*(zip(count(s), repeat(a), ms) for a, s, ms in self.atoms))
        parts = [("" if m == 1 else f"{m}*") + (repr(a) if s == 0 else f"{a!r}({s})")
                 for s, a, m in summands if m]
        if self.speck_residual:
            parts.append("SpecK-residual")
        return " + ".join(parts) if parts else "0"


def decompose_step(n: int, r: int) -> Motive:
    """One isotropic splitting step of Essential(n, r): the whole motive at h = 1,
    with no SpecK residual and its bottom rank s = 0 named Essential(n - 2, 0).
    """
    if r == 0:
        return Motive([(essential(n, 0), 0, [1])])
    if n < 2 or not 1 <= r <= n // 2:
        raise UsageError(f"decompose_step needs n >= 2 and 1 <= r <= n/2; got n={n}, r={r}")
    label = f"decompose_step budget exceeded: n={n}, r={r}"
    return Motive(
        (essential(n - 2, 0) if atom == TATE else atom, shift, coeffs)
        for atom, shift, coeffs in _shift_polynomials(n, r, 1, label)
    )


_MOTIVE_BUDGET = 1 << 24  # coefficient updates one call's motive products may make


def _shift_polynomials(n: int, r: int, h: int, label: str) -> list:
    """By bottom rank s, (atom, 2se, coefficients of P_s / t^(2se)) for the motive of X_r(h).

    P_s takes 2 min(k, e) + k + 1 passes (the Gaussian binomial's, its spread into t^2,
    the k products), each over at most its deg P_s + 1 coefficients.  Their sum over s is
    charged first; past the budget the call is refused with ``label`` before any pass.
    """
    b = n - 2 * h
    ranks = [(s, r - s, h - r + s) for s in range(max(0, r - h), min(r, b // 2) + 1)]
    needed = sum(
        (2 * min(k, e) + k + 1) * (2 * k * (b - s + 2 * e) + k * k + 1) for s, k, e in ranks
    )
    if needed > _MOTIVE_BUDGET:
        raise BudgetError(f"{label} needs {needed} coefficient updates, limit {_MOTIVE_BUDGET}")
    polys = []
    for s, k, e in ranks:
        coeffs = [0] * (2 * k * e + 1)
        coeffs[::2] = gaussian_binomial(h, k)
        for i in range(k):
            poly_mul_binomial(coeffs, 2 * (b - s + e) + 2 * i + 1)
        polys.append((essential(b, s) if s else TATE, 2 * s * e, coeffs))
    return polys


def essential_poincare(n: int, r: int) -> PoincarePolynomial:
    """Tate multiplicities of Essential(n, r): P_0 of the whole motive split n // 2 times."""
    if not 0 <= r <= n // 2:
        raise UsageError(f"r={r} out of range for n={n}")
    label = f"essential_poincare budget exceeded: n={n}, r={r}"
    ((_, _, coeffs),) = _shift_polynomials(n, r, n // 2, label)
    return PoincarePolynomial(coeffs)


def split_quadric_poincare(n: int) -> PoincarePolynomial:
    """Poincare polynomial of the split quadric of a 2n-dimensional form."""
    if n < 1:
        raise UsageError("n must be >= 1")
    coeffs = [1] * (2 * n - 1)
    coeffs[n - 1] += 1
    return PoincarePolynomial(coeffs)


# -- reported checks ----------------------------------------------------------


KvadrikaReport = namedtuple("KvadrikaReport", "n binding delta passed")


def kvadrika_check(n: int) -> KvadrikaReport:
    """Compare the split quadric with (1+q) times the line-grassmannian essential part.

    Even n: the difference must vanish (binding).  Odd n: the residual is
    recorded without judgement.
    """
    if n < 2:
        raise UsageError("n must be >= 2")
    lhs = split_quadric_poincare(n).to_list()
    rhs = essential_poincare(n, 1).to_list()
    poly_mul_binomial(rhs, 1)
    delta = poly_sub(lhs, rhs)
    while delta and delta[-1] == 0:
        delta.pop()
    binding = n % 2 == 0
    passed = (not delta) if binding else True
    return KvadrikaReport(n=n, binding=binding, delta=tuple(delta), passed=passed)


DvaMrReport = namedtuple("DvaMrReport", "n r shift_odd shift_even positivity dominance passed")


def dvamr_check(n: int, r: int, with_dominance: bool = True) -> DvaMrReport:
    """Shift positivity and coefficientwise dominance of the doubled essential motive.

    The m = 2r comparison is skipped for n = 2, where only a single copy of
    the essential part embeds.  For m = n the ambient grassmannian has two
    components and the per-component polynomial is used.
    """
    if not 1 <= r <= n // 2:
        raise UsageError(f"r={r} out of range for n={n}")
    shift_odd = dim_orthogonal(n, 2 * r - 1) - dim_unitary(n, r)
    shift_even = dim_orthogonal(n, 2 * r) - dim_unitary(n, r) if n > 2 else None
    positivity = shift_odd > 0 and (shift_even is None or shift_even > 0)
    dominance: dict[str, bool] = {}
    if with_dominance:
        ess = essential_poincare(n, r)
        targets = [(2 * r - 1, shift_odd)]
        if n > 2:
            targets.append((2 * r, shift_even))
        for m, delta in targets:
            ambient = orth_count_polynomial(n, m)
            if m == n:
                ambient = PoincarePolynomial(poly_divexact(ambient.to_list(), [2]))
            doubled = ess * PoincarePolynomial.exterior([delta])
            dominance[f"m={m}"] = ambient.dominates(doubled)
    passed = positivity and all(dominance.values())
    return DvaMrReport(
        n=n,
        r=r,
        shift_odd=shift_odd,
        shift_even=shift_even,
        positivity=positivity,
        dominance=dominance,
        passed=passed,
    )


def j_min(n: int) -> tuple[int, ...]:
    """Smallest J-invariant value for binary-divisible forms: even integers below n-1."""
    if n < 2 or n % 2:
        raise UsageError("n must be even and >= 2")
    return tuple(range(0, n - 1, 2))


def cd2_identity_check(n: int) -> bool:
    """Arithmetic consistency of the canonical 2-dimension bookkeeping for even n."""
    j = j_min(n)
    dim_y_component = dim_orthogonal(n, n)
    cd2 = dim_y_component - sum(j)
    return (
        n * n // 4 == n * (n - 1) // 2 - sum(j)
        and dim_y_component == n * (n - 1) // 2
        and cd2 == dim_unitary(n, n // 2)
    )


def witt_decompose_whole(n: int, r: int, witt_h: int) -> Motive:
    """Whole-motive decomposition after splitting ``witt_h`` hyperbolic planes.

    Ends in explicit Tate and Essential(n - 2 witt_h, s) summands with multiplicities
    plus an unspecified SpecK residual bucket (individual SpecK shifts are never
    computed).
    """
    if witt_h < 0 or witt_h > n // 2:
        raise UsageError(f"witt_h={witt_h} out of range for n={n}")
    label = f"witt_decompose_whole budget exceeded: n={n}, r={r}, witt_h={witt_h}"
    return Motive(_shift_polynomials(n, r, witt_h, label), speck_residual=1 <= r <= n // 2)
