"""Formal motive bookkeeping: isotropic decomposition recursion and its arithmetic.

Atoms are Tate, SpecK (the class of the quadratic extension point) and
Essential(n, r) (the part of the rank-r isotropic grassmannian motive
complementary to all SpecK shifts).  The recursion splits one hyperbolic
plane off a rank-n space:

    Essential(n, r) = Essential(n-2, r-1)
                      + Essential(n-2, r)(2r)
                      + Essential(n-2, r-1)(2n-2r-1)

with Essential(n, 0) the Tate unit and out-of-range atoms zero.

One memoised recursion splits h planes for ``essential_poincare`` (h = n // 2) and
``witt_decompose_whole`` (any h), under one charge and one budget of table entries.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import zip_longest

from .errors import BudgetError, ChowlabError, UsageError
from .finitefields import orth_count_polynomial
from .polynomials import PoincarePolynomial, poly_divexact, poly_mul, poly_sub


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


class Motive(namedtuple("Motive", "summands speck_residual")):
    """Shifted atoms with multiplicities, plus an optional unspecified SpecK remainder.

    Built from a dict (atom, shift) -> multiplicity; ``summands`` holds its
    ((atom, shift), multiplicity) items in (shift, atom) order.
    """

    __slots__ = ()

    def __new__(cls, summands: dict, speck_residual: bool = False):
        if not isinstance(summands, dict) or not all(
            type(k) is tuple and len(k) == 2 and isinstance(k[0], Atom) and type(k[1]) is int
            and type(m) is int and m > 0 for k, m in summands.items()
        ):
            raise TypeError("a Motive takes a dict (atom, shift) -> positive multiplicity")
        ordered = tuple(sorted(summands.items(), key=lambda e: (e[0][1], e[0][0])))
        return super().__new__(cls, ordered, speck_residual)

    def __add__(self, other):
        raise TypeError("motives are not concatenated; add their summands' multiplicities")

    def poincare(self) -> PoincarePolynomial:
        """Tate realization; defined only when no SpecK content is present."""
        if self.speck_residual or any(a.kind == "SpecK" for (a, _), _ in self.summands):
            raise UsageError("Poincare polynomial undefined with SpecK summands")
        acc = PoincarePolynomial()
        for (atom, shift), m in self.summands:
            tate = atom.kind == "Tate"
            unit = PoincarePolynomial.one() if tate else essential_poincare(atom.n, atom.r)
            acc = acc + (unit * PoincarePolynomial((m,))).shift(shift)
        return acc

    def to_json(self) -> dict:
        out = {"summands": [{"atom": repr(a), "shift": s, "multiplicity": m}
                            for (a, s), m in self.summands]}
        if self.speck_residual:
            out["speck_residual"] = True
        return out

    def __repr__(self) -> str:
        parts = [
            ("" if m == 1 else f"{m}*") + (repr(a) if s == 0 else f"{a!r}({s})")
            for (a, s), m in self.summands
        ]
        if self.speck_residual:
            parts.append("SpecK-residual")
        return " + ".join(parts) if parts else "0"


def _step_shifts(n: int, r: int) -> tuple[int, int]:
    # closed forms of (dim X_r - dim X'_r)/2 and dim X_r - dim X'_{r-1}
    i, j = 2 * r, 2 * n - 2 * r - 1
    if r <= (n - 2) // 2 and i != (dim_unitary(n, r) - dim_unitary(n - 2, r)) // 2:
        raise ChowlabError(f"shift {i} disagrees with the dimensions at n={n}, r={r}")
    if 0 <= r - 1 <= (n - 2) // 2 and j != dim_unitary(n, r) - dim_unitary(n - 2, r - 1):
        raise ChowlabError(f"shift {j} disagrees with the dimensions at n={n}, r={r}")
    return i, j


def decompose_step(n: int, r: int) -> Motive:
    """One isotropic splitting step of the essential motive."""
    if r == 0:
        return Motive({(essential(n, 0), 0): 1})
    if n < 2 or not 1 <= r <= n // 2:
        raise UsageError(f"decompose_step needs n >= 2 and 1 <= r <= n/2; got n={n}, r={r}")
    i, j = _step_shifts(n, r)
    steps = ((r - 1, 0), (r, i), (r - 1, j))
    return Motive({(essential(n - 2, rr), s): 1 for rr, s in steps if 0 <= rr <= (n - 2) // 2})


_TABLE_BUDGET = 1 << 21  # table entries one essential_poincare or witt_decompose_whole may fill


def _table(n: int, r: int, levels: int):
    """The parts (m, rr) with rr >= 1 that (n, r) reaches in ``levels`` splittings, bottom up.

    Each comes with the splittings left below it; filled in this order, each part
    recurses one level whatever n is.  rr = 0 is the unit and needs no entry.
    """
    for m in range(n - 2 * levels, n + 1, 2):
        for rr in range(max(1, r - (n - m) // 2), min(r, m // 2) + 1):
            yield m, rr, levels - (n - m) // 2


def _admit(sizes, limit: int, unit: str, caller: str, **args) -> None:
    """Refuse ``caller(**args)`` as soon as the running total of ``sizes`` passes ``limit``."""
    needed = 0
    for size in sizes:
        needed += size
        if needed > limit:
            named = ", ".join(f"{k}={v}" for k, v in args.items())
            raise BudgetError(
                f"{caller} budget exceeded: {named} needs at least {needed} {unit}, limit {limit}"
            )


def _filled(n: int, r: int, witt_h: int, unit: str, caller: str, /, **args) -> tuple:
    """``_witt_whole(n, r, witt_h)``, its parts filled bottom up once their charge fits the budget:
    a part (m, rr) with hh splittings left holds at most 3^hh entries Essential(b, s),
    b = n - 2 witt_h, rr - hh <= s <= rr, at shifts 0..dim_unitary(m, rr) - dim_unitary(b, s),
    and is charged the smaller of 3^hh and the number of shifts.
    """
    b = n - 2 * witt_h
    sizes = (min(3 ** hh, sum(dim_unitary(m, rr) - dim_unitary(b, s) + 1
                              for s in range(max(0, rr - hh), min(rr, b // 2) + 1)))
             for m, rr, hh in _table(n, r, witt_h))
    _admit(sizes, _TABLE_BUDGET, unit, caller, **args)
    for part in _table(n, r, witt_h):
        _witt_whole(*part)
    return _witt_whole(n, r, witt_h)


@lru_cache(maxsize=None)
def _witt_whole(n: int, r: int, witt_h: int) -> tuple:
    """By bottom rank s, the distinct shifts of Essential(n - 2 witt_h, s) (Tate for s = 0)
    and their multiplicities, as one pair (shifts, multiplicities) of equal-length tuples."""
    if r < 0 or r > n // 2:
        return ()
    if r == 0 or witt_h == 0:
        return (((), ()),) * r + (((0,), (1,)),)  # Tate (r = 0), or Essential(n, r) at s = r
    lower, upper = _witt_whole(n - 2, r - 1, witt_h - 1), _witt_whole(n - 2, r, witt_h - 1)
    i, j = _step_shifts(n, r)
    by_s = []
    for lo, up in zip_longest(lower, upper, fillvalue=((), ())):
        acc = dict(zip(*lo))
        for shift, (ks, ms) in ((i, up), (j, lo)):
            for k, m in zip(ks, ms):
                acc[k + shift] = acc.get(k + shift, 0) + m
        by_s.append((tuple(acc), tuple(acc.values())))
    return tuple(by_s)


def essential_poincare(n: int, r: int) -> PoincarePolynomial:
    """Tate multiplicities of Essential(n, r): the whole motive split n // 2 times."""
    if not 0 <= r <= n // 2:
        raise UsageError(f"r={r} out of range for n={n}")
    (tate,) = _filled(n, r, n // 2, "table coefficients", "essential_poincare", n=n, r=r)
    multiplicity = dict(zip(*tate))
    return PoincarePolynomial([multiplicity.get(k, 0) for k in range(dim_unitary(n, r) + 1)])


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
    rhs = poly_mul([1, 1], essential_poincare(n, 1).to_list())
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
    by_s = _filled(n, r, witt_h, "table entries", "witt_decompose_whole", n=n, r=r, witt_h=witt_h)
    atoms = [TATE] + [essential(n - 2 * witt_h, s) for s in range(1, len(by_s))]
    summands = {(a, k): m for a, (ks, ms) in zip(atoms, by_s) for k, m in zip(ks, ms)}
    return Motive(summands, speck_residual=1 <= r <= n // 2)
