"""Graded-rank generating polynomials and exact integer polynomial helpers."""

from __future__ import annotations

import operator
from itertools import accumulate

from .errors import ExactDivisionError, UsageError


def _trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class PoincarePolynomial:
    """A polynomial with nonnegative integer coefficients indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = _trim(coeffs)
        if any(c < 0 for c in coeffs):
            raise UsageError("Poincare polynomial coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def one(cls) -> "PoincarePolynomial":
        return cls((1,))

    @classmethod
    def exterior(cls, degrees) -> "PoincarePolynomial":
        """Product of (1 + q^d) over the given degrees d >= 0: one pass a factor."""
        coeffs = [1]
        for d in degrees:
            if d < 0:
                raise UsageError(f"exterior degree {d} is negative")
            poly_mul_binomial(coeffs, d)
        return cls(coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, PoincarePolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (list, tuple)):
            return self.coeffs == _trim(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __getitem__(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __add__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        return PoincarePolynomial(poly_add(self.coeffs, other.coeffs))

    def __mul__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        return PoincarePolynomial(poly_mul(self.coeffs, other.coeffs))

    def shift(self, i: int) -> "PoincarePolynomial":
        """Multiply by q^i."""
        if not self.coeffs:
            return self
        return PoincarePolynomial((0,) * i + self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    @property
    def total(self) -> int:
        """Sum of coefficients (the total rank)."""
        return sum(self.coeffs)

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def dominates(self, other: "PoincarePolynomial") -> bool:
        """Coefficientwise >= comparison."""
        return all(self[d] >= other[d] for d in range(max(len(self.coeffs), len(other.coeffs))))

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                q = "q" if d == 1 else f"q^{d}"
                parts.append(q if c == 1 else f"{c}{q}")
        return " + ".join(parts)


def poly_add(a, b) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def poly_sub(a, b) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return out


def poly_mul(a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divexact(num, den) -> list[int]:
    """Exact polynomial division over Z; raises if the division leaves a remainder."""
    num = list(_trim(num))
    den = list(_trim(den))
    if not den:
        raise ExactDivisionError("division by zero polynomial")
    if not num:
        return []
    if len(num) < len(den):
        raise ExactDivisionError("degree of numerator below denominator")
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, rem = divmod(num[k + len(den) - 1], den[-1])
        if rem:
            raise ExactDivisionError("non-exact leading coefficient division")
        out[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    if any(num):
        raise ExactDivisionError("non-zero remainder in exact division")
    return out


def poly_mul_binomial(coeffs: list, j: int, sign: int = 1) -> None:
    """Multiply ``coeffs`` in place by 1 + sign * t^j (j >= 0, sign = +-1): one pass."""
    coeffs += [0] * j
    op = operator.add if sign > 0 else operator.sub
    coeffs[j:] = map(op, coeffs[j:], coeffs[: len(coeffs) - j])


def poly_div_one_minus(coeffs: list, j: int) -> None:
    """Divide ``coeffs`` in place exactly by 1 - t^j (j >= 1): one pass; a remainder raises."""
    # in each residue class mod j the quotient is the prefix sums; exact when the top j vanish
    for a in range(j):
        coeffs[a::j] = accumulate(coeffs[a::j])
    if any(coeffs[-j:]):
        raise ExactDivisionError(f"non-zero remainder in division by 1 - t^{j}")
    del coeffs[-j:]


def gaussian_binomial(n: int, k: int) -> list[int]:
    """Coefficients of the Gaussian binomial [n; k]_t (0 <= k <= n): 2 min(k, n - k) passes.

    Step i leaves [n - k + i; i]_t, so each division is exact.
    """
    k = min(k, n - k)
    coeffs = [1]
    for i in range(1, k + 1):
        poly_mul_binomial(coeffs, n - k + i, -1)
        poly_div_one_minus(coeffs, i)
    return coeffs
