"""Brute-force oracles over small finite fields.

Hermitian forms live over the quadratic extension of a prime field (the
lexicographically first monic irreducible quadratic is used as modulus);
the associated quadratic form is h(v, v) read over the prime field.
Subspace enumeration walks reduced-echelon representatives with isotropy
pruning at every added row, so counts are exact and Witt indices are found
by exhaustion.  Budgets are hard caps raising :class:`BudgetError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetError, ChowlabError, UsageError
from .linalg import modp_kernel
from .polynomials import PoincarePolynomial, poly_divexact, poly_mul

_WITT_HERMITIAN_BUDGET = {"n": 5, "p": (2, 3, 5)}
_WITT_QUADRATIC_BUDGET = {"dim": 10, "p": (2, 3)}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The field Z/p with elements represented as residues 0..p-1."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise UsageError(f"{p} is not prime")
        self.p = p

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class QuadExtField:
    """The quadratic extension of a prime field with its conjugation and norm.

    Elements are encoded as integers ``x0 + p*x1`` standing for x0 + x1*t,
    where t is a root of the first (in lexicographic coefficient order)
    monic irreducible quadratic t^2 + b*t + c over the base field.  The
    conjugation sends t to -b - t, which is the p-power Frobenius.
    """

    def __init__(self, base: PrimeField):
        self.base = base
        self.b, self.c = self._first_irreducible(base.p)
        self.size = base.p * base.p

    @staticmethod
    def _first_irreducible(p: int) -> tuple[int, int]:
        for b in range(p):
            for c in range(p):
                if all((x * x + b * x + c) % p for x in range(p)):
                    return b, c
        raise ChowlabError("no irreducible quadratic found")  # unreachable for prime p

    def elements(self):
        return range(self.size)

    def encode(self, x0: int, x1: int) -> int:
        p = self.base.p
        return (x0 % p) + p * (x1 % p)

    def decode(self, x: int) -> tuple[int, int]:
        return x % self.base.p, x // self.base.p

    def from_base(self, a: int) -> int:
        return a % self.base.p

    def in_base(self, x: int) -> bool:
        return x < self.base.p

    def add(self, x: int, y: int) -> int:
        x0, x1 = self.decode(x)
        y0, y1 = self.decode(y)
        return self.encode(x0 + y0, x1 + y1)

    def mul(self, x: int, y: int) -> int:
        x0, x1 = self.decode(x)
        y0, y1 = self.decode(y)
        cross = x1 * y1
        return self.encode(x0 * y0 - self.c * cross, x0 * y1 + x1 * y0 - self.b * cross)

    def conj(self, x: int) -> int:
        x0, x1 = self.decode(x)
        return self.encode(x0 - self.b * x1, -x1)

    def norm(self, x: int) -> int:
        value = self.mul(x, self.conj(x))
        if not self.in_base(value):
            raise ChowlabError(f"norm of {x} left the base field")
        return value

    def frobenius(self, x: int) -> int:
        acc = 1
        for _ in range(self.base.p):
            acc = self.mul(acc, x)
        return acc if x else 0

    def __eq__(self, other):
        return isinstance(other, QuadExtField) and other.base == self.base

    def __hash__(self):
        return hash(("QuadExtField", self.base.p))

    def __repr__(self):
        return f"QuadExtField(p={self.base.p}, modulus=t^2+{self.b}t+{self.c})"


@dataclass(frozen=True)
class HermitianSpace:
    """A diagonal hermitian space over a quadratic extension."""

    field: QuadExtField
    diag: tuple[int, ...]

    def __post_init__(self):
        p = self.field.base.p
        if any(d % p == 0 for d in self.diag):
            raise UsageError("diagonal entries must be nonzero in the base field")
        object.__setattr__(self, "diag", tuple(d % p for d in self.diag))

    @property
    def n(self) -> int:
        return len(self.diag)

    def value(self, v, w) -> int:
        K = self.field
        acc = 0
        for d, vi, wi in zip(self.diag, v, w):
            acc = K.add(acc, K.mul(K.from_base(d), K.mul(vi, K.conj(wi))))
        return acc


def hermitian_space(p: int, diag) -> HermitianSpace:
    return HermitianSpace(QuadExtField(PrimeField(p)), tuple(diag))


class QuadraticSpace:
    """A quadratic form over a prime field given by an upper-triangular matrix."""

    def __init__(self, base: PrimeField, upper):
        self.base = base
        self.upper = tuple(tuple(x % base.p for x in row) for row in upper)
        self.dim = len(self.upper)
        for i, row in enumerate(self.upper):
            if len(row) != self.dim or any(row[j] for j in range(i)):
                raise UsageError("coefficient matrix must be square upper-triangular")
        if not self._nondegenerate():
            raise ChowlabError("degenerate quadratic space")

    @classmethod
    def split(cls, base: PrimeField, n: int) -> "QuadraticSpace":
        """The split form x1*y1 + ... + xn*yn of dimension 2n."""
        dim = 2 * n
        upper = [[0] * dim for _ in range(dim)]
        for i in range(n):
            upper[2 * i][2 * i + 1] = 1
        return cls(base, upper)

    def value(self, v) -> int:
        p = self.base.p
        acc = 0
        for i in range(self.dim):
            if v[i] == 0:
                continue
            for j in range(i, self.dim):
                acc += self.upper[i][j] * v[i] * v[j]
        return acc % p

    def polar(self, v, w) -> int:
        # b(v, w) = q(v+w) - q(v) - q(w), evaluated via B = Q + Q^T
        p = self.base.p
        acc = 0
        for i in range(self.dim):
            if v[i] == 0:
                continue
            for j in range(self.dim):
                if i < j:
                    acc += self.upper[i][j] * v[i] * w[j]
                elif i > j:
                    acc += self.upper[j][i] * v[i] * w[j]
                else:
                    acc += 2 * self.upper[i][i] * v[i] * w[j]
        return acc % p

    def _nondegenerate(self) -> bool:
        p = self.base.p
        bmat = [
            [(self.polar_entry(i, j)) for j in range(self.dim)] for i in range(self.dim)
        ]
        radical = modp_kernel(bmat, p)
        if not radical:
            return True
        if p != 2:
            return False
        # characteristic 2: the form is nondegenerate iff q does not vanish
        # on a nonzero vector of the polar radical
        for coeffs in itertools.product(range(p), repeat=len(radical)):
            if not any(coeffs):
                continue
            v = [0] * self.dim
            for c, vec in zip(coeffs, radical):
                for k in range(self.dim):
                    v[k] = (v[k] + c * vec[k]) % p
            if self.value(v) == 0:
                return False
        return True

    def polar_entry(self, i: int, j: int) -> int:
        p = self.base.p
        if i < j:
            return self.upper[i][j] % p
        if i > j:
            return self.upper[j][i] % p
        return (2 * self.upper[i][i]) % p

    def __repr__(self):
        return f"QuadraticSpace(p={self.base.p}, dim={self.dim})"


def trace_quadratic(H: HermitianSpace) -> QuadraticSpace:
    """The form v -> h(v, v) on the same space read over the prime field.

    Coordinates are interleaved as (x_1, y_1, ..., x_n, y_n) in the basis
    (1, t) of the extension; each diagonal entry d contributes the binary
    norm-form block d*(x^2 - b*x*y + c*y^2).
    """
    K = H.field
    p = K.base.p
    dim = 2 * H.n
    upper = [[0] * dim for _ in range(dim)]
    for i, d in enumerate(H.diag):
        upper[2 * i][2 * i] = d % p
        upper[2 * i][2 * i + 1] = (-d * K.b) % p
        upper[2 * i + 1][2 * i + 1] = (d * K.c) % p
    return QuadraticSpace(K.base, upper)


# -- echelon subspace enumeration ---------------------------------------------


def _echelon_subspaces(dim, scalars, one, self_ok, pair_ok, r, first_only=False) -> int:
    """Count r-dimensional subspaces through reduced-echelon representatives.

    ``self_ok`` filters candidate rows, ``pair_ok`` prunes pairs; both must
    hold on a basis exactly when the subspace-wide condition holds.
    """
    if r == 0:
        return 1
    if r > dim:
        return 0
    total = 0
    zero_vec = [0] * dim
    for pivots in itertools.combinations(range(dim), r):
        pivot_set = set(pivots)
        candidates = []
        for p in pivots:
            free = [j for j in range(p + 1, dim) if j not in pivot_set]
            rows = []
            for assignment in itertools.product(scalars, repeat=len(free)):
                v = list(zero_vec)
                v[p] = one
                for j, s in zip(free, assignment):
                    v[j] = s
                v = tuple(v)
                if self_ok(v):
                    rows.append(v)
            candidates.append(rows)

        chosen: list = []

        def dfs(i: int) -> bool:
            nonlocal total
            if i == r:
                total += 1
                return first_only
            for v in candidates[i]:
                if all(pair_ok(u, v) for u in chosen):
                    chosen.append(v)
                    done = dfs(i + 1)
                    chosen.pop()
                    if done:
                        return True
            return False

        if dfs(0) and first_only:
            return total
    return total


def _hermitian_predicates(H: HermitianSpace):
    zero = 0

    def self_ok(v):
        return H.value(v, v) == zero

    def pair_ok(u, v):
        return H.value(u, v) == zero

    return self_ok, pair_ok


def _quadratic_predicates(Q: QuadraticSpace):
    def self_ok(v):
        return Q.value(v) == 0

    def pair_ok(u, v):
        return Q.polar(u, v) == 0

    return self_ok, pair_ok


def _check_hermitian_budget(H: HermitianSpace, op: str) -> None:
    p = H.field.base.p
    if H.n > _WITT_HERMITIAN_BUDGET["n"] or p not in _WITT_HERMITIAN_BUDGET["p"]:
        raise BudgetError(
            f"{op} budget exceeded: need n <= {_WITT_HERMITIAN_BUDGET['n']} and "
            f"p in {_WITT_HERMITIAN_BUDGET['p']}, got n={H.n}, p={p}"
        )


def _check_quadratic_budget(Q: QuadraticSpace, op: str) -> None:
    p = Q.base.p
    if Q.dim > _WITT_QUADRATIC_BUDGET["dim"] or p not in _WITT_QUADRATIC_BUDGET["p"]:
        raise BudgetError(
            f"{op} budget exceeded: need dim <= {_WITT_QUADRATIC_BUDGET['dim']} and "
            f"p in {_WITT_QUADRATIC_BUDGET['p']}, got dim={Q.dim}, p={p}"
        )


def witt_index_hermitian(H: HermitianSpace) -> int:
    """Largest r with a totally isotropic r-dimensional subspace."""
    _check_hermitian_budget(H, "witt_index_hermitian")
    self_ok, pair_ok = _hermitian_predicates(H)
    scalars = list(H.field.elements())
    witt = 0
    for r in range(1, H.n // 2 + 1):
        found = _echelon_subspaces(
            H.n, scalars, 1, self_ok, pair_ok, r, first_only=True
        )
        if not found:
            break
        witt = r
    return witt


def witt_index_quadratic(Q: QuadraticSpace) -> int:
    """Largest m with a totally singular m-dimensional subspace."""
    _check_quadratic_budget(Q, "witt_index_quadratic")
    self_ok, pair_ok = _quadratic_predicates(Q)
    scalars = list(range(Q.base.p))
    witt = 0
    for m in range(1, Q.dim // 2 + 1):
        found = _echelon_subspaces(
            Q.dim, scalars, 1, self_ok, pair_ok, m, first_only=True
        )
        if not found:
            break
        witt = m
    return witt


def count_isotropic(H: HermitianSpace, r: int) -> int:
    """Exact number of totally isotropic r-dimensional subspaces."""
    if r < 0:
        raise UsageError("r must be nonnegative")
    _check_hermitian_budget(H, "count_isotropic")
    self_ok, pair_ok = _hermitian_predicates(H)
    return _echelon_subspaces(H.n, list(H.field.elements()), 1, self_ok, pair_ok, r)


def count_singular(Q: QuadraticSpace, m: int) -> int:
    """Exact number of totally singular m-dimensional subspaces."""
    if m < 0:
        raise UsageError("m must be nonnegative")
    _check_quadratic_budget(Q, "count_singular")
    self_ok, pair_ok = _quadratic_predicates(Q)
    return _echelon_subspaces(Q.dim, list(range(Q.base.p)), 1, self_ok, pair_ok, m)


def orth_count_polynomial(N: int, m: int) -> PoincarePolynomial:
    """Counting polynomial of singular m-subspaces of the split 2N-dimensional form.

    Computed by the classical product with verified exact divisions; the
    binding contract is agreement with brute-force enumeration at small
    primes.
    """
    if not 0 <= m <= N:
        raise UsageError(f"m={m} out of range for N={N}")
    num = [1]
    den = [1]
    for i in range(m):
        minus = [-1] + [0] * (N - i - 1) + [1]  # q^(N-i) - 1
        plus = [1] + [0] * (N - i - 2) + [1] if N - i - 1 > 0 else [2]  # q^(N-i-1) + 1
        num = poly_mul(num, poly_mul(minus, plus))
        den = poly_mul(den, [-1] + [0] * i + [1])  # q^(i+1) - 1
    return PoincarePolynomial(poly_divexact(num, den))


def jacobson_check(H1: HermitianSpace, H2: HermitianSpace) -> bool:
    """Finite instance of the trace-form correspondence.

    Two same-dimension hermitian spaces are isomorphic exactly when their
    Witt indices agree, and likewise for the associated quadratic forms;
    the check confirms the two isomorphism tests coincide.
    """
    if H1.n != H2.n:
        raise UsageError("spaces must have equal dimension")
    if H1.field != H2.field:
        raise UsageError("spaces must live over the same field")
    _check_hermitian_budget(H1, "jacobson_check")
    q_iso = witt_index_quadratic(trace_quadratic(H1)) == witt_index_quadratic(
        trace_quadratic(H2)
    )
    h_iso = witt_index_hermitian(H1) == witt_index_hermitian(H2)
    return q_iso == h_iso
