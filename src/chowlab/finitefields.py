"""Brute-force oracles over small finite fields.

Hermitian forms live over the quadratic extension of a prime field (the
lexicographically first monic irreducible quadratic is used as modulus);
the associated quadratic form is h(v, v) read over the prime field.  Each
job has one code path: linear solves are one Gauss-Jordan kernel of
:mod:`chowlab.linalg` per search node (``_SubspaceSearch._node``), and walks
over an affine space are ``_SubspaceSearch._lines``.  Totally isotropic
(singular) subspaces are found by a depth-first search over reduced-echelon
bases that propagates constraints: each accepted row adds one linear
orthogonality constraint, and a node's kernel gives the next rows leading
with 1 at each column.  Every row is read a line at a time: on a line
u + t w the form's value depends only on value(u), value(w) and b(u, w), so
one lookup in the field's ``_line_zeros`` table lists the isotropic points
of q candidates, and the line's q candidates are charged when it is read.
The search only counts, exactly.  The hermitian Witt index is one chain of
first isotropic rows up to a maximal subspace (Witt's theorem); the quadratic
one comes from splitting off hyperbolic planes (Witt cancellation), so the
two sides of the trace-form doubling are computed by independent algorithms.
Budgets are hard caps raising :class:`BudgetError`: on the dimension and
prime, and on the candidate rows one call may examine, every one on a read
line included.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple

from .errors import BudgetError, ChowlabError, UsageError
from .linalg import field_kernel, modp_kernel
from .polynomials import PoincarePolynomial, poly_divexact, poly_mul

WITT_HERMITIAN_BUDGET = {"n": 5, "p": (2, 3, 5)}
WITT_QUADRATIC_BUDGET = {"dim": 10, "p": (2, 3)}
_NODE_BUDGET = 1 << 22  # candidate rows one public call may examine


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


class PrimeField(namedtuple("PrimeField", "p")):
    """The field Z/p with elements represented as residues 0..p-1."""

    __slots__ = ()

    def __new__(cls, p: int):
        if type(p) is not int:
            raise UsageError(f"p must be an integer, got {p!r}")
        if not _is_prime(p):
            raise UsageError(f"{p} is not prime")
        return super().__new__(cls, p)


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
        return functools.reduce(self.mul, [x] * self.base.p)

    def __eq__(self, other):
        return isinstance(other, QuadExtField) and other.base == self.base

    def __hash__(self):
        return hash(("QuadExtField", self.base.p))

    def __repr__(self):
        return f"QuadExtField(p={self.base.p}, modulus=t^2+{self.b}t+{self.c})"


class HermitianSpace(namedtuple("HermitianSpace", "field diag")):
    """A diagonal hermitian space over a quadratic extension."""

    __slots__ = ()

    def __new__(cls, field: QuadExtField, diag):
        p = field.base.p
        if any(type(d) is not int for d in diag):
            raise UsageError(f"diagonal entries must be integers, got {list(diag)!r}")
        if any(d % p == 0 for d in diag):
            raise UsageError("diagonal entries must be nonzero in the base field")
        return super().__new__(cls, field, tuple(d % p for d in diag))

    @property
    def n(self) -> int:
        return len(self.diag)

    def value(self, v, w) -> int:
        K = self.field
        acc = 0
        for d, vi, wi in zip(self.diag, v, w):  # a reduced d encodes itself
            acc = K.add(acc, K.mul(d, K.mul(vi, K.conj(wi))))
        return acc


def hermitian_space(p: int, diag) -> HermitianSpace:
    return HermitianSpace(QuadExtField(PrimeField(p)), tuple(diag))


class QuadraticSpace:
    """A quadratic form over a prime field given by an upper-triangular matrix Q.

    ``gram`` is Q + Q^T, the Gram matrix of the polar form.
    """

    def __init__(self, base: PrimeField, upper):
        self.base = base
        self.upper = tuple(tuple(x % base.p for x in row) for row in upper)
        self.dim = len(self.upper)
        for i, row in enumerate(self.upper):
            if len(row) != self.dim or any(row[j] for j in range(i)):
                raise UsageError("coefficient matrix must be square upper-triangular")
        self.gram = tuple(
            tuple((a + b) % base.p for a, b in zip(row, column))
            for row, column in zip(self.upper, zip(*self.upper))
        )
        self._terms = [
            (i, j, c) for i, row in enumerate(self.upper) for j, c in enumerate(row) if c
        ]
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
        return sum(c * v[i] * v[j] for i, j, c in self._terms) % self.base.p

    def polar(self, v, w) -> int:
        """b(v, w) = q(v + w) - q(v) - q(w)."""
        acc = 0
        for x, row in zip(v, self.gram):
            if x:
                acc += x * sum(map(operator.mul, row, w))
        return acc % self.base.p

    def _nondegenerate(self) -> bool:
        if self.base.p != 2:
            return not modp_kernel(self.gram, self.base.p)
        # characteristic 2: the form is nondegenerate iff q does not vanish
        # on a nonzero vector of the polar radical, the kernel of the Gram rows
        search = _quadratic_search(self, "QuadraticSpace")
        return search._first_row(search._node((), self.gram)) is None

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


# -- constraint-propagating subspace search ------------------------------------


@functools.lru_cache(maxsize=None)  # one entry per field; the budgets admit five
def _tables(field) -> tuple:
    """Add, mul, neg and inv lookup tables of a field with elements 0..size-1."""
    if isinstance(field, QuadExtField):
        size, add, mul = field.size, field.add, field.mul
    else:
        p = size = field.p
        add, mul = (lambda x, y: (x + y) % p), (lambda x, y: x * y % p)
    add_t = tuple(tuple(add(x, y) for y in range(size)) for x in range(size))
    mul_t = tuple(tuple(mul(x, y) for y in range(size)) for x in range(size))
    neg = tuple(row.index(0) for row in add_t)
    inv = (0,) + tuple(row.index(1) for row in mul_t[1:])
    return add_t, mul_t, neg, inv


@functools.lru_cache(maxsize=None)  # one entry per field, like _tables
def _conj_norm(K: QuadExtField) -> tuple:
    """Conjugate and norm lookup tables of F_{p^2} with elements 0..size-1."""
    return tuple(map(K.conj, K.elements())), tuple(map(K.norm, K.elements()))


@functools.lru_cache(maxsize=None)  # one entry per field, like _tables
def _line_zeros(field) -> tuple:
    """``zeros[c][x][beta]``: the t, in increasing order, where a form vanishes on u + t w.

    The form's value on the line depends only on c = value(w), x = value(u)
    (both in the prime field) and beta = b(u, w).  For a hermitian form over
    F_{p^2} it is x + Tr(conj(t) beta) + N(t) c; for a quadratic form over
    F_p it is x + t beta + t^2 c.
    """
    if isinstance(field, QuadExtField):
        K, p = field, field.base.p
        conj, square = _conj_norm(K)
        products = [[K.mul(conj[t], beta) for beta in K.elements()] for t in K.elements()]
        linear = [[K.add(s, conj[s]) for s in row] for row in products]  # traces
    else:
        p = field.p
        linear = [[t * beta % p for beta in range(p)] for t in range(p)]
        square = [t * t % p for t in range(p)]
    size = len(square)

    def zeros(c, x, beta):
        return tuple(t for t in range(size) if (x + linear[t][beta] + square[t] * c) % p == 0)

    return tuple(
        tuple(tuple(zeros(c, x, beta) for beta in range(size)) for x in range(p)) for c in range(p)
    )


def _points(tables, v, directions):
    """Every v + t_1 w_1 + t_2 w_2 + ..., depth first in lexicographic order of (t_1, t_2, ...)."""
    if not directions:
        yield v
        return
    add, mul, _, _ = tables
    w, rest = directions[0], directions[1:]
    yield from _points(tables, v, rest)  # t = 0
    for tw in mul[1:]:
        yield from _points(tables, [add[a][tw[b]] for a, b in zip(v, w)], rest)


class _SubspaceSearch:
    """Depth-first search for the totally isotropic subspaces of one form.

    Every subspace is visited once, as its reduced-echelon basis.  Rows are
    picked from the last pivot backwards, so a new row's zero pattern is
    already fixed: zeros left of its pivot and at the pivots taken.  Each
    accepted row u adds the linear constraint ``functional(u)`` (coefficients
    a with sum a_j v_j = 0 exactly when v is orthogonal to u) on every later
    row v.  A search node solves its constraints once (``_node``), and its
    candidates are the rows leading with 1 at each column; a row is isotropic
    when ``value(v)``, the form's value in the prime field, is 0.  Rows are
    read a line at a time (``_lines``): on the line u + t w through the
    innermost direction w the value depends only on value(u), value(w) and
    b(u, w) = ``functional(w)`` applied to u, so one ``_line_zeros`` lookup
    gives the isotropic t.  A line's q candidates, q nodes of work, are
    charged when it is read (``_charge``, ``visited``).
    """

    def __init__(self, op: str, field, dim: int, functional, value):
        self.tables, self.zeros = _tables(field), _line_zeros(field)
        self.dim, self.functional, self.value = dim, functional, value
        self.op, self.visited = op, 0

    def _charge(self, n: int) -> None:
        """Count n more candidates; past the budget, stop at the first one beyond it."""
        self.visited += n
        if self.visited > _NODE_BUDGET:
            self.visited = _NODE_BUDGET + 1
            raise BudgetError(
                f"{self.op} budget exceeded: visited {self.visited} nodes, limit {_NODE_BUDGET}"
            )

    def count(self, r: int) -> int:
        """Number of isotropic r-subspaces."""
        return self._extend(r, self.dim, (), ())

    def _extend(self, k, top, pivots, constraints) -> int:
        # subspaces completing the chosen rows with k more rows, pivots below top
        if k == 0:
            return 1
        total = 0
        for c, base, directions in self._node(pivots, constraints):
            if not k - 1 <= c < top:
                continue
            for u, ts, w in self._lines(base, directions):
                if k == 1:
                    total += len(ts)
                    continue
                for t in ts:
                    a = self.functional(self._at(u, t, w))
                    total += self._extend(k - 1, c, pivots + (c,), constraints + (a,))
        return total

    def _node(self, pivots, constraints):
        """(c, v_c, directions) for each column c some row leads at, c strictly ascending or raise.

        One kernel of the constraints on the non-pivot columns, last column first: each v_c is
        1 at c and 0 left of it, so the rows leading with 1 at c are v_c + span(directions),
        the v_f with f > c, and a node has sum_c q^len(directions) candidate rows.
        """
        columns = [j for j in reversed(range(self.dim)) if j not in pivots]
        rows = [[a[j] for j in columns] for a in constraints]
        node, later, last = [], [], self.dim
        for x in field_kernel(rows, len(columns), self.tables):  # leading columns descending
            v = [0] * self.dim
            for j, a in zip(columns, x):
                v[j] = a
            c = v.index(1)
            if c >= last:
                raise ChowlabError(f"node kernel leads at column {c} after column {last}")
            node.append((c, v, later))
            later, last = [v] + later, c
        return node[::-1]

    def _first_row(self, node):
        """The first isotropic row of a node, or None when it has none."""
        for _, base, directions in node:
            for u, ts, w in self._lines(base, directions):
                if ts:
                    return self._at(u, ts[0], w)
        return None

    def _lines(self, base, directions):
        """(u, ts, w) for each line u + t w of base + span(directions), u in _points order.

        w is the innermost direction and ts the line's isotropic t, ascending, from one
        ``_line_zeros`` lookup.  A line's q candidates are charged when it is read; an entry
        with no directions is one line of one candidate, (base, (0,) or (), None).
        """
        if not directions:
            self._charge(1)
            yield base, () if self.value(base) else (0,), None
            return
        *outer, w = directions
        add, mul, _, _ = self.tables
        zeros = self.zeros[self.value(w)]
        polar = [(j, mul[a]) for j, a in enumerate(self.functional(w)) if a]  # u -> b(u, w)
        for u in _points(self.tables, base, outer):
            self._charge(len(mul))
            beta = 0
            for j, row in polar:
                beta = add[beta][row[u[j]]]
            yield u, zeros[self.value(u)][beta], w

    def _at(self, u, t, w):
        """The row u + t w."""
        if not t:
            return u
        add, scaled = self.tables[0], self.tables[1][t]
        return [add[a][scaled[b]] for a, b in zip(u, w)]


def _hermitian_search(H: HermitianSpace, op: str) -> _SubspaceSearch:
    # v -> h(v, u) = sum d_j v_j conj(u_j) is F_{p^2}-linear, and h(v, u) = 0
    # exactly when h(u, v) = 0; h(v, v) = sum d_j N(v_j) lies in the base field.
    K = H.field
    p = K.base.p
    _, mul, _, _ = _tables(K)
    conj, norm = _conj_norm(K)
    diag = H.diag

    def functional(u):
        return [mul[d][conj[x]] for d, x in zip(diag, u)]

    def value(v):
        return sum(d * norm[x] for d, x in zip(diag, v)) % p

    return _SubspaceSearch(op, K, H.n, functional, value)


def _quadratic_search(Q: QuadraticSpace, op: str) -> _SubspaceSearch:
    # the constraint of u is the polar form b(u, .)
    p, gram = Q.base.p, Q.gram

    def functional(u):
        return [sum(map(operator.mul, row, u)) % p for row in gram]

    return _SubspaceSearch(op, Q.base, Q.dim, functional, Q.value)


def _check_budget(op: str, budget: dict, key: str, size: int, p: int) -> None:
    if size > budget[key] or p not in budget["p"]:
        raise BudgetError(
            f"{op} budget exceeded: need {key} <= {budget[key]} and "
            f"p in {budget['p']}, got {key}={size}, p={p}"
        )


def witt_index_hermitian(H: HermitianSpace) -> int:
    """Dimension of a maximal totally isotropic subspace, by one chain of first rows.

    By Witt's theorem all maximal totally isotropic subspaces of a nondegenerate hermitian
    form have the same dimension (Taylor, *The Geometry of the Classical Groups*, ch. 10).
    Each step takes the first isotropic row v of a search node (``_first_row``) and adds its
    leading column to the pivots and h(., v) to the constraints; the chain is maximal at a
    node with none.  More than n // 2 rows cannot be totally isotropic, and raise.
    """
    op = "witt_index_hermitian"
    _check_budget(op, WITT_HERMITIAN_BUDGET, "n", H.n, H.field.base.p)
    search, pivots, constraints = _hermitian_search(H, op), [], []
    while (v := search._first_row(search._node(pivots, constraints))) is not None:
        if len(constraints) == H.n // 2:
            raise ChowlabError(f"{op}: chain of isotropic rows longer than n // 2 = {H.n // 2}")
        pivots.append(v.index(1))
        constraints.append(search.functional(v))
    return len(pivots)


def witt_index_quadratic(Q: QuadraticSpace) -> int:
    """Dimension of a maximal totally singular subspace, by hyperbolic splitting.

    By Witt cancellation (Elman-Karpenko-Merkurjev, *The Algebraic and Geometric Theory of
    Quadratic Forms*, sections 7-8) Q is an orthogonal sum of m hyperbolic planes and an
    anisotropic rest, and m is the Witt index.  W, F_p^dim at the start, is the kernel of the
    polar functionals b(., v), b(., w) of the planes split off so far, solved once per pass
    as one search node (``_SubspaceSearch._node``).  Its first singular row v (rows leading
    with 1, read a line at a time) and the first of its kernel vectors w with b(v, w) != 0
    span the next plane, which leaves W exactly two dimensions smaller (else this raises).
    The split stops when an exhaustive pass finds W anisotropic, which over F_p happens at
    dimension at most 2 (Chevalley-Warning).  Each line read charges its q candidate rows to
    the node budget (the zero vector is no candidate).  The singular vectors found are checked
    to span a totally singular subspace before the index is returned.
    """
    op = "witt_index_quadratic"
    _check_budget(op, WITT_QUADRATIC_BUDGET, "dim", Q.dim, Q.base.p)
    search = _quadratic_search(Q, op)
    constraints, singular = [], []
    while True:
        node = search._node((), constraints)
        if len(node) != Q.dim - 2 * len(singular):  # one kernel vector per dimension of W
            raise ChowlabError(f"{op}: W of dimension {len(node)} on pass {len(singular) + 1}")
        v = search._first_row(node)
        if v is None:  # no singular vector left: W is anisotropic
            break
        w = next((u for _, u, _ in node if Q.polar(v, u)), None)
        if w is None:
            raise ChowlabError(f"singular vector {v} has no polar partner: degenerate rest")
        constraints += [search.functional(v), search.functional(w)]
        singular.append(v)
    _check_totally_singular(Q, singular)
    return len(singular)


def _check_totally_singular(Q: QuadraticSpace, vectors) -> None:
    """Raise unless the vectors are independent and span a totally singular subspace."""
    if any(Q.value(v) for v in vectors):
        raise ChowlabError("certificate failed: a split vector is not singular")
    for i, v in enumerate(vectors):
        if any(Q.polar(v, u) for u in vectors[i + 1:]):
            raise ChowlabError("certificate failed: two split vectors are not orthogonal")
    columns = [[v[k] for v in vectors] for k in range(Q.dim)]
    if vectors and modp_kernel(columns, Q.base.p):
        raise ChowlabError("certificate failed: the split vectors are dependent")


def count_isotropic(H: HermitianSpace, r: int) -> int:
    """Exact number of totally isotropic r-dimensional subspaces."""
    if r < 0:
        raise UsageError("r must be nonnegative")
    _check_budget("count_isotropic", WITT_HERMITIAN_BUDGET, "n", H.n, H.field.base.p)
    return _hermitian_search(H, "count_isotropic").count(r)


def count_singular(Q: QuadraticSpace, m: int) -> int:
    """Exact number of totally singular m-dimensional subspaces."""
    if m < 0:
        raise UsageError("m must be nonnegative")
    _check_budget("count_singular", WITT_QUADRATIC_BUDGET, "dim", Q.dim, Q.base.p)
    return _quadratic_search(Q, "count_singular").count(m)


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
    _check_budget("jacobson_check", WITT_HERMITIAN_BUDGET, "n", H1.n, H1.field.base.p)
    q_iso = witt_index_quadratic(trace_quadratic(H1)) == witt_index_quadratic(
        trace_quadratic(H2)
    )
    h_iso = witt_index_hermitian(H1) == witt_index_hermitian(H2)
    return q_iso == h_iso
