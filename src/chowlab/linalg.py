"""Exact linear algebra over GF(2), over the integers and over finite fields.

GF(2) vectors are int bitmasks; integer vectors are dense lists of Python
ints (arbitrary precision).  Both backends keep track of how reduced rows
were obtained from the input rows, so membership queries can return witness
coefficients and fully reduced rows yield kernel combinations.  Kernels over
any finite field, Z/p and F_{p^2} alike, come from one Gauss-Jordan
elimination on the field's lookup tables (``field_kernel``).
"""

from __future__ import annotations

import functools


class F2Span:
    """Row space over GF(2) with membership witnesses.

    Rows are bitmasks.  A witness is a bitmask over the *input* row indices
    whose XOR equals the queried vector.
    """

    def __init__(self, rows=()):
        self._rows: dict[int, tuple[int, int]] = {}  # pivot bit -> (row, witness)
        self._count = 0
        self.kernel: list[int] = []  # witness masks of rows that reduced to zero
        for row in rows:
            self.add(row)

    def add(self, vec: int) -> None:
        wit = 1 << self._count
        self._count += 1
        vec, wit = self._reduce(vec, wit)
        if vec:
            self._rows[vec & -vec] = (vec, wit)
        else:
            self.kernel.append(wit)

    def _reduce(self, vec: int, wit: int = 0) -> tuple[int, int]:
        # A row's pivot is its lowest bit, so XOR-ing it in clears that bit and
        # changes only higher ones: one upward walk over vec's bits leaves the
        # unique coset element with no pivot bit, and its unique witness.
        rest = vec
        while rest:
            bit = rest & -rest
            hit = self._rows.get(bit)
            if hit is not None:
                vec ^= hit[0]
                wit ^= hit[1]
            rest = vec & -(bit << 1)  # the bits of vec above bit
        return vec, wit

    @property
    def rank(self) -> int:
        return len(self._rows)

    def witness(self, vec: int) -> int | None:
        """Bitmask of input rows XOR-ing to ``vec``, or None if not in the span."""
        vec, wit = self._reduce(vec)
        return wit if vec == 0 else None

    def contains(self, vec: int) -> bool:
        return self.witness(vec) is not None


def f2_kernel(rows: list[int]) -> list[int]:
    """Basis of {x : XOR of rows selected by x is zero}, as bitmasks over rows."""
    span = F2Span(rows)
    return list(span.kernel)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b == g == gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class ZSpan:
    """Integer row lattice kept in Hermite-style echelon form.

    Rows are inserted one at a time; every operation applied is unimodular
    and mirrored on sparse transform rows, so the transforms of rows that
    reduce to zero form a basis of the kernel lattice of the input rows,
    and membership queries can report integer witness coefficients.
    """

    def __init__(self, rows=()):
        self._width: int | None = None  # set by the first row
        self._rows: list[tuple[int, list[int], dict[int, int]]] = []  # (pivot col, row, transform)
        self._count = 0
        self.kernel: list[dict[int, int]] = []
        for row in rows:
            self.add(row)

    def add(self, vec) -> None:
        vec = list(vec)
        if self._width is None:
            self._width = len(vec)
        elif len(vec) != self._width:
            raise ValueError("row width mismatch")
        uvec = {self._count: 1}
        self._count += 1
        self._insert(vec, uvec)

    def _insert(self, vec: list[int], uvec: dict[int, int]) -> None:
        while True:
            lead = next((j for j, x in enumerate(vec) if x), None)
            if lead is None:
                self.kernel.append(uvec)
                return
            pos = 0
            match = None
            for pos, (pcol, _, _) in enumerate(self._rows):
                if pcol == lead:
                    match = pos
                    break
                if pcol > lead:
                    break
            else:
                pos = len(self._rows)
            if match is None:
                if vec[lead] < 0:
                    vec = [-x for x in vec]
                    uvec = {k: -v for k, v in uvec.items()}
                self._rows.insert(pos, (lead, vec, uvec))
                self._reduce_above(pos)
                return
            _, row, urow = self._rows[match]
            a, b = row[lead], vec[lead]
            if b % a == 0:
                q = b // a
                vec = [x - q * y for x, y in zip(vec, row)]
                uvec = _udiff(uvec, urow, q)
                continue
            g, s, t = _xgcd(a, b)
            new_row = [s * x + t * y for x, y in zip(row, vec)]
            new_u = _ucombine(urow, s, uvec, t)
            rest = [(a // g) * y - (b // g) * x for x, y in zip(row, vec)]
            rest_u = _ucombine(uvec, a // g, urow, -(b // g))
            self._rows[match] = (lead, new_row, new_u)
            self._reduce_above(match)
            vec, uvec = rest, rest_u

    def _reduce_above(self, pos: int) -> None:
        # keep entries above each pivot reduced modulo the pivot (Hermite form)
        pcol, prow, _ = self._rows[pos]
        piv = prow[pcol]
        for i in range(pos):
            _, row, urow = self._rows[i]
            q = row[pcol] // piv
            if q:
                for j in range(len(row)):
                    row[j] -= q * prow[j]
                new_u = _udiff(urow, self._rows[pos][2], q)
                self._rows[i] = (self._rows[i][0], row, new_u)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def witness(self, vec) -> list[int] | None:
        """Integer coefficients on the input rows reaching ``vec``, or None."""
        t = list(vec)
        acc: dict[int, int] = {}
        for pcol, row, urow in self._rows:
            if t[pcol] == 0:
                continue
            q, rem = divmod(t[pcol], row[pcol])
            if rem:
                return None
            for j in range(len(t)):
                t[j] -= q * row[j]
            for k, v in urow.items():
                acc[k] = acc.get(k, 0) + q * v
        if any(t):
            return None
        return [acc.get(i, 0) for i in range(self._count)]

    def contains(self, vec) -> bool:
        return self.witness(vec) is not None

    def kernel_vectors(self) -> list[list[int]]:
        return [[u.get(i, 0) for i in range(self._count)] for u in self.kernel]


def _ucombine(u1: dict[int, int], c1: int, u2: dict[int, int], c2: int) -> dict[int, int]:
    out = {k: c1 * v for k, v in u1.items()}
    for k, v in u2.items():
        out[k] = out.get(k, 0) + c2 * v
    return {k: v for k, v in out.items() if v}


def _udiff(u1: dict[int, int], u2: dict[int, int], q: int) -> dict[int, int]:
    return _ucombine(u1, 1, u2, -q)


def z_kernel(rows) -> list[list[int]]:
    """Basis of the integer kernel lattice {x : sum x_i row_i = 0}."""
    span = ZSpan(rows)
    return span.kernel_vectors()


class _Table(dict):
    """A lookup table whose entry ``x`` is ``rule(x)``, computed on first lookup."""

    def __init__(self, rule):
        self.rule = rule

    def __missing__(self, x):
        self[x] = value = self.rule(x)
        return value


@functools.lru_cache(maxsize=8)
def _residue_tables(p: int) -> tuple:
    # Z/p as field_kernel reads it, filled only where looked up, so any prime fits
    add = _Table(lambda x: _Table(lambda y: (x + y) % p))
    mul = _Table(lambda x: _Table(lambda y: x * y % p))
    return add, mul, _Table(lambda x: -x % p), _Table(lambda x: pow(x, -1, p))


def field_kernel(rows, ncols: int, tables) -> list[list[int]]:
    """Kernel basis of a matrix over a finite field, by Gauss-Jordan elimination.

    The field's elements are 0..q-1 and ``tables`` is (add, mul, neg, inv),
    read as ``add[x][y]``, ``mul[x][y]``, ``neg[x]`` and ``inv[x]``.  The
    basis has one vector per free column, in column order: 1 in that column
    and 0 in the other free columns, so it is unique.
    """
    add, mul, neg, inv = tables
    rows = list(rows)
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        for hit in range(rank, len(rows)):
            if rows[hit][col]:
                break
        else:
            continue
        scale = mul[inv[rows[hit][col]]]
        prow = [scale[x] for x in rows[hit]]
        rows[hit] = rows[rank]
        rows[rank] = prow
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = mul[neg[row[col]]]
                rows[i] = [add[x][f[y]] for x, y in zip(row, prow)]
        pivots.append(col)
    basis = []
    for col in range(ncols):
        if col in pivots:
            continue
        vec = [0] * ncols
        vec[col] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = neg[row[col]]
        basis.append(vec)
    return basis


def modp_kernel(matrix: list[list[int]], p: int) -> list[list[int]]:
    """Kernel basis of a matrix over Z/p (columns as unknowns), as ``field_kernel``."""
    if not matrix:
        return []
    rows = [[x % p for x in row] for row in matrix]
    return field_kernel(rows, len(matrix[0]), _residue_tables(p))
