"""Finite-field hermitian and quadratic form oracles."""

import functools
import itertools
import random

import pytest

from chowlab import finitefields
from chowlab.errors import BudgetError, ChowlabError, UsageError
from chowlab.finitefields import (
    HermitianSpace,
    PrimeField,
    QuadExtField,
    QuadraticSpace,
    count_isotropic,
    count_singular,
    hermitian_space,
    jacobson_check,
    orth_count_polynomial,
    trace_quadratic,
    witt_index_hermitian,
    witt_index_quadratic,
)
from chowlab.linalg import field_kernel, modp_kernel
from chowlab.motives import essential_poincare, split_quadric_poincare


def test_quadratic_extension_structure():
    for p in (2, 3, 5):
        K = QuadExtField(PrimeField(p))
        for x in K.elements():
            assert K.conj(K.conj(x)) == x
            assert K.in_base(K.norm(x))
            assert K.conj(x) == K.frobenius(x)
        fixed = [x for x in K.elements() if K.conj(x) == x]
        assert fixed == list(range(p))


def test_norm_raises_when_conjugation_is_wrong(monkeypatch):
    monkeypatch.setattr(QuadExtField, "conj", lambda self, x: x)
    K = QuadExtField(PrimeField(3))
    with pytest.raises(ChowlabError):
        for x in K.elements():
            K.norm(x)


def test_first_irreducible_is_lexicographic():
    assert (QuadExtField(PrimeField(2)).b, QuadExtField(PrimeField(2)).c) == (1, 1)
    assert (QuadExtField(PrimeField(3)).b, QuadExtField(PrimeField(3)).c) == (0, 1)
    assert (QuadExtField(PrimeField(5)).b, QuadExtField(PrimeField(5)).c) == (0, 2)


def test_witt_index_hermitian_examples():
    assert witt_index_hermitian(hermitian_space(2, [1, 1])) == 1
    assert witt_index_hermitian(hermitian_space(3, [1])) == 0
    assert witt_index_hermitian(hermitian_space(3, [1, 1, 1])) == 1


@pytest.mark.parametrize(
    "p, diag", [(2, [1.5, 1]), (2, [True, 1]), ("2", [1, 1]), (3.0, [1, 1]), (True, [1])]
)
def test_non_integer_form_data_rejected(p, diag):
    with pytest.raises(UsageError, match="integer"):
        hermitian_space(p, diag)


def test_witt_index_budget():
    with pytest.raises(BudgetError):
        witt_index_hermitian(hermitian_space(7, [1, 1]))


def test_trace_quadratic_norm_form_anisotropic():
    H = hermitian_space(3, [1])
    Q = trace_quadratic(H)
    assert Q.dim == 2
    assert witt_index_quadratic(Q) == 0
    # the binary norm form takes every base value
    values = {Q.value(v) for v in itertools.product(range(3), repeat=2)}
    assert values == {0, 1, 2}


def test_trace_quadratic_doubles_witt_index():
    for p in (2, 3):
        for n in range(1, 5):
            for diag in itertools.product(range(1, p), repeat=n):
                H = hermitian_space(p, diag)
                assert witt_index_quadratic(trace_quadratic(H)) == 2 * witt_index_hermitian(H)


def test_zero_dimensional_space():
    H = hermitian_space(3, [])
    assert witt_index_hermitian(H) == 0
    assert count_isotropic(H, 0) == 1
    Q = trace_quadratic(H)
    assert Q.dim == 0


def test_count_isotropic_examples():
    assert count_isotropic(hermitian_space(2, [1, 1]), 1) == 3
    assert count_isotropic(hermitian_space(2, [1, 1, 1]), 1) == 9
    assert count_isotropic(hermitian_space(2, [1, 1, 1, 1]), 2) == 27
    assert count_isotropic(hermitian_space(3, [1, 1]), 0) == 1


def test_count_matches_essential_poincare():
    for p in (2, 3):
        for n in range(1, 5):
            H = hermitian_space(p, [1] * n)
            for r in range(n // 2 + 1):
                assert count_isotropic(H, r) == essential_poincare(n, r)(p)


def test_count_n5_low_rank():
    H = hermitian_space(2, [1] * 5)
    for r in (1, 2):
        assert count_isotropic(H, r) == essential_poincare(5, r)(2)


def test_count_independent_of_diagonal():
    for n in (2, 3):
        counts = set()
        for diag in itertools.product((1, 2), repeat=n):
            counts.add(count_isotropic(hermitian_space(3, diag), 1))
        assert len(counts) == 1


def test_split_quadratic_space_counts():
    for p in (2, 3):
        base = PrimeField(p)
        for N in (1, 2, 3):
            Q = QuadraticSpace.split(base, N)
            for m in range(N + 1):
                assert count_singular(Q, m) == orth_count_polynomial(N, m)(p)


def test_orth_count_examples():
    assert orth_count_polynomial(2, 1) == [1, 2, 1]
    assert orth_count_polynomial(3, 0) == [1]
    assert orth_count_polynomial(3, 1) == split_quadric_poincare(3)
    assert orth_count_polynomial(3, 1)(2) == 35
    assert count_singular(QuadraticSpace.split(PrimeField(2), 2), 1) == 9


def test_orth_count_maximal_two_components():
    # the maximal grassmannian splits into two isomorphic components
    for N in (1, 2, 3):
        poly = orth_count_polynomial(N, N).to_list()
        assert all(c % 2 == 0 for c in poly)


def test_jacobson_check():
    H1 = hermitian_space(3, [1, 1])
    H2 = hermitian_space(3, [1, 2])
    assert jacobson_check(H1, H2)
    assert jacobson_check(H1, H1)
    assert jacobson_check(hermitian_space(3, [1]), hermitian_space(3, [2]))
    with pytest.raises(UsageError):
        jacobson_check(H1, hermitian_space(3, [1]))


def test_degenerate_diagonal_rejected():
    with pytest.raises(UsageError):
        hermitian_space(3, [1, 3])


def test_quadratic_space_nondegeneracy_against_enumeration():
    # every upper-triangular form over F2 up to dimension 4 and over F3 up to
    # dimension 2: degenerate exactly when a nonzero vector of the polar
    # radical exists (odd p) or, over F2, one on which q vanishes too
    forms = degenerate = 0
    for p, top in ((2, 4), (3, 2)):
        for dim in range(1, top + 1):
            cells = [(i, j) for i in range(dim) for j in range(i, dim)]
            vectors = list(itertools.product(range(p), repeat=dim))[1:]
            units = [[int(k == m) for m in range(dim)] for k in range(dim)]
            for entries in itertools.product(range(p), repeat=len(cells)):
                upper = [[0] * dim for _ in range(dim)]
                for (i, j), x in zip(cells, entries):
                    upper[i][j] = x

                def value(v):
                    return sum(upper[i][j] * v[i] * v[j] for i, j in cells) % p

                def in_radical(v):
                    # b(v, e_k) = q(v + e_k) - q(v) - q(e_k) for every basis vector e_k
                    return all(
                        (value([a + b for a, b in zip(v, e)]) - value(v) - value(e)) % p == 0
                        for e in units
                    )

                bad = any(in_radical(v) and (p != 2 or value(v) == 0) for v in vectors)
                forms, degenerate = forms + 1, degenerate + bad
                if bad:
                    with pytest.raises(ChowlabError, match="degenerate quadratic space"):
                        QuadraticSpace(PrimeField(p), upper)
                else:
                    assert QuadraticSpace(PrimeField(p), upper).dim == dim, upper
    assert (forms, degenerate) == (1128, 627)


def test_count_singular_brute_force_cross_check():
    # fully independent oracle: enumerate all vectors and count singular lines
    p = 3
    Q = QuadraticSpace.split(PrimeField(p), 2)
    singular = [
        v
        for v in itertools.product(range(p), repeat=4)
        if any(v) and Q.value(v) == 0
    ]
    assert len(singular) // (p - 1) == count_singular(Q, 1)


def test_hermitian_symmetry_and_scaling():
    rng = random.Random(41)
    H = hermitian_space(3, [1, 2, 1])
    K = H.field
    vectors = [tuple(rng.randrange(K.size) for _ in range(3)) for _ in range(10)]
    for v in vectors:
        for w in vectors:
            assert H.value(w, v) == K.conj(H.value(v, w))
    Q = trace_quadratic(H)
    for _ in range(10):
        v = [rng.randrange(3) for _ in range(Q.dim)]
        lam = rng.randrange(3)
        scaled = [(lam * x) % 3 for x in v]
        assert Q.value(scaled) == (lam * lam * Q.value(v)) % 3


def test_polar_form_is_trace_of_hermitian_pairing():
    rng = random.Random(43)
    H = hermitian_space(3, [1, 2])
    K = H.field
    Q = trace_quadratic(H)

    def flatten(v):
        out = []
        for x in v:
            x0, x1 = K.decode(x)
            out += [x0, x1]
        return out

    for _ in range(20):
        v = tuple(rng.randrange(K.size) for _ in range(2))
        w = tuple(rng.randrange(K.size) for _ in range(2))
        h_vw = H.value(v, w)
        trace = K.add(h_vw, K.conj(h_vw))
        assert K.in_base(trace)
        assert Q.polar(flatten(v), flatten(w)) == trace
        # b(v, w) = q(v+w) - q(v) - q(w)
        s = [K.add(x, y) for x, y in zip(v, w)]
        assert Q.polar(flatten(v), flatten(w)) == (
            Q.value(flatten(s)) - Q.value(flatten(v)) - Q.value(flatten(w))
        ) % 3


def _naive_null_subspaces(elements, add, mul, n, null, r):
    """Every r-dimensional subspace of F^n on which ``null`` holds at each vector.

    Independent of the search: the spans of all r-tuples of null vectors,
    built one vector at a time as sets of vectors, keeping those that are
    null throughout.  ``add`` and ``mul`` are the field operations.
    """
    add_t = {(a, b): add(a, b) for a in elements for b in elements}
    mul_t = {(a, b): mul(a, b) for a in elements for b in elements}
    null_vectors = {v for v in itertools.product(elements, repeat=n) if null(v)}
    multiples = {v: {tuple(mul_t[t, a] for a in v) for t in elements} for v in null_vectors}
    spans = {frozenset([(0,) * n])}
    for _ in range(r):
        grown = set()
        for S in spans:
            covered = set(S)  # vectors of the spans S + <v> already built
            for v in null_vectors - covered:
                if v in covered:
                    continue
                T = frozenset(
                    tuple(add_t[a, b] for a, b in zip(x, y)) for x in S for y in multiples[v]
                )
                covered |= T
                grown.add(T)
        spans = {S for S in grown if S <= null_vectors}
    return spans


def test_count_isotropic_matches_naive_lister():
    for p in (2, 3):
        for n in range(1, 4):
            for diag in itertools.product(range(1, p), repeat=n):
                H = hermitian_space(p, diag)
                K = H.field
                for r in range(n + 2):
                    naive = _naive_null_subspaces(
                        K.elements(), K.add, K.mul, n, lambda v: H.value(v, v) == 0, r
                    )
                    assert count_isotropic(H, r) == len(naive), (p, diag, r)


def test_count_singular_matches_naive_lister():
    forms = [
        trace_quadratic(hermitian_space(p, diag))
        for p in (2, 3)
        for n in (1, 2)
        for diag in itertools.product(range(1, p), repeat=n)
    ]
    # not diagonal and not split: the polar form couples a row's pivot to
    # the pivots of the rows already taken
    upper = [[0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 2]]
    forms.append(QuadraticSpace(PrimeField(3), upper))
    for Q in forms:
        p = Q.base.p
        for m in range(Q.dim + 2):
            naive = _naive_null_subspaces(
                range(p),
                lambda a, b: (a + b) % p,
                lambda a, b: a * b % p,
                Q.dim,
                lambda v: Q.value(v) == 0,
                m,
            )
            assert count_singular(Q, m) == len(naive), (Q.upper, m)


def test_quadratic_spaces_build_over_primes_past_the_search_budgets():
    # a form's nondegeneracy test needs no search budget: odd p reads the
    # Gram kernel, so a trace form over F_1009 builds and a degenerate F_23
    # form is still refused
    Q = trace_quadratic(hermitian_space(1009, [1, 1]))
    assert (Q.dim, Q.base.p) == (4, 1009)
    with pytest.raises(ChowlabError, match="degenerate quadratic space"):
        QuadraticSpace(PrimeField(23), [[1, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_no_isotropic_subspace_beyond_witt_index():
    # three rows, so the last one meets two constraints
    assert count_isotropic(hermitian_space(3, [1] * 5), 3) == 0


def test_count_isotropic_p5_matches_essential_poincare():
    H = hermitian_space(5, [1] * 4)
    for r in range(3):
        assert count_isotropic(H, r) == essential_poincare(4, r)(5)


def test_largest_count_within_the_budgets():
    # p = 5, n = 5, r = 2 visits 2066932 nodes, the most of any call the caps admit
    assert count_isotropic(hermitian_space(5, [1] * 5), 2) == essential_poincare(5, 2)(5) == 393876


# nodes the search visits for count_singular(Q, 5) on the 10-dimensional F2
# trace form, whose Witt index is 4: every singular 4-space is extended and
# none reaches dimension 5
COUNT_F2_N5_M5_NODES = 16623


def test_node_budget_bounds_search_work(monkeypatch):
    Q = trace_quadratic(hermitian_space(2, [1] * 5))
    monkeypatch.setattr(finitefields, "_NODE_BUDGET", COUNT_F2_N5_M5_NODES)
    assert count_singular(Q, 5) == 0
    monkeypatch.setattr(finitefields, "_NODE_BUDGET", COUNT_F2_N5_M5_NODES - 1)
    message = f"visited {COUNT_F2_N5_M5_NODES} nodes, limit {COUNT_F2_N5_M5_NODES - 1}"
    with pytest.raises(BudgetError, match=message):
        count_singular(Q, 5)


# candidate rows the hyperbolic splitting examines on the same form, the
# rows leading with 1 of each pass (the zero vector is no candidate), a
# line of q = 2 at a time: the line holding the first singular row of each
# of the four planes split off, then the three rows of the anisotropic rest
WITT_SPLIT_F2_N5_NODES = 11


def test_node_budget_bounds_splitting_work(monkeypatch):
    Q = trace_quadratic(hermitian_space(2, [1] * 5))
    monkeypatch.setattr(finitefields, "_NODE_BUDGET", WITT_SPLIT_F2_N5_NODES)
    assert witt_index_quadratic(Q) == 4
    monkeypatch.setattr(finitefields, "_NODE_BUDGET", WITT_SPLIT_F2_N5_NODES - 1)
    message = (
        f"witt_index_quadratic budget exceeded: visited {WITT_SPLIT_F2_N5_NODES} nodes, "
        f"limit {WITT_SPLIT_F2_N5_NODES - 1}"
    )
    with pytest.raises(BudgetError, match=message):
        witt_index_quadratic(Q)


# (p, n, r, chain, result, nodes) of the hermitian search on the form
# [1] * n: the count of isotropic r-subspaces, or with chain the Witt index r
# that witt_index_hermitian's chain of first rows reaches; every line read
# counts its q nodes, the line holding a chain's first row too
HERMITIAN_SEARCH_NODES = [
    (3, 4, 1, False, 280, 820),
    (3, 4, 2, False, 112, 347),
    (3, 5, 2, False, 6832, 23756),
    (3, 5, 2, True, 2, 19),
    (5, 4, 2, False, 756, 3807),
    (5, 4, 2, True, 2, 50),
]


@pytest.mark.parametrize("p, n, r, chain, result, nodes", HERMITIAN_SEARCH_NODES)
def test_hermitian_search_node_counts(monkeypatch, p, n, r, chain, result, nodes):
    H = hermitian_space(p, [1] * n)
    search = finitefields._hermitian_search(H, "test")
    monkeypatch.setattr(finitefields, "_hermitian_search", lambda H, op: search)
    assert (witt_index_hermitian(H) if chain else count_isotropic(H, r)) == result
    assert search.visited == nodes


@pytest.mark.parametrize("chain, result, nodes", [(False, 6832, 23756), (True, 2, 19)])
def test_node_budget_cuts_a_line(monkeypatch, chain, result, nodes):
    # the full count overruns on the whole of its last line, the Witt-index
    # chain on the one candidate of its last node, which is not isotropic
    H = hermitian_space(3, [1] * 5)
    op = "witt_index_hermitian" if chain else "count_isotropic"
    make, searches = finitefields._hermitian_search, []

    def recorded(H, op):
        searches.append(make(H, op))
        return searches[-1]

    def run():
        return witt_index_hermitian(H) if chain else count_isotropic(H, 2)

    monkeypatch.setattr(finitefields, "_hermitian_search", recorded)
    monkeypatch.setattr(finitefields, "_NODE_BUDGET", nodes)
    assert run() == result
    monkeypatch.setattr(finitefields, "_NODE_BUDGET", nodes - 1)
    message = f"{op} budget exceeded: visited {nodes} nodes, limit {nodes - 1}$"
    with pytest.raises(BudgetError, match=message):
        run()
    assert [search.visited for search in searches] == [nodes, nodes]


def test_node_budget_is_per_call(monkeypatch):
    H = hermitian_space(3, [1] * 4)
    monkeypatch.setattr(finitefields, "_NODE_BUDGET", 400)
    for _ in range(3):
        assert count_isotropic(H, 2) == 112
    with pytest.raises(BudgetError, match="count_isotropic budget exceeded"):
        count_isotropic(hermitian_space(3, [1] * 5), 2)


@pytest.mark.parametrize("stuck", ["_node", "_first_row"])
@pytest.mark.parametrize("p, n", [(2, 2), (2, 5), (3, 4), (5, 4)])
def test_hermitian_chain_stops_past_half_the_dimension(monkeypatch, stuck, p, n):
    # a node that never shrinks, or a first row that ignores its node, hands
    # the chain the same row again; the step bound refuses row n // 2 + 1
    # instead of looping until the node budget
    H = hermitian_space(p, [1] * n)
    node, first_row = finitefields._SubspaceSearch._node, finitefields._SubspaceSearch._first_row
    steps = 0

    def stuck_first_row(self, this_node):
        nonlocal steps
        steps += 1
        return first_row(self, this_node if stuck == "_node" else node(self, (), ()))

    monkeypatch.setattr(finitefields._SubspaceSearch, "_first_row", stuck_first_row)
    if stuck == "_node":
        monkeypatch.setattr(finitefields._SubspaceSearch, "_node", lambda s, *_: node(s, (), ()))
    with pytest.raises(ChowlabError, match=f"longer than n // 2 = {n // 2}$"):
        witt_index_hermitian(H)
    assert steps == n // 2 + 1


def test_splitting_stops_when_a_pass_does_not_shrink_w(monkeypatch):
    # a node that ignores the planes split off shows the second pass all of
    # F_p^dim again; the check that each plane takes two dimensions of W
    # refuses it instead of splitting the same plane until the node budget
    forms = [trace_quadratic(hermitian_space(2, [1] * 5)), QuadraticSpace.split(PrimeField(3), 3)]
    node, passes = finitefields._SubspaceSearch._node, 0

    def stuck_node(self, pivots, constraints):
        nonlocal passes
        passes += 1
        return node(self, pivots, ())

    monkeypatch.setattr(finitefields._SubspaceSearch, "_node", stuck_node)
    for Q in forms:
        passes = 0
        with pytest.raises(ChowlabError, match=f"W of dimension {Q.dim} on pass 2$"):
            witt_index_quadratic(Q)
        assert passes == 2


@pytest.mark.parametrize("order", ["ascending-elimination", "reversed-output"])
@pytest.mark.parametrize("p, n", [(2, 2), (3, 4), (5, 4)])
def test_node_refuses_a_kernel_out_of_column_order(monkeypatch, order, p, n):
    # a kernel eliminated from the first column, or handed back in the wrong
    # order, leads its vectors at ascending columns; the node's certificate
    # refuses it at the first node instead of letting the counts run on it
    kernel, calls = finitefields.field_kernel, 0

    def wrong(rows, ncols, tables):
        nonlocal calls
        calls += 1
        if order == "reversed-output":
            return kernel(rows, ncols, tables)[::-1]
        return [x[::-1] for x in kernel([row[::-1] for row in rows], ncols, tables)]

    monkeypatch.setattr(finitefields, "field_kernel", wrong)
    H = hermitian_space(p, [1] * n)
    for run in (lambda: count_isotropic(H, n // 2), lambda: witt_index_hermitian(H)):
        calls = 0
        with pytest.raises(ChowlabError, match="node kernel leads at column 1 after column 0$"):
            run()
        assert calls == 1


@pytest.mark.parametrize(
    "trace, p, n, r, count, nodes",
    [(False, 3, 4, 2, 112, 29), (True, 2, 5, 5, 0, 4663)],
    ids=["hermitian-p3-n4-r2", "trace-p2-n5-m5"],
)
def test_one_kernel_per_search_node(monkeypatch, trace, p, n, r, count, nodes):
    # each node of the depth-first search (a call of _extend with rows left
    # to pick) solves its constraints once, whatever its leading columns
    H = hermitian_space(p, [1] * n)
    Q = trace_quadratic(H)
    kernels = extends = 0
    kernel, extend = finitefields.field_kernel, finitefields._SubspaceSearch._extend

    def counted_kernel(*args):
        nonlocal kernels
        kernels += 1
        return kernel(*args)

    def counted_extend(self, k, *args):
        nonlocal extends
        extends += k > 0
        return extend(self, k, *args)

    monkeypatch.setattr(finitefields, "field_kernel", counted_kernel)
    monkeypatch.setattr(finitefields._SubspaceSearch, "_extend", counted_extend)
    assert (count_singular(Q, r) if trace else count_isotropic(H, r)) == count
    assert kernels == extends == nodes


# F_2, F_3 and their quadratic extensions F_4 and F_9; over F_2 negation is
# the identity, so only the others catch a sign error
FIELDS = [PrimeField(2), PrimeField(3), QuadExtField(PrimeField(2)), QuadExtField(PrimeField(3))]


def _field_ops(field):
    """(size, add, mul) of a field, straight from its class."""
    if isinstance(field, QuadExtField):
        return field.size, field.add, field.mul
    p = field.p
    return p, lambda x, y: (x + y) % p, lambda x, y: x * y % p


def _enumerated_kernel(matrix, ncols, field):
    """The kernel basis ``field_kernel`` promises, found by enumerating every vector.

    Column j is free exactly when some solution ends with a 1 at j (column j
    is then a combination of the earlier columns); its basis vector is the one
    solution with 1 at j and 0 at the other free columns.
    """
    size, add, mul = _field_ops(field)

    def is_solution(x):
        for row in matrix:
            acc = 0
            for a, b in zip(row, x):
                acc = add(acc, mul(a, b))
            if acc:
                return False
        return True

    solutions = [x for x in itertools.product(range(size), repeat=ncols) if is_solution(x)]
    free = [j for j in range(ncols) if any(x[j] == 1 and not any(x[j + 1:]) for x in solutions)]
    basis = []
    for f in free:
        (vec,) = [x for x in solutions if all(x[g] == (g == f) for g in free)]
        basis.append(list(vec))
    return basis


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_field_kernel_against_enumeration(field):
    size = _field_ops(field)[0]
    tables = finitefields._tables(field)
    rng = random.Random(1300 + size)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 4 if size < 9 else 3)
        matrix = [
            [rng.randrange(size) if rng.random() < 0.7 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        expected = _enumerated_kernel(matrix, ncols, field)
        assert field_kernel(matrix, ncols, tables) == expected, matrix
        if isinstance(field, PrimeField):
            # modp_kernel reduces its entries first
            shifted = [[x + size * rng.randint(-2, 2) for x in row] for row in matrix]
            assert modp_kernel(shifted, size) == expected, shifted


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_points_in_lexicographic_order_of_the_coefficients(field):
    size, add, mul = _field_ops(field)
    rng = random.Random(1310 + size)
    for ndirs in range(4):
        v = [rng.randrange(size) for _ in range(3)]
        directions = [[rng.randrange(size) for _ in range(3)] for _ in range(ndirs)]
        expected = []
        for ts in itertools.product(range(size), repeat=ndirs):
            point = list(v)
            for t, w in zip(ts, directions):
                point = [add(a, mul(t, b)) for a, b in zip(point, w)]
            expected.append(point)
        assert list(finitefields._points(finitefields._tables(field), v, directions)) == expected


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_node_against_the_enumerated_leading_rows(field):
    # the node's columns are exactly the columns some solution (zero at the
    # pivots) leads at, and v_c + span(directions) is the set of solutions
    # leading with 1 at c
    size, add, mul = _field_ops(field)
    add = functools.lru_cache(maxsize=None)(add)
    mul = functools.lru_cache(maxsize=None)(mul)
    dim = 4
    search = finitefields._SubspaceSearch("test", field, dim, None, None)
    rng = random.Random(1320 + size)
    for _ in range(80):
        pivots = tuple(sorted(rng.sample(range(dim), rng.randint(0, dim - 1))))
        constraints = tuple(
            [rng.randrange(size) if rng.random() < 0.6 else 0 for _ in range(dim)]
            for _ in range(rng.randint(0, 3))
        )
        free = [j for j in range(dim) if j not in pivots]
        leading = {}
        for xs in itertools.product(range(size), repeat=len(free)):
            v = [0] * dim
            for j, x in zip(free, xs):
                v[j] = x
            dots = []
            for a in constraints:
                acc = 0
                for aj, vj in zip(a, v):
                    acc = add(acc, mul(aj, vj))
                dots.append(acc)
            if any(v) and not any(dots):
                c = next(j for j, x in enumerate(v) if x)
                leading.setdefault(c, [])
                if v[c] == 1:
                    leading[c].append(v)
        node = search._node(pivots, constraints)
        case = (pivots, constraints)
        assert [c for c, _, _ in node] == sorted(leading), case
        for c, base, directions in node:
            got = list(finitefields._points(search.tables, base, directions))
            assert sorted(got) == sorted(leading[c]), case


def _random_form(field, dim, rng):
    """(value, b) of a random nondegenerate form on field^dim.

    Hermitian over a quadratic extension, with b(u, w) = h(u, w); quadratic
    over a prime field, with b its polar form.
    """
    if isinstance(field, QuadExtField):
        H = HermitianSpace(field, tuple(rng.randrange(1, field.base.p) for _ in range(dim)))
        return (lambda v: H.value(v, v)), H.value
    for _ in range(100):
        upper = [[rng.randrange(field.p) if j >= i else 0 for j in range(dim)] for i in range(dim)]
        try:
            Q = QuadraticSpace(field, upper)
        except ChowlabError:  # degenerate: draw again
            continue
        return Q.value, Q.polar
    raise RuntimeError(f"no nondegenerate form of dimension {dim} over F_{field.p} in 100 draws")


@pytest.mark.parametrize("field", FIELDS + [QuadExtField(PrimeField(5))], ids=repr)
def test_line_zeros_against_the_form_on_the_line(field):
    # zeros[value(w)][value(u)][b(u, w)] lists the t with value(u + t w) = 0
    size, add, mul = _field_ops(field)
    zeros = finitefields._line_zeros(field)
    rng = random.Random(1500 + size)
    for _ in range(60):
        dim = rng.randint(2, 3)
        value, polar = _random_form(field, dim, rng)
        u = [rng.randrange(size) for _ in range(dim)]
        w = [rng.randrange(size) for _ in range(dim)]
        line = [[add(a, mul(t, b)) for a, b in zip(u, w)] for t in range(size)]
        expected = tuple(t for t, v in enumerate(line) if value(v) == 0)
        assert zeros[value(w)][value(u)][polar(u, w)] == expected, (u, w)


def _row_by_row(search, base, directions):
    """Rows walked one candidate at a time, each a line of one node: the line walk's reference."""
    for v in finitefields._points(search.tables, base, directions):
        search._charge(1)
        yield v, () if search.value(v) else (0,), None


def _small_forms():
    """Small forms, each with the largest r to search it at.

    The first eight diagonal hermitian forms of each p <= 5 and n <= 4, their
    trace forms up to dimension 6 and the split forms up to dimension 6.
    """
    for p in (2, 3, 5):
        for n in range(5):
            for diag in itertools.islice(itertools.product(range(1, p), repeat=n), 8):
                H = hermitian_space(p, diag)
                yield H, n
                if p < 5 and n <= 3:
                    yield trace_quadratic(H), 2 * n
    for p in (2, 3):
        for N in (1, 2, 3):
            yield QuadraticSpace.split(PrimeField(p), N), 2 * N


def test_line_count_matches_the_row_by_row_walk(monkeypatch):
    # same counts and node counts at every r up to the first with no subspace
    def sweep():
        out = {}
        for i, (form, top) in enumerate(_small_forms()):
            for r in range(top + 1):
                if isinstance(form, HermitianSpace):
                    search = finitefields._hermitian_search(form, "test")
                else:
                    search = finitefields._quadratic_search(form, "test")
                out[i, r] = search.count(r), search.visited
                if out[i, r][0] == 0:
                    break
        return out

    by_line = sweep()
    monkeypatch.setattr(finitefields._SubspaceSearch, "_lines", _row_by_row)
    assert sweep() == by_line
    assert (len(by_line), sum(nodes for _, nodes in by_line.values())) == (263, 197115)
