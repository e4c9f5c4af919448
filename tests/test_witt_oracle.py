"""Quadratic Witt index by hyperbolic splitting against two independent oracles.

The splitting (``witt_index_quadratic``) is checked against the singular
subspace search (``count_singular``) and against the classification of
quadratic forms over F_p: dimension 2m + 1 has index m, and dimension 2m has
index m or m - 1, set by the discriminant (odd p) or the Arf invariant
(p = 2).  The classification reads the form only through ``Q.value``.  The
hermitian index (``witt_index_hermitian``) is checked against the largest r
at which ``count_isotropic`` finds a subspace.
"""

import itertools
import random

import pytest

from chowlab import finitefields
from chowlab.errors import ChowlabError
from chowlab.finitefields import (
    WITT_HERMITIAN_BUDGET,
    PrimeField,
    QuadraticSpace,
    count_isotropic,
    count_singular,
    hermitian_space,
    trace_quadratic,
    witt_index_hermitian,
    witt_index_quadratic,
)
from chowlab.suites import SuiteOptions, run_suite


def _random_forms(count_per_shape: int, seed: int, max_draws: int = 100):
    """Nondegenerate random forms over F2 and F3 in dimensions 1..7.

    Each shape gets at most ``max_draws`` draws, so a fault that makes every
    draw degenerate fails collection instead of hanging it.
    """
    rng = random.Random(seed)
    forms = []
    for p in (2, 3):
        for dim in range(1, 8):
            found = 0
            for _ in range(max_draws):
                if found == count_per_shape:
                    break
                upper = [[rng.randrange(p) if j >= i else 0 for j in range(dim)] for i in range(dim)]
                try:
                    forms.append((f"random-p{p}-dim{dim}-{found}", QuadraticSpace(PrimeField(p), upper)))
                except ChowlabError:  # degenerate draw
                    continue
                found += 1
            if found < count_per_shape:
                raise RuntimeError(
                    f"{max_draws} draws gave {found} of {count_per_shape} nondegenerate forms"
                    f" over F{p} in dimension {dim}"
                )
    return forms


FORMS = (
    [
        (f"trace-p{p}-{''.join(map(str, diag))}", trace_quadratic(hermitian_space(p, diag)))
        for p in (2, 3)
        for n in range(1, 5)
        for diag in itertools.product(range(1, p), repeat=n)
    ]
    + [("trace-p2-11111", trace_quadratic(hermitian_space(2, [1] * 5)))]
    + [(f"split-p{p}-N{N}", QuadraticSpace.split(PrimeField(p), N)) for p in (2, 3) for N in range(4)]
    # not diagonal and not split (the form of test_count_singular_matches_naive_lister)
    + [("coupled-p3", QuadraticSpace(PrimeField(3), [[0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 2]]))]
    + _random_forms(count_per_shape=4, seed=1109)
)


def _polar_gram(Q):
    # b(e_i, e_j) = q(e_i + e_j) - q(e_i) - q(e_j), read from values only
    p = Q.base.p
    units = [[int(i == j) for j in range(Q.dim)] for i in range(Q.dim)]
    q = [Q.value(e) for e in units]
    return [
        [(Q.value([a + b for a, b in zip(units[i], units[j])]) - q[i] - q[j]) % p for j in range(Q.dim)]
        for i in range(Q.dim)
    ]


def _det_mod_p(matrix, p):
    rows = [list(row) for row in matrix]
    det = 1
    for col in range(len(rows)):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col] % p
        inv = pow(rows[col][col], -1, p)
        for i in range(col + 1, len(rows)):
            f = rows[i][col] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[col])]
    return det % p


def _arf(Q):
    """Arf invariant of an even-dimensional nondegenerate form over F2."""
    gram = _polar_gram(Q)

    def b(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(Q.dim) for j in range(Q.dim)) % 2

    rest = [[int(i == j) for j in range(Q.dim)] for i in range(Q.dim)]
    arf = 0
    while rest:
        e = rest.pop(0)
        f = next(u for u in rest if b(e, u))
        rest.remove(f)
        arf += Q.value(e) * Q.value(f)
        # project the rest onto the polar complement of the plane <e, f>
        rest = [[(x + b(u, f) * y + b(u, e) * z) % 2 for x, y, z in zip(u, e, f)] for u in rest]
    return arf % 2


def classified_index(Q) -> int:
    m, odd = divmod(Q.dim, 2)
    if odd:
        return m
    p = Q.base.p
    if p == 2:
        return m - _arf(Q)
    disc = (-1) ** m * _det_mod_p(_polar_gram(Q), p) % p
    return m if pow(disc, (p - 1) // 2, p) == 1 else m - 1


def test_oracle_forms_cover_the_claimed_shapes():
    random_forms = [Q for name, Q in FORMS if name.startswith("random")]
    assert len(random_forms) >= 50
    assert {Q.dim for Q in random_forms if Q.base.p == 2} >= {1, 3, 5, 7}


def test_random_forms_stop_at_the_draw_cap(monkeypatch):
    def degenerate(field, upper):
        raise ChowlabError("degenerate")

    monkeypatch.setitem(globals(), "QuadraticSpace", degenerate)
    with pytest.raises(RuntimeError, match="100 draws gave 0 of 4 nondegenerate forms over F2 in dimension 1"):
        _random_forms(count_per_shape=4, seed=1109)


@pytest.mark.parametrize("name, Q", FORMS, ids=[name for name, _ in FORMS])
def test_splitting_matches_search_and_classification(name, Q):
    index = witt_index_quadratic(Q)
    # a singular m-space contains singular (m-1)-spaces, so the search's index
    # max{m : count_singular(Q, m) > 0} is `index` exactly when both hold
    assert count_singular(Q, index) > 0
    assert count_singular(Q, index + 1) == 0
    assert index == classified_index(Q)


def test_classification_is_not_constant():
    # both even-dimensional outcomes occur, so the classification decides something
    for p in (2, 3):
        even = {Q.dim // 2 - classified_index(Q) for _, Q in FORMS if Q.base.p == p and Q.dim % 2 == 0 and Q.dim}
        assert even == {0, 1}, p


@pytest.mark.parametrize(
    "vectors, message",
    [
        ([[1, 0, 0, 0], [0, 0, 1, 1]], "not singular"),
        ([[1, 0, 0, 0], [0, 1, 0, 0]], "not orthogonal"),
        ([[1, 0, 0, 0], [1, 0, 0, 0]], "dependent"),
    ],
)
def test_certificate_rejects_a_false_frame(vectors, message):
    Q = QuadraticSpace.split(PrimeField(3), 2)
    finitefields._check_totally_singular(Q, [[1, 0, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ChowlabError, match=message):
        finitefields._check_totally_singular(Q, vectors)


# quadratic evaluations of `verify i2i --max-n 5 --max-p 3` (67 forms): 645
# in the splitting, which reads its candidate rows (those leading with 1) a
# line at a time (one value per line and one per direction), plus 228
# certificate evaluations, 873 in all; walking every vector of each pass
# from zero made 1387, one evaluation per candidate 2289, and the
# exhaustive search this bound replaced ran for minutes
I2I_N5_P3_EVALUATIONS = 944


def test_i2i_reaches_n5_p3_within_a_work_bound(monkeypatch):
    evaluations = 0
    value = QuadraticSpace.value

    def counted(self, v):
        nonlocal evaluations
        evaluations += 1
        return value(self, v)

    monkeypatch.setattr(QuadraticSpace, "value", counted)
    result = run_suite("i2i", SuiteOptions(max_n=5, max_p=3))
    assert [c.id for c in result.cases if c.passed] == [
        f"i2i/p{p}/n{n}" for p in (2, 3) for n in range(1, 6)
    ]
    assert evaluations <= I2I_N5_P3_EVALUATIONS



def test_hermitian_index_is_half_the_dimension():
    # over a finite field a nondegenerate hermitian form is determined by its
    # dimension n (every nonzero base element is a norm), and its Witt index is
    # floor(n / 2): checked for every diagonal form the search budget admits
    forms = 0
    for p in WITT_HERMITIAN_BUDGET["p"]:
        for n in range(WITT_HERMITIAN_BUDGET["n"] + 1):
            for diag in itertools.product(range(1, p), repeat=n):
                H = hermitian_space(p, diag)
                assert witt_index_hermitian(H) == n // 2, (p, diag)
                forms += 1
    assert forms == sum((p - 1) ** n for p in (2, 3, 5) for n in range(6))


def test_hermitian_chain_reaches_the_largest_r_with_a_subspace():
    # the index by its definition, the largest r at which count_isotropic
    # finds a subspace, for every diagonal form the caps admit up to n = 4 and
    # for the unit forms at n = 5; an index that skipped the orthogonality
    # constraints would run past it
    forms = [
        hermitian_space(p, diag)
        for p in WITT_HERMITIAN_BUDGET["p"]
        for n in range(5)
        for diag in itertools.product(range(1, p), repeat=n)
    ] + [hermitian_space(p, [1] * 5) for p in WITT_HERMITIAN_BUDGET["p"]]
    for H in forms:
        r = 0
        while count_isotropic(H, r + 1):  # an (r + 1)-subspace holds r-subspaces
            r += 1
        assert witt_index_hermitian(H) == r, (H.field.base.p, H.diag)
    assert len(forms) == 380
