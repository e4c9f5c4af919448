"""Motive products and their recursion oracle, dimension formulas and the reported comparisons."""

import functools
import random
import re
import time
from collections import Counter

import pytest

from chowlab import motives, polynomials
from chowlab.errors import BudgetError, ExactDivisionError, UsageError
from chowlab.motives import (
    Motive,
    TATE,
    cd2_identity_check,
    decompose_step,
    dim_orthogonal,
    dim_unitary,
    dvamr_check,
    essential,
    essential_poincare,
    j_min,
    kvadrika_check,
    split_quadric_poincare,
    witt_decompose_whole,
)
from chowlab.polynomials import (
    PoincarePolynomial,
    gaussian_binomial,
    poly_add,
    poly_div_one_minus,
    poly_divexact,
    poly_mul,
    poly_mul_binomial,
)


def test_dim_unitary_values():
    assert dim_unitary(4, 2) == 4
    assert dim_unitary(7, 0) == 0
    assert dim_unitary(6, 3) == 9 == 6 * 6 // 4
    with pytest.raises(UsageError):
        dim_unitary(4, 3)


def test_dim_orthogonal_values():
    assert dim_orthogonal(3, 1) == 4
    assert dim_orthogonal(5, 0) == 0
    assert dim_orthogonal(3, 2) == 5
    # the two stated instances pin the general formula
    for n in range(2, 10):
        for r in range(1, n // 2 + 1):
            assert dim_orthogonal(n, 2 * r - 1) == (2 * r - 1) * (2 * n - 3 * r + 1)
            assert dim_orthogonal(n, 2 * r) == r * (4 * n - 6 * r - 1)


def _motive(summands, speck_residual=False):
    # a Motive from a map (atom, shift) -> multiplicity, one triple per atom
    by_atom = {}
    for (atom, shift), m in summands.items():
        by_atom.setdefault(atom, {})[shift] = m
    return Motive(
        [(a, min(s), [s.get(d, 0) for d in range(min(s), max(s) + 1)])
         for a, s in by_atom.items()],
        speck_residual,
    )


def _once(*summands, speck_residual=False):
    return _motive(dict.fromkeys(summands, 1), speck_residual)


def _summands(motive) -> dict:
    # the motive expanded shift by shift: (atom, shift) -> multiplicity, in (shift, atom) order
    out = {(a, s + d): m for a, s, ms in motive.atoms for d, m in enumerate(ms) if m}
    return dict(sorted(out.items(), key=lambda e: (e[0][1], e[0][0])))


def _step_shifts(n, r):
    # the shifts of one splitting step, (dim X_r - dim X'_r) / 2 and dim X_r - dim X'_{r-1}
    i, j = 2 * r, 2 * n - 2 * r - 1
    if r <= (n - 2) // 2:
        assert i == (dim_unitary(n, r) - dim_unitary(n - 2, r)) // 2, (n, r)
    if 0 <= r - 1 <= (n - 2) // 2:
        assert j == dim_unitary(n, r) - dim_unitary(n - 2, r - 1), (n, r)
    return i, j


def test_decompose_step_is_the_three_summand_formula():
    # Essential(n, r) = E(n-2, r-1) + E(n-2, r)(i) + E(n-2, r-1)(j), each term kept
    # when its rank fits n - 2: the step as first written, before it became h = 1
    for n in range(2, 41):
        for r in range(n // 2 + 1):
            step = decompose_step(n, r)
            if r == 0:
                assert step == _once((essential(n, 0), 0)), n
                continue
            i, j = _step_shifts(n, r)
            terms = [(rr, s) for rr, s in ((r - 1, 0), (r, i), (r - 1, j)) if rr <= (n - 2) // 2]
            assert step == _once(*((essential(n - 2, rr), s) for rr, s in terms)), (n, r)
            assert not step.speck_residual


def test_decompose_step_examples():
    assert decompose_step(2, 1) == _once((essential(0, 0), 0), (essential(0, 0), 1))
    assert decompose_step(4, 2) == _once((essential(2, 1), 0), (essential(2, 1), 3))
    assert decompose_step(4, 1) == _once(
        (essential(2, 0), 0), (essential(2, 1), 2), (essential(2, 0), 5)
    )


def test_decompose_step_matches_poincare():
    for n in range(2, 9):
        for r in range(1, n // 2 + 1):
            step = decompose_step(n, r)
            assert step.poincare() == essential_poincare(n, r)


def test_essential_poincare_examples():
    assert essential_poincare(2, 1) == [1, 1]
    assert essential_poincare(3, 1) == [1, 0, 0, 1]
    assert essential_poincare(4, 2) == [1, 1, 0, 1, 1]
    assert essential_poincare(1, 0) == [1]


def test_essential_poincare_closed_forms():
    for r in range(1, 5):
        even = essential_poincare(2 * r, r)
        assert even == PoincarePolynomial.exterior(2 * i - 1 for i in range(1, r + 1))
        odd = essential_poincare(2 * r + 1, r)
        assert odd == PoincarePolynomial.exterior(2 * i + 1 for i in range(1, r + 1))


def test_essential_poincare_palindromic_top_degree():
    for n in range(13):
        for r in range(n // 2 + 1):
            p = essential_poincare(n, r)
            assert p[0] == 1
            assert p.degree == dim_unitary(n, r)
            assert p.is_palindromic()


def _unitary_count(n: int, r: int) -> list[int]:
    """prod_{i=n-2r+1..n} (q^i - (-1)^i) / prod_{i=1..r} (q^(2i) - 1), exactly in Z[q].

    The number of totally isotropic r-spaces of a nondegenerate hermitian form
    of rank n over F_{q^2} (Taylor, The Geometry of the Classical Groups, ch. 10).
    """
    num, den = [1], [1]
    for i in range(n - 2 * r + 1, n + 1):
        num = poly_mul([-((-1) ** i)] + [0] * (i - 1) + [1], num)
    for i in range(1, r + 1):
        den = poly_mul([-1] + [0] * (2 * i - 1) + [1], den)
    return poly_divexact(num, den)


def test_essential_poincare_is_unitary_count():
    for n in range(25):
        for r in range(n // 2 + 1):
            assert essential_poincare(n, r).to_list() == _unitary_count(n, r), (n, r)


def test_essential_poincare_large_n():
    # the recursion steps n -> n-2, so a naive top-down fill nests about n/2 calls
    assert essential_poincare(1201, 1).to_list() == _unitary_count(1201, 1)


def test_split_quadric_poincare():
    assert split_quadric_poincare(2) == [1, 2, 1]
    assert split_quadric_poincare(3) == [1, 1, 2, 1, 1]
    assert split_quadric_poincare(1) == [2]


def test_kvadrika_even_binding():
    for n in range(2, 11, 2):
        report = kvadrika_check(n)
        assert report.binding and report.passed
        assert report.delta == ()


def test_kvadrika_odd_residual():
    for n in range(3, 10, 2):
        report = kvadrika_check(n)
        assert not report.binding
        assert report.passed  # informational
        expected = [0] * (n - 1) + [2]
        assert list(report.delta) == expected


def test_dvamr_positivity_and_skip():
    report = dvamr_check(2, 1, with_dominance=True)
    assert report.shift_even is None  # the n=2 parenthetical exclusion
    assert report.positivity and report.passed
    for n in range(2, 13):
        for r in range(1, n // 2 + 1):
            rep = dvamr_check(n, r, with_dominance=False)
            assert rep.positivity


def test_dvamr_shift_example():
    rep = dvamr_check(4, 2, with_dominance=False)
    assert rep.shift_odd == dim_orthogonal(4, 3) - dim_unitary(4, 2) == 9 - 4 == 5
    assert rep.shift_odd > 0


def test_dvamr_dominance_small():
    for n in range(2, 5):
        for r in range(1, n // 2 + 1):
            rep = dvamr_check(n, r, with_dominance=True)
            assert rep.passed, (n, r, rep.dominance)


def test_dvamr_dominance_n3_instance():
    rep = dvamr_check(3, 1)
    assert rep.shift_odd == 1
    assert rep.dominance["m=1"]


def test_j_min_and_cd2():
    assert j_min(8) == (0, 2, 4, 6)
    assert j_min(2) == (0,)
    with pytest.raises(UsageError):
        j_min(5)
    for n in range(2, 21, 2):
        assert cd2_identity_check(n)
    assert dim_unitary(6, 3) == 15 - 6


def test_witt_decompose_whole_examples():
    assert witt_decompose_whole(5, 1, 0) == _once((essential(5, 1), 0), speck_residual=True)
    m = witt_decompose_whole(3, 1, 1)
    assert m == _once((TATE, 0), (TATE, 3), speck_residual=True)
    m = witt_decompose_whole(4, 1, 1)
    assert m == _once((TATE, 0), (essential(2, 1), 2), (TATE, 5), speck_residual=True)
    # the first repeated summands: Tate(9) and Tate(11), each reached twice
    m = witt_decompose_whole(8, 2, 3)
    assert list(_summands(m).values()) == [1] * 7 + [2, 1, 2] + [1] * 6
    assert repr(m).startswith("Tate + Tate(2) + Essential(2,1)(4) + Tate(4) + ")
    assert " + 2*Tate(9) + Essential(2,1)(11) + 2*Tate(11) + " in repr(m)


def _three_call_decompose(n, r, h):
    # the recursion as first written: the (n - 2, r - 1) branch is computed
    # twice, and every summand is listed once per copy
    if r < 0 or r > n // 2:
        return []
    if r == 0:
        return [(TATE, 0)]
    if h == 0:
        return [(essential(n, r), 0)]
    i, j = _step_shifts(n, r)
    return (
        _three_call_decompose(n - 2, r - 1, h - 1)
        + [(a, s + i) for a, s in _three_call_decompose(n - 2, r, h - 1)]
        + [(a, s + j) for a, s in _three_call_decompose(n - 2, r - 1, h - 1)]
    )


@functools.cache
def _recursion(n, r, h):
    # _three_call_decompose on distinct summands, each (n, r, h) built once:
    # (atom, shift) -> multiplicity
    if r < 0 or r > n // 2:
        return Counter()
    if r == 0:
        return Counter({(TATE, 0): 1})
    if h == 0:
        return Counter({(essential(n, r), 0): 1})
    i, j = _step_shifts(n, r)
    out = Counter(_recursion(n - 2, r - 1, h - 1))
    for shift, part in ((i, _recursion(n - 2, r, h - 1)), (j, _recursion(n - 2, r - 1, h - 1))):
        for (atom, s), m in part.items():
            out[atom, s + shift] += m
    return out


def test_witt_decompose_whole_matches_three_call_recursion():
    # the product against the recursion it replaces: as first written up to
    # n = 12, memoised on distinct summands up to n = 30 (about a second)
    for n in range(31):
        for r in range(-1, n // 2 + 2):
            for h in range(n // 2 + 1):
                m = witt_decompose_whole(n, r, h)
                assert _summands(m) == _recursion(n, r, h), (n, r, h)
                assert m.speck_residual == (1 <= r <= n // 2), (n, r, h)
                if n <= 12:
                    assert _recursion(n, r, h) == Counter(_three_call_decompose(n, r, h))
    _recursion.cache_clear()


@pytest.mark.parametrize(
    "n, r, h, distinct, summands",
    [
        (30, 12, 12, 984, 208896),
        (60, 30, 30, 899, 1 << 30),
        (100, 5, 50, 836, 67800320),
        (2000, 400, 10, 1551, 3 ** 10),
        (998, 400, 12, 3094, 3 ** 12),
        (1000, 250, 11, 2223, 3 ** 11),
    ],
)
def test_witt_decompose_whole_lists_each_distinct_summand_once(n, r, h, distinct, summands):
    m = witt_decompose_whole(n, r, h)
    assert len(_summands(m)) == distinct
    assert sum(_summands(m).values()) == summands


def _expanded(motive) -> list[int]:
    # the motive's Tate realization, each Essential(b, s) expanded through the
    # unitary count prod (1 - (-t)^i) / prod (1 - t^(2i)), one kernel pass a factor
    total = []
    for atom, shift, ms in motive.atoms:
        coeffs = [0] * shift + list(ms)
        if atom.kind == "Essential":
            for i in range(atom.n - 2 * atom.r + 1, atom.n + 1):
                poly_mul_binomial(coeffs, i, (-1) ** (i + 1))
            for i in range(1, atom.r + 1):
                poly_div_one_minus(coeffs, 2 * i)
        total = poly_add(total, coeffs)
    return total


@pytest.mark.parametrize(
    "n, r, h, distinct, summands",
    [
        (998, 2, 300, 2393, 180001),
        (200, 50, 100, 12401, 113593555425077806298992700032708703623839744),
        (100, 40, 40, 32092, 2084251666294505472),
        (2000, 10, 900, 196341, 94105080907592896204715601),
    ],
)
def test_witt_decompose_whole_answers_what_the_table_charge_refused(n, r, h, distinct, summands):
    start = time.perf_counter()
    m = witt_decompose_whole(n, r, h)
    assert time.perf_counter() - start < 2
    assert len(_summands(m)) == distinct
    assert sum(_summands(m).values()) == summands
    assert _expanded(m) == essential_poincare(n, r).to_list()


@pytest.mark.parametrize("n, r", [(1000, 3), (400, 10)])
def test_essential_poincare_answers_what_the_table_charge_refused(n, r):
    start = time.perf_counter()
    p = essential_poincare(n, r)
    assert time.perf_counter() - start < 2
    assert p.to_list() == _unitary_count(n, r)


def test_binomial_passes_match_dense_arithmetic():
    rng = random.Random(5)
    for _ in range(200):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))] + [1]
        j = rng.randint(0, 6)
        for sign in (1, -1):
            coeffs = list(a)
            poly_mul_binomial(coeffs, j, sign)
            factor = poly_add([1], [0] * j + [sign])
            assert coeffs == poly_mul(a, factor), (a, j, sign)
        if j:
            coeffs = poly_mul(a, [1] + [0] * (j - 1) + [-1])
            poly_div_one_minus(coeffs, j)
            assert coeffs == a
            coeffs = poly_add(poly_mul(a, [1] + [0] * (j - 1) + [-1]), [0] * (j - 1) + [1])
            with pytest.raises(ExactDivisionError):
                poly_div_one_minus(coeffs, j)
    for n in range(12):
        for k in range(n + 1):
            num, den = [1], [1]
            for i in range(1, k + 1):
                num = poly_mul(num, [1] + [0] * (n - k + i - 1) + [-1])
                den = poly_mul(den, [1] + [0] * (i - 1) + [-1])
            assert gaussian_binomial(n, k) == poly_divexact(num, den), (n, k)


def _charge(monkeypatch, n, r, h):
    # the coefficient updates witt_decompose_whole is charged, read off its refusal
    with monkeypatch.context() as patch:
        patch.setattr(motives, "_MOTIVE_BUDGET", 0)
        with pytest.raises(BudgetError) as exc:
            witt_decompose_whole(n, r, h)
    return int(re.search(r"needs (\d+) coefficient updates", str(exc.value)).group(1))


def _counted_passes(monkeypatch) -> list[int]:
    # the coefficients each kernel pass runs over, one entry a pass
    passes = []
    mul, div = polynomials.poly_mul_binomial, polynomials.poly_div_one_minus

    def counted_mul(coeffs, j, sign=1):
        mul(coeffs, j, sign)
        passes.append(len(coeffs))

    def counted_div(coeffs, j):
        passes.append(len(coeffs))
        div(coeffs, j)

    monkeypatch.setattr(polynomials, "poly_mul_binomial", counted_mul)
    monkeypatch.setattr(motives, "poly_mul_binomial", counted_mul)
    monkeypatch.setattr(polynomials, "poly_div_one_minus", counted_div)
    return passes


def test_motive_charge_covers_the_coefficient_updates(monkeypatch):
    passes = _counted_passes(monkeypatch)
    for n in range(15):
        for r in range(n // 2 + 1):
            for h in range(n // 2 + 1):
                needed = _charge(monkeypatch, n, r, h)
                passes.clear()
                witt_decompose_whole(n, r, h)
                assert sum(passes) <= needed, (n, r, h, passes, needed)
    # (300, 150, 150): b = 0 and e = 0, so [150; 150] takes no pass and the 150
    # products run over at most 22501 coefficients each
    needed = _charge(monkeypatch, 300, 150, 150)
    passes.clear()
    witt_decompose_whole(300, 150, 150)
    assert (needed, len(passes), max(passes), sum(passes)) == (151 * 22501, 150, 22501, 1136425)


def test_witt_decompose_whole_refuses_before_any_pass(monkeypatch):
    passes = _counted_passes(monkeypatch)
    needed = _charge(monkeypatch, 8, 2, 3)
    monkeypatch.setattr(motives, "_MOTIVE_BUDGET", needed)
    assert sum(_summands(witt_decompose_whole(8, 2, 3)).values()) == 18
    assert passes
    passes.clear()
    monkeypatch.setattr(motives, "_MOTIVE_BUDGET", needed - 1)
    message = f"n=8, r=2, witt_h=3 needs {needed} coefficient updates, limit {needed - 1}$"
    with pytest.raises(BudgetError, match=message):
        witt_decompose_whole(8, 2, 3)
    assert passes == []


def test_witt_decompose_whole_refuses_large_cases_at_once(monkeypatch):
    # the charge is a sum over the bottom ranks, known before any pass
    passes = _counted_passes(monkeypatch)
    start = time.perf_counter()
    message = "n=1000, r=400, witt_h=500 needs 192320601 coefficient updates, limit 16777216$"
    with pytest.raises(BudgetError, match=message):
        witt_decompose_whole(1000, 400, 500)
    assert time.perf_counter() - start < 1
    assert passes == []


def test_witt_decompose_full_split_matches_poincare():
    # fully split: only Tate summands remain and they realize the essential part
    for n, r in [(n, r) for n in range(2, 8) for r in range(1, n // 2 + 1)] + [(998, 1)]:
        m = witt_decompose_whole(n, r, n // 2)
        assert [a for a, _, _ in m.atoms] == [TATE]
        tate = Motive(m.atoms)
        assert tate.poincare() == essential_poincare(n, r)
    assert list(_summands(m).values()) == [1] * 998


def test_motive_json_has_one_entry_per_atom():
    data = witt_decompose_whole(4, 1, 1).to_json()
    assert data == {
        "atoms": [
            {"atom": "Tate", "shift": 0, "multiplicities": [1, 0, 0, 0, 0, 1]},
            {"atom": "Essential(2,1)", "shift": 2, "multiplicities": [1]},
        ],
        "speck_residual": True,
    }
    assert decompose_step(4, 2).to_json() == {
        "atoms": [{"atom": "Essential(2,1)", "shift": 0, "multiplicities": [1, 0, 0, 1]}]
    }
    # in (lowest shift, atom) order, each entry the summands of its atom
    for n, r, h in [(8, 2, 3), (20, 6, 4), (31, 9, 12)]:
        m = witt_decompose_whole(n, r, h)
        entries = m.to_json()["atoms"]
        assert [(e["shift"], e["atom"]) for e in entries] == sorted(
            (s, repr(a)) for a, s, _ in m.atoms
        )
        expanded = {
            (e["atom"], e["shift"] + d): c
            for e in entries
            for d, c in enumerate(e["multiplicities"])
            if c
        }
        assert expanded == {(repr(a), s): c for (a, s), c in _summands(m).items()}, (n, r, h)


def test_motive_poincare_is_one_product_per_atom():
    # the Tate realization of (100, 40, 40)'s 32092 summands over 11 atoms took
    # 13-15 s when each summand was multiplied out on its own
    whole = witt_decompose_whole(100, 40, 40)
    motive = Motive(whole.atoms)
    start = time.perf_counter()
    realized = motive.poincare()
    assert time.perf_counter() - start < 2
    assert realized == _expanded(whole)
    for n in range(2, 13):
        for r in range(n // 2 + 1):
            for h in range(n // 2 + 1):
                motive = Motive(witt_decompose_whole(n, r, h).atoms)
                assert motive.poincare() == _expanded(motive), (n, r, h)
                if n <= 10:  # against the sum of the summands one by one
                    expected = []
                    for (atom, shift), mult in _summands(motive).items():
                        unit = [1] if atom == TATE else essential_poincare(*atom[1:]).to_list()
                        expected = poly_add(expected, [0] * shift + [mult * c for c in unit])
                    assert motive.poincare() == expected, (n, r, h)
            assert motive.poincare() == essential_poincare(n, r), (n, r)  # h = n // 2


def test_exterior_is_one_pass_a_factor():
    # against the dense product of the factors 1 + q^d; 1 + q^0 is 2
    rng = random.Random(7)
    for _ in range(200):
        degrees = [rng.randint(0, 9) for _ in range(rng.randint(0, 6))]
        dense = [1]
        for d in degrees:
            dense = poly_mul(dense, poly_add([1], [0] * d + [1]))
        assert PoincarePolynomial.exterior(degrees) == dense, degrees
    assert PoincarePolynomial.exterior([0]) == [2]
    assert PoincarePolynomial.exterior([]) == [1]
    with pytest.raises(UsageError, match="exterior degree -1 is negative"):
        PoincarePolynomial.exterior([2, -1])
