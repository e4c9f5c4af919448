"""Motive recursion, dimension formulas and the reported comparisons."""

import time
from collections import Counter

import pytest

from chowlab import motives
from chowlab.errors import BudgetError, ChowlabError, UsageError
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
from chowlab.polynomials import PoincarePolynomial, poly_divexact, poly_mul


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


def _once(*summands, speck_residual=False):
    return Motive(dict.fromkeys(summands, 1), speck_residual)


def test_decompose_step_examples():
    assert decompose_step(2, 1) == _once((essential(0, 0), 0), (essential(0, 0), 1))
    assert decompose_step(4, 2) == _once((essential(2, 1), 0), (essential(2, 1), 3))
    assert decompose_step(4, 1) == _once(
        (essential(2, 0), 0), (essential(2, 1), 2), (essential(2, 0), 5)
    )


def test_step_shifts_raise_on_inconsistent_dimensions(monkeypatch):
    real = motives.dim_unitary
    monkeypatch.setattr(motives, "dim_unitary", lambda n, r: real(n, r) + n)
    with pytest.raises(ChowlabError):
        decompose_step(4, 1)


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
    assert [mult for _, mult in m.summands] == [1] * 7 + [2, 1, 2] + [1] * 6
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
    i, j = motives._step_shifts(n, r)
    return (
        _three_call_decompose(n - 2, r - 1, h - 1)
        + [(a, s + i) for a, s in _three_call_decompose(n - 2, r, h - 1)]
        + [(a, s + j) for a, s in _three_call_decompose(n - 2, r - 1, h - 1)]
    )


def test_witt_decompose_whole_matches_three_call_recursion():
    for n in range(13):
        for r in range(-1, n // 2 + 2):
            for h in range(n // 2 + 1):
                m = witt_decompose_whole(n, r, h)
                assert dict(m.summands) == Counter(_three_call_decompose(n, r, h)), (n, r, h)
                assert m.speck_residual == (1 <= r <= n // 2), (n, r, h)


@pytest.mark.parametrize(
    "n, r, h, distinct, summands",
    [
        (30, 12, 12, 984, 208896),
        (60, 30, 30, 899, 1 << 30),
        (100, 5, 50, 836, 67800320),
        # few splittings of a wide shift range: one entry per possible shift would
        # pass the budget (2.5 to 3.8 million), at most 3^h a part does not
        (2000, 400, 10, 1551, 3 ** 10),
        (998, 400, 12, 3094, 3 ** 12),
        (1000, 250, 11, 2223, 3 ** 11),
    ],
)
def test_witt_decompose_whole_lists_each_distinct_summand_once(n, r, h, distinct, summands):
    m = witt_decompose_whole(n, r, h)
    assert len(m.summands) == distinct
    assert sum(mult for _, mult in m.summands) == summands


def _predicted_sizes(monkeypatch, n, r, h):
    # the per-part charges witt_decompose_whole hands to its budget check, in
    # the order of motives._table(n, r, h)
    def record(sizes, *budget, **args):
        raise LookupError(list(sizes))

    monkeypatch.setattr(motives, "_admit", record)
    with pytest.raises(LookupError) as exc:
        witt_decompose_whole(n, r, h)
    monkeypatch.undo()
    return exc.value.args[0]


def _predicted_entries(monkeypatch, n, r, h):
    return sum(_predicted_sizes(monkeypatch, n, r, h))


def _entries(part):
    # the distinct shifts a part holds over all bottom ranks s
    return sum(len(shifts) for shifts, _ in motives._witt_whole(*part))


def _built_entries(n, r, h):
    # entries in every part (n - 2k, rr, h - k) the recursion reaches, with
    # r - k <= rr <= r
    witt_decompose_whole(n, r, h)
    return sum(
        _entries((n - 2 * k, rr, h - k))
        for k in range(h + 1)
        for rr in range(max(1, r - k), min(r, (n - 2 * k) // 2) + 1)
    )


def test_witt_table_entry_bound_covers_the_entries_built(monkeypatch):
    # part by part, so no part is filled past what was admitted
    for n in range(15):
        for r in range(-1, n // 2 + 2):
            for h in range(n // 2 + 1):
                sizes = _predicted_sizes(monkeypatch, n, r, h)
                witt_decompose_whole(n, r, h)
                parts = list(motives._table(n, r, h))
                assert len(sizes) == len(parts), (n, r, h)
                for size, part in zip(sizes, parts):
                    assert size >= _entries(part), (n, r, h, part)
    # the unit parts (rr = 0) need no entry and are not counted
    cases = ((60, 30, 30, 9485, 9428), (30, 12, 12, 10946, 8158), (100, 48, 14, 43509, 11250))
    for n, r, h, predicted, built in cases:
        motives._witt_whole.cache_clear()
        assert _predicted_entries(monkeypatch, n, r, h) == predicted
        assert _built_entries(n, r, h) == built


def test_witt_decompose_whole_refuses_before_any_part_is_filled(monkeypatch):
    # (8, 2, 3) builds 35 table entries under a charge of 52
    motives._witt_whole.cache_clear()
    assert _built_entries(8, 2, 3) == 35
    monkeypatch.setattr(motives, "_TABLE_BUDGET", 52)
    motives._witt_whole.cache_clear()
    assert sum(m for _, m in witt_decompose_whole(8, 2, 3).summands) == 18
    monkeypatch.setattr(motives, "_TABLE_BUDGET", 51)
    motives._witt_whole.cache_clear()
    message = "n=8, r=2, witt_h=3 needs at least 52 table entries, limit 51$"
    with pytest.raises(BudgetError, match=message):
        witt_decompose_whole(8, 2, 3)
    assert motives._witt_whole.cache_info().currsize == 0


def test_witt_decompose_whole_refuses_large_cases_at_once():
    # the charge is summed bottom up and stops at the limit, so refusing
    # (2000, 10, 900) is as quick as refusing (200, 50, 100), which needs 2098349
    cases = ((100, 40, 40), (200, 50, 100), (2000, 10, 900), (1000, 400, 500))
    for n, r, h in cases:
        motives._witt_whole.cache_clear()
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=f"n={n}, r={r}, witt_h={h} needs at least "):
            witt_decompose_whole(n, r, h)
        assert time.perf_counter() - start < 1, (n, r, h)
        assert motives._witt_whole.cache_info().currsize == 0, (n, r, h)


def test_witt_decompose_whole_steps_once_per_distinct_part(monkeypatch):
    # one recursion on distinct summands: 42 (n, r, h) steps at (30, 12, 12),
    # where expanding every repeated summand took 793
    calls = []
    step_shifts = motives._step_shifts
    monkeypatch.setattr(motives, "_step_shifts", lambda n, r: calls.append((n, r)) or step_shifts(n, r))
    motives._witt_whole.cache_clear()
    assert len(witt_decompose_whole(30, 12, 12).summands) == 984
    assert len(calls) <= 50, len(calls)


def test_witt_decompose_full_split_matches_poincare():
    # fully split: only Tate summands remain and they realize the essential
    # part; h = 499 nests past the recursion limit unless filled bottom up
    motives._witt_whole.cache_clear()
    for n, r in [(n, r) for n in range(2, 8) for r in range(1, n // 2 + 1)] + [(998, 1)]:
        m = witt_decompose_whole(n, r, n // 2)
        assert all(a.kind != "Essential" for (a, _), _ in m.summands)
        tate = Motive(dict(m.summands))
        assert tate.poincare() == essential_poincare(n, r)
    assert len(m.summands) == 998 and all(mult == 1 for _, mult in m.summands)
    motives._witt_whole.cache_clear()


def test_motive_json():
    m = witt_decompose_whole(4, 1, 1)
    data = m.to_json()
    assert data["speck_residual"] is True
    assert {"atom": "Tate", "shift": 0, "multiplicity": 1} in data["summands"]
    assert {"atom": "Essential(2,1)", "shift": 2, "multiplicity": 1} in data["summands"]
    data = witt_decompose_whole(8, 2, 3).to_json()
    assert {"atom": "Tate", "shift": 9, "multiplicity": 2} in data["summands"]
