"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines,
or equivalently `chowlab verify all` for the JSON report.
"""

import time

from chowlab.grassmann import (
    isochow_quotient,
    odd_case_pipeline,
    odd_squares_vanish,
    uniqueness_in_codim,
)
from chowlab.invariants import non_generation_witness
from chowlab.motives import (
    cd2_identity_check,
    dim_unitary,
    dvamr_check,
    essential_poincare,
    j_min,
    kvadrika_check,
)
from chowlab.polynomials import PoincarePolynomial
from chowlab.suites import run_suite


def _report(criterion: str, passed: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{status} {criterion} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert passed, criterion
    assert elapsed < budget, f"{criterion} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_01_lemma_s_suite():
    start = time.perf_counter()
    suite = run_suite("lemmaS")
    witness = non_generation_witness()
    ok = suite.passed and witness.passed
    _report("criterion-1 invariant generation modulo norms + degree-3 witness", ok, time.perf_counter() - start, 10)


def test_criterion_02_codim_le2_generation():
    start = time.perf_counter()
    suite = run_suite("codim2")
    _report("criterion-2 generation by codimension <= 2", suite.passed, time.perf_counter() - start, 10)


def test_criterion_03_weil_bundle_suite():
    start = time.perf_counter()
    suite = run_suite("weil")
    mutation_cases = [c for c in suite.cases if "mutation_rejected" in c.details]
    ok = suite.passed and mutation_cases and all(
        c.details["mutation_rejected"] for c in mutation_cases
    )
    _report("criterion-3 bundle relation + rank-r freeness + mutation rejection", bool(ok), time.perf_counter() - start, 30)


def test_criterion_04_even_case_grassmannian():
    start = time.perf_counter()
    ok = run_suite("primerchik").passed
    for r in (1, 2, 3):
        expected = PoincarePolynomial.exterior(2 * i - 1 for i in range(1, r + 1))
        ok = ok and isochow_quotient(r) == expected
        ok = ok and odd_squares_vanish(r) and uniqueness_in_codim(r)
    _report("criterion-4 even-case annihilator quotient", ok, time.perf_counter() - start, 20)


def test_criterion_05_motive_recursion():
    start = time.perf_counter()
    ok = run_suite("motives").passed
    for n in range(13):
        for r in range(n // 2 + 1):
            p = essential_poincare(n, r)
            ok = ok and p[0] == 1 and p.is_palindromic() and p.degree == dim_unitary(n, r)
    _report("criterion-5 motive recursion polynomial shape + closed forms", ok, time.perf_counter() - start, 5)


def test_criterion_06_cross_module_identity():
    start = time.perf_counter()
    ok = all(
        isochow_quotient(r) == essential_poincare(2 * r, r) for r in (1, 2, 3)
    )
    _report("criterion-6 ring quotient equals motive polynomial", ok, time.perf_counter() - start, 20)


def test_criterion_07_witt_index_doubling():
    start = time.perf_counter()
    suite = run_suite("i2i")
    _report("criterion-7 trace form doubles the Witt index", suite.passed, time.perf_counter() - start, 120)


def test_criterion_08_point_count_agreement():
    start = time.perf_counter()
    suite = run_suite("counts")
    instances = {}
    for case in suite.cases:
        counts = case.details.get("counts", {})
        instances[(case.params["p"], case.params["n"])] = counts
    ok = (
        suite.passed
        and instances[(2, 2)]["r1"] == 3
        and instances[(2, 3)]["r1"] == 9
        and instances[(2, 4)]["r2"] == 27
    )
    _report("criterion-8 point counts realize the motive polynomial", ok, time.perf_counter() - start, 180)


def test_criterion_09_j_invariant_arithmetic():
    start = time.perf_counter()
    ok = True
    for n in range(2, 21, 2):
        j = j_min(n)
        ok = ok and j == tuple(range(0, n - 1, 2))
        ok = ok and n * n // 4 == n * (n - 1) // 2 - sum(j)
        ok = ok and cd2_identity_check(n)
    _report("criterion-9 minimal J-invariant arithmetic", ok, time.perf_counter() - start, 5)


def test_criterion_10_quadric_comparison():
    start = time.perf_counter()
    ok = True
    for n in range(2, 11, 2):
        report = kvadrika_check(n)
        ok = ok and report.passed and report.delta == ()
    for n in range(3, 10, 2):
        report = kvadrika_check(n)  # informational: residual recorded as 2q^(n-1)
        ok = ok and report.delta == tuple([0] * (n - 1) + [2])
    _report("criterion-10 quadric motive comparison (even binding, odd recorded)", ok, time.perf_counter() - start, 10)


def test_criterion_11_double_embedding():
    start = time.perf_counter()
    ok = True
    for n in range(2, 13):
        for r in range(1, n // 2 + 1):
            ok = ok and dvamr_check(n, r, with_dominance=n <= 4).passed
    _report("criterion-11 shift positivity + Poincare dominance", ok, time.perf_counter() - start, 60)


def test_criterion_12_odd_case_pipeline():
    start = time.perf_counter()
    ok = True
    for r in (1, 2):
        report = odd_case_pipeline(r)
        ok = ok and report.norm_equals_ideal
        # the comparison verdicts are informational; they must merely exist
        ok = ok and set(report.matches) == {
            "exterior_printed",
            "exterior_shifted_top",
            "essential_motive",
        }
    _report("criterion-12 odd-case pipeline completes with comparisons", ok, time.perf_counter() - start, 60)


def test_verify_all_default_options():
    # the canonical acceptance entry point: every binding suite at defaults
    start = time.perf_counter()
    result = run_suite("all")
    informational = [c for c in result.cases if c.informational]
    ok = result.passed and len(informational) > 0
    _report("criterion-all chowlab verify all (defaults)", ok, time.perf_counter() - start, 300)
