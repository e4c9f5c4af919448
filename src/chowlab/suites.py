"""Named verification suites with machine-readable results.

``SUITES`` is the whole catalogue: each entry maps ``SuiteOptions`` to rows
``(id, params, check, informational)``.  A check is a thunk returning a
(passed, details) pair; it looks domain functions up through module globals
when the rows are built or run, never at import time.  Rows built for one run
may share a computation (the two primerchik rows that need
``isochow_quotient(r)``); nothing is cached across runs.  Informational rows
record their outcome but never fail the run unless they raise.  Rows run
serially and the results are reported in case-id order.
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple
from functools import cache, partial

from . import grassmann, invariants, motives, weil
from .algebra import F2, Z, Element
from .errors import UsageError
from .finitefields import (
    WITT_QUADRATIC_BUDGET,
    count_isotropic,
    hermitian_space,
    trace_quadratic,
    witt_index_hermitian,
    witt_index_quadratic,
)
from .polynomials import PoincarePolynomial


class SuiteOptions(
    namedtuple("SuiteOptions", "max_n max_p max_degree max_r", defaults=(4, 3, 6, 3))
):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        supported = WITT_QUADRATIC_BUDGET["p"]
        for name, low, high in (
            ("max_n", 1, None),
            ("max_p", min(supported), max(supported)),
            ("max_degree", 0, None),
            ("max_r", 1, None),
        ):
            value = getattr(self, name)
            if value < low or (high is not None and value > high):
                bound = f"{low} <= {name} <= {high}" if high is not None else f"{name} >= {low}"
                raise UsageError(f"{name}={value} is out of range; need {bound}")
        return self

    def primes(self):
        return [p for p in WITT_QUADRATIC_BUDGET["p"] if p <= self.max_p]


class CaseResult(namedtuple("CaseResult", "id params passed details informational")):
    __slots__ = ()

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "params": dict(self.params),
            "pass": self.passed,
            "details": self.details,
        }
        if self.informational:
            out["informational"] = True
        return out


class SuiteResult(namedtuple("SuiteResult", "suite cases elapsed")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [c.to_json() for c in self.cases],
            "pass": self.passed,
            "elapsed": self.elapsed,
        }


def _case(case_id: str, params: dict, check, informational: bool) -> CaseResult:
    """Run one row; a raising check always fails, informational or not."""
    try:
        passed, details = check()
    except Exception as exc:
        details = {"error": f"{type(exc).__name__}: {exc}"}
        return CaseResult(case_id, params, False, details, informational)
    if informational:
        passed, details = True, {"outcome": passed, **details}
    return CaseResult(case_id, params, bool(passed), details, informational)


def report_json(value):
    """The JSON form of a domain report.

    A record (named tuple) becomes its fields by name, with ``passed`` (a
    field or a property) written as ``"pass"``; dict keys become strings,
    other tuples and lists become lists, an ``Element`` its ``to_pairs()`` and
    a ``PoincarePolynomial`` its ``to_list()``.  Anything else passes through
    unchanged.
    """
    if hasattr(value, "_fields"):  # before the tuple branch: a record is a tuple
        names = list(value._fields)
        if hasattr(value, "passed") and "passed" not in names:
            names.append("passed")
        return {("pass" if n == "passed" else n): report_json(getattr(value, n)) for n in names}
    if isinstance(value, dict):
        return {str(k): report_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [report_json(v) for v in value]
    if isinstance(value, Element):
        return value.to_pairs()
    if isinstance(value, PoincarePolynomial):
        return value.to_list()
    return value


# -- checks ------------------------------------------------------------------------


def _full(report):
    """A report's verdict with its whole JSON as the details."""
    return report.passed, report_json(report)


def _generation(coeff: str, k: int, r: int, max_degree: int):
    sigma, gens = invariants.codim_le2_generators(k, r, coeff, max_degree)
    return invariants.class_generator_certificate(sigma, gens), {"degrees_checked": max_degree}


def _witness():
    return _full(invariants.non_generation_witness())


def _weil_freeness(coeff: str, r: int, D: int):
    return _full(weil.freeness_check(weil.build(r, coeff, D)))


def _weil_base(coeff: str, r: int, D: int):
    report = weil.base_generation_check(weil.build(r, coeff, D))
    return report.passed, {"max_degree": D - 2 * r}


def _primerchik_quotient(r: int, isochow):
    quotient = isochow()
    expected = PoincarePolynomial.exterior(range(1, 2 * r, 2))
    return quotient == expected, {"quotient": quotient.to_list()}


def _primerchik_squares(r: int):
    return grassmann.odd_squares_vanish(r), {}


def _primerchik_unique(r: int):
    return grassmann.uniqueness_in_codim(r), {"codim": r * (r - 1)}


def _primerchik_motive(r: int, isochow):
    quotient = isochow()
    ess = motives.essential_poincare(2 * r, r)
    return quotient == ess, {"quotient": quotient.to_list(), "essential": ess.to_list()}


def _primerchik(o: SuiteOptions):
    rows = []
    for r in range(1, o.max_r + 1):
        isochow = cache(partial(grassmann.isochow_quotient, r))  # shared by this run's two rows
        rows += [
            (f"primerchik/r{r}/{name}", {"r": r}, check, False)
            for name, check in (
                ("quotient", partial(_primerchik_quotient, r, isochow)),
                ("squares", partial(_primerchik_squares, r)),
                ("unique", partial(_primerchik_unique, r)),
                ("motive", partial(_primerchik_motive, r, isochow)),
            )
        ]
    return rows


def _odd911(r: int):
    report = grassmann.odd_case_pipeline(r)
    ok = report.norm_equals_ideal and report.model_consistent and report.class_nonzero
    return ok, report_json(report)


def _motives_poincare():
    for n in range(13):
        for r in range(n // 2 + 1):
            p = motives.essential_poincare(n, r)
            if p[0] != 1 or p.degree != motives.dim_unitary(n, r) or not p.is_palindromic():
                return False, {"n": n, "r": r, "poincare": p.to_list()}
    return True, {"max_n": 12}


def _motives_closed_forms():
    for r in range(1, 5):
        for parity, n, degrees in (
            ("even", 2 * r, range(1, 2 * r, 2)),
            ("odd", 2 * r + 1, range(3, 2 * r + 2, 2)),
        ):
            if motives.essential_poincare(n, r) != PoincarePolynomial.exterior(degrees):
                return False, {"r": r, "parity": parity}
    return True, {"max_r": 4}


def _motives_jmin():
    for n in range(2, 21, 2):
        if motives.j_min(n) != tuple(range(0, n - 1, 2)) or not motives.cd2_identity_check(n):
            return False, {"n": n}
    return True, {"max_n": 20}


def _kvadrika_even(n: int):
    report = motives.kvadrika_check(n)
    return report.passed and not report.delta, report_json(report)


def _kvadrika_odd(n: int):
    report = motives.kvadrika_check(n)
    return report.delta == tuple([0] * (n - 1) + [2]), report_json(report)


def _dvamr(n: int, r: int, dominance: bool):
    return _full(motives.dvamr_check(n, r, with_dominance=dominance))


def _diagonals(p: int, n: int):
    return itertools.product(range(1, p), repeat=n)


def _i2i(p: int, n: int):
    checked = 0
    for diag in _diagonals(p, n):
        H = hermitian_space(p, diag)
        ih = witt_index_hermitian(H)
        iq = witt_index_quadratic(trace_quadratic(H))
        if iq != 2 * ih:
            return False, {"diag": list(diag), "i_h": ih, "i_q": iq}
        checked += 1
    return True, {"forms_checked": checked}


def _counts(p: int, n: int):
    # the prediction depends on (p, n, r) only, not on the diagonal
    predictions = [motives.essential_poincare(n, r)(p) for r in range(n // 2 + 1)]
    results = {}
    for diag in _diagonals(p, n):
        H = hermitian_space(p, diag)
        for r, predicted in enumerate(predictions):
            count = count_isotropic(H, r)
            if count != predicted:
                details = {"diag": list(diag), "r": r, "count": count, "predicted": predicted}
                return False, details
            results[f"r{r}"] = count
    return True, {"counts": results}


# -- the suite table ------------------------------------------------------------------


SUITES = {
    "lemmaS": lambda o: [
        (f"lemmaS/{c}/r{r}", {"coefficients": c, "r": r},
         partial(_generation, c, 0, r, o.max_degree), False)
        for c in (Z, F2) for r in range(1, o.max_r + 1)
    ] + [("lemmaS/witness", {"r": 3, "coefficients": Z}, _witness, False)],
    "codim2": lambda o: [
        (f"codim2/{c}/k{k}/r{r}", {"coefficients": c, "k_fixed": k, "r": r},
         partial(_generation, c, k, r, o.max_degree), False)
        for c in (Z, F2) for k in (0, 1) for r in range(1, o.max_r + 1)
    ],
    "weil": lambda o: [
        (f"weil/{c}/r{r}{suffix}", {"coefficients": c, "r": r, "D": 2 * r + 4},
         partial(check, c, r, 2 * r + 4), False)
        for c in (Z, F2) for r in range(1, o.max_r + 1)
        for suffix, check in (("", _weil_freeness), ("/base", _weil_base))
    ],
    "primerchik": _primerchik,
    "odd911": lambda o: [
        (f"odd911/r{r}", {"r": r}, partial(_odd911, r), True)
        for r in range(1, min(o.max_r, 2) + 1)
    ],
    "motives": lambda o: [
        ("motives/poincare", {"max_n": 12}, _motives_poincare, False),
        ("motives/closed_forms", {"max_r": 4}, _motives_closed_forms, False),
        ("motives/jmin", {"max_n": 20}, _motives_jmin, False),
    ],
    "kvadrika": lambda o: [
        (f"kvadrika/{parity}/n{n:02d}", {"n": n}, partial(check, n), parity == "odd")
        for parity, ns, check in (
            ("even", range(2, 11, 2), _kvadrika_even),
            ("odd", range(3, 10, 2), _kvadrika_odd),
        )
        for n in ns
    ],
    "dvamr": lambda o: [
        (f"dvamr/n{n:02d}/r{r}", {"n": n, "r": r, "dominance": n <= o.max_n},
         partial(_dvamr, n, r, n <= o.max_n), False)
        for n in range(2, 13) for r in range(1, n // 2 + 1)
    ],
    "i2i": lambda o: [
        (f"i2i/p{p}/n{n}", {"p": p, "n": n}, partial(_i2i, p, n), False)
        for p in o.primes() for n in range(1, o.max_n + 1)
    ],
    "counts": lambda o: [
        (f"counts/p{p}/n{n}", {"p": p, "n": n}, partial(_counts, p, n), False)
        for p in o.primes() for n in range(1, o.max_n + 1)
    ],
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, options: SuiteOptions | None = None) -> SuiteResult:
    """Run one named suite (or 'all') and report the cases in id order."""
    options = options or SuiteOptions()
    if name != "all" and name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    rows = [row for n in (SUITE_NAMES if name == "all" else (name,)) for row in SUITES[n](options)]
    start = time.perf_counter()
    results = [_case(*row) for row in rows]
    elapsed = time.perf_counter() - start
    results.sort(key=lambda c: c.id)
    return SuiteResult(suite=name, cases=tuple(results), elapsed=elapsed)
