"""Command-line front end: poincare, presentation, decompose, annihilate, count, verify.

Structured output is JSON on stdout (UTF-8, newline-terminated, sorted
keys); human summaries go to stderr.  Exit codes: 0 all passed, 1 check
failure or resource error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import grassmann, motives, suites
from .algebra import F2, Z
from .errors import BudgetError, ChowlabError, UsageError
from .finitefields import (
    WITT_HERMITIAN_BUDGET,
    WITT_QUADRATIC_BUDGET,
    count_isotropic,
    count_singular,
    hermitian_space,
    orth_count_polynomial,
    trace_quadratic,
    witt_index_hermitian,
)
from .weil import build as build_weil


def _emit(data) -> None:
    sys.stdout.write(json.dumps(data, sort_keys=True) + "\n")


def _parse_element(ring, expr: str):
    """Parse a product expression like 'e2*e4^2' into a ring element."""
    elt = ring.one()
    expr = expr.strip()
    if expr in ("1", ""):
        return elt
    for factor in expr.split("*"):
        name, caret, power = factor.partition("^")
        try:
            elt = elt * ring.monomial({name.strip(): int(power) if caret else 1})
        except ValueError as exc:  # a bad exponent or an unknown generator name
            raise UsageError(f"cannot parse element {expr!r}: {exc}") from None
    return elt


def _cmd_kind(args) -> int:
    _emit(args.compute(args))
    return 0


def _cmd_decompose(args) -> int:
    n, r = args.n, args.r
    if args.witt is not None:
        motive = motives.witt_decompose_whole(n, r, args.witt)
    else:
        motive = motives.decompose_step(n, r)
    out = {
        "n": n,
        "r": r,
        "dim": motives.dim_unitary(n, r),
        "poincare": motives.essential_poincare(n, r).to_list(),
    }
    out.update(motive.to_json())
    _emit(out)
    return 0


def _cmd_annihilate(args) -> int:
    if args.ring == "maxorth":
        ring = grassmann.max_orth_ring(args.param)
    else:
        ring = grassmann.odd_quotient_ring(args.param)
    if args.element is not None:
        elt = _parse_element(ring, args.element)
    elif args.ring == "oddquot":
        ring, elt = grassmann.class_xr_odd(args.param)
    elif args.param % 2:
        raise UsageError("the canonical class needs an even rank; pass --element")
    else:
        ring, elt = grassmann.class_xr_even(args.param // 2)
    # rank-nullity: ring/Ann(x) has the rank of multiplication by x in each degree,
    # and Ann(x) the rest, so no kernel element is built
    quotient = grassmann._quotient_poincare(ring, elt)
    degrees = range(ring.max_degree + 1)
    _emit(
        {
            "ring": {"kind": args.ring, "param": args.param},
            "element": elt.to_pairs(),
            "annihilator_dims": [len(ring.degree_basis(d)) - quotient[d] for d in degrees],
            "quotient_poincare": quotient.to_list(),
        }
    )
    return 0


def _cmd_count(args) -> int:
    try:
        diag = [int(x) for x in args.diag.split(",")]
    except ValueError:
        raise UsageError(f"--diag must be comma-separated integers, got {args.diag!r}") from None
    p = args.p
    H = hermitian_space(p, diag)
    n = H.n
    if args.r is not None:
        key = "r"
        budget = {"max_n": WITT_HERMITIAN_BUDGET["n"], "p": list(WITT_HERMITIAN_BUDGET["p"])}
        count = count_isotropic(H, args.r)
        predicted = motives.essential_poincare(n, args.r)(p) if args.r <= n // 2 else 0
    else:
        key = "m"
        budget = {"max_dim": WITT_QUADRATIC_BUDGET["dim"], "p": list(WITT_QUADRATIC_BUDGET["p"])}
        count = count_singular(trace_quadratic(H), args.m)
        predicted = None
        if n % 2 == 0 and witt_index_hermitian(H) == n // 2:
            predicted = orth_count_polynomial(n, args.m)(p) if args.m <= n else 0
    _emit(
        {
            "p": p,
            "n": n,
            "diag": list(H.diag),
            key: getattr(args, key),
            "count": count,
            "predicted": predicted,
            "budget": budget,
        }
    )
    return 0


def _cmd_verify(args) -> int:
    options = suites.SuiteOptions(*(getattr(args, name) for name in suites.SuiteOptions._fields))
    result = suites.run_suite(args.suite, options)
    _emit(result.to_json())
    failed = [c for c in result.cases if not c.passed]
    informational = [c for c in result.cases if c.informational]
    summary = (
        f"suite {result.suite}: {len(result.cases)} cases, "
        f"{len(result.cases) - len(failed)} passed, {len(failed)} failed"
    )
    if informational:
        summary += f" ({len(informational)} informational)"
    summary += f", {result.elapsed:.2f}s"
    print(summary, file=sys.stderr)
    for c in failed:
        print(f"  FAIL {c.id}: {c.details}", file=sys.stderr)
    return 0 if result.passed else 1


def _decompose_arguments(p) -> None:
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--witt", type=int, default=None, help="apply the whole-motive recursion this many times")
    p.set_defaults(func=_cmd_decompose)


def _annihilate_arguments(p) -> None:
    p.add_argument("ring", choices=("maxorth", "oddquot"))
    p.add_argument("param", type=int, help="N (maxorth) or r (oddquot)")
    p.add_argument("--element", default=None, help="product expression, e.g. 'e2*e4'")
    p.set_defaults(func=_cmd_annihilate)


def _count_arguments(p) -> None:
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--diag", required=True, help="comma-separated entries; --diag=-1,1 if the first is negative")
    dim = p.add_mutually_exclusive_group(required=True)
    dim.add_argument("--r", type=int, help="hermitian isotropic dimension")
    dim.add_argument("--m", type=int, help="trace-form singular dimension")
    p.set_defaults(func=_cmd_count)


def _verify_arguments(p) -> None:
    p.add_argument("suite", choices=suites.SUITE_NAMES + ("all",))
    for name, default in suites.SuiteOptions._field_defaults.items():
        p.add_argument("--" + name.replace("_", "-"), type=int, default=default)
    p.set_defaults(func=_cmd_verify)


# kind -> (its operands, the function of the parsed operands that gives the coefficient list)
POINCARE_KINDS = {
    "essential": (("n", "r"), lambda a: motives.essential_poincare(a.n, a.r).to_list()),
    "maxorth": (("N",), lambda a: grassmann.max_orth_ring(a.N).poincare().to_list()),
    "quadric": (("n",), lambda a: motives.split_quadric_poincare(a.n).to_list()),
    "orthcount": (("N", "m"), lambda a: orth_count_polynomial(a.N, a.m).to_list()),
}

# kind -> (its operands, the function of the parsed operands that gives the presentation's JSON)
PRESENTATION_KINDS = {
    "maxorth": (("N",), lambda a: grassmann.max_orth_ring(a.N).to_json()),
    "prevmax": (("r",), lambda a: grassmann.prev_max_orth_ring(a.r).to_json()),
    "oddquot": (("r",), lambda a: grassmann.odd_quotient_ring(a.r).to_json()),
    "weil": (("r", "D", "--coefficients"), lambda a: build_weil(a.r, a.coefficients, a.D).algebra.to_json()),
}

# an operand is one integer unless it is named here
OPERAND_OPTIONS = {"--coefficients": {"choices": (F2, Z), "default": F2}}

# command name -> (help text, the function that adds its arguments and defaults, or its kinds)
COMMANDS = {
    "poincare": ("print a Poincare polynomial as a coefficient list", POINCARE_KINDS),
    "presentation": ("emit a ring presentation as JSON", PRESENTATION_KINDS),
    "decompose": ("motive decomposition data for (n, r)", _decompose_arguments),
    "annihilate": ("annihilator dimensions and quotient Poincare polynomial", _annihilate_arguments),
    "count": ("count isotropic/singular subspaces of a diagonal form", _count_arguments),
    "verify": ("run a named acceptance suite", _verify_arguments),
}


def _subparsers(parser, dest, table, path):
    """Add ``dest``'s subparser group; return it and the names to build in it: ``path[0]``
    alone if it names an entry of ``table``, else every entry."""
    names = [path[0]] if path and path[0] in table else list(table)
    return parser.add_subparsers(dest=dest, required=True), names


def _kinds_arguments(p, kinds, path) -> None:
    """Give each kind (or only the one on ``path``) a subparser taking exactly its operands."""
    group, names = _subparsers(p, "kind", kinds, path)
    for kind in names:
        operands, compute = kinds[kind]
        usage = (f"[{o}]" if o in OPERAND_OPTIONS else o for o in operands)
        k = group.add_parser(kind, help=" ".join(usage))
        for operand in operands:
            k.add_argument(operand, **OPERAND_OPTIONS.get(operand, {"type": int}))
        k.set_defaults(func=_cmd_kind, compute=compute, parser=k)


def _build_parser(path) -> argparse.ArgumentParser:
    """The parser with only the subparsers on ``path`` (command, then kind), or the whole tree."""
    parser = argparse.ArgumentParser(
        prog="chowlab",
        description="Exact graded-ring, invariant-theory and finite-geometry workbench.",
    )
    group, names = _subparsers(parser, "command", COMMANDS, path)
    for name in names:
        help_text, arguments = COMMANDS[name]
        p = group.add_parser(name, help=help_text)
        if isinstance(arguments, dict):
            _kinds_arguments(p, arguments, path[1:])
        else:
            arguments(p)
            p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a call needs only the subparsers on its path, and the parser at its end (the
    # leaf) reports every usage error past the command; -h and no command or an
    # unknown one get the whole tree
    args, extra = _build_parser(argv[:2]).parse_known_args(argv)
    try:
        if extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except BudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        args.parser.error(str(exc))  # raises SystemExit(2)
    except ChowlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
