"""Harness behaviour: exit codes, determinism, JSON round-trips, option validation."""

import argparse
import json
import shlex
import sys
import time
from pathlib import Path

import pytest

from chowlab import grassmann, motives, suites
from chowlab.algebra import AlgebraPresentation
from chowlab.cli import COMMANDS, main
from chowlab.polynomials import PoincarePolynomial
from chowlab.suites import SuiteOptions, run_suite


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _command_path(argv):
    """The command that argv names, and its kind for poincare and presentation."""
    if not argv or argv[0] not in COMMANDS:
        return []
    kinds = COMMANDS[argv[0]][1]
    return argv[:2] if isinstance(kinds, dict) and argv[1:2] and argv[1] in kinds else argv[:1]


def _usage_error(capsys, argv):
    """Run a call that must be refused as a usage error and return the message.

    The refusal is SystemExit(2) with empty stdout; stderr is the usage of the parser
    at the end of argv's command path, then one error line from that parser.
    """
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and out.err.endswith("\n")
    prog = " ".join(["chowlab", *_command_path(argv)])
    *usage, error = out.err.splitlines()
    assert usage[0].startswith(f"usage: {prog} [-h]") and error.startswith(f"{prog}: error: ")
    assert not any(": error: " in line for line in usage)
    return error.removeprefix(f"{prog}: error: ")


def test_poincare_cli_examples(capsys):
    code, out, _ = _run(capsys, ["poincare", "essential", "4", "2"])
    assert code == 0 and json.loads(out) == [1, 1, 0, 1, 1]
    code, out, _ = _run(capsys, ["poincare", "essential", "1", "0"])
    assert code == 0 and json.loads(out) == [1]
    code, out, _ = _run(capsys, ["poincare", "maxorth", "4"])
    assert code == 0 and json.loads(out) == [1, 1, 1, 2, 1, 1, 1]


def test_poincare_cli_missing_arg_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poincare", "essential", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["presentation", "weil", "2"])
    assert exc.value.code == 2


# one accepted call per command and kind
EVERY_KIND = [
    ["poincare", "essential", "4", "2"],
    ["poincare", "maxorth", "4"],
    ["poincare", "quadric", "3"],
    ["poincare", "orthcount", "3", "1"],
    ["presentation", "maxorth", "3"],
    ["presentation", "prevmax", "2"],
    ["presentation", "oddquot", "2"],
    ["presentation", "weil", "2", "8", "--coefficients", "Z"],
    ["decompose", "4", "2"],
    ["annihilate", "maxorth", "4"],
    ["count", "--p", "2", "--diag", "1,1", "--r", "1"],
    ["verify", "kvadrika"],
]


@pytest.mark.parametrize(
    "argv",
    [call + extra for call in EVERY_KIND for extra in (["7"], ["--bogus"])]
    + [call + ["--coefficients", "Z"] for call in EVERY_KIND if call[1:2] != ["weil"]],
    ids=" ".join,
)
def test_extra_operand_or_unknown_flag_exits_2(capsys, argv):
    # the command's (or the kind's) own parser reports the leftover input
    assert _usage_error(capsys, argv).startswith("unrecognized arguments: ")


def test_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_count_cli(capsys):
    code, out, _ = _run(capsys, ["count", "--p", "2", "--diag", "1,1,1", "--r", "1"])
    data = json.loads(out)
    assert code == 0 and data["count"] == 9 and data["predicted"] == 9
    code, out, _ = _run(capsys, ["count", "--p", "2", "--diag", "1,1", "--r", "1"])
    data = json.loads(out)
    assert code == 0 and data["count"] == 3 and data["predicted"] == 3
    code, out, _ = _run(capsys, ["count", "--p", "2", "--diag", "1,1", "--r", "0"])
    data = json.loads(out)
    assert code == 0 and data["count"] == 1 and data["predicted"] == 1


def test_count_cli_trace_form(capsys):
    code, out, _ = _run(capsys, ["count", "--p", "2", "--diag", "1,1", "--r", "1"])
    assert code == 0 and json.loads(out)["count"] == 3
    code, out, _ = _run(capsys, ["count", "--p", "2", "--diag", "1,1", "--m", "1"])
    data = json.loads(out)
    assert code == 0 and data["count"] == 9 and data["predicted"] == 9


@pytest.mark.parametrize("flag,dim", [("--r", 5), ("--m", 9)])
def test_count_cli_predicts_zero_beyond_the_form(capsys, flag, dim):
    code, out, _ = _run(capsys, ["count", "--p", "2", "--diag", "1,1", flag, str(dim)])
    data = json.loads(out)
    assert code == 0 and data["count"] == 0 and data["predicted"] == 0


def test_count_budget_exceeded_exits_1(capsys):
    code, _, err = _run(capsys, ["count", "--p", "7", "--diag", "1,1", "--r", "1"])
    assert code == 1
    assert "resource" in err


@pytest.mark.parametrize("command", ["poincare essential", "decompose"])
def test_essential_table_budget_exceeded_exits_1(capsys, command):
    # Essential(2000, 1000) would fill about 334 million table coefficients
    code, out, err = _run(capsys, [*command.split(), "2000", "1000"])
    assert code == 1 and out == ""
    assert "resource error: essential_poincare budget exceeded" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("poincare maxorth 40", f"needs {1 << 39} normal monomials indexed, limit {1 << 19}"),
        ("annihilate maxorth 40", f"needs {1 << 39} normal monomials indexed, limit {1 << 19}"),
        (
            "annihilate oddquot 30",
            f"the F2 ring on 59 generators e2..e60 needs {1 << 59} normal monomials indexed, "
            f"limit {1 << 19}",
        ),
        (
            "decompose 200 50 --witt 100",
            f"n=200, r=50, witt_h=100 needs at least 2098349 table entries, limit {1 << 21}",
        ),
    ],
)
def test_whole_ring_and_whole_motive_walks_refuse_before_they_start(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = _run(capsys, argv.split())
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert err.startswith("resource error: ") and err.endswith(message + "\n"), err


@pytest.mark.parametrize(
    "argv, summands",
    [
        ("998 1 --witt 499", 998),
        ("2000 1 --witt 1000", 2000),
        ("60 30 --witt 30", 899),
        # r near n / 2 with few splittings: each part is charged at most 3^h entries
        ("240 120 --witt 0", 1),
        ("240 120 --witt 1", 2),
    ],
)
def test_decompose_reaches_h_past_the_recursion_limit(capsys, argv, summands):
    # the whole-motive parts are filled bottom up in h, one level per call
    code, out, err = _run(capsys, ["decompose", *argv.split()])
    assert code == 0 and err == ""
    assert len(json.loads(out)["summands"]) == summands


def test_decompose_answers_few_splittings_of_a_wide_range(capsys):
    # (998, 2, 137) is charged 1055423 entries and builds 93437; its summands,
    # each Essential(724, s) expanded, realize Essential(998, 2)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["decompose", "998", "2", "--witt", "137"])
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""
    data = json.loads(out)
    total = PoincarePolynomial()
    for summand in data["summands"]:
        atom, shift, m = summand["atom"], summand["shift"], summand["multiplicity"]
        unit = PoincarePolynomial.one()
        if atom != "Tate":
            b, s = map(int, atom.removeprefix("Essential(").removesuffix(")").split(","))
            assert b == 998 - 2 * 137
            unit = motives.essential_poincare(b, s)
        total = total + (unit * PoincarePolynomial((m,))).shift(shift)
    assert total == data["poincare"] == motives.essential_poincare(998, 2)


@pytest.mark.parametrize("argv", ["1000 400 --witt 500", "2000 10 --witt 900", "200 50 --witt 100"])
def test_decompose_refuses_past_the_table_entry_budget(capsys, argv):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["decompose", *argv.split()])
    assert time.perf_counter() - start < 2
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("resource error: witt_decompose_whole budget exceeded: ")
    assert err.endswith(f" table entries, limit {1 << 21}\n"), err


def test_primerchik_past_r10_refuses_the_whole_ring():
    # the rows that walk max_orth_ring(28) fail at once with the budget error,
    # and so does the uniqueness row, whose subring closure is admitted whole
    rows = [row for row in suites.SUITES["primerchik"](SuiteOptions(max_r=14)) if row[1]["r"] == 14]
    start = time.perf_counter()
    results = {row[0]: suites._case(*row) for row in rows}
    assert time.perf_counter() - start < 2
    names = ("motive", "quotient", "squares", "unique")
    assert sorted(results) == [f"primerchik/r14/{name}" for name in names]
    for name in ("motive", "quotient", "unique"):
        case = results[f"primerchik/r14/{name}"]
        assert not case.passed
        assert case.details["error"].startswith("BudgetError: monomial budget exceeded: ")
    assert results["primerchik/r14/squares"].passed
    # the largest closure within the budget still answers
    assert grassmann.uniqueness_in_codim(11) is True


def test_count_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--p", "2", "--diag", "1,1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "usage" in err


@pytest.mark.parametrize(
    "argv",
    [
        "--diag 1,1 --r 1",
        "--p 2 --r 1",
        "--p 2 --diag 1,1 --r 1 --m 1",
        "--p 2 --n 2 --diag 1,1 --r 1",
        """--form '{"p":2,"diag":[1,1]}' --r 1""",
    ],
    ids=["no --p", "no --diag", "--r and --m", "--n", "--form"],
)
def test_count_flag_rules_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["count", *shlex.split(argv)])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "usage: " in out.err


def test_verify_cli_pass_and_json(capsys):
    code, out, err = _run(capsys, ["verify", "motives"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["suite"] == "motives"
    assert "passed" in err
    # round trip: parse then serialize is identity
    assert json.loads(json.dumps(data)) == data


def test_verify_determinism(capsys):
    code1, out1, _ = _run(capsys, ["verify", "primerchik"])
    code2, out2, _ = _run(capsys, ["verify", "primerchik"])
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed")
    d2.pop("elapsed")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_case_ids_stable_and_sorted():
    res1 = run_suite("kvadrika")
    res2 = run_suite("kvadrika")
    ids1 = [c.id for c in res1.cases]
    ids2 = [c.id for c in res2.cases]
    assert ids1 == ids2 == sorted(ids1)


def test_verify_all_passes(capsys):
    code, out, err = _run(capsys, ["verify", "all", "--max-n", "3", "--max-r", "2", "--max-degree", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    informational = [c for c in data["cases"] if c.get("informational")]
    assert any(c["id"].startswith("odd911/") for c in informational)


DATA = Path(__file__).parent / "data"


def _assert_matches_golden(capsys, argv, golden):
    """Every case of a ``verify`` report, details included, against a recorded report."""
    code, out, _ = _run(capsys, argv)
    assert code == 0
    data = json.loads(out)
    data.pop("elapsed")
    assert [c["id"] for c in data["cases"]] == [c["id"] for c in golden["cases"]]
    for got, want in zip(data["cases"], golden["cases"]):
        assert got == want, got["id"]
    assert data == golden


def test_verify_all_matches_golden_report(capsys):
    argv = ["verify", "all", "--max-n", "3", "--max-r", "2", "--max-degree", "5"]
    golden = json.loads((DATA / "verify_all_small.json").read_text())
    _assert_matches_golden(capsys, argv, golden)


# `verify all` at the defaults and at each rung of the stress ladder, keyed by argv
LADDER = json.loads((DATA / "verify_ladder.json").read_text())


@pytest.mark.parametrize("argv", sorted(LADDER))
def test_verify_all_matches_golden_ladder(capsys, argv):
    _assert_matches_golden(capsys, argv.split(), LADDER[argv])


# stdout, stderr and exit code of help, usage errors and one call per command, keyed by argv
TRANSCRIPTS = json.loads((DATA / "cli_transcripts.json").read_text())


@pytest.mark.parametrize("argv", sorted(TRANSCRIPTS), ids=repr)
def test_cli_matches_golden_transcript(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal width
    try:
        code = main(argv.split())
    except SystemExit as exc:  # help and usage errors
        code = exc.code
    out = capsys.readouterr()
    assert {"code": code, "stderr": out.err, "stdout": out.out} == TRANSCRIPTS[argv]


@pytest.mark.parametrize("argv", sorted(a for a, t in TRANSCRIPTS.items() if t["code"] == 2), ids=repr)
def test_transcript_usage_errors_come_from_their_own_parser(capsys, monkeypatch, argv):
    # the usage block is the one that -h prints on argv's command path, so a top-level
    # usage appears only for a call that names no command
    monkeypatch.setenv("COLUMNS", "80")
    path = _command_path(argv.split())
    with pytest.raises(SystemExit):
        main([*path, "-h"])
    usage = capsys.readouterr().out.partition("\n\n")[0] + "\n"
    transcript = TRANSCRIPTS[argv]
    assert transcript["stdout"] == "" and transcript["stderr"].startswith(usage)
    error = transcript["stderr"].removeprefix(usage)
    assert error.startswith(" ".join(["chowlab", *path]) + ": error: ") and error.count("\n") == 1
    assert error.endswith("\n")


# the `chowlab ...` lines of README's "Other CLI commands" block
README_COMMANDS = (
    (Path(__file__).resolve().parents[1] / "README.md")
    .read_text(encoding="utf-8")
    .partition("## Other CLI commands\n\n```sh\n")[2]
    .partition("```")[0]
    .splitlines()
)


def test_readme_lists_cli_examples():
    assert README_COMMANDS and all(line.startswith("chowlab ") for line in README_COMMANDS)


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_cli_example_runs(capsys, line):
    command, arrow, expected = line.partition("# ->")
    code, out, _ = _run(capsys, shlex.split(command)[1:])
    assert code == 0
    if arrow:
        data, expected = json.loads(out), expected.strip()
        if expected.endswith(", ...}"):  # the listed keys must match; the rest is elided
            want = json.loads(expected.removesuffix(", ...}") + "}")
            assert {key: data[key] for key in want} == want
        else:
            assert data == json.loads(expected)


def test_a_command_builds_only_its_own_parser(capsys, monkeypatch):
    parsers_built = []  # the prog of every argparse.ArgumentParser built
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        parsers_built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["verify", "kvadrika"]) == 0
    assert json.loads(capsys.readouterr().out)["suite"] == "kvadrika"
    assert len(parsers_built) <= 2
    parsers_built.clear()
    monkeypatch.setattr(sys, "argv", ["chowlab", "poincare", "essential", "4", "2"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out) == [1, 1, 0, 1, 1]
    assert len(parsers_built) <= 3  # the top level, poincare and its essential kind
    parsers_built.clear()
    with pytest.raises(SystemExit):
        main(["-h"])
    assert len(parsers_built) == 15  # the top level, 6 commands, 4 + 4 kinds


def test_kvadrika_has_no_parity_flag(capsys):
    # both parities always run; the odd rows are informational residuals
    with pytest.raises(SystemExit) as exc:
        main(["verify", "kvadrika", "--parity", "odd"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "usage:" in out.err and "unrecognized arguments: --parity odd" in out.err
    code, out, _ = _run(capsys, ["verify", "kvadrika"])
    cases = json.loads(out)["cases"]
    assert code == 0 and len(cases) == 9
    odd = [c for c in cases if c["id"].startswith("kvadrika/odd/")]
    assert len(odd) == 4 and all(c.get("informational") for c in odd)
    assert not any(c.get("informational") for c in cases if c not in odd)


def test_decompose_cli(capsys):
    code, out, _ = _run(capsys, ["decompose", "4", "2"])
    data = json.loads(out)
    assert code == 0
    assert data["dim"] == 4
    assert data["poincare"] == [1, 1, 0, 1, 1]
    assert {"atom": "Essential(2,1)", "shift": 0, "multiplicity": 1} in data["summands"]


def test_presentation_cli_roundtrip(capsys):
    code, out, _ = _run(capsys, ["presentation", "weil", "2", "8", "--coefficients", "Z"])
    assert code == 0
    from chowlab.algebra import AlgebraPresentation, Element

    ring = AlgebraPresentation.from_json(json.loads(out))
    a2 = ring.monomial({"a": 2})
    assert a2 == ring.gen("c1") * ring.gen("a") - ring.gen("c2")


def test_annihilate_cli(capsys):
    code, out, _ = _run(capsys, ["annihilate", "maxorth", "4"])
    data = json.loads(out)
    assert code == 0
    assert data["quotient_poincare"] == [1, 1, 0, 1, 1]
    code, out, _ = _run(capsys, ["annihilate", "maxorth", "4", "--element", "e2"])
    assert json.loads(out)["quotient_poincare"] == [1, 1, 0, 1, 1]


def test_annihilate_huge_power_is_rejected_as_zero(capsys):
    # e1^(10^12) lies above the top degree, so it is zero without being rewritten
    argv = ["annihilate", "maxorth", "4", "--element", "e1^1000000000000"]
    assert _usage_error(capsys, argv) == "annihilator of zero is everything; rejected"


def test_presentation_prevmax_round_trips(capsys):
    code, out, _ = _run(capsys, ["presentation", "prevmax", "2"])
    assert code == 0
    ring = AlgebraPresentation.from_json(out)
    model = grassmann.prev_max_orth_ring(2)
    assert ring.to_json() == json.loads(out)
    for d in range(model.max_degree + 1):
        assert ring.degree_basis(d) == model.degree_basis(d)


ANNIHILATE_INPUTS = [
    ["maxorth", "4"],
    ["maxorth", "6"],
    ["maxorth", "5", "--element", "e2"],
    ["maxorth", "7", "--element", "e1*e3"],
    ["oddquot", "2"],
    ["oddquot", "3"],
    ["oddquot", "3", "--element", "e3"],
]


@pytest.mark.parametrize("argv", ANNIHILATE_INPUTS, ids=" ".join)
def test_annihilate_quotient_is_rank_of_multiplication(capsys, argv):
    # the CLI reads both lists off the ranks of multiplication by the element;
    # the annihilator's kernel elements must have the dimensions it prints, and
    # the quotient is what they leave of each degree (rank-nullity)
    code, out, _ = _run(capsys, ["annihilate", *argv])
    data = json.loads(out)
    kind, param = argv[0], int(argv[1])
    if kind == "maxorth":
        ring = grassmann.max_orth_ring(param)
    else:
        ring = grassmann.odd_quotient_ring(param)
    elt = ring.element(data["element"])
    ann = grassmann.annihilator(elt, ring)
    degrees = range(ring.max_degree + 1)
    assert code == 0
    assert data["annihilator_dims"] == [len(ann[d]) for d in degrees]
    quotient = PoincarePolynomial([len(ring.degree_basis(d)) - len(ann[d]) for d in degrees])
    assert data["quotient_poincare"] == quotient.to_list()


def test_annihilate_builds_no_kernel_element(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("annihilate built the annihilator's kernel elements")

    monkeypatch.setattr(grassmann, "annihilator", refuse)
    for argv in ANNIHILATE_INPUTS:
        code, out, err = _run(capsys, ["annihilate", *argv])
        assert code == 0 and err == "", (argv, err)
        assert sum(json.loads(out)["annihilator_dims"]) > 0, argv


def test_suite_options_default_ranges():
    opts = SuiteOptions()
    assert opts.max_n == 4 and opts.max_p == 3 and opts.max_degree == 6


def test_verify_failure_exits_1(capsys, monkeypatch):
    from chowlab import suites as suites_mod

    def broken_rows(opts):
        return [
            ("broken/fails", {}, lambda: (False, {"why": "injected"}), False),
            ("broken/raises", {}, lambda: 1 / 0, False),
        ]

    monkeypatch.setitem(suites_mod.SUITES, "motives", broken_rows)
    code = main(["verify", "motives"])
    out = capsys.readouterr()
    assert code == 1
    data = json.loads(out.out)
    assert data["pass"] is False
    by_id = {c["id"]: c for c in data["cases"]}
    assert by_id["broken/fails"]["pass"] is False
    assert "error" in by_id["broken/raises"]["details"]
    assert "FAIL" in out.err


def test_motives_rows_report_their_first_failure(monkeypatch):
    essential = motives.essential_poincare
    wrong = PoincarePolynomial([1, 1])  # one degree too many everywhere
    monkeypatch.setattr(motives, "essential_poincare", lambda n, r: essential(n, r) * wrong)
    monkeypatch.setattr(motives, "j_min", lambda n: ())
    cases = {c.id: c for c in run_suite("motives").cases}
    assert not any(c.passed for c in cases.values())
    assert cases["motives/poincare"].details == {"n": 0, "r": 0, "poincare": [1, 1]}
    assert cases["motives/closed_forms"].details == {"r": 1, "parity": "even"}
    assert cases["motives/jmin"].details == {"n": 2}


def test_i2i_row_reports_the_mismatched_form(monkeypatch):
    witt = suites.witt_index_quadratic
    monkeypatch.setattr(suites, "witt_index_quadratic", lambda Q: witt(Q) + 1)
    (case,) = run_suite("i2i", SuiteOptions(max_n=1, max_p=2)).cases
    assert not case.passed and case.details == {"diag": [1], "i_h": 0, "i_q": 1}


def test_counts_row_reports_the_mismatched_count(monkeypatch):
    count = suites.count_isotropic
    monkeypatch.setattr(suites, "count_isotropic", lambda H, r: count(H, r) + 1)
    (case,) = run_suite("counts", SuiteOptions(max_n=1, max_p=2)).cases
    assert not case.passed
    assert case.details == {"diag": [1], "r": 0, "count": 2, "predicted": 1}


def test_informational_case_records_outcome(monkeypatch):
    from chowlab import suites as suites_mod

    def info_rows(opts):
        return [("info/negative", {}, lambda: (False, {}), True)]

    monkeypatch.setitem(suites_mod.SUITES, "motives", info_rows)
    result = run_suite("motives")
    assert result.passed  # informational outcomes never fail the run
    assert result.cases[0].details["outcome"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "weil", "--max-r", "0"],
        ["verify", "counts", "--max-n", "0"],
        ["verify", "i2i", "--max-p", "1"],
        ["verify", "lemmaS", "--max-degree", "-1"],
        ["verify", "i2i", "--max-p", "5"],
    ],
)
def test_verify_out_of_range_options_exit_2(capsys, argv):
    assert argv[2].lstrip("-").replace("-", "_") in _usage_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--p", "2", "--diag", "1,x", "--r", "1"],
        ["count", "--p", "2", "--diag", "1,,1", "--r", "1"],
        ["count", "--p", "2", "--diag", ",", "--r", "1"],
        ["count", "--p", "2", "--diag", "1,", "--r", "1"],
        ["count", "--p", "2", "--diag", "", "--r", "1"],
        ["count", "--p", "2", "--diag", "1, ,1", "--r", "1"],
        ["count", "--p", "2", "--diag", "1.5,1", "--r", "1"],
        ["count", "--p", "2", "--diag", "true,1", "--r", "1"],
        ["count", "--p", "2", "--diag", "[1,1]", "--r", "1"],
        ["count", "--p", "2", "--diag", "0,1", "--r", "1"],
        ["annihilate", "maxorth", "4", "--element", "e2^x"],
        ["annihilate", "maxorth", "4", "--element", "e2^"],
        ["annihilate", "maxorth", "4", "--element", "e9"],
        ["presentation", "weil", "2", "-1"],
        ["presentation", "weil", "2", "3"],
        ["presentation", "weil", "0", "4"],
        ["annihilate", "maxorth", "5"],
        ["annihilate", "maxorth", "1"],
        ["annihilate", "oddquot", "0"],
        ["presentation", "prevmax", "0"],
    ],
)
def test_malformed_cli_input_exits_2(capsys, argv):
    _usage_error(capsys, argv)


def test_primerchik_computes_each_quotient_once(monkeypatch):
    calls = []
    isochow_quotient = grassmann.isochow_quotient

    def counted(r):
        calls.append(r)
        return isochow_quotient(r)

    monkeypatch.setattr(grassmann, "isochow_quotient", counted)
    result = run_suite("primerchik", SuiteOptions(max_r=3))
    assert result.passed and len(result.cases) == 12
    assert sorted(calls) == [1, 2, 3]


# Basis monomials indexed by codim2 at max_r=6, max_degree=8: 3144 today, all of
# them in the class presentations.  The ring's own degree-8 basis alone has 125970.
CODIM2_R6_D8_MONOMIALS = 3500


def test_codim2_reaches_r6_d8_within_a_work_bound(indexed_bases):
    result = run_suite("codim2", SuiteOptions(max_r=6, max_degree=8))
    assert [c.id for c in result.cases if c.passed] == [
        f"codim2/{c}/k{k}/r{r}" for c in ("F2", "Z") for k in (0, 1) for r in range(1, 7)
    ]
    assert indexed_bases.monomials <= CODIM2_R6_D8_MONOMIALS


# Ring products made by lemmaS, codim2 and weil at max_degree=8: 929 today, when
# each check builds every degree's products in one walk, each Weil degree's
# images once and each power of c once.  Rebuilding all lower degrees for each
# degree made 2345; building every c^k by c ** k made 1029.
RINGS_D8_PRODUCTS = 1010


def test_invariant_suites_multiply_within_a_work_bound(ring_products):
    for suite in ("lemmaS", "codim2", "weil"):
        assert run_suite(suite, SuiteOptions(max_degree=8)).passed, suite
    assert ring_products[0] <= RINGS_D8_PRODUCTS, ring_products[0]


# Basis monomials indexed by weil at max_r=10: 980 today, with codim2's headroom.
# Walking each presentation to its top degree indexes 1158284.
WEIL_R10_MONOMIALS = 1090

# Ring products made by weil at max_r=10: 1535 today, when each c^k is built
# once per freeness check or relation, one product each, and the mutated
# relation once.  Building every c^k by c ** k, per degree and per relation,
# made 2951.
WEIL_R10_PRODUCTS = 1690


def test_weil_reaches_r10_within_a_work_bound(indexed_bases, ring_products):
    result = run_suite("weil", SuiteOptions(max_r=10))
    assert len(result.cases) == 40 and all(c.passed for c in result.cases)
    assert indexed_bases.monomials <= WEIL_R10_MONOMIALS
    assert ring_products[0] <= WEIL_R10_PRODUCTS, ring_products[0]
