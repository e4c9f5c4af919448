"""Immutable records: validation at construction, immutability and value semantics."""

import itertools

import pytest

from chowlab.algebra import GeneratorSpec
from chowlab.cli import main
from chowlab.errors import PresentationError, UsageError
from chowlab.finitefields import (
    HermitianSpace,
    PrimeField,
    QuadExtField,
    _conj_norm,
    _tables,
    count_isotropic,
    hermitian_space,
)
from chowlab.invariants import DegreeCheck
from chowlab.motives import SPEC_K, TATE, Atom, Motive, essential
from chowlab.suites import CaseResult, SuiteOptions


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PrimeField(4), UsageError, "4 is not prime"),
        (lambda: PrimeField(3.0), UsageError, "p must be an integer, got 3.0"),
        (
            lambda: HermitianSpace(QuadExtField(PrimeField(3)), (1, 0, 2)),
            UsageError,
            "diagonal entries must be nonzero in the base field",
        ),
        (lambda: hermitian_space(5, [1, 10]), UsageError, "nonzero in the base field"),
        (lambda: Atom("Foo"), UsageError, "unknown atom kind 'Foo'"),
        (lambda: Atom("Tate", 2, 1), UsageError, "Tate atom takes no parameters"),
        (lambda: Atom("Essential", 4, 3), UsageError, "Essential atom out of range: n=4, r=3"),
        (lambda: GeneratorSpec("g", 0), PresentationError, "'g' must have positive degree"),
        (
            lambda: GeneratorSpec("g", 1, power_bound=0),
            PresentationError,
            "'g' power bound must be >= 1",
        ),
        (
            lambda: GeneratorSpec("g", 1, replacement=((1, {"h": 1}),)),
            PresentationError,
            "'g' is unbounded but has a replacement",
        ),
        (lambda: SuiteOptions(max_r=0), UsageError, "max_r=0 is out of range; need max_r >= 1"),
        (lambda: SuiteOptions(max_p=5), UsageError, "need 2 <= max_p <= 3"),
    ],
)
def test_validated_records_raise_at_construction(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_out_of_range_suite_option_still_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "weil", "--max-r", "0"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: chowlab verify ")
    assert err.endswith("\nchowlab verify: error: max_r=0 is out of range; need max_r >= 1\n")


def test_validated_records_normalise_their_fields():
    H = hermitian_space(3, [4, 5])
    assert H.diag == (1, 2) and H.n == 2
    spec = GeneratorSpec("g", 1, power_bound=2, replacement=[(1, {"h": 1, "k": 0})])
    assert spec.replacement == ((1, (("h", 1),)),)
    assert SuiteOptions() == SuiteOptions(4, 3, 6, 3)
    assert repr(essential(4, 2)) == "Essential(4,2)" and repr(TATE) == "Tate"
    assert tuple(essential(4, 2)) == ("Essential", 4, 2)


@pytest.mark.parametrize(
    "record, name",
    [
        (PrimeField(3), "p"),
        (hermitian_space(3, [1, 1]), "diag"),
        (GeneratorSpec("g", 1), "degree"),
        (TATE, "kind"),
        (Motive({(TATE, 0): 1}), "summands"),
        (SuiteOptions(), "max_r"),
        (DegreeCheck(0, True, None), "passed"),
        (CaseResult("x", {}, True, {}, False), "passed"),
    ],
)
def test_record_fields_cannot_be_assigned(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record", [PrimeField(3), SuiteOptions(), DegreeCheck(0, True, None)])
def test_records_take_no_new_attributes(record):
    with pytest.raises(AttributeError):
        record.extra = 1


def test_motive_sorts_its_summands():
    m = Motive({(essential(4, 1), 3): 1, (TATE, 2): 2, (SPEC_K, 0): 1, (TATE, 0): 3})
    assert m.summands == (
        ((SPEC_K, 0), 1), ((TATE, 0), 3), ((TATE, 2), 2), ((essential(4, 1), 3), 1)
    )
    assert m == Motive(dict(reversed(m.summands))) and hash(m) == hash(Motive(dict(m.summands)))
    assert repr(m) == "SpecK + 3*Tate + 2*Tate(2) + Essential(4,1)(3)"


@pytest.mark.parametrize(
    "summands",
    [
        ((TATE, 0), (TATE, 3)),  # (atom, shift) pairs, not a multiplicity map
        [((TATE, 0), 1)],  # mapping items, not the mapping
        {TATE: 1},  # an atom without its shift
        {(TATE, "0"): 1},
        {(TATE, 0): 0},
        {(TATE, 0): True},
    ],
)
def test_motive_refuses_anything_but_a_multiplicity_map(summands):
    with pytest.raises(TypeError, match="a Motive takes a dict"):
        Motive(summands)


def test_motives_do_not_concatenate():
    m = Motive({(TATE, 0): 1})
    with pytest.raises(TypeError, match="not concatenated"):
        m + m


def test_records_with_equal_values_are_equal():
    assert PrimeField(3) == PrimeField(3) and hash(PrimeField(3)) == hash(PrimeField(3))
    assert hermitian_space(3, [1, 4]) == hermitian_space(3, [1, 1])
    spec = GeneratorSpec("g", 1, 2, ((1, {"h": 1}),))
    same = GeneratorSpec("g", 1, 2, ((1, [("h", 1)]),))
    assert spec == same and hash(spec) == hash(same)
    assert Atom("Essential", 4, 2) == essential(4, 2) != essential(4, 1)
    assert SuiteOptions(max_r=4) == SuiteOptions(4, 3, 6, 4) != SuiteOptions()
    assert len({SuiteOptions(), SuiteOptions(max_n=4), SuiteOptions(max_n=5)}) == 2


def test_field_tables_cached_once_per_field():
    # each hermitian_space call builds a fresh QuadExtField over a fresh PrimeField
    _tables.cache_clear()
    _conj_norm.cache_clear()
    for diag in itertools.product((1, 2), repeat=4):
        count_isotropic(hermitian_space(3, diag), 1)
    for table in (_tables, _conj_norm):
        info = table.cache_info()
        assert info.misses == 1 and info.currsize == 1
