"""The package's record types keep their value semantics, and every
annotation on the public surface still resolves."""

import types
import typing

import pytest

import mton
from mton import stats
from mton.closed_forms import AsymptoticReport
from mton.cumulants import StirlingTable
from mton.harness import Check, CheckReport, CheckSpec
from mton.partitions import NcPartition
from mton.polynomials import ExactPolynomial
from mton.stats import SecondKindInput, Statistic
from mton.tree import FULL, OrderedNcPartition, TreeCode


def _kernel(n):
    return None


_SPEC = CheckSpec("toy", "a toy check")

# (make a value, its repr, a field to assign, whether the record is frozen)
RECORDS = {
    "NcPartition": (lambda: NcPartition(3, ((1, 3), (2,))),
                    "NcPartition(n=3, blocks=((1, 3), (2,)))", "n", True),
    "Statistic": (lambda: Statistic("blocks_of_size", 2),
                  "Statistic(family='blocks_of_size', size=2)", "size", True),
    "SecondKindInput": (lambda: SecondKindInput(1, 0, 1),
                        "SecondKindInput(alpha=1, beta=0, q=1)", "q", True),
    "TreeCode": (lambda: TreeCode(FULL, (0, 2)),
                 "TreeCode(kind='full', digits=(0, 2))", "digits", True),
    "AsymptoticReport": (
        lambda: AsymptoticReport("EY", 100, 1.5, 2.0, -0.5, 0.75),
        "AsymptoticReport(formula='EY', n=100, exact=1.5, asymptotic=2.0, "
        "difference=-0.5, ratio=0.75)", "ratio", True),
    "StirlingTable": (lambda: StirlingTable(((1,), (1, 2))),
                      "StirlingTable(rows=((1,), (1, 2)))", "rows", True),
    "CheckSpec": (lambda: CheckSpec("toy", "a toy check"),
                  "CheckSpec(id='toy', description='a toy check')", "id", True),
    "CheckReport": (lambda: CheckReport("toy", "fail", {"n": 2}, 0.5),
                    "CheckReport(id='toy', status='fail', witness={'n': 2}, "
                    "elapsed=0.5)", "status", False),
    "Check": (lambda: Check(_SPEC, (1, 2), _kernel),
              f"Check(spec={_SPEC!r}, sizes=(1, 2), kernel={_kernel!r})",
              "sizes", False),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_records_compare_equal_and_print_as_before(name):
    make, text, _, _ = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert repr(a) == text


@pytest.mark.parametrize("name", sorted(n for n in RECORDS if RECORDS[n][3]))
def test_frozen_records_hash_by_value_and_refuse_assignment(name):
    make, _, field, _ = RECORDS[name]
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))


def test_unequal_records_differ():
    assert stats.BLOCKS != stats.OUTER
    assert stats.blocks_of_size(1) != stats.blocks_of_size(2)
    assert TreeCode(FULL, (0,)) != TreeCode("pair", (0,))
    assert CheckReport("x", "pass") != CheckReport("x", "fail")


def test_statistic_reprs_and_defaults():
    assert repr(stats.BLOCKS) == "Statistic(family='blocks', size=0)"
    assert Statistic("outer") == stats.OUTER
    assert Statistic.parse("Y2") == Statistic("blocks_of_size", 2)
    assert {stats.BLOCKS: 1}[Statistic("blocks")] == 1


def test_check_report_keeps_its_defaults():
    report = CheckReport("x", "pass")
    assert (report.id, report.status) == ("x", "pass")
    assert report.witness is None and report.elapsed == 0.0
    assert report.to_json() == {"id": "x", "status": "pass",
                                "witness": None, "elapsed": 0.0}
    assert Check._fields == ("spec", "sizes", "kernel")


def test_tree_codes_and_partitions_survive_a_json_round_trip():
    code = TreeCode(FULL, (1, 0, 3))
    assert TreeCode.from_json(code.to_json()) == code
    assert code.level == 4
    part = NcPartition(4, ((1, 4), (2, 3)))
    assert NcPartition.from_json(part.to_json()) == part
    assert part.size == 2 and part.is_pair_partition()
    assert str(part) == "{{1,4}, {2,3}}"


@pytest.mark.parametrize("reader, data, field", [
    (ExactPolynomial, {"coeffs": {"1": 1}}, "coeffs"),
    (ExactPolynomial, {"coeffs": {"1": True}}, "coeffs"),
    (ExactPolynomial, {"coeffs": []}, "coeffs"),
    (ExactPolynomial, {}, "coeffs"),
    (OrderedNcPartition, {"n": 2}, "blocks_by_label"),
    (NcPartition, {"n": 2}, "blocks"),
    (TreeCode, {"kind": "full"}, "digits"),
    (NcPartition, {"n": 1, "blocks": [1]}, "blocks"),
    (TreeCode, {"kind": "full", "digits": 5}, "digits"),
], ids=["int-coefficient", "bool-coefficient", "coeffs-list", "no-coeffs",
        "no-blocks-by-label", "no-blocks", "no-digits", "block-not-a-list",
        "digits-not-a-list"])
def test_a_bad_record_is_a_value_error_that_names_its_field(reader, data,
                                                            field):
    # a coefficient is read from a string only, as to_json writes it: a
    # JSON number, even an integer, is refused
    with pytest.raises(ValueError, match=field):
        reader.from_json(data)


def test_record_properties_and_methods():
    table = StirlingTable(((1,), (1, 2)))
    assert (table.n_max, table.row(2), table.value(2, 2)) == (2, (1, 2), 2)
    assert stats.blocks_of_size(3).name == "Y3"
    assert Check(_SPEC, (1, 2), _kernel).run().status == "pass"


def _public_objects():
    # every function and class the package exports, and the functions,
    # class methods, static methods and properties of those classes
    seen = []
    for name, obj in sorted(vars(mton).items()):
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        if isinstance(obj, type):
            seen.append((name, obj))
            for attr, member in sorted(vars(obj).items()):
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if isinstance(member, types.FunctionType):
                    seen.append((f"{name}.{attr}", member))
        elif callable(obj):
            seen.append((name, obj))
    return seen


def test_every_public_annotation_resolves():
    objects = _public_objects()
    assert len(objects) > 120
    failed = []
    for name, obj in objects:
        try:
            typing.get_type_hints(obj)
        except Exception as exc:
            failed.append(f"{name}: {type(exc).__name__}: {exc}")
    assert failed == []
