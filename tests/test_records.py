"""The package's record types keep their value semantics, and every
annotation on the public surface still resolves."""

import json
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mton
from mton import laplace, stats
from mton.closed_forms import AsymptoticReport
from mton.cumulants import StirlingTable
from mton.harness import Check, CheckReport, CheckSpec
from mton.partitions import NcPartition
from mton.polynomials import ExactPolynomial
from mton.stats import SecondKindInput, Statistic
from mton.tree import (FULL, KINDS, PAIR, OrderedNcPartition, TreeCode, encode,
                       level_count, unrank)


def _kernel(n):
    return None


_SPEC = CheckSpec("toy")

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
    "CheckSpec": (lambda: CheckSpec("toy"), "CheckSpec(id='toy')", "id", True),
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
    assert CheckSpec._fields == ("id",)


def test_tree_codes_and_partitions_survive_a_json_round_trip():
    code = TreeCode(FULL, (1, 0, 3))
    assert TreeCode.from_json(code.to_json()) == code
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


# arbitrary JSON values, and the JSON of genuine values of each reader
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12)
_NODES = st.sampled_from(KINDS).flatmap(lambda kind: st.integers(1, 4).flatmap(
    lambda n: st.integers(0, level_count(n, kind) - 1).map(
        lambda rank: unrank(rank, n, kind))))
_GENUINE = {
    ExactPolynomial: st.dictionaries(st.integers(0, 6), st.fractions(),
                                     max_size=4).map(ExactPolynomial),
    NcPartition: _NODES.map(OrderedNcPartition.partition),
    OrderedNcPartition: _NODES,
    TreeCode: st.builds(lambda kind, digits: TreeCode(kind, tuple(digits)),
                        st.sampled_from(KINDS), st.lists(st.integers(0, 6))),
}


@st.composite
def _records(draw, genuine):
    # a genuine value's JSON with one field dropped or replaced, or one
    # item inside it (a coefficient, a digit, a block, a point) replaced
    blob = draw(genuine).to_json()
    field = draw(st.sampled_from(sorted(blob)))
    change = draw(st.sampled_from(["none", "drop", "field", "item"]))
    if change == "drop":
        del blob[field]
    elif change == "field":
        blob[field] = draw(_JSON)
    elif change == "item" and blob[field]:
        items = blob[field]
        if isinstance(items, list) and draw(st.booleans()):
            items = draw(st.sampled_from(items))  # a digit, or a block
        if isinstance(items, dict):
            items[draw(st.sampled_from(sorted(items)))] = draw(_JSON)
        elif isinstance(items, list):
            index = draw(st.integers(0, len(items) - 1))
            items[index] = draw(st.integers(-1, 5) | _JSON)
    return blob


@pytest.mark.parametrize("reader", list(_GENUINE),
                         ids=[reader.__name__ for reader in _GENUINE])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_json_reader_reads_back_or_raises_a_value_error(reader, data):
    # one error contract: a reader either returns a value whose JSON form
    # reads back to an equal value, or raises a ValueError
    record = data.draw(_JSON | _records(_GENUINE[reader]))
    try:
        value = reader.from_json(record)
    except ValueError:
        return
    blob = json.loads(json.dumps(value.to_json()))
    assert reader.from_json(blob) == value


# any node of full levels 1..20 and pair levels 1..14, with its tree
_DEEP_NODES = st.sampled_from(((FULL, 20), (PAIR, 14))).flatmap(
    lambda top: st.integers(1, top[1]).flatmap(
        lambda n: st.integers(0, level_count(n, top[0]) - 1).map(
            lambda rank: (top[0], unrank(rank, n, top[0])))))


def _read_back(value):
    # the value read from its JSON text, and that value's JSON
    blob = value.to_json()
    back = type(value).from_json(json.loads(json.dumps(blob)))
    return back, back.to_json(), blob


@given(_DEEP_NODES)
@settings(max_examples=100, deadline=None)
def test_every_level_reads_back_from_its_json(node):
    kind, op = node
    for value in (op, op.partition(), encode(op, kind)):
        back, again, blob = _read_back(value)
        assert back == value and again == blob, value


def test_transforms_read_back_from_their_json_with_int_coefficients():
    for poly in (laplace.bruteforce_transform(stats.BLOCKS, 6),
                 laplace.recursion_transform(stats.OUTER, 40)):
        back, again, blob = _read_back(poly)
        assert back == poly and again == blob
        assert all(type(c) is int for _, c in back.items())


def test_record_properties_and_methods():
    table = StirlingTable(((1,), (1, 2)))
    assert (len(table.rows), table.row(2), table.value(2, 2)) == (2, (1, 2), 2)
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
