"""Shared pytest configuration.

Tests marked with ``criterion(num, description)`` make up the acceptance
gate; after the run a one-line PASS/FAIL verdict is printed for each
criterion number so the gate can be read off the terminal.
"""

from collections import defaultdict

import pytest

from mton import tree

_results: dict[int, dict] = {}


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("criterion")
        if marker is not None:
            num, description = marker.args
            _results.setdefault(num, {"description": description,
                                      "outcomes": []})


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is not None:
        num, _ = marker.args
        _results[num]["outcomes"].append(report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num in sorted(_results):
        entry = _results[num]
        outcomes = entry["outcomes"]
        if not outcomes:
            verdict = "FAIL (not run)"
        elif all(o == "passed" for o in outcomes):
            verdict = "PASS"
        else:
            verdict = "FAIL"
        tw.write_line(f"criterion {num:2d}: {verdict} - {entry['description']}")


def _walk_rank(record, rank: int, n: int) -> tuple[int, int]:
    # the level-n state of the rank-r node, reached from the root by its
    # digit word down the record's child-state batches, and the index of
    # the last batch entry taken (-1 at the root)
    state, entry = 0, -1
    digits = tree._digits_from_rank(rank, n, record.kind)
    for depth, digit in enumerate(digits, start=1):
        entry = state * tree._radix(depth, record.kind) + digit
        state = record.levels[depth].kids[entry]
    return state, entry


@pytest.fixture
def walk_rank():
    """Walks a rank's digit word down a scan record's state graph."""
    return _walk_rank
