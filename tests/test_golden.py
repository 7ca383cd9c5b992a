"""Golden outputs: every stored command prints and returns what it did
when ``tests/golden/rewrite.py`` wrote it."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _rewrite_module():
    spec = importlib.util.spec_from_file_location("golden_rewrite",
                                                  GOLDEN / "rewrite.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_prints_its_golden_output():
    record = _rewrite_module().record
    stored = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))
    assert len(stored) > 100
    for want in stored:
        assert record(want["argv"]) == want
