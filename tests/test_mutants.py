"""The seeded mutants of ``tools/mutants.py`` still apply to the source.

Every snippet occurs exactly once in its file, so a refactor that moves
mutated code must update its mutant.  No mutant runs here: each takes
20-60 s, through ``python tools/mutants.py``.
"""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_snippet_occurs_once():
    tool = _tool()
    assert tool.snippet_faults() == []
    for m in tool.MUTANTS:
        assert m.replacement != m.snippet, m.name
        assert all((ROOT / path).is_file() for path in m.tests), m.name
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS)
