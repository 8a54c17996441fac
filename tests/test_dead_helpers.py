"""No dead helpers: every top-level routine of the package, public or
private, is named somewhere in the package or the benchmark outside its own
definition."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gwsym").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

#: the acceptance criteria read this; nothing in the package does
ALLOWED = {"chain_sandwich"}


def _references(tree):
    """Every name a syntax tree uses: identifiers, attributes, imported names
    and string constants (which name routines that are looked up by name)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unused_names(private=False):
    """Public (or, with ``private``, underscore) top-level routines of the
    package that nothing in the package or the benchmark names outside
    their own definition, so a routine that only calls itself is unused."""
    nodes = [(path, node) for path in PACKAGE + BENCH
             for node in ast.parse(path.read_text()).body]
    refs = [_references(node) for _, node in nodes]
    uses = Counter(name for names in refs for name in names)
    return sorted(node.name for (path, node), names in zip(nodes, refs)
                  if path in PACKAGE
                  and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") == private
                  and uses[node.name] == (node.name in names))


def test_every_public_routine_is_used():
    assert [n for n in unused_names() if n not in ALLOWED] == []


def test_every_private_routine_is_used():
    assert unused_names(private=True) == []
