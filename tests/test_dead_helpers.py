"""No dead helpers: every top-level routine of the package, public or
private, is named somewhere in the package or the benchmark besides its own
definition."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gwsym").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

#: the acceptance criteria read these; nothing in the package does
ALLOWED = {"sandwich", "double_sandwich", "predict_entry_order"}


def _definitions(tree, private):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private]


def _references(tree):
    """Every name a module uses: identifiers, attributes, imported names and
    string constants (which name routines that are looked up by name)."""
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
    package that nothing in the package or the benchmark names."""
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE + BENCH}
    used = set().union(*(_references(t) for t in trees.values()))
    return sorted(name for path in PACKAGE
                  for name in _definitions(trees[path], private)
                  if name not in used)


def test_every_public_routine_is_used():
    assert [n for n in unused_names() if n not in ALLOWED] == []


def test_every_private_routine_is_used():
    assert unused_names(private=True) == []
