"""No dead helpers: every top-level name of the package, public or
private, is named somewhere in the package or the benchmark outside its own
definition.  A top-level name is bound by a ``def``, a ``class`` or a
module-level assignment: a constant, a table or a ``functools`` cache
wrapper."""
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


def _bound_names(node):
    """The names a top-level statement binds: a ``def``'s or a ``class``'s,
    or every name an assignment stores to, such as ``LIMIT = 10`` or
    ``f = functools.lru_cache(maxsize=1)(g)``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def unused_names(private=False):
    """Public (or, with ``private``, underscore) top-level names of the
    package that nothing in the package or the benchmark names outside
    their own definition, so a routine that only calls itself is unused."""
    nodes = [(path, node) for path in PACKAGE + BENCH
             for node in ast.parse(path.read_text()).body]
    refs = [_references(node) for _, node in nodes]
    uses = Counter(name for names in refs for name in names)
    return sorted(name for (path, node), names in zip(nodes, refs)
                  if path in PACKAGE for name in _bound_names(node)
                  if name.startswith("_") == private
                  and uses[name] == (name in names))


def test_every_public_routine_is_used():
    assert [n for n in unused_names() if n not in ALLOWED] == []


def test_every_private_routine_is_used():
    assert unused_names(private=True) == []
