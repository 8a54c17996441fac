"""No dead helpers: every top-level routine of the package, public or
private, is named somewhere in the package or the benchmark outside its own
definition.  A routine is a ``def``, a ``class`` or a module-level
``functools`` cache wrapper."""
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


def _routine_name(node):
    """The name a top-level statement binds to a routine, or None: a
    ``def``, a ``class``, or an assignment of a ``functools`` ``cache`` or
    ``lru_cache`` wrapper, such as ``f = functools.cache(g)`` or
    ``f = functools.lru_cache(maxsize=1)(g)``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)):
        return None
    wrapper = node.value
    while isinstance(wrapper, ast.Call):
        wrapper = wrapper.func
    name = (wrapper.attr if isinstance(wrapper, ast.Attribute)
            else getattr(wrapper, "id", None))
    return node.targets[0].id if name in ("cache", "lru_cache") else None


def unused_names(private=False):
    """Public (or, with ``private``, underscore) top-level routines of the
    package that nothing in the package or the benchmark names outside
    their own definition, so a routine that only calls itself is unused."""
    nodes = [(path, node) for path in PACKAGE + BENCH
             for node in ast.parse(path.read_text()).body]
    refs = [_references(node) for _, node in nodes]
    uses = Counter(name for names in refs for name in names)
    routines = [(path, _routine_name(node), names)
                for (path, node), names in zip(nodes, refs)]
    return sorted(name for path, name, names in routines
                  if path in PACKAGE and name is not None
                  and name.startswith("_") == private
                  and uses[name] == (name in names))


def test_every_public_routine_is_used():
    assert [n for n in unused_names() if n not in ALLOWED] == []


def test_every_private_routine_is_used():
    assert unused_names(private=True) == []
