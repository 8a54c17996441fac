"""Module boundaries: no module of the package imports an underscore name
of another package module, so a private routine stays private to the
module that defines it and can change with it alone."""
import ast
from pathlib import Path

PACKAGE = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "gwsym").glob("*.py"))


def private_imports(paths=PACKAGE):
    """(file name, line, imported name) for every underscore name that a
    module imports from another module of the package, at module level or
    inside a routine."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            # relative imports, or absolute ones of the package
            if node.level == 0 and (node.module or "").split(".")[0] \
                    != "gwsym":
                continue
            found += [(path.name, node.lineno, alias.name)
                      for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_private_cross_module_imports():
    assert private_imports() == []


def test_guard_sees_private_imports(tmp_path):
    # the guard reads relative and absolute package imports, also inside a
    # routine, and leaves the standard library alone
    path = tmp_path / "probe.py"
    path.write_text("from __future__ import annotations\n"
                    "from collections import _chain\n"
                    "from .oracle import FLOAT_CONTEXT, _walk\n"
                    "def f():\n"
                    "    from gwsym.exact import _Parser\n")
    assert private_imports([path]) == [("probe.py", 3, "_walk"),
                                       ("probe.py", 5, "_Parser")]
