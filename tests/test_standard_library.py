"""gwsym runs on the standard library alone, and on a small part of it.

The engine, both oracles and the CLI import nothing outside the standard
library, the tests nothing beyond pytest and hypothesis, and the package
declares no runtime dependency.  Every run is a fresh process, so what it
imports is part of its cost: no run loads ``dataclasses`` or the modules
it brings in (``inspect``, ``ast``, ``dis``, ``tokenize``).
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DENSE = ROOT / "bench" / "dense.scn"

RUNS = (["--format", "machine", "verify", "all"],
        ["--scenario", str(DENSE), "--format", "machine", "oracle"])

#: standard modules that cost a run memory and time and that it does not need
UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")

#: prints the top-level names outside the standard library of the modules
#: that gwsym and the runs load, after those the interpreter started with,
#: and then the ``UNWANTED`` modules loaded
RUN = """
import contextlib, io, sys
started = set(sys.modules)
from gwsym import cli
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        print(cli.run(argv), file=sys.stderr)
print(sorted({{name.partition(".")[0] for name in set(sys.modules) - started}}
             - set(sys.stdlib_module_names)))
print(sorted(set({unwanted!r}) & set(sys.modules)))
"""


def test_reports_load_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-c", RUN.format(runs=RUNS, unwanted=UNWANTED)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True, capture_output=True, text=True)
    # verify all fails the published constants that the engine refutes
    assert proc.stderr.split() == ["1", "0"]
    assert proc.stdout.splitlines() == ["['gwsym']", "[]"]


def _imported(path):
    """Top-level names of the absolute imports of one source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize(("folder", "allowed"), [
    ("src", {"gwsym"}),
    ("tests", {"gwsym", "pytest", "hypothesis"}),
    ("tools", set()),
])
def test_sources_import_only_the_standard_library(folder, allowed):
    paths = sorted((ROOT / folder).rglob("*.py"))
    # a test module may import another
    allowed = allowed | sys.stdlib_module_names | {p.stem for p in paths}
    outside = {(path.name, name) for path in paths
               for name in _imported(path) if name not in allowed}
    assert not outside


def test_sources_do_not_import_dataclasses():
    assert not [path.name for path in sorted((ROOT / "src").rglob("*.py"))
                if "dataclasses" in _imported(path)]


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not project.get("dependencies")
