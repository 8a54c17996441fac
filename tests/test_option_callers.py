"""Every option has a caller: each parameter default of a package routine
(a top-level function or a method, ``__init__`` included) meets two rules.

- A: some call in the package or the benchmark omits the parameter, so the
  default is a calling mode the program uses, not one only tests use;
- B: some call in the package, the benchmark or the tests passes it, so the
  parameter is not a constant.

Calls are matched to routines by name: a class name stands for its
``__init__``, and a method's ``self`` is not counted.  A call that unpacks
``*`` or ``**`` shows neither rule."""
import ast
from collections import defaultdict

from test_dead_helpers import BENCH, PACKAGE, ROOT

TESTS = sorted((ROOT / "tests").glob("*.py"))


def _defaults(path):
    """(routine, call name, positional index or None, parameter) for every
    parameter default of a top-level function or method in ``path``."""
    routines = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            routines.append((node.name, node.name, node, False))
        elif isinstance(node, ast.ClassDef):
            routines += [
                (f"{node.name}.{f.name}",
                 node.name if f.name == "__init__" else f.name, f,
                 not any(getattr(d, "id", None) == "staticmethod"
                         for d in f.decorator_list))
                for f in node.body if isinstance(f, ast.FunctionDef)]
    found = []
    for routine, name, f, bound in routines:
        a = f.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):]
        if bound:  # the receiver is no argument of a call
            positional = positional[1:]
        found += [(routine, name, positional.index(p), p.arg)
                  for p in defaulted]
        found += [(routine, name, None, p.arg)
                  for p, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]
    return found


def _calls(paths):
    """Call name -> [(positional count, keyword names)] over ``paths``,
    without the calls that unpack ``*`` or ``**``."""
    calls = defaultdict(list)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or any(
                    isinstance(x, ast.Starred) for x in node.args) or any(
                    k.arg is None for k in node.keywords):
                continue
            name = (node.func.id if isinstance(node.func, ast.Name)
                    else getattr(node.func, "attr", None))
            calls[name].append((len(node.args),
                                {k.arg for k in node.keywords}))
    return calls


def idle_defaults(package=PACKAGE, bench=BENCH, tests=TESTS):
    """(file name, routine, parameter, broken rule) for every parameter
    default of a routine in ``package`` that no call in ``package`` or
    ``bench`` omits (rule A) or no call in any of the three passes (B)."""
    program = _calls(package + bench)
    everyone = _calls(package + bench + tests)
    found = []
    for path in package:
        for routine, name, index, param in _defaults(path):
            def passes(call):
                count, keywords = call
                return param in keywords or (index is not None
                                             and index < count)
            if all(map(passes, program[name])):
                found.append((path.name, routine, param, "A"))
            if not any(map(passes, everyone[name])):
                found.append((path.name, routine, param, "B"))
    return found


def test_every_default_is_omitted_and_passed():
    assert idle_defaults() == []


def test_guard_sees_idle_defaults(tmp_path):
    # ``tag`` is passed by every call, ``step`` only by a call that unpacks;
    # ``kind`` is passed after ``self`` and ``scale`` by a static method's
    # second positional argument
    path = tmp_path / "probe.py"
    path.write_text("def wrap(x, tag=None):\n"
                    "    return x\n"
                    "class Box:\n"
                    "    def __init__(self, size, kind='k'):\n"
                    "        self.size = size\n"
                    "    def grow(self, step=1):\n"
                    "        return Box(self.size + step)\n"
                    "    @staticmethod\n"
                    "    def of(n, *, scale=2):\n"
                    "        return Box(n * scale, 'a')\n"
                    "    @staticmethod\n"
                    "    def pair(n, m=0):\n"
                    "        return Box.pair(n), Box.pair(n, 1)\n"
                    "wrap(Box.of(1).grow(), tag=1)\n"
                    "wrap(Box.of(1, scale=3).grow(*()), 'b')\n")
    assert idle_defaults([path], [], []) == [
        ("probe.py", "wrap", "tag", "A"),
        ("probe.py", "Box.grow", "step", "B")]
