"""The engine names the benchmark harness in ``bench/`` relies on.

``bench/`` changes only together with the benchmark, so these tests keep
the engine side of that contract: the self-check runs, and the tracer still
finds the functions, methods and counters it patches.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

TRACED_RUN = """
import contextlib, io, json
import gwsym.cli
from tracing import Tracer
tracer = Tracer(7)
tracer.install()
from gwsym.forms import SlotValue
from gwsym.interaction import Evaluator, enumerate_H
from gwsym.nullcone import standard_config
from gwsym.oracle import interaction_total_jet
from gwsym.tensor import Sym2T
with contextlib.redirect_stdout(io.StringIO()):
    code = gwsym.cli.run(["verify", "cancellation"])
config = standard_config()
interaction_total_jet(config, 2, True)
interaction_total_jet(config, 2, exact=False)
rows = [[0] * 4 for _ in range(4)]
rows[1][1], rows[2][2], rows[1][2], rows[2][1] = 1, -1, 2, 2
overrides = {i: SlotValue(Sym2T(rows), config.zeta(i)) for i in range(1, 5)}
ev = Evaluator(config, leaf_symbols=overrides)
ev.eval(enumerate_H(5)[0].ast)
full = [v for v in ev.cache.values() if len(v.leaves) == 4]
shape = [len(row) for row in full[0].matrix]
tracer.uninstall()
metrics = {k: v[0] for k, v in tracer.metrics().items()}
print(json.dumps({"code": code, "full": len(full), "shape": shape,
                  "metrics": metrics}))
"""


def _python(*args):
    path = os.pathsep.join([str(ROOT / "src"), str(BENCH),
                            os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=ROOT, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


def test_selfcheck_passes():
    out = _python(str(BENCH / "selfcheck.py"))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "self-check: all checks work" in out.stdout


def test_tracer_counts_engine_work():
    out = _python("-c", TRACED_RUN)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["code"] == 0
    assert got["full"] == 1 and got["shape"] == [4, 4, 4, 4]
    metrics = got["metrics"]
    # every patched scalar operation must still be reached: a path around
    # one of them would make its count read 0 without any error
    for name in ("forms.symbol_outer_calls", "interaction.eval_calls",
                 "exact.add_calls", "exact.mul_calls", "exact.ctor_calls",
                 "exact.poly_mul_calls", "exact.poly_divmod_calls",
                 "cli.suite_cancellation_s"):
        assert metrics[name] > 0, name
    # the tracer names each jet span from its ``exact`` argument
    assert metrics["oracle.exact_jet_calls"] == 1
    assert metrics["oracle.float_jet_s"] > 0
