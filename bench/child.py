"""One workload in one fresh process; prints one JSON line of results.

Run by ``bench/run.py``, never imported by it: ``gwsym`` keeps process-wide
caches (``interaction._EVALUATORS``, ``interaction._FORM_FAMILY``), so each
operation gets a cold process, as a command-line user does.

    python3 bench/child.py WORKLOAD MODE SEED T0

MODE is ``op`` (run and time the workload), ``probe`` (stop at the first
term evaluation: set-up only) or ``trace`` (``op`` with spans and counters).
T0 is the parent's ``time.monotonic()`` just before it started this process,
so timings count interpreter start-up too.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
DENSE_SCENARIO = "bench/dense.scn"


#: nonzero positions of each wave symbol, those of the transverse-traceless
#: style test data in tests/test_oracle.py (the sparsity is fixed so that
#: the amount of work does not depend on the seed)
TT_SPARSITY = {1: ((1, 1), (3, 3)), 2: ((1, 1), (2, 2)), 3: ((2, 2), (3, 3)),
               4: ((2, 3),)}


def tt_polarizations(seed: int) -> dict:
    """Sparse symmetric integer wave symbols; the seed picks the values.

    Every position in ``TT_SPARSITY`` (and its mirror) gets a nonzero integer
    in [-3, 3].
    """
    rng = random.Random(seed)
    out = {}
    for wave, positions in TT_SPARSITY.items():
        rows = [[0] * 4 for _ in range(4)]
        for a, b in positions:
            rows[a][b] = rows[b][a] = rng.choice((-3, -2, -1, 1, 2, 3))
        out[wave] = rows
    return out


def run_cli(argv) -> dict:
    from gwsym import cli
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = cli.run(argv)
    return {"exit": code, "report": text.getvalue()}


def run_tt_total(seed: int) -> dict:
    """Every term on a fresh evaluator with overridden wave symbols.

    There is no public total with polarization overrides, so the terms are
    summed one by one, as ``tests/test_oracle.py`` does; the total is then
    compared with the exact and the float jet at two rho values.
    """
    from checks import ORACLE_RHO
    from gwsym.exact import RhoRational
    from gwsym.forms import SlotValue
    from gwsym.interaction import (ZERO_MAT, Evaluator, enumerate_all,
                                   mat_add, mat_eval_at, mat_scale)
    from gwsym.nullcone import standard_config
    from gwsym.oracle import interaction_total_jet
    from gwsym.tensor import Sym2T

    config = standard_config()
    raw = tt_polarizations(seed)
    overrides = {i: SlotValue(Sym2T(raw[i]), config.zeta(i)) for i in raw}
    ev = Evaluator(config, leaf_symbols=overrides)
    total = ZERO_MAT
    for term in enumerate_all():
        total = mat_add(total, mat_scale(ev.eval(term.ast).matrix,
                                         RhoRational.const(term.sign)))
    points = []
    for rho in map(Fraction, ORACLE_RHO):
        points.append((rho, mat_eval_at(total, rho),
                       interaction_total_jet(config, rho, exact=True,
                                             leaf_symbols=raw),
                       interaction_total_jet(config, rho, exact=False,
                                             leaf_symbols=raw)))
    return {"total": total, "points": points, "evaluator": ev}


def tt_output(result) -> dict:
    """The tt-total result as JSON data for ``checks.check_tt_total``.

    ``term_scale`` is the largest entry of any single term at that rho: the
    float jet's roundoff grows with the summands that cancel in the total,
    so it is the scale the float agreement is measured against.
    """
    from gwsym.exact import format_rho_rational
    terms = [v.matrix for v in result["evaluator"].cache.values()
             if len(v.leaves) == 4]
    points = []
    for rho, exact_at, jet, flt in result["points"]:
        points.append({
            "rho": str(rho),
            "term_scale": max(abs(float(x.eval_at(rho)))
                              for m in terms for row in m for x in row),
            "exact": [[str(x) for x in row] for row in exact_at],
            "jet": [[[str(x.re), str(x.im)] for x in row] for row in jet],
            "float": [[[float(x.real), float(x.imag)] for x in row]
                      for row in flt],
        })
    return {"total": [[format_rho_rational(x) for x in row]
                      for row in result["total"]],
            "points": points}


def run_workload(workload: str, seed: int) -> dict:
    if workload == "verify-all":
        return run_cli(["--format", "machine", "verify", "all"])
    if workload == "dense-oracle":
        return run_cli(["--scenario", DENSE_SCENARIO, "--format", "machine",
                        "oracle"])
    if workload == "tt-total":
        return run_tt_total(seed)
    raise ValueError(f"unknown workload {workload!r}")


def emit(payload: dict):
    sys.__stdout__.write(json.dumps(payload) + "\n")
    sys.__stdout__.flush()


def mark_setup_end(marks: dict, probe: bool):
    """Stamp the end of set-up at the first term evaluation.

    The form family is built here, before the stamp, so set-up includes it
    whichever caller would have built it first.  A probe stops right there.
    """
    from gwsym import interaction
    replaced = interaction.Evaluator.eval

    def first_eval(ev, ast):
        interaction.Evaluator.eval = replaced
        interaction.form_family()
        marks["t_setup"] = time.monotonic()
        if probe:
            emit(marks)
            os._exit(0)
        return replaced(ev, ast)
    interaction.Evaluator.eval = first_eval


def main(argv) -> int:
    workload, mode, seed, t0 = argv[0], argv[1], int(argv[2]), float(argv[3])
    sys.path.insert(0, str(SRC))
    import gwsym.cli  # loads every module the tracer wraps
    if Path(gwsym.cli.__file__).resolve().parent != SRC / "gwsym":
        raise ImportError(f"gwsym imported from {gwsym.cli.__file__}, "
                          f"not from {SRC}")

    marks = {"t0": t0}
    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer(seed)
        tracer.install()
    mark_setup_end(marks, probe=(mode == "probe"))
    if tracer is not None:
        with tracer.span(f"bench.{workload}"):
            result = run_workload(workload, seed)
    else:
        result = run_workload(workload, seed)
    marks["t_done"] = time.monotonic()
    marks["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if mode == "probe":
        raise RuntimeError("workload ended before its first term evaluation")
    if "t_setup" not in marks:
        raise RuntimeError("workload evaluated no term")
    if tracer is not None:
        tracer.uninstall()
        marks["metrics"] = {k: list(v) for k, v in tracer.metrics().items()}
        for key, us in tracer.replay_exact().items():
            marks["metrics"][f"exact.{key}_us"] = [us, "us"]
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"{workload}-seed{seed}-spans.json", "w",
                  encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    if workload == "tt-total":
        result = tt_output(result)
    marks["output"] = result
    emit(marks)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
