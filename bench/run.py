"""gwsym benchmark: cold-process workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 10 --trace 0

Each operation is one run of the workload in a fresh process (see
``child.py``).  With ``--trace 0`` the run first starts set-up probes, then
repeats whole operations until ``--seconds`` have passed (at least one), and
reports the end-to-end metrics ``verdict_s``, ``setup_s`` and
``peak_rss_mb``.  With ``--trace 1`` it runs one untraced and one traced
operation and reports the per-layer metrics and the tracing overhead.
Every operation's output is checked; the last line printed is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "bench" / "child.py"
SRC = ROOT / "src"
WORKLOADS = ("verify-all", "tt-total", "dense-oracle")
DEFAULT_SEED = 0
PROBES = 5
#: a run must end within 180 s; children get what is left of this
RUN_BUDGET_S = 170.0
#: numpy's BLAS may start one thread per core; the workloads need none
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, mode: str, seed: int, deadline: float) -> dict:
    """Run one child to its end and return its JSON result."""
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), workload, mode, str(seed), repr(t0)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode} timed out") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def check(workload: str, seed: int, output: dict) -> list:
    import checks  # imports gwsym: only after main() has put src/ on the path
    if workload == "verify-all":
        return checks.check_verify_all(output["exit"], output["report"])
    if workload == "dense-oracle":
        return checks.check_dense_oracle(output["exit"], output["report"])
    return checks.check_tt_total(output, require_nonzero=seed == DEFAULT_SEED)


def operation(workload, mode, seed, deadline):
    """One checked operation: (ok, result), result None if the child died."""
    try:
        result = spawn(workload, mode, seed, deadline)
    except ChildFailed as exc:
        print(f"{workload} {mode}: FAILED: {exc}", flush=True)
        return False, None
    problems = check(workload, seed, result["output"])
    print(f"{workload} {mode}: verdict {verdict_s(result):.3f} s, "
          f"set-up {setup_s(result):.3f} s, "
          f"peak rss {result['maxrss_kb'] / 1024:.1f} MB"
          + "".join(f"\n  wrong: {p}" for p in problems), flush=True)
    return not problems, result


def verdict_s(result) -> float:
    return result["t_done"] - result["t0"]


def setup_s(result) -> float:
    return result["t_setup"] - result["t0"]


def measure(workload, seed, seconds, deadline):
    """Set-up probes, then whole operations until ``seconds`` have passed."""
    setups = [setup_s(spawn(workload, "probe", seed, deadline))
              for _ in range(PROBES)]
    ops = []
    start = time.monotonic()
    while not ops or time.monotonic() - start < seconds:
        ops.append(operation(workload, "op", seed, deadline))
    good = [r for ok, r in ops if ok]
    metrics = {}
    if good:
        metrics = {
            "verdict_s": (statistics.median(map(verdict_s, good)), "s"),
            "setup_s": (statistics.median(setups + [setup_s(r) for r in good]),
                        "s"),
            "peak_rss_mb": (statistics.median(
                r["maxrss_kb"] / 1024 for r in good), "MB"),
        }
    return ops, metrics


def measure_traced(workload, seed, deadline):
    """One untraced and one traced operation; the per-layer metrics."""
    ops = [operation(workload, mode, seed, deadline)
           for mode in ("op", "trace")]
    (_, plain), (_, traced) = ops
    metrics = {}
    if plain is not None and traced is not None:
        metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
        metrics["trace.verdict_s"] = (verdict_s(traced), "s")
        metrics["trace.untraced_verdict_s"] = (verdict_s(plain), "s")
        metrics["trace.overhead_s"] = (verdict_s(traced) - verdict_s(plain),
                                       "s")
    return ops, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC / "gwsym" / "cli.py").is_file():
        print(f"gwsym sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import selfcheck
    problems = selfcheck.run()
    if problems:
        print("self-check failed:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 1

    try:
        if args.trace:
            ops, metrics = measure_traced(args.workload, args.seed, deadline)
        else:
            ops, metrics = measure(args.workload, args.seed, args.seconds,
                                   deadline)
    except ChildFailed as exc:
        print(f"set-up probe failed: {exc}", file=sys.stderr)
        return 1
    if not metrics:
        print("no operation succeeded", file=sys.stderr)
        return 1
    failed = sum(1 for ok, _ in ops if not ok)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
