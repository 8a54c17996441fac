"""Digest the reports of the behaviour check for refactors.

Runs twelve reports through ``python -m gwsym`` with the checkout's ``src``
on ``PYTHONPATH`` and prints one line per report: the exit code, the
SHA-256 of stdout, and the arguments.  A refactor keeps every line.  Each
report's peak resident set size and CPU seconds (user plus system, from
``os.wait4``'s rusage) go to stderr, so stdout stays diffable between
checkouts.

    python tools/report_digests.py [CHECKOUT]
    python tools/report_digests.py CHECKOUT PARENT

CHECKOUT defaults to the checkout holding this script; pass another one
(say, an unpacked parent commit) to digest its reports with the same list.
With two checkouts each report runs on both, one after the other; stdout
gets only the reports whose exit code or digest differs (one line per
checkout), stderr both checkouts' figures side by side, and the exit code
is 1 on any difference.  Every ``--scenario`` path is resolved against
CHECKOUT and passed as an absolute path to both runs, so a parent that
lacks a scenario file of the list still reports its own result.  Standard
library only.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

DENSE = ["--scenario", "bench/dense.scn", "--format", "machine"]
REPORTS = [
    ["--format", "machine", "verify", "all"],
    ["verify", "all"],
    ["--format", "machine", "oracle", "--rho", "2"],
    ["--format", "machine", "oracle", "--rho", "5/2"],
    # 22 decades between covector components, and float values past the
    # float64 range
    ["--format", "machine", "oracle", "--rho", "12"],
    ["--format", "machine", "oracle", "--rho", "1e20"],
    DENSE + ["oracle"],
    # an exact check at a rho outside the scenario, on a base with a
    # non-monomial element
    DENSE + ["oracle", "--rho", "5/2"],
    DENSE + ["verify", "total"],
    DENSE + ["verify", "items"],
    DENSE + ["verify", "all"],
    # float exponent 0, so a sample point whose digits pass Python's limit
    # for converting an int to a string is valid; its names read 1e5000
    ["--scenario", "tools/rho_free.scn", "--format", "machine", "oracle",
     "--rho", "1e5000"],
]


def _digest(root: Path, args) -> tuple:
    """(exit code, SHA-256 of stdout, peak RSS in MB, CPU seconds) of one
    report."""
    path = os.pathsep.join(p for p in (str(root / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "gwsym", *args],
                            cwd=root, env=dict(os.environ, PYTHONPATH=path),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        digest = hashlib.sha256(proc.stdout.read()).hexdigest()
    # reaped here for its rusage, so Popen must not wait for it again
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return (proc.returncode, digest, usage.ru_maxrss / 1024,
            usage.ru_utime + usage.ru_stime)


def main(argv) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent]
    if len(roots) > 2:
        print("usage: report_digests.py [CHECKOUT [PARENT]]", file=sys.stderr)
        return 2
    differ = False
    for args in REPORTS:
        args_text = " ".join(args)
        args = [str(roots[0].resolve() / a) if prev == "--scenario" else a
                for prev, a in zip([None] + args, args)]
        runs = [_digest(root, args) for root in roots]
        if len(runs) == 1:
            (code, digest, rss, cpu), = runs
            print(code, digest, args_text, flush=True)
            print(f"{rss:.2f} MB peak RSS, {cpu:.2f} s CPU", args_text,
                  file=sys.stderr, flush=True)
            continue
        (code, digest, rss, cpu), (pcode, pdigest, prss, pcpu) = runs
        if (code, digest) != (pcode, pdigest):
            differ = True
            print(code, digest, args_text, flush=True)
            print(pcode, pdigest, args_text, "(parent)", flush=True)
        print(f"{rss:.2f} MB {prss:.2f} MB peak RSS, {cpu:.2f} s {pcpu:.2f} s "
              "CPU (parent second)", args_text, file=sys.stderr, flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
