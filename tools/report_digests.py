"""Digest the reports of the behaviour check for refactors.

Runs eleven reports through ``python -m gwsym`` with the checkout's ``src``
on ``PYTHONPATH`` and prints one line per report: the exit code, the
SHA-256 of stdout, and the arguments.  A refactor keeps every line.  Each
report's peak resident set size (``os.wait4``'s rusage) goes to stderr, so
stdout stays diffable between checkouts.

    python tools/report_digests.py [CHECKOUT]

CHECKOUT defaults to the checkout holding this script; pass another one
(say, an unpacked parent commit) to digest its reports with the same list,
then diff the two outputs.  Standard library only.
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
    # 22 decades between covector components, and the np.longdouble route
    ["--format", "machine", "oracle", "--rho", "12"],
    ["--format", "machine", "oracle", "--rho", "1e20"],
    DENSE + ["oracle"],
    # an exact check at a rho outside the scenario, on a base with a
    # non-monomial element
    DENSE + ["oracle", "--rho", "5/2"],
    DENSE + ["verify", "total"],
    DENSE + ["verify", "items"],
    DENSE + ["verify", "all"],
]


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (str(root / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    for args in REPORTS:
        proc = subprocess.Popen([sys.executable, "-m", "gwsym", *args],
                                cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        with proc.stdout:
            digest = hashlib.sha256(proc.stdout.read()).hexdigest()
        # reaped here for its rusage, so Popen must not wait for it again
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(proc.returncode, digest, " ".join(args), flush=True)
        # ru_maxrss is in KiB on Linux
        print(f"{usage.ru_maxrss / 1024:.2f} MB peak RSS", " ".join(args),
              file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
