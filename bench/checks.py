"""Correctness checks on what each workload produced.

Each check returns a list of problems; an empty list means the output is
correct.  Nothing is compared with a stored copy of an earlier run: every
check is a property the output must have (a round trip, a zero, an
agreement between two independent paths, a verdict that must pass or must
fail for a stated reason).
"""
from __future__ import annotations

from fractions import Fraction

from gwsym.report import Value, Verdict, parse_machine

TOLERANCE = 1e-9
ORACLE_RHO = ("2", "3")

#: the verify-all verdicts that compare with published constants the engine
#: refutes (see README.md, "What the engine finds"); they must fail
REFUTED = frozenset({"item-3-semilinear-published",
                     "item-8-semilinear-published",
                     "item-6-inner34-published"})


def _parse(text: str):
    """(report, problems) for a machine report."""
    try:
        report = parse_machine(text)
    except (ValueError, IndexError) as exc:
        return None, [f"machine report does not parse: {exc}"]
    problems = []
    if report.to_machine() != text:
        problems.append("machine report does not round-trip")
    if any(s.title == "internal error" for s in report.sections):
        problems.append("report has an internal error section")
    return report, problems


def _entries(report, kind):
    return [e for s in report.sections for e in s.entries
            if isinstance(e, kind)]


def _verdicts_with_prefix(verdicts, prefix):
    return {v.name: v.passed for v in verdicts if v.name.startswith(prefix)}


def _require_rho(names, prefix, problems):
    for rho in ORACLE_RHO:
        if f"{prefix}{rho}" not in names:
            problems.append(f"missing {prefix}{rho}")


def check_verify_all(exit_code: int, text: str) -> list:
    report, problems = _parse(text)
    if report is None:
        return problems
    if exit_code != 1:
        problems.append(f"exit code {exit_code}, expected 1")
    verdicts = _entries(report, Verdict)
    values = {v.key: v.value for v in _entries(report, Value)}
    rows = [values.get(f"total-row-{i}") for i in range(4)]
    for i, row in enumerate(rows):
        if row is None:
            problems.append(f"missing total-row-{i}")
        elif [x.strip() for x in row.strip("[]").split(",")] != ["0"] * 4:
            problems.append(f"total-row-{i} is not zero: {row}")
    vanishes = _verdicts_with_prefix(verdicts, "total-vanishes")
    if vanishes != {"total-vanishes": True}:
        problems.append("total-vanishes did not pass")
    for prefix in ("exact-dual-path-rho-", "float-dual-path-rho-"):
        found = _verdicts_with_prefix(verdicts, prefix)
        _require_rho(found, prefix, problems)
        problems.extend(f"{name} failed" for name, ok in found.items()
                        if not ok)
    failing = {v.name for v in verdicts if not v.passed}
    if failing != REFUTED:
        problems.append(f"failing verdicts {sorted(failing)}, expected "
                        f"{sorted(REFUTED)}")
    return problems


def check_dense_oracle(exit_code: int, text: str) -> list:
    report, problems = _parse(text)
    if report is None:
        return problems
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    verdicts = _entries(report, Verdict)
    problems.extend(f"{v.name} failed" for v in verdicts if not v.passed)
    _require_rho(_verdicts_with_prefix(verdicts, "total-exact-jet-rho-"),
                 "total-exact-jet-rho-", problems)
    # suite_oracle reports this difference without a verdict of its own
    diffs = {v.key: v.value for v in _entries(report, Value)
             if v.key.startswith("total-float-max-rel-diff-rho-")}
    _require_rho(diffs, "total-float-max-rel-diff-rho-", problems)
    for key, value in diffs.items():
        if not float(value) <= TOLERANCE:
            problems.append(f"{key} = {value} exceeds {TOLERANCE}")
    return problems


def check_tt_total(output: dict, require_nonzero: bool) -> list:
    """The enumerated total against the exact and the float jet.

    ``output`` is ``child.tt_output``: the total as canonical strings, and
    at each rho its value, the exact jet (real, imaginary), the float jet
    (real, imaginary) and the largest entry of any single term.
    """
    problems = []
    total = output["total"]
    if any(total[i][j] != total[j][i] for i in range(4) for j in range(4)):
        problems.append("total is not symmetric")
    if require_nonzero and all(x == "0" for row in total for x in row):
        problems.append("total is zero for the default seed")
    rhos = [p["rho"] for p in output["points"]]
    if rhos != list(ORACLE_RHO):
        problems.append(f"jets at rho {rhos}, expected {list(ORACLE_RHO)}")
    for point in output["points"]:
        rho = point["rho"]
        exact = [[Fraction(x) for x in row] for row in point["exact"]]
        jet = point["jet"]
        flt = point["float"]
        if any(Fraction(im) != 0 for row in jet for _, im in row):
            problems.append(f"exact jet has an imaginary part at rho {rho}")
        if any(Fraction(jet[i][j][0]) != exact[i][j]
               for i in range(4) for j in range(4)):
            problems.append(f"exact jet differs from the total at rho {rho}")
        # relative to the largest term, as the cli does for the total: the
        # float path's roundoff is that of the summands that cancel
        scale = max([abs(float(x)) for row in exact for x in row]
                    + [abs(re) for row in flt for re, _ in row]
                    + [point["term_scale"], 1e-300])
        imag = max(abs(im) for row in flt for _, im in row) / scale
        if not imag <= TOLERANCE:
            problems.append(f"float jet imaginary part {imag:.3e} at "
                            f"rho {rho}")
        diff = max(abs(float(exact[i][j]) - flt[i][j][0])
                   for i in range(4) for j in range(4)) / scale
        if not diff <= TOLERANCE:
            problems.append(f"float jet differs by {diff:.3e} relative at "
                            f"rho {rho}")
    return problems
