"""Self-check: every correctness check accepts good output and rejects bad.

    python3 bench/selfcheck.py

Builds small well-formed outputs of each workload, confirms that the checks
in ``checks.py`` accept them, then applies one fault at a time (a nonzero
total row, a flipped verdict, a perturbed jet entry, a float difference over
1e-9, ...) and confirms that each is rejected.  ``run.py`` runs this before
every measurement, so a check that has stopped rejecting anything stops the
benchmark.
"""
from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _verify_all_report(row1="[0, 0, 0, 0]", vanishes=True, refuted_pass=False,
                       float_rho3=True) -> str:
    import checks
    from gwsym.report import Report
    r = Report()
    s = r.section("top-order families")
    s.verdict("item-2-published", True, "claim")
    for name in sorted(checks.REFUTED):
        s.verdict(name, refuted_pass, "claim", detail="engine value")
    s = r.section("grand total")
    s.value("entry-order", "-inf")
    for i in range(4):
        s.value(f"total-row-{i}", row1 if i == 1 else "[0, 0, 0, 0]")
    s.verdict("total-vanishes", vanishes, "claim")
    for rho in checks.ORACLE_RHO:
        s.verdict(f"exact-dual-path-rho-{rho}", True, "claim")
        s.verdict(f"float-dual-path-rho-{rho}", float_rho3 or rho != "3",
                  "claim")
    return r.to_machine()


def _dense_report(diff3="1.415e-20", jet2=True, internal_error=False) -> str:
    import checks
    from gwsym.report import Report
    r = Report()
    s = r.section("floating-point oracle")
    for rho in checks.ORACLE_RHO:
        s.verdict(f"term-a-rho-{rho}", True, "claim")
        s.value(f"total-float-max-rel-diff-rho-{rho}",
                diff3 if rho == "3" else "1.241e-15")
        s.verdict(f"total-exact-jet-rho-{rho}", jet2 or rho != "2", "claim")
    if internal_error:
        r.section("internal error").verdict("engine", False, "failed")
    return r.to_machine()


def _tt_output() -> dict:
    """A symmetric nonzero total with matching jets at rho = 2 and 3."""
    import checks

    def entries(x):
        top = x ** 10
        return [[(top + 1) / x ** 20, top, 0, Fraction(-1, 2)],
                [top, 3, 0, 0],
                [0, 0, 0, top ** 3],
                [Fraction(-1, 2), 0, top ** 3, 0]]

    points = []
    for rho in checks.ORACLE_RHO:
        exact = entries(Fraction(rho))
        points.append({
            "rho": rho,
            "term_scale": float(abs(exact[2][3])),
            "exact": [[str(x) for x in row] for row in exact],
            "jet": [[[str(x), "0"] for x in row] for row in exact],
            "float": [[[float(x), 0.0] for x in row] for row in exact],
        })
    total = [["(rho^10 + 1)/(rho^20)", "rho^10", "0", "-1/2"],
             ["rho^10", "3", "0", "0"],
             ["0", "0", "0", "rho^30"],
             ["-1/2", "0", "rho^30", "0"]]
    return {"total": total, "points": points}


def _tt_mutations():
    good = _tt_output()

    def mutate(fn):
        out = copy.deepcopy(good)
        fn(out)
        return out

    def bump_jet(o):
        o["points"][0]["jet"][0][1][0] = str(2 ** 10 + 1)

    def float_off(o):
        scale = 3.0 ** 30
        o["points"][1]["float"][1][1][0] += 2e-9 * scale

    def jet_imag(o):
        o["points"][0]["jet"][2][3][1] = "1/7"

    def asym(o):
        o["total"][0][3] = "1/2"

    def zero(o):
        o["total"] = [["0"] * 4 for _ in range(4)]

    return {
        "perturbed exact-jet entry": (
            mutate(bump_jet), "exact jet differs from the total at rho 2"),
        "float difference over 1e-9": (
            mutate(float_off), "float jet differs by"),
        "imaginary exact-jet entry": (
            mutate(jet_imag), "exact jet has an imaginary part"),
        "asymmetric total": (mutate(asym), "not symmetric"),
        "zero total": (mutate(zero), "total is zero"),
    }


def run() -> list:
    """Problems found; an empty list means every check works.

    Needs ``gwsym`` importable (``src`` on ``sys.path``).
    """
    import checks
    problems = []

    def accepts(name, found):
        if found:
            problems.append(f"{name}: rejected good output: {found}")

    def rejects(name, found, reason):
        """``found`` must name the fault (``reason``), not some other one."""
        if not any(reason in p for p in found):
            problems.append(f"{name}: not rejected for {reason!r}: {found}")

    accepts("verify-all", checks.check_verify_all(1, _verify_all_report()))
    for name, code, text, reason in (
            ("nonzero total row", 1,
             _verify_all_report(row1="[0, rho^10, 0, 0]"),
             "total-row-1 is not zero"),
            ("flipped total-vanishes", 1, _verify_all_report(vanishes=False),
             "total-vanishes did not pass"),
            ("flipped float dual path", 1,
             _verify_all_report(float_rho3=False),
             "float-dual-path-rho-3 failed"),
            ("refuted verdicts passing", 1,
             _verify_all_report(refuted_pass=True), "failing verdicts"),
            ("wrong exit code", 0, _verify_all_report(), "exit code 0"),
            ("report that does not round-trip", 1,
             _verify_all_report() + "\n", "does not round-trip")):
        rejects(f"verify-all {name}", checks.check_verify_all(code, text),
                reason)

    accepts("dense-oracle", checks.check_dense_oracle(0, _dense_report()))
    for name, code, text, reason in (
            ("float difference over 1e-9", 0, _dense_report(diff3="2.0e-09"),
             "total-float-max-rel-diff-rho-3 = 2.0e-09 exceeds"),
            ("flipped exact-jet verdict", 0, _dense_report(jet2=False),
             "total-exact-jet-rho-2 failed"),
            ("internal error", 0, _dense_report(internal_error=True),
             "internal error section"),
            ("wrong exit code", 1, _dense_report(), "exit code 1")):
        rejects(f"dense-oracle {name}", checks.check_dense_oracle(code, text),
                reason)

    accepts("tt-total", checks.check_tt_total(_tt_output(), True))
    for name, (out, reason) in _tt_mutations().items():
        rejects(f"tt-total {name}", checks.check_tt_total(out, True), reason)
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    problems = run()
    print("\n".join(problems) if problems else "self-check: all checks work")
    sys.exit(1 if problems else 0)
