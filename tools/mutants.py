"""Mutation gate: seeded faults that the tests must catch.

Each mutant names a source file, a snippet that occurs in it exactly once,
the snippet's replacement and the test files expected to kill it.  The tool
digests the unpatched checkout's reports once, with
``tools/report_digests.py``.  Then, for each mutant, it copies the checkout
(without ``.git``) into a temporary directory, patches the copy, runs the
named tests there and digests the copy's reports.  It prints one line per
mutant: killed by the tests (and how many failed) or survived, and seen by
the CLI (the digest reports that changed, by their arguments) or unseen.
An unseen mutant is a gap in the CLI's verdicts; its ``gap`` note names
what would close it.  The exit code is 1 if a mutant survives the tests or
its snippet does not occur exactly once.

    python tools/mutants.py

Each mutant takes 10-50 s.  Standard library only.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path snippet replacement tests gap",
                    defaults=("",))

MUTANTS = [
    Mutant("sign-rule", "src/gwsym/forms.py",
           "return slots, i_power, i_power % 4 == 2",
           "return slots, i_power, i_power % 4 == 0",
           ("tests/test_forms.py",)),
    Mutant("sum-drops-sign", "src/gwsym/interaction.py",
           "                if sign < 0:\n                    c = -c\n",
           "                if sign < 0:\n                    c = c\n",
           ("tests/test_interaction.py",)),
    Mutant("pairing-reads-metric", "src/gwsym/tensor.py",
           "    inv = metric.inv\n    for a in range(4):\n",
           "    inv = metric.m\n    for a in range(4):\n",
           ("tests/test_tensor.py", "tests/test_forms.py")),
    Mutant("jet-reads-metric", "src/gwsym/oracle.py",
           "    hinv = config.metric.inv\n",
           "    hinv = config.metric.m\n",
           ("tests/test_oracle.py", "tests/test_configurations.py"),
           gap="every report runs on the Minkowski metric, its own inverse; "
               "a scenario key for the metric (ROADMAP item 11) closes it"),
    Mutant("reduce-below-pivot-only", "src/gwsym/tensor.py",
           "            if i != r and not rows[i][c].is_zero():",
           "            if i > r and not rows[i][c].is_zero():",
           ("tests/test_tensor.py", "tests/test_configurations.py"),
           gap="the reports invert only the diagonal Minkowski metric and "
               "take ranks, which need no elimination above a pivot; a "
               "scenario key for the metric (ROADMAP item 11) closes it"),
    Mutant("gauge-suite-on-minkowski", "src/gwsym/cli.py",
           "hg = harmonic_gauge_residual(cfg.metric, zeta, pol)",
           "hg = harmonic_gauge_residual(MINKOWSKI, zeta, pol)",
           ("tests/test_gauge.py",),
           gap="every report runs on the Minkowski metric; a scenario key "
               "for the metric (ROADMAP item 11) closes it"),
    Mutant("tokenizer-isdigit", "src/gwsym/exact.py",
           "            elif ch in _DIGITS:\n                j = i\n"
           "                while j < len(text) and text[j] in _DIGITS:\n",
           "            elif ch.isdigit():\n                j = i\n"
           "                while j < len(text) and text[j].isdigit():\n",
           ("tests/test_report_cli.py",),
           gap="a rule for rejected input: every report reads ASCII "
               "digits, and the loader tests hold the rule"),
    Mutant("subset-norm-reads-minkowski", "src/gwsym/nullcone.py",
           "norm_sq(self.metric,", "norm_sq(MINKOWSKI,",
           ("tests/test_configurations.py", "tests/test_interaction.py",
            "tests/test_conformal.py")),
    Mutant("nodes-not-interned", "src/gwsym/interaction.py",
           "@functools.cache\ndef _interned(", "def _interned(",
           ("tests/test_records.py", "tests/test_interaction.py"),
           gap="interning saves work, not values, so no report can change; "
               "the benchmark's evaluation counters are where it shows"),
    Mutant("contract-second-index", "src/gwsym/tensor.py",
           "            if v[a].is_zero() or t[a][b].is_zero():\n"
           "                continue\n"
           "            total = total + v[a] * t[a][b]\n",
           "            if v[a].is_zero() or t[b][a].is_zero():\n"
           "                continue\n"
           "            total = total + v[a] * t[b][a]\n",
           ("tests/test_tensor.py",),
           gap="acceptance criterion 6 is not a verdict; its report "
               "(ROADMAP item 7) closes it"),
    Mutant("chain-drops-raise", "src/gwsym/tensor.py",
           "        v = raise_index(metric, contract_first(v, t))\n",
           "        v = contract_first(v, t)\n",
           ("tests/test_tensor.py", "tests/test_acceptance.py"),
           gap="acceptance criterion 6 is not a verdict; its report "
               "(ROADMAP item 7) closes it"),
    Mutant("rho-name-str-int", "src/gwsym/scenario.py",
           "(str(Decimal(n)) for n in", "(str(int(n)) for n in",
           ("tests/test_report_cli.py", "tests/test_loader_property.py")),
    Mutant("dual-path-ignores-jet", "src/gwsym/cli.py",
           "exact_agrees = mat_eval_at(exact_total_jet(cfg), rho) == exact_at",
           "exact_agrees = mat_eval_at(matrix, rho) == exact_at",
           ("tests/test_report_cli.py",),
           gap="the exact jet equals the engine's total in every report, so "
               "comparing the total with itself changes no verdict"),
    Mutant("exponent-table-left-key", "src/gwsym/exact.py",
           "        e = base._sums.get((ea, eb))\n        if e is None:\n"
           "            e = tuple(map(int.__add__, ea, eb))\n"
           "            e = base._sums[ea, eb] =",
           "        e = base._sums.get(ea)\n        if e is None:\n"
           "            e = tuple(map(int.__add__, ea, eb))\n"
           "            e = base._sums[ea] =",
           ("tests/test_exact.py", "tests/test_interaction.py")),
    Mutant("split-cofactors-swapped", "src/gwsym/exact.py",
           "    return g, d1 // g, d2 // g\n",
           "    return g, d2 // g, d1 // g\n",
           ("tests/test_exact.py",),
           gap="no canonical sum in the reports meets two denominators "
               "with a common factor (standard and dense verify all split "
               "7 and 4 distinct pairs, each with gcd 1); the benchmark's "
               "tt-total meets 42 such pairs in 2592 of its 5266 splits"),
    Mutant("max-rel-diff-drops-floor", "src/gwsym/oracle.py",
           'floor = max(_real(floor), Decimal("1e-300"))',
           'floor = Decimal("1e-300")',
           ("tests/test_oracle.py", "tests/test_report_cli.py")),
    Mutant("default-restored", "src/gwsym/orders.py",
           "def restriction_order(m: MicroOrder, trace: Trace)",
           "def restriction_order(m: MicroOrder, trace: Trace = None)",
           ("tests/test_option_callers.py",),
           gap="a default changes no value, so no report can see it"),
    Mutant("sym2t-skips-symmetry", "src/gwsym/tensor.py",
           "                if rows[i][j] != rows[j][i]:\n",
           "                if False:\n",
           ("tests/test_tensor.py",),
           gap="no report reads a matrix from its input; scenario keys for "
               "the polarizations and the metric (ROADMAP items 4 and 11) "
               "close it"),
    Mutant("child-sends-jet-only", "src/gwsym/oracle.py",
           "            for key in (None, *rho_values):\n",
           "            for key in (None,):\n",
           ("tests/test_report_cli.py",),
           gap="the parent computes whatever the child does not deliver, "
               "so no report changes; the cost shows only in verify-all "
               "verdict_s"),
]


def snippet_faults(root: Path = ROOT) -> list:
    """One message per mutant whose snippet does not occur exactly once in
    its file under ``root``."""
    faults = []
    for m in MUTANTS:
        count = (root / m.path).read_text(encoding="utf-8").count(m.snippet)
        if count != 1:
            faults.append(f"{m.name}: snippet occurs {count} times in "
                          f"{m.path}")
    return faults


def _env(root: Path) -> dict:
    path = os.pathsep.join(p for p in (str(root / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _digests(root: Path) -> list:
    """The digest lines of ``root``'s reports: exit code, SHA-256 of
    stdout and the report's arguments."""
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"),
         str(root)], capture_output=True, text=True).stdout.splitlines()


def run_mutant(m: Mutant, scratch: Path, digests: list) -> tuple:
    """(killed, line): patch a copy of the checkout, run the mutant's
    tests on it and compare its digest lines with ``digests``, the
    unpatched checkout's."""
    tree = scratch / m.name
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    source = tree / m.path
    source.write_text(source.read_text(encoding="utf-8").replace(
        m.snippet, m.replacement), encoding="utf-8")
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         *m.tests], cwd=tree, env=_env(tree), capture_output=True, text=True)
    failed = [line.split()[1] for line in tests.stdout.splitlines()
              if line.startswith("FAILED ")]
    killed = tests.returncode == 1 and bool(failed)
    changed = [line.split(maxsplit=2)[2]
               for line, want in zip(_digests(tree), digests) if line != want]
    if killed:
        verdict = f"killed by {len(failed)} test(s), first {failed[0]}"
    else:
        verdict = f"SURVIVED (pytest exit {tests.returncode})"
    seen = (f"seen by the CLI ({len(changed)} of the digest reports "
            f"changed: {'; '.join(changed)})" if changed
            else f"unseen by the CLI: {m.gap or 'no gap noted'}")
    shutil.rmtree(tree)
    return killed, f"{m.name}: {verdict}; {seen}"


def main() -> int:
    faults = snippet_faults()
    for fault in faults:
        print(fault)
    if faults:
        return 1
    survived = 0
    digests = _digests(ROOT)
    with tempfile.TemporaryDirectory(prefix="gwsym-mutants-") as scratch:
        for m in MUTANTS:
            killed, line = run_mutant(m, Path(scratch), digests)
            survived += not killed
            print(line, flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
