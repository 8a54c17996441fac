"""Mutation gate: seeded faults that the tests must catch.

Each mutant names a source file, a snippet that occurs in it exactly once,
the snippet's replacement and the test files expected to kill it.  For
each mutant the tool copies the checkout (without ``.git``) into a
temporary directory, patches the copy, runs the named tests there, then
runs ``tools/report_digests.py`` on the patched copy against the unpatched
checkout.  It prints one line per mutant: killed by the tests (and how
many failed) or survived, and seen by the CLI (how many of the digest
reports changed) or unseen.  An unseen mutant is a gap in the CLI's
verdicts; its ``gap`` note names what would close it.  The exit code is 1
if a mutant survives the tests or its snippet does not occur exactly once.

    python tools/mutants.py

Each mutant takes 20-60 s.  Standard library only.
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


def run_mutant(m: Mutant, scratch: Path) -> tuple:
    """(killed, line): patch a copy of the checkout, run the mutant's
    tests and the digest comparison on it."""
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
    digests = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"), str(tree),
         str(ROOT)], capture_output=True, text=True)
    changed = len(digests.stdout.splitlines()) // 2
    if killed:
        verdict = f"killed by {len(failed)} test(s), first {failed[0]}"
    else:
        verdict = f"SURVIVED (pytest exit {tests.returncode})"
    seen = (f"seen by the CLI ({changed} of the digest reports changed)"
            if changed else f"unseen by the CLI: {m.gap or 'no gap noted'}")
    shutil.rmtree(tree)
    return killed, f"{m.name}: {verdict}; {seen}"


def main() -> int:
    faults = snippet_faults()
    for fault in faults:
        print(fault)
    if faults:
        return 1
    survived = 0
    with tempfile.TemporaryDirectory(prefix="gwsym-mutants-") as scratch:
        for m in MUTANTS:
            killed, line = run_mutant(m, Path(scratch))
            survived += not killed
            print(line, flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
