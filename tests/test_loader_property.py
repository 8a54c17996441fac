"""The loader cannot crash: every scenario text and every ``--rho`` string
is either run or rejected with one line of its own.

Two seeded Hypothesis properties run their examples through ``cli.run`` in
process.  Every outcome is one of two: exit 0 or 1 with no ``internal
error`` section, or exit 2 with exactly one stderr line that starts
``scenario error:`` or ``bad rho value:``, and no traceback.  Valid
configurations run only ``report pairing-table``, the cheapest command
that loads a scenario.
"""
import contextlib
import io
from pathlib import Path

from hypothesis import given, seed, settings, strategies as st

from gwsym.cli import run
from gwsym.scenario import _KEYS

ROOT = Path(__file__).resolve().parent.parent

#: the key-value lines of two valid scenario files; their mutations give
#: valid configurations, and some invalid ones
VALID = [tuple(line for line in (ROOT / name).read_text().splitlines()
               if line and not line.startswith("#"))
         for name in ("bench/dense.scn", "tools/rho_free.scn")]

#: stands for the one ``out`` path, a file in the test's temporary directory
OUT = "<out>"

#: a junk key: never a key after stripping and lower-casing, and free of
#: ``=`` and of every character ``str.splitlines`` breaks a line at
junk_keys = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl",
                                                        "Zp"),
                                  blacklist_characters="="),
                    max_size=8).filter(
    lambda k: k.strip().lower() not in _KEYS)

_atoms = st.sampled_from(["rho", "0", "1", "-1", "2", "1/4", "10", "rho^10",
                          "rho^-10", "(rho+1)", "x", ""])
#: expressions in rho from a small grammar, some of them malformed
expressions = st.recursive(_atoms, lambda e: st.one_of(
    st.tuples(e, st.sampled_from("+-*/"), e).map("".join),
    st.tuples(e, st.sampled_from(["2", "-1", "10", "201", "rho"])).map(
        "^".join),
    e.map("({})".format),
    e.map("-{}".format)), max_leaves=6)

_signs = st.sampled_from(["", "-", "+"])
_digits = st.text("0123456789", min_size=1, max_size=5)
#: decimal and fraction spellings of a sample point, with junk mixed in
rho_texts = st.one_of(
    st.tuples(_signs, _digits, st.sampled_from(["", ".5", ".", ".0001"]),
              st.sampled_from(["", "e20", "e-3", "e69", "e5000", "e-5000",
                               "E2"])).map("".join),
    st.tuples(_signs, _digits, st.sampled_from(["/3", "/0", "/7e1", "/-2"])
              ).map("".join),
    st.sampled_from(["2", "5/2", "1", "1.0000001", "nan", "inf", "1_0",
                     " 3 ", "٣", "0x10"]),
    st.text(max_size=6))


def _values(key):
    """Values for ``key``: a covector, sample points, a format, the out
    path, or junk."""
    if key.startswith("zeta"):
        return st.lists(expressions, min_size=3, max_size=5).map(", ".join)
    if key == "oracle_rho":
        return st.lists(rho_texts, max_size=3).map(" ".join)
    if key == "format":
        return st.sampled_from(["text", "machine", "Machine", ""])
    if key == "out":
        return st.just(OUT)
    return st.text(max_size=8)


@st.composite
def random_lines(draw):
    """Lines of keys from ``_KEYS`` and junk, blank lines and comments."""
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["key", "key", "key", "junk", "blank",
                                     "comment", "no-equals"]))
        if kind == "key":
            key = draw(st.sampled_from(_KEYS))
            lines.append(f"{key} = {draw(_values(key))}")
        elif kind == "junk":
            lines.append(f"{draw(junk_keys)} = {draw(st.text(max_size=8))}")
        elif kind == "blank":
            lines.append("")
        elif kind == "comment":
            lines.append("# " + draw(st.text(max_size=8)))
        else:
            lines.append(draw(junk_keys))
    return lines


@st.composite
def mutated_valid(draw):
    """The lines of a valid scenario file, its four covectors permuted,
    then edited: keys re-spelt, lines dropped, doubled or reordered, one
    component replaced, sample points, a format or the out path added."""
    lines = list(draw(st.sampled_from(VALID)))
    values = [line.partition("=")[2] for line in lines[:4]]
    order = draw(st.permutations(range(4)))
    lines[:4] = [f"zeta{i + 1} ={values[k]}" for i, k in enumerate(order)]
    if draw(st.booleans()):
        lines = [line for line in lines if not line.startswith("oracle_rho")]
        lines.append(f"oracle_rho = {draw(_values('oracle_rho'))}")
    if draw(st.booleans()):
        lines.append(f"format = {draw(_values('format'))}")
    if draw(st.booleans()):
        lines.append(f"out = {OUT}")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["respell", "drop", "double",
                                     "component", "move"]))
        key, _, value = lines[at].partition("=")
        if edit == "respell":
            lines[at] = f"  {key.strip().upper()}={value}  "
        elif edit == "drop":
            del lines[at]
        elif edit == "double":
            lines.insert(at, lines[at])
        elif edit == "component" and key.startswith("zeta"):
            parts = value.split(",")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(expressions)
            lines[at] = f"{key}={','.join(parts)}"
        else:
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(at))
        if not lines:
            break
    return lines


@st.composite
def scenario_files(draw):
    """The bytes of a scenario file; one in four has random bytes mixed
    in."""
    lines = draw(st.one_of(mutated_valid(), random_lines()))
    data = "\n".join(lines).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


def _run(argv, cwd):
    """``(exit code, stdout, stderr)`` of ``cli.run(argv)`` in ``cwd``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(cwd), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean(code, out, err):
    if code in (0, 1):
        assert "internal error" not in out
        assert err == ""
    else:
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert err == line + "\n"
        assert line.startswith(("scenario error:", "bad rho value:"))
        assert "Traceback" not in err


# 150 examples from seed 30: 1-3 s with Python 3.11 on two cores
@seed(30)
@settings(max_examples=150, deadline=None)
@given(data=scenario_files())
def test_scenario_files_run_or_fail_in_one_line(data, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp() / "loader"
    tmp.mkdir(exist_ok=True)
    path = tmp / "drawn.scn"
    path.write_bytes(data.replace(OUT.encode(), str(tmp / "out.txt").encode()))
    _assert_clean(*_run(["--scenario", str(path), "report", "pairing-table"],
                        tmp))


# 60 examples from seed 30: about 1 s with Python 3.11 on two cores
@seed(30)
@settings(max_examples=60, deadline=None)
@given(text=rho_texts)
def test_rho_strings_run_or_fail_in_one_line(text, tmp_path_factory):
    _assert_clean(*_run(["--format", "machine", "oracle", f"--rho={text}"],
                        tmp_path_factory.getbasetemp()))
