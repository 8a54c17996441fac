"""Report serialization, scenario parsing and the command-line interface."""
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gwsym.cli import run
from gwsym.report import Report, TraceLine, Verdict, parse_machine
from gwsym.scenario import (RHO_NAME_LIMIT, Scenario, ScenarioError,
                            float_exponent, load_scenario, parse_scenario,
                            rho_name)


class TestReport:
    def _sample(self):
        r = Report()
        s = r.section("alpha")
        s.verdict("one", True, "claim with\ttab", detail="line1\nline2")
        s.value("key", "va\\lue")
        s.trace("trace text")
        s2 = r.section("beta")
        s2.verdict("two", False, "failing claim")
        return r

    def test_machine_round_trip(self):
        r = self._sample()
        text = r.to_machine()
        back = parse_machine(text)
        assert back.to_machine() == text
        assert back.all_passed() == r.all_passed() is False

    def test_text_render(self):
        text = self._sample().to_text()
        assert "[PASS] one" in text and "[FAIL] two" in text
        assert "1 CHECK(S) FAILED" in text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_machine("not a report")
        with pytest.raises(ValueError):
            parse_machine("schema\tgwsym-report\t99\n")

    HEADER = "schema\tgwsym-report\t1\n"

    @pytest.mark.parametrize("text, message", [
        ("schema\tgwsym-report\n", "line 1: expected 'schema<TAB>"),
        (HEADER + "value\tk\tv\n", "line 2: value record before any section"),
        (HEADER + "section\ts\n\nverdict\tv\tpass\tclaim\n",
         "line 4: verdict record needs 4 fields, got 3"),
        (HEADER + "section\ts\ntrace\n", "line 3: trace record needs 1"),
        (HEADER + "section\ts\nverdict\tv\tPASS\tclaim\t\n",
         "line 3: verdict status 'PASS' is neither"),
    ])
    def test_parse_rejects_malformed_lines(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_machine(text)

    def test_round_trip_keeps_other_line_breaks(self):
        r = Report()
        r.section("s").value("key", "carriage\rreturn, form\ffeed\u2028")
        text = r.to_machine()
        assert parse_machine(text).to_machine() == text

    def test_parse_skips_blank_lines(self):
        text = self._sample().to_machine()
        back = parse_machine(text.replace("\nsection", "\n\nsection"))
        assert back.to_machine() == text


class TestScenario:
    def test_default(self):
        s = parse_scenario("")
        assert not s.custom_config and s.format == "text"

    def test_custom_covectors(self):
        text = """
        # standard configuration, spelled out
        zeta1 = 1, 0, 1, 0
        zeta2 = -1, 0, 0, -1
        zeta3 = 1/(2*rho^10), 1/(2*rho^10), 0, 0
        zeta4 = rho^10, -rho^10, 0, 0
        oracle_rho = 2 5/2
        format = machine
        """
        s = parse_scenario(text)
        assert s.custom_config and s.format == "machine"
        assert len(s.oracle_rho) == 2

    def test_repeated_oracle_rho_rejected(self):
        with pytest.raises(ScenarioError, match="oracle_rho lists 2 twice"):
            parse_scenario("oracle_rho = 2 3 2.0\n")
        path = Path(__file__).parent.parent / "bench" / "dense.scn"
        assert len(parse_scenario(path.read_text()).oracle_rho) == 2

    def test_invalid_configuration_rejected(self):
        text = "zeta1 = 1, 0, 0, 0\nzeta2 = -1,0,0,-1\n" \
               "zeta3 = 1,1,0,0\nzeta4 = rho^10, -rho^10, 0, 0\n"
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    def test_partial_covectors_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("zeta1 = 1, 0, 1, 0\n")

    # zeta3 = rho(rho-2)/(2rho+1) (1,1,0,0) solves the light-like-sum
    # condition and vanishes at rho = 2
    DEGENERATE_AT_2 = ("zeta1 = rho, 0, rho, 0\n"
                       "zeta2 = -(rho-1), 0, 0, -(rho-1)\n"
                       "zeta3 = rho*(rho-2)/(2*rho+1), "
                       "rho*(rho-2)/(2*rho+1), 0, 0\n"
                       "zeta4 = rho, -rho, 0, 0\n")

    def test_degenerate_oracle_rho_rejected(self):
        with pytest.raises(ScenarioError, match=r"rho 2: \|zeta1\+zeta3\|"):
            parse_scenario(self.DEGENERATE_AT_2 + "oracle_rho = 3 2\n")
        # the default sample values include 2 as well
        with pytest.raises(ScenarioError, match="rho 2"):
            parse_scenario(self.DEGENERATE_AT_2)
        assert parse_scenario(self.DEGENERATE_AT_2 + "oracle_rho = 3\n")

    def test_undefined_component_rejected(self):
        # the standard covectors divided by rho - 3: still a valid
        # configuration, undefined at rho = 3
        text = ("zeta1 = 1/(rho-3), 0, 1/(rho-3), 0\n"
                "zeta2 = -1/(rho-3), 0, 0, -1/(rho-3)\n"
                "zeta3 = 1/(2*rho^10*(rho-3)), 1/(2*rho^10*(rho-3)), 0, 0\n"
                "zeta4 = rho^10/(rho-3), -rho^10/(rho-3), 0, 0\n")
        with pytest.raises(ScenarioError,
                           match="rho 3: component 1 of zeta1 is undefined"):
            parse_scenario(text + "oracle_rho = 2 3\n")
        assert parse_scenario(text + "oracle_rho = 2\n")

    def test_deeply_nested_component_rejected(self):
        deep = "(" * 3000 + "1" + ")" * 3000
        with pytest.raises(ScenarioError, match="nested too deeply"):
            parse_scenario(self.deeply_nested(deep))

    def test_huge_exponent_rejected(self):
        with pytest.raises(ScenarioError, match="exponent 20000 exceeds"):
            parse_scenario(self.deeply_nested("(rho+1)^20000"))

    def test_nested_power_rejected(self):
        for component in ("((rho+1)^40)^40", "((rho+1)^200)^200"):
            with pytest.raises(ScenarioError, match="power of degree"):
                parse_scenario(self.deeply_nested(component))

    def test_division_by_zero_rejected(self):
        for component in ("1/0", "1/(rho-rho)", "0^-1", "(rho-rho)^-2"):
            with pytest.raises(ScenarioError,
                               match="component 1 of zeta1: division by "
                                     "zero"):
                parse_scenario(self.deeply_nested(component))

    @pytest.mark.parametrize("digit", ["\u0661", "\u00b2", "\uff11"],
                             ids=["arabic-indic", "superscript", "fullwidth"])
    def test_non_ascii_digit_rejected(self, digit):
        # str.isdigit takes other scripts' digits and superscripts too; an
        # expression reads ASCII 0-9 only
        with pytest.raises(ScenarioError,
                           match=f"unexpected character '{digit}'"):
            parse_scenario(self.deeply_nested(digit))

    def test_component_count_names_the_covector(self):
        text = self.deeply_nested("1").replace("zeta3 = 1/(2*rho^10), "
                                              "1/(2*rho^10), 0, 0",
                                              "zeta3 = 1, 0")
        with pytest.raises(ScenarioError,
                           match="^zeta3 needs 4 components, got 2$"):
            parse_scenario(text)

    @staticmethod
    def deeply_nested(component):
        return (f"zeta1 = {component}, 0, 1, 0\n"
                "zeta2 = -1, 0, 0, -1\n"
                "zeta3 = 1/(2*rho^10), 1/(2*rho^10), 0, 0\n"
                "zeta4 = rho^10, -rho^10, 0, 0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError,
                           match="^line 1: unknown key 'oracle-rho'$"):
            parse_scenario("oracle-rho = 5\n")
        with pytest.raises(ScenarioError,
                           match="^line 3: unknown key 'formt'$"):
            parse_scenario("# a comment\n\nformt = machine\n")
        with pytest.raises(ScenarioError,
                           match="^line 5: unknown key 'zeta5'$"):
            parse_scenario(self.deeply_nested("1") + "zeta5 = 1, 0, 1, 0\n")

    def test_bench_scenario_parses(self):
        path = Path(__file__).resolve().parent.parent / "bench" / "dense.scn"
        s = parse_scenario(path.read_text())
        assert s.custom_config and s.oracle_rho == (2, 3)

    def test_bad_lines(self):
        with pytest.raises(ScenarioError):
            parse_scenario("just words\n")
        with pytest.raises(ScenarioError):
            parse_scenario("format = pdf\n")
        with pytest.raises(ScenarioError):
            parse_scenario("oracle_rho = 1/2\n")


def _run(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_report_pairing_table(self, capsys):
        code, out = _run(["report", "pairing-table"], capsys)
        assert code == 0
        assert "ALL CHECKS PASSED" in out

    def test_orders_suite(self, capsys):
        code, out = _run(["verify", "orders"], capsys)
        assert code == 0

    def test_gauge_suite(self, capsys):
        code, out = _run(["verify", "gauge"], capsys)
        assert code == 0

    def test_items_suite_reports_discrepancies(self, capsys):
        code, out = _run(["verify", "items"], capsys)
        # the three published-value slips are reported as failing verdicts
        assert code == 1
        assert out.count("[FAIL]") == 3
        assert "drops the squared-norm denominator" in out

    def test_machine_format_deterministic(self, capsys):
        code1, out1 = _run(["--format", "machine", "verify", "orders"], capsys)
        code2, out2 = _run(["--format", "machine", "verify", "orders"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        parse_machine(out1)  # round-trips

    def test_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.txt"
        path.write_text("format = machine\n")
        code, out = _run(["--scenario", str(path), "verify", "orders"], capsys)
        assert code == 0
        assert out.startswith("schema\tgwsym-report")

    def test_backtrace_at_first_sample_value(self, tmp_path, capsys):
        # zeta3 vanishes and zeta4 is undefined at rho = 2; the backtrace
        # runs at the loader-checked first sample value instead
        path = tmp_path / "shifted.scn"
        path.write_text("zeta1 = 1, 0, 1, 0\n"
                        "zeta2 = -1, 0, 0, -1\n"
                        "zeta3 = (1/2)*rho - 1, (1/2)*rho - 1, 0, 0\n"
                        "zeta4 = 1/(rho-2), -1/(rho-2), 0, 0\n"
                        "oracle_rho = 3\n")
        code, out = _run(["--scenario", str(path), "--format", "machine",
                          "report", "pairing-table"], capsys)
        assert code == 0
        report = parse_machine(out)
        assert "internal error" not in [s.title for s in report.sections]
        assert report.failures() == []

    def test_missing_scenario(self, capsys):
        code = run(["--scenario", "/nonexistent/path", "verify", "orders"])
        assert code == 2

    def test_bad_rho(self, capsys):
        assert run(["oracle", "--rho", "abc"]) == 2
        assert run(["oracle", "--rho", "1"]) == 2

    def test_rho_bound_reported(self, capsys):
        assert run(["oracle", "--rho", "1"]) == 2
        assert "oracle rho 1 must exceed 1" in capsys.readouterr().err
        with pytest.raises(ScenarioError, match="oracle rho 1/2 must exceed 1"):
            parse_scenario("oracle_rho = 3 1/2\n")

    @pytest.mark.parametrize("rho", ["1e71", "1e100"])
    def test_rho_past_float_range_rejected(self, rho, capsys):
        # the float oracle's values grow like rho^(50 + 2 * 10) on the
        # standard configuration, past the float oracle's range from about
        # rho = 2.96e70; the rho is rejected before any suite runs
        assert run(["oracle", "--rho", rho]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        # rho has more than 40 characters, so the message names it short
        assert f"oracle rho {rho} overflows" in err
        assert "rho^70" in err and "for rho above" in err
        with pytest.raises(ScenarioError, match="oracle rho 1e80 overflows"):
            parse_scenario("oracle_rho = 1e80\n")

    def test_float_exponent(self):
        # the largest summed-tree order bound plus two covector degrees
        assert float_exponent(Scenario.default().config) == 50 + 2 * 10
        dense = Path(__file__).resolve().parent.parent / "bench" / "dense.scn"
        assert float_exponent(load_scenario(dense).config) == 9 + 2 * 1

    def test_deeply_nested_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.scn"
        path.write_text(TestScenario.deeply_nested(
            "(" * 3000 + "1" + ")" * 3000))
        assert run(["--scenario", str(path), "verify", "gauge"]) == 2
        err = capsys.readouterr().err
        assert "scenario error: bad covector component" in err
        assert "nested too deeply" in err

    def test_huge_exponent_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.scn"
        path.write_text(TestScenario.deeply_nested("(rho+1)^20000"))
        start = time.perf_counter()
        assert run(["--scenario", str(path), "verify", "gauge"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "exponent 20000 exceeds 200" in capsys.readouterr().err

    def test_nested_power_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nested.scn"
        path.write_text(TestScenario.deeply_nested("((rho+1)^40)^40"))
        start = time.perf_counter()
        assert run(["--scenario", str(path), "verify", "gauge"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "power of degree 1600 exceeds 200" in capsys.readouterr().err

    def test_division_by_zero_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "zero.scn"
        path.write_text(TestScenario.deeply_nested("1/0"))
        assert run(["--scenario", str(path), "verify", "gauge"]) == 2
        err = capsys.readouterr().err
        assert ("scenario error: bad covector component 1 of zeta1: "
                "division by zero") in err
        assert "Traceback" not in err

    def test_short_covector_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.scn"
        path.write_text(TestScenario.deeply_nested("1").replace(
            "zeta1 = 1, 0, 1, 0", "zeta1 = 1, 0"))
        assert run(["--scenario", str(path), "verify", "gauge"]) == 2
        err = capsys.readouterr().err
        assert "scenario error: zeta1 needs 4 components, got 2" in err
        assert "Traceback" not in err

    def test_unknown_key_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "typo.scn"
        path.write_text("format = machine\noracle-rho = 5\n")
        assert run(["--scenario", str(path), "verify", "orders"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("scenario error: line 2: unknown key "
                                "'oracle-rho'\n")

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # a UTF-8 byte-order mark changes neither the report nor the exit code
        text = b"format = machine\noracle_rho = 5/2\n"
        results = []
        for name, content in (("plain.scn", text),
                              ("marked.scn", b"\xef\xbb\xbf" + text)):
            path = tmp_path / name
            path.write_bytes(content)
            code = run(["--scenario", str(path), "verify", "orders"])
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1]
        code, out, err = results[0]
        assert code == 0 and err == "" and out.startswith("schema\t")

    @pytest.mark.parametrize("content, message", [
        # not UTF-8: the offset of the first bad byte
        (b"zeta1 = \xff\xfe1, 0, 1, 0\n",
         "byte 8: not valid UTF-8 (invalid start byte)"),
        (b"format = machine\noracle_rho = 2 \xe2\x82\n",
         "byte 32: not valid UTF-8 (invalid continuation byte)"),
        # the offset counts the bytes of a byte-order mark too
        (b"\xef\xbb\xbfformat = machine\noracle_rho = 2 \xe2\x82\n",
         "byte 35: not valid UTF-8 (invalid continuation byte)"),
        # numbers longer than Python converts to an int
        (TestScenario.deeply_nested("1" * 5000).encode(),
         "component 1 of zeta1 has a number of 5000 digits, over the limit "
         "of 4300"),
        (TestScenario.deeply_nested("rho^" + "0" * 4301).encode(),
         "component 1 of zeta1 has a number of 4301 digits, over the limit "
         "of 4300"),
        (("oracle_rho = 2 " + "7" * 5000 + "\n").encode(),
         "value 2 of oracle_rho has a number of 5000 digits, over the limit "
         "of 4300"),
        # values whose decimal expansion passes that limit
        (b"oracle_rho = 1e5000\n", "oracle rho 1e5000 overflows"),
        (b"oracle_rho = 1e-5000\n", "oracle rho 1e-5000 must exceed 1"),
    ], ids=["utf8-start-byte", "utf8-continuation-byte",
            "utf8-after-byte-order-mark", "zeta-digits",
            "zeta-exponent-digits", "rho-digits", "rho-1e5000",
            "rho-1e-5000"])
    def test_loader_fails_cleanly(self, content, message, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_bytes(content)
        assert run(["--scenario", str(path), "verify", "total"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("scenario error: " + message)

    @pytest.mark.parametrize("rho, message", [
        ("1e5000", "oracle rho 1e5000 overflows"),
        ("1e-5000", "oracle rho 1e-5000 must exceed 1"),
        ("1e100000", "oracle rho 1e100000 overflows")],
        ids=["1e5000", "1e-5000", "1e100000"])
    def test_huge_rho_fails_cleanly(self, rho, message, capsys):
        assert run(["oracle", "--rho", rho]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("bad rho value: " + message)
        assert len(line) <= 160

    @pytest.mark.parametrize("text, message", [
        ("\u0663", "has the non-ASCII character '\u0663'"),
        ("2\u00b2", "has the non-ASCII character '\u00b2'"),
        ("7" * 5000, "has a number of 5000 digits, over the limit of 4300"),
        ("abc", "is not a rational number"),
        ("1/0", "is not a rational number"),
        ("1_0", "has the digit separator '_'"),
        ("1e999999999", "has an exponent past +-100000"),
        ("1e-999999999", "has an exponent past +-100000"),
    ], ids=["arabic-indic", "superscript", "digits", "junk", "zero-den",
            "underscore", "exponent", "negative-exponent"])
    def test_rho_reads_like_oracle_rho(self, text, message, tmp_path,
                                       capsys):
        # --rho and oracle_rho share one reader and its one-line messages
        assert run(["oracle", "--rho", text]) == 2
        assert capsys.readouterr().err == f"bad rho value: --rho {message}\n"
        path = tmp_path / "rho.scn"
        path.write_text(f"oracle_rho = 2 {text}\n", encoding="utf-8")
        assert run(["--scenario", str(path), "oracle"]) == 2
        assert capsys.readouterr().err == ("scenario error: value 2 of "
                                           f"oracle_rho {message}\n")

    def test_python_m_gwsym(self):
        src = Path(__file__).parent.parent / "src"
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "gwsym", "--format", "machine", "verify",
             "orders"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("schema\tgwsym-report")

    def test_degenerate_rho_exits_2(self, tmp_path, capsys):
        path = tmp_path / "degenerate.txt"
        path.write_text(TestScenario.DEGENERATE_AT_2 + "oracle_rho = 2\n")
        assert run(["--scenario", str(path), "verify", "total"]) == 2
        assert "rho 2: |zeta1+zeta3|^2 vanishes" in capsys.readouterr().err
        path.write_text(TestScenario.DEGENERATE_AT_2 + "oracle_rho = 3\n")
        assert run(["--scenario", str(path), "oracle", "--rho", "2"]) == 2
        assert "waves [1, 3]" in capsys.readouterr().err

    def test_oracle_float_total_verdict(self, monkeypatch, capsys):
        import gwsym.cli as cli
        real = cli.float_oracle

        def off_float(config, rho):
            got = real(config, rho)
            # far beyond 1e-9 of the scale the verdict is relative to
            got.total[0][0] += got.scale
            return got
        monkeypatch.setattr(cli, "float_oracle", off_float)
        code, out = _run(["--format", "machine", "oracle", "--rho", "2"],
                         capsys)
        assert code == 1
        failing = [v.name for s in parse_machine(out).sections
                   for v in s.entries if isinstance(v, Verdict) and not v.passed]
        assert failing == ["total-float-dual-path-rho-2"]

    @pytest.mark.parametrize("argv, samples", [
        (["oracle", "--rho", "2"], 1), (["verify", "total"], 2)],
        ids=["oracle", "verify-total"])
    def test_one_float_context_per_rho(self, argv, samples, monkeypatch,
                                       capsys):
        # the nested-chain walks, their scale and the float jet's total
        # read one float context per sample point
        from decimal import Decimal
        from gwsym import oracle
        init = oracle.JetContext.__init__
        built = []

        def counting(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            built.append(isinstance(ctx.one, Decimal))
        monkeypatch.setattr(oracle.JetContext, "__init__", counting)
        code, _ = _run(["--format", "machine"] + argv, capsys)
        assert code == 0
        assert built.count(True) == samples

    def test_derive_forms_builds_one_base(self, monkeypatch, capsys):
        # all twelve dual-evaluation walks run on one coprime base
        from gwsym import exact
        init = exact.CoprimeBase.__init__
        built = []

        def counting(base, *args, **kwargs):
            init(base, *args, **kwargs)
            built.append(base)
        monkeypatch.setattr(exact.CoprimeBase, "__init__", counting)
        code, out = _run(["--format", "machine", "derive", "forms"], capsys)
        assert code == 0
        assert out.count("verdict\tdual-evaluation-") == 6
        assert len(built) == 1

    def test_oracle_at_large_rho(self, capsys):
        # the float oracles read exact subset norms, so none of them
        # vanishes where the scenario check accepted the sample value
        code, out = _run(["--format", "machine", "oracle", "--rho", "12"],
                         capsys)
        assert code == 0
        sections = parse_machine(out).sections
        assert [s.title for s in sections] == ["floating-point oracle"]
        # every verdict passes, so no trace warns of a conditioning loss
        assert not [e for s in sections for e in s.entries
                    if isinstance(e, TraceLine)]

    @pytest.mark.parametrize("rho", ["1e7", "1e20", "2.87e70", "2.96e70"])
    def test_oracle_beyond_float_range(self, rho, capsys):
        # the terms reach rho^50, past the float range (1e350 at rho = 1e7);
        # 2.96e70 is just below the largest rho the scenario check accepts
        code, out = _run(["--format", "machine", "oracle", "--rho", rho],
                         capsys)
        assert code == 0
        sections = parse_machine(out).sections
        assert [s.title for s in sections] == ["floating-point oracle"]

    def test_oracle_names_a_huge_rho_short(self, capsys):
        # the dense scenario accepts rho = 10^400; its names and claims
        # read 1e400, not 401 digits
        dense = str(Path(__file__).resolve().parent.parent / "bench"
                    / "dense.scn")
        for fmt in ("text", "machine"):
            code, out = _run(["--scenario", dense, "--format", fmt, "oracle",
                              "--rho", "1e400"], capsys)
            assert code == 0
            assert max(map(len, out.splitlines())) <= 160
        report = parse_machine(out)
        assert report.to_machine() == out
        names = [e.name for s in report.sections for e in s.entries
                 if isinstance(e, Verdict)]
        assert "total-exact-jet-rho-1e400" in names
        assert all(len(name) <= 30 + RHO_NAME_LIMIT for name in names)

    @pytest.mark.parametrize("rho, name", [
        (Fraction(10 ** 20), "100000000000000000000"),
        (Fraction(10 ** 39), str(10 ** 39)),     # 40 characters, spelled out
        (Fraction(10 ** 40), "1e40"),
        (Fraction(10 ** 400), "1e400"),
        (Fraction(25 * 10 ** 299), "25e299"),
        (Fraction(10 ** 400, 3), "1/3e400"),
        (Fraction(7, 10 ** 60), "7e-60"),
    ])
    def test_rho_names(self, rho, name):
        assert rho_name(rho) == name

    def test_rho_name_without_a_short_decimal_form(self):
        # no power of ten to factor out: a digest of the exact value
        a, b = (rho_name(Fraction(10 ** 400 + k)) for k in (1, 2))
        assert a.startswith("sha256-") and len(a) <= RHO_NAME_LIMIT
        assert a != b
        assert a == rho_name(Fraction(10 ** 400 + 1))

    def test_oracle_past_the_int_digit_limit(self, capsys):
        # the float oracle of this configuration forms no power of rho, so
        # it accepts rho = 10^5000, whose digits Python will not convert
        # from an int to a string; its names read 1e5000
        scenario = str(Path(__file__).resolve().parent.parent / "tools"
                       / "rho_free.scn")
        assert float_exponent(load_scenario(scenario).config) == 0
        code, out = _run(["--scenario", scenario, "--format", "machine",
                          "oracle", "--rho", "1e5000"], capsys)
        assert code == 0
        titles = [s.title for s in parse_machine(out).sections]
        assert titles == ["floating-point oracle"]
        assert "total-exact-jet-rho-1e5000\tpass" in out
        assert max(map(len, out.splitlines())) <= 160

    def test_cancellation_scale_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "big.scn"
        path.write_text("format = machine\noracle_rho = 10000000\n")
        code, out = _run(["--scenario", str(path), "verify", "total"], capsys)
        assert code == 0
        assert ("value\tfloat-oracle-cancellation-scale-rho-10000000\t"
                "2.500e+349\n") in out

    def test_engine_failure_names_command_and_type(self, monkeypatch,
                                                   capsys):
        import gwsym.cli as cli

        def broken(report, scenario, rho=None):
            raise ArithmeticError("boom")
        monkeypatch.setitem(cli.SUITES, "orders", broken)
        monkeypatch.setattr(cli, "suite_oracle", broken)
        for argv, command in ((["verify", "orders"], "verify orders"),
                              (["oracle", "--rho", "2"], "oracle")):
            code, out = _run(["--format", "machine"] + argv, capsys)
            assert code == 1
            (section,) = parse_machine(out).sections
            assert section.title == "internal error"
            (verdict,) = section.entries
            assert not verdict.passed
            assert verdict.claim == (f"evaluation failed in {command}: "
                                     "ArithmeticError: boom")

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        code, out = _run(["--out", str(path), "verify", "orders"], capsys)
        assert code == 0
        assert path.read_text() == out

    def test_unwritable_out_exits_2_before_any_suite(self, tmp_path,
                                                     monkeypatch, capsys):
        import gwsym.cli as cli

        def must_not_run(report, scenario):
            raise AssertionError("a suite ran")
        monkeypatch.setitem(cli.SUITES, "orders", must_not_run)
        missing = tmp_path / "no" / "such" / "dir" / "r.txt"
        scenario = tmp_path / "out.scn"
        scenario.write_text(f"out = {missing}\n")
        for argv, path, reason in (
                (["--out", str(missing)], missing,
                 "No such file or directory"),
                (["--scenario", str(scenario)], missing,
                 "No such file or directory"),
                (["--out", str(tmp_path)], tmp_path, "Is a directory")):
            assert run(argv + ["verify", "orders"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"output error: {path}: {reason}\n"
        assert not missing.parent.exists()
        # a bad rho is a usage error found first: the output path is not
        # touched
        report = tmp_path / "r.txt"
        assert run(["--out", str(report), "oracle", "--rho", "1"]) == 2
        assert not report.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this system")
    def test_failed_out_write_exits_2(self, tmp_path, capsys):
        # /dev/full opens, so the start-up check passes; the write fails
        scenario = tmp_path / "out.scn"
        scenario.write_text("out = /dev/full\n")
        for argv in (["--out", "/dev/full"], ["--scenario", str(scenario)]):
            assert run(argv + ["verify", "orders"]) == 2
            captured = capsys.readouterr()
            # the report on stdout is written before the file
            assert "ALL CHECKS PASSED" in captured.out
            assert captured.err == ("output error: /dev/full: "
                                    "No space left on device\n")

    @pytest.mark.parametrize("argv, want_code", [
        (["verify", "items"], 1),
        (["verify", "total"], 0),
        (["oracle", "--rho", "2"], 0),
    ], ids=["verify-items", "verify-total", "oracle-rho-2"])
    def test_items_machine_round_trip(self, argv, want_code, capsys):
        code, out = _run(["--format", "machine"] + argv, capsys)
        assert code == want_code
        report = parse_machine(out)
        assert out == report.to_machine()

    def test_custom_scenario_skips_published_comparisons(self, tmp_path,
                                                         capsys):
        # the standard covectors rescaled by 2: a valid configuration whose
        # values differ from the published tables
        path = tmp_path / "scaled.txt"
        path.write_text(
            "zeta1 = 2, 0, 2, 0\n"
            "zeta2 = -2, 0, 0, -2\n"
            "zeta3 = 1/rho^10, 1/rho^10, 0, 0\n"
            "zeta4 = 2*rho^10, -2*rho^10, 0, 0\n")
        code, out = _run(["--scenario", str(path), "verify", "cancellation"],
                         capsys)
        assert code == 0
        assert "term-a-coefficient" in out
        assert "term-a-leading" not in out

    def test_custom_scenario_total_skips_published_forms(self, tmp_path,
                                                         capsys):
        # the leading-form comparison is tied to the standard entry order
        path = tmp_path / "scaled.txt"
        path.write_text(
            "zeta1 = 2, 0, 2, 0\n"
            "zeta2 = -2, 0, 0, -2\n"
            "zeta3 = 1/rho^10, 1/rho^10, 0, 0\n"
            "zeta4 = 2*rho^10, -2*rho^10, 0, 0\n"
            "oracle_rho = 2\n")
        code, out = _run(["--scenario", str(path), "--format", "machine",
                          "verify", "total"], capsys)
        assert code == 0
        assert "matches-" not in out and "published-forms" not in out
        assert "published leading forms are defined on the standard " \
               "configuration only" in out

    def test_no_command(self, capsys):
        assert run([]) == 2
