"""Report serialization, scenario parsing and the command-line interface."""
import pytest

from gwsym.cli import run
from gwsym.report import Report, Verdict, parse_machine
from gwsym.scenario import ScenarioError, parse_scenario


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

    def test_missing_scenario(self, capsys):
        code = run(["--scenario", "/nonexistent/path", "verify", "orders"])
        assert code == 2

    def test_bad_rho(self, capsys):
        assert run(["oracle", "--rho", "abc"]) == 2
        assert run(["oracle", "--rho", "1"]) == 2

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
        real = cli.numeric_oracle

        def off_total(ast, rho, config):
            got = real(ast, rho, config)
            if ast == "total":
                # far beyond 1e-9 of the scale the verdict is relative to
                got[0][0] += cli.cancellation_scale(config, rho)
            return got
        monkeypatch.setattr(cli, "numeric_oracle", off_total)
        code, out = _run(["--format", "machine", "oracle", "--rho", "2"],
                         capsys)
        assert code == 1
        failing = [v.name for s in parse_machine(out).sections
                   for v in s.entries if isinstance(v, Verdict) and not v.passed]
        assert failing == ["total-float-dual-path-rho-2"]

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        code, out = _run(["--out", str(path), "verify", "orders"], capsys)
        assert code == 0
        assert path.read_text() == out

    def test_items_machine_round_trip(self, capsys):
        code, out = _run(["--format", "machine", "verify", "items"], capsys)
        assert code == 1
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
