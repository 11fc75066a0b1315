"""CLI behaviour: exit codes, report lines, determinism, round-trips."""

import json

import pytest

from deltatower.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTowerBuild:
    def test_build_with_checks_passes(self, capsys):
        code, out, _ = run_cli(capsys, "tower", "build", "--utype", "2,1", "--check")
        assert code == 0
        assert "E1: (D[1] - c[1][1]) * (D[1] - c[1][2])" in out
        assert "E2: (D[2] - c[2][1])" in out
        assert out.strip().endswith("RESULT PASS")
        assert out.count("CHECK ") == 10  # five checks per level

    def test_utype_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["tower", "build", "--utype", "0,1"])
        assert info.value.code == 2

    def test_budget_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "tower", "build", "--utype", "3,3,3,3")
        assert code == 2
        assert "budget" in err.lower()

    def test_spec_roundtrip_identical_report(self, capsys, tmp_path):
        out_file = tmp_path / "spec.json"
        code, out1, _ = run_cli(
            capsys, "tower", "build", "--utype", "2,1", "--check", "--out", str(out_file)
        )
        assert code == 0
        from deltatower import TowerSpec
        from deltatower.tower import build_spec

        reparsed = TowerSpec.from_json(out_file.read_text())
        assert reparsed == build_spec((2, 1))
        code2, out2, _ = run_cli(
            capsys, "tower", "build", "--utype", "2,1", "--check", "--out", str(out_file)
        )
        assert _strip_millis(out1) == _strip_millis(out2)


def _strip_millis(text):
    lines = []
    for line in text.splitlines():
        if line.startswith("CHECK "):
            bits = line.split(" ")
            del bits[3]  # elapsed milliseconds
            line = " ".join(bits)
        lines.append(line)
    return "\n".join(lines)


class TestGridVerify:
    def test_small_budget_passes(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "verify", "--max-cells", "4")
        assert code == 0
        assert "CHECK closure_axioms PASS" in out
        assert "instances=" in out
        assert out.strip().endswith("RESULT PASS")

    def test_budget_refusal(self, capsys):
        code, _, err = run_cli(capsys, "grid", "verify", "--max-cells", "20")
        assert code == 2
        assert "budget" in err.lower()

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTATOWER_BUDGET", "3")
        code, _, err = run_cli(capsys, "grid", "verify", "--max-cells", "4")
        assert code == 2

    @pytest.mark.parametrize("max_cells", ["0", "-3"])
    def test_non_positive_max_cells_is_a_usage_error(self, capsys, max_cells):
        with pytest.raises(SystemExit) as info:
            main(["grid", "verify", "--max-cells", max_cells])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert "error:" in err
        assert "Traceback" not in err


class TestGridSeqred:
    def test_reductions(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "seqred", "--s", "3,2,1", "--mode", "reductions")
        assert code == 0
        assert "utype: 3,2,1" in out
        assert out.strip().endswith("RESULT PASS")

    def test_coreductions(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "seqred", "--s", "1,2,3", "--mode", "coreductions")
        assert code == 0
        assert "utype: 1,2,3" in out

    def test_not_monotone(self, capsys):
        code, _, err = run_cli(capsys, "grid", "seqred", "--s", "1,2", "--mode", "reductions")
        assert code == 2
        assert "nonincreasing" in err


class TestSeries:
    def test_logd_system_exponential(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--logd-system", "2", "--order", "5")
        assert code == 0
        x1 = next(line for line in out.splitlines() if line.startswith("x_1:"))
        values = json.loads(x1.split(":", 1)[1])
        assert values == [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0]
        assert out.strip().endswith("RESULT PASS")

    def test_logd_system_three_random(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "series",
            "--logd-system",
            "3",
            "--order",
            "12",
            "--initial",
            "1.5,-0.5,2.0",
        )
        assert code == 0
        assert "residual" in out

    def test_zero_initial_value(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "--logd-system", "2", "--order", "5", "--initial", "1,0"
        )
        assert code == 2
        assert "initial" in err

    def test_element_consistency(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--element", "b[1][1]*b[1][2]", "--order", "8"
        )
        assert code == 0
        assert "CHECK delta_consistency PASS" in out

    def test_element_with_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"ell": 1, "ranks": [2]}')
        code, out, _ = run_cli(
            capsys,
            "series",
            "--element",
            "b[1][1]/b[1][2]",
            "--order",
            "6",
            "--spec",
            str(spec_file),
        )
        assert code == 0

    def test_order_cap(self, capsys):
        code, _, err = run_cli(capsys, "series", "--logd-system", "2", "--order", "100")
        assert code == 2
        assert "cap" in err


class TestDeterminism:
    def test_reports_identical_modulo_timing(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "tower", "build", "--utype", "2,2", "--check", "--seed", "7"
            )
            assert code == 0
            outs.append(_strip_millis(out))
        assert outs[0] == outs[1]
