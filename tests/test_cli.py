"""CLI behaviour: exit codes, report lines, determinism, round-trips."""

import hashlib
import json
import subprocess
import sys
import time

import pytest
from _support import BUDGET_UTYPES, child_env, cli_in_child, counting_cancel, run_python, utype_id

from deltatower import cli, gridcheck, operators, series
from deltatower.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTowerBuild:
    def test_utype_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["tower", "build", "--utype", "0,1"])
        assert info.value.code == 2

    def test_budget_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "tower", "build", "--utype", "3,3,3,3")
        assert code == 2
        assert "budget" in err.lower()

    def test_check_lines_stream(self, capsys, monkeypatch):
        # the first level-2 check raises: the five level-1 lines are out already
        # each command imports what it runs when it runs, so the patch of
        # the defining module is what it sees
        real = operators.apply_operator

        def apply_operator(op, x, spec):
            if op.level == 2:
                raise RuntimeError("interrupted")
            return real(op, x, spec)

        monkeypatch.setattr(operators, "apply_operator", apply_operator)
        with pytest.raises(RuntimeError, match="interrupted"):
            main(["tower", "build", "--utype", "2,1", "--check"])
        checks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("CHECK ")]
        assert [line.split()[1:3] for line in checks] == [
            [name, "PASS"]
            for name in ("kernel_e1", "genericity_e1", "expand_symmetry_E1", "expand_apply_E1")
        ] + [["independence_level1", "PASS"]]

    def test_an_order_dependent_expansion_fails_the_symmetry_check(self, capsys, monkeypatch):
        # the mutant's constant coefficient is the first factor's eigenvalue
        real = operators.expand

        def order_dependent(op):
            coefficients = real(op).coefficients
            return operators.ExpandedOperator(op.level, (op.eigenvalues[0], *coefficients[1:]))

        monkeypatch.setattr(operators, "expand", order_dependent)
        code, out, _ = run_cli(capsys, "tower", "build", "--utype", "2", "--check")
        assert code == 1 and out.endswith("RESULT FAIL\n")
        line = next(line for line in out.splitlines() if "expand_symmetry_E1" in line)
        assert line.split()[2] == "FAIL" and line.endswith(" expansion depends on the factor order")

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

    @pytest.mark.parametrize("name", ["no-such-dir/spec.json", "."])
    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path, name):
        # a missing directory, and a directory in place of a file
        argv = ["tower", "build", "--utype", "1", "--out", str(tmp_path / name)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write --out"), err


# sha256 prefixes of the stripped stdout and of RunReport.to_json of
# `tower build --utype U --check` at the default seed, for all 39 budget
# U-types: the first 23 as printed by the version before the
# structure-aware gcd (the U-types it finished), the other 16 as printed
# before the derivation became one Euler operator per level.
REPORT_DIGESTS = {
    "1": ("7c064a22ed63a6f6", "0ce9cbdd1632108a"),
    "2": ("b48b878abd1d46d0", "95cd2dd2c31dae43"),
    "3": ("4f3e51d17ad86659", "ab03762c1e0991a4"),
    "1,1": ("906b01f9b5b1e6bb", "d7bd4a65ff650180"),
    "1,2": ("c6dad31e31cc1f94", "a89b0147bcfb87e4"),
    "1,3": ("63e27ba4622c095c", "c9bc8bf02febccc6"),
    "2,1": ("e406e55c07359a87", "544ec9739c7e8195"),
    "2,2": ("730cf4527cfcb50d", "609b4cc1ab57be50"),
    "2,3": ("62c4abda9975a65e", "45c2418fd1c61b6a"),
    "3,1": ("eb86c272a384f3d9", "a347de022a807122"),
    "3,2": ("38ca714f9be2dcde", "a2053d2f0d1051b0"),
    "1,1,1": ("482a298d6162c20f", "21c52616ff639b1d"),
    "1,1,2": ("426f6d407323cdf3", "3712079a88e5ef04"),
    "1,1,3": ("a73e58bd87f2f96f", "05756438f19ad428"),
    "1,2,1": ("d3e7f546f308afd7", "0e739a776deff65a"),
    "1,2,2": ("2d7ba9249f368d2a", "20885227d2697d8f"),
    "1,3,1": ("fc7cba28097eb755", "6809fc87671de4e6"),
    "2,1,1": ("a1e15db94778f7a5", "a1403ed1236305f6"),
    "2,1,2": ("2a9433e13c91e4d6", "2ec306699f0e8a4b"),
    "2,2,1": ("a1a9b72c62421da9", "cb7cda822e5c356a"),
    "3,1,1": ("cd4e15aef429b411", "c579501d9f2aed4b"),
    "3,1,2": ("be4deffbe954d3ee", "d7436ac8a8dcf8db"),
    "3,2,1": ("71aab856b083b855", "9cb3b2186a3688f9"),
    "1,2,3": ("e35010ee2962adbc", "74a88462f15da949"),
    "1,3,2": ("6d3473bf1894f4f0", "89adb4ed84c20517"),
    "1,3,3": ("ff0dd0c106a45d6b", "695498756ade133e"),
    "2,1,3": ("3304d885331ec051", "3728b07b881d03af"),
    "2,2,2": ("4c382ea6c8ad7852", "95f34743f435d2ff"),
    "2,2,3": ("9652e5dbfc037179", "26ba45235b4da935"),
    "2,3,1": ("c2260ea7b0c18c15", "c65623fb43df9ccb"),
    "2,3,2": ("aa63fed5685ac0d3", "894274b817091667"),
    "2,3,3": ("112aa053944facd6", "1338a87891ee4b81"),
    "3,1,3": ("360510a76fd09447", "f17a4528b446af95"),
    "3,2,2": ("d0e1764814250faf", "958e64c9ca49f13f"),
    "3,2,3": ("3b6f56eb5e82c8b9", "dc16cc0d470c26c5"),
    "3,3": ("ad50ee9b5f33c445", "4140ffb93e917196"),
    "3,3,1": ("542302b101d8cac7", "d4e67d27b8cec187"),
    "3,3,2": ("8ee638194b2aa534", "d64d58d7d2d16160"),
    "3,3,3": ("0f598286cb518b77", "2eb4648e467c8185"),
}


def _build_report(capsys, monkeypatch, utype):
    """Run `tower build --check`; return exit code, stripped stdout and the
    RunReport's to_json."""
    reports = []

    class Recording(cli.RunReport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            reports.append(self)

    monkeypatch.setattr(cli, "RunReport", Recording)
    code, out, _ = run_cli(capsys, "tower", "build", "--utype", utype, "--check")
    return code, _strip_millis(out), reports[0].to_json()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestTowerBudget:
    @pytest.mark.parametrize("utype", sorted(REPORT_DIGESTS))
    def test_reports_unchanged(self, capsys, monkeypatch, utype):
        # the budget's U-types, each built with no gcd: tower denominators
        # are cancelled by their factors alone
        assert REPORT_DIGESTS.keys() == set(map(utype_id, BUDGET_UTYPES))
        with counting_cancel() as calls:
            code, out, report_json = _build_report(capsys, monkeypatch, utype)
        assert code == 0 and calls == []
        assert (_digest(out), _digest(report_json)) == REPORT_DIGESTS[utype], out


def _strip_millis(text):
    lines = []
    for line in text.splitlines():
        if line.startswith("CHECK "):
            bits = line.split(" ")
            del bits[3]  # elapsed milliseconds
            line = " ".join(bits)
        lines.append(line)
    return "\n".join(lines)


# sha256 prefixes of the stripped stdout of `series ARGS --order N` at
# orders 8, 16, 32 and 64, as printed before the monomial series were kept
# per (spec, context).  Every coefficient prints as repr(float), so a
# change in any product or summation order shows here.
SERIES_ORDERS = (8, 16, 32, 64)
SERIES_DIGESTS = {
    ("--element", "1/b[1][3]^2"):
        ("5140db23a9b73552", "1c5f2da76a89de85", "64df037417eef305", "649aaebb86d4c719"),
    ("--element", "(b[1][1] + c[1][2])/(b[1][1] + b[1][2])^2"):
        ("c3eb4d2ea7cd6591", "269b1bc6a64fb4a7", "328d5c867b56e904", "0d2962188d9c02eb"),
    ("--element", "c[2][1]*b[2][1]^2 - b[1][2]*b[2][2]/b[2][1]"):
        ("a283f956a4fb81a6", "58384c739faf0e4d", "dee86c3191862a2b", "d67038acc70cbf2a"),
    ("--element", "3/2 + c[1][1]^2*b[1][1] - b[1][2]^3"):
        ("146d1e48819a50a5", "1a9b243ffb245cdf", "bf4c81393d2cc93c", "0dc844eb340ff474"),
    ("--element", "(b[1][1]^2 + c[1][1])/(c[1][2]*b[1][2]^3)"):
        ("df4bfb0cfe4b5a6e", "c39dcb2f0d7729dd", "155406b284e1fcbb", "a5b2bca622c9f126"),
    ("--logd-system", "3", "--h", "b[1][1]"):
        ("4ab225ed48aba951", "b67b81a98fbced92", "f837309f27d17fd6", "b9f553955d140428"),
}


@pytest.mark.parametrize("args", sorted(SERIES_DIGESTS))
def test_series_output_unchanged(capsys, args):
    digests = []
    for order in SERIES_ORDERS:
        code, out, _ = run_cli(capsys, "series", *args, "--order", str(order))
        assert code == 0, out
        digests.append(_digest(_strip_millis(out)))
    assert tuple(digests) == SERIES_DIGESTS[args]


class TestGridVerify:
    def test_budget_refusal(self, capsys):
        code, _, err = run_cli(capsys, "grid", "verify", "--max-cells", "20")
        assert code == 2
        assert "budget" in err.lower()

    def test_check_lines_stream(self, capsys, monkeypatch):
        # the fourth property raises: the first three lines are out already
        def interrupted(max_cells):
            raise RuntimeError("interrupted")

        props = list(gridcheck.ALL_PROPERTIES)
        props[3] = (props[3][0], interrupted, props[3][2])
        monkeypatch.setattr(gridcheck, "ALL_PROPERTIES", props)
        with pytest.raises(RuntimeError, match="interrupted"):
            main(["grid", "verify", "--max-cells", "4"])
        out = capsys.readouterr().out
        assert [line.split()[1:3] for line in out.splitlines()] == [
            [name, "PASS"] for name, _, _ in props[:3]
        ]

    def test_twelve_cells_check_every_property_and_stay_small(self):
        # all ten properties at the full budget, counted through orbit weights
        argv = ["grid", "verify", "--max-cells", "12"]
        (*checks, result), code, peak_mb = cli_in_child(argv, timeout=300)
        assert (code, result) == (0, "RESULT PASS") and peak_mb < 64, (code, result, peak_mb)
        expected = {name: 869_516 for name, _, _ in gridcheck.ALL_PROPERTIES}
        expected["closure_axioms"] = 3_908_501
        expected["urank_additivity"] = 78_958_050_872
        expected["column_chain_length"] = 12
        fields = [line.split() for line in checks]
        assert [f[:3:2] for f in fields] == [["CHECK", "PASS"]] * len(expected)
        assert {f[1]: f[4] for f in fields} == {n: f"instances={v}" for n, v in expected.items()}

    def test_closed_pipe_ends_without_a_traceback(self):
        # the reader closes the pipe after the first CHECK line; the second
        # property waits for that (end of stdin), so its line is the write
        # that meets the closed pipe
        script = (
            "import sys\n"
            "from deltatower import cli, gridcheck\n"
            "name, fn, cap = gridcheck.ALL_PROPERTIES[1]\n"
            "def after_the_reader_left(max_cells):\n"
            "    sys.stdin.read()\n"
            "    return fn(max_cells)\n"
            "gridcheck.ALL_PROPERTIES[1] = (name, after_the_reader_left, cap)\n"
            "sys.exit(cli.main(['grid', 'verify', '--max-cells', '3']))\n"
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        try:
            first = child.stdout.readline()
            child.stdout.close()
            child.stdin.close()
            err = child.stderr.read().decode()
            code = child.wait(timeout=60)
        finally:
            child.kill()
        assert first.startswith(b"CHECK closure_axioms PASS ")
        assert (code, err) == (1, ""), err  # no traceback, no "Exception ignored"

    @pytest.mark.parametrize("max_cells", ["0", "-3"])
    def test_non_positive_max_cells_is_a_usage_error(self, capsys, max_cells):
        with pytest.raises(SystemExit) as info:
            main(["grid", "verify", "--max-cells", max_cells])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert "error:" in err
        assert "Traceback" not in err


def test_python_m_runs_the_cli():
    done = run_python(["-m", "deltatower", "grid", "verify", "--max-cells", "3"], timeout=60)
    assert done.stdout.splitlines()[-1] == "RESULT PASS"


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

    @pytest.mark.parametrize("mode", ["reductions", "coreductions"])
    @pytest.mark.parametrize(
        "s",
        ["2001", "1," * 2000 + "1", ",".join(map(str, range(45, 0, -1))), "100000000"],
        ids=["one-row", "one-column", "staircase", "huge"],
    )
    def test_past_the_cell_cap_is_refused(self, capsys, s, mode):
        if mode == "coreductions":
            s = ",".join(reversed(s.split(",")))
        code, out, err = run_cli(capsys, "grid", "seqred", "--s", s, "--mode", mode)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error:") and "cap 2000" in err

    @pytest.mark.parametrize("s", ["2000", "40,40"])
    def test_grids_within_the_cap_pass(self, capsys, s):
        for mode in ("reductions", "coreductions"):
            code, out, _ = run_cli(capsys, "grid", "seqred", "--s", s, "--mode", mode)
            assert code == 0 and out.strip().endswith("RESULT PASS")

    def test_wide_coreductions_finish(self):
        # 20 columns of depth 2: a search over the closed subsets below the
        # target would visit 3^20 of them
        argv = ["grid", "seqred", "--s", "20,20", "--mode", "coreductions"]
        done = run_python(["-m", "deltatower.cli", *argv], timeout=10)
        assert "utype: 20,20" in done.stdout

    @pytest.mark.parametrize("mode", ["reductions", "coreductions"])
    def test_one_column_at_the_cap_stays_small(self, mode):
        # the slowest accepted shape, one column of 2,000 levels
        argv = ["grid", "seqred", "--s", "1," * 1999 + "1", "--mode", mode]
        _, code, peak_mb = cli_in_child(argv, timeout=60)
        assert code == 0 and peak_mb < 64, (code, peak_mb)


DIGITS = "7" * 4400  # past the interpreter's default limit of 4,300 digits on int()

# rows of TestSeries.BAD_INPUTS that meet the digit limit of int() and str()
DIGIT_LIMIT_INPUTS = [
    pytest.param(["--element", DIGITS], None, "4400 digits", id="digits-literal"),
    pytest.param(["--element", f"b[1][1]^{DIGITS}"], None, "4400 digits", id="digits-exponent"),
    pytest.param(["--element", f"b[{DIGITS}][1]"], None, "4400 digits", id="digits-index"),
    pytest.param(["--logd-system", "2", "--h", DIGITS], None, "4400 digits", id="digits-h"),
    pytest.param(
        ["--element", "b[1][1]", "--spec"], f'{{"ranks": [{DIGITS}]}}', "more digits", id="digits-rank"
    ),
    pytest.param(
        ["--element", "b[1][1]", "--spec"],
        f'{{"ranks": [2], "assignments": {{"c[1][1]": {DIGITS}}}}}',
        "more digits",
        id="digits-assignment",
    ),
    # evaluated to 0.0, but their coefficients have too many digits to print
    pytest.param(["--element", "b[1][1]/3^9100"], None, "4342 digits", id="digits-printed-den"),
    pytest.param(["--element", "2^-9000*2^-9000*b[1][1]"], None, "5419 digits", id="digits-printed-num"),
]

# runs cli.main on each argv of the JSON list argv[1] in one interpreter and
# prints [exit code, stdout, stderr] per run as JSON
IN_PROCESS_SCRIPT = """
import contextlib, io, json, sys
from deltatower.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _with_spec(argv, spec_text, path):
    """argv with a trailing --spec given a file: ``spec_text`` written at
    path, or, for None, a missing file."""
    if argv[-1] != "--spec":
        return argv
    if spec_text is None:
        path = path.with_name("no-such-spec.json")
    else:
        path.write_text(spec_text)
    return argv + [str(path)]


def _is_one_error_line(code, out, err, word):
    """The bad-input contract: exit 2, no stdout, one error: line naming word."""
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert word in lines[0]


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

    def test_overflowing_initial_values_fail(self, capsys, recwarn):
        code, out, err = run_cli(
            capsys, "series", "--logd-system", "2", "--order", "8", "--initial", "1e308,1e308"
        )
        assert code == 1
        assert err == "" and not recwarn.list  # the FAIL line says it; numpy stays quiet
        assert "CHECK residual FAIL" in out
        assert "defining-equation residual inf" in out
        assert out.strip().endswith("RESULT FAIL")

    def test_overflowing_element_series_fails_quietly(self, capsys, recwarn, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"ranks": [1], "assignments": {"c[1][1]": "10000000"}}')
        argv = ["--element", "b[1][1]", "--order", "64", "--spec", str(spec)]
        code, out, err = run_cli(capsys, "series", *argv)
        assert code == 1
        assert err == "" and not recwarn.list
        assert "CHECK delta_consistency FAIL" in out
        assert "derivation/series residual inf" in out
        assert out.strip().endswith("RESULT FAIL")

    def test_a_numerator_of_costly_content_finishes(self):
        # the sum's gcd with the residue b[1][1]+b[1][2]+b[1][3]+c[1][1] is
        # 1, which a constant image mod the first prime proves, so the
        # 66-term numerator's content in any variable is never formed
        text = (
            "(b[1][1]+b[1][2])*(b[1][1]+b[1][2]+b[1][3]+c[1][1]) - (b[1][1] + b[1][3])^15"
            " - 3/(b[1][1]+b[1][2]+b[1][3]+c[1][1])"
        )
        done = run_python(["-m", "deltatower.cli", "series", "--element", text, "--order", "8"], timeout=10)
        assert "CHECK delta_consistency PASS" in done.stdout and done.stdout.endswith("RESULT PASS\n")

    def test_a_long_univariate_remainder_sequence_is_refused(self):
        # Euclid on dense remainders of degree about 10^5 costs the square of
        # the degree, and a division by a sparse divisor of degree 10^9 steps
        # down every exponent: the work cap refuses both, one error: line each
        # that names the cap's unit
        texts = [
            "1/(b[1][1]^100000 - 1) + 1/(b[1][1]^99999 - 1)",
            "1/(b[1][1]^2000000000 - 1) + 1/(b[1][1]^1000000000 + 1)",
        ]
        argvs = [["series", "--element", text] for text in texts]
        done = run_python(["-c", IN_PROCESS_SCRIPT, json.dumps(argvs)], timeout=10)
        for result in json.loads(done.stdout):
            _is_one_error_line(*result, "units of work")

    @pytest.mark.parametrize(
        "text",
        [
            # coprime residues, certified by one image each
            pytest.param(
                "4/((1*c[1][2] + 2*b[1][2] + 3*b[1][3])^4)"
                " + 2/((3*b[1][2] + 2*c[1][2])^2*(3*c[1][2] + 1*b[1][1])^1)",
                id="coprime-residues",
            ),
            pytest.param(
                "(b[1][1]+b[1][2])*(b[1][1]+b[1][2]+b[1][3]+c[1][1]) - (b[1][1] + b[1][3])^15"
                " - 3/(b[1][1]+b[1][2]+b[1][3]+c[1][1])",
                id="costly-content",
            ),
            # a residue with repeated factors: derive's gcd(f, delta f) is not 1
            pytest.param(
                "4/((3*c[1][1] + 2*b[1][3] + 3*c[1][2])^3*(3*c[1][2] + 3*c[1][1] + 1*b[1][2])^2"
                "*(1*b[1][2] + 1*c[1][2])^1) + 1/((2*c[1][2] + 2*c[1][1] + 1*b[1][1])^1)",
                id="repeated-factors",
            ),
            # univariate images of degree 3000, sparse: x^3000 - 2 keeps two terms
            pytest.param("1/(b[1][1]^3000 - 2) + 1/(b[1][1]^2999 + b[1][2])", id="sparse-images"),
        ],
    )
    def test_sums_of_reciprocals_finish(self, capsys, text):
        start = time.process_time()
        code, out, _ = run_cli(capsys, "series", "--element", text, "--order", "8")
        assert code == 0 and "CHECK delta_consistency PASS" in out
        assert time.process_time() - start < 2

    def test_a_spec_value_equal_to_a_default_is_accepted(self, capsys, tmp_path):
        # c[1][2] would default to 3, which c[1][1] takes; it moves to 5
        spec = tmp_path / "spec.json"
        spec.write_text('{"ranks": [2], "assignments": {"c[1][1]": "3"}}')
        code, out, err = run_cli(capsys, "series", "--element", "b[1][1]", "--spec", str(spec))
        assert (code, err) == (0, "")
        assert "series: [1.0, 3.0, 4.5, 4.5," in out and out.endswith("RESULT PASS\n")

    def test_a_level_of_more_than_18_symbols_takes_further_primes(self, capsys):
        argv = ["--element", "c[1][19] + b[1][19]", "--order", "3"]
        code, out, err = run_cli(capsys, "series", *argv)
        assert (code, err) == (0, "")
        assert "series: [68.0, 67.0, 2244.5]" in out and out.endswith("RESULT PASS\n")

    def test_zero_initial_value(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "--logd-system", "2", "--order", "5", "--initial", "1,0"
        )
        assert code == 2
        assert "initial" in err

    def test_logd_system_evaluates_h_once(self, capsys, monkeypatch):
        # one series of h serves both the solver and the residual
        calls = []
        real = series.eval_series

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(series, "eval_series", counted)
        argv = ["--logd-system", "3", "--order", "12", "--h", "b[1][1]"]
        code, out, _ = run_cli(capsys, "series", *argv)
        assert code == 0 and out.endswith("RESULT PASS\n")
        assert len(calls) == 1

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

    def test_logd_system_at_the_cap_passes(self, capsys):
        argv = ["--logd-system", str(cli.MAX_LOGD_SYSTEM), "--order", "2"]
        code, out, _ = run_cli(capsys, "series", *argv)
        assert code == 0 and out.endswith("RESULT PASS\n")

    def test_order_cap(self, capsys):
        code, _, err = run_cli(capsys, "series", "--logd-system", "2", "--order", "100")
        assert code == 2
        assert "cap" in err

    # (arguments, spec file text or None, a word of the message); the spec
    # argument, when present, names a file in the test's directory
    BAD_INPUTS = [
        (["--logd-system", "2", "--order", "1"], None, "order"),
        (["--element", "b[1][1]", "--order", "1"], None, "order"),
        (["--logd-system", "2", "--order", "0"], None, "order"),
        (["--logd-system", "0"], None, "logd-system"),
        (["--logd-system", "-1"], None, "logd-system"),
        (["--element", "b[1][1]", "--spec"], "{ranks: [2", "JSON"),
        (["--element", "b[1][1]", "--spec"], '{"ell": 1}', "ranks"),
        (["--element", "b[1][1]", "--spec"], None, "no-such-spec.json"),
        (["--element", "b[1][1]", "--spec"], '{"ranks": [0]}', "malformed"),
        (
            ["--element", "b[1][1]", "--spec"],
            '{"ranks": [2], "assignments": {"c[1][1]": "abc"}}',
            "decimal",
        ),
        (
            ["--element", "b[1][1]", "--spec"],
            '{"ranks": [2], "assignments": {"c[1][1]": "2", "c[1][2]": "2"}}',
            "distinct",
        ),
        (["--element", "(b[1][1]+b[1][2]+b[1][3]+c[1][1])^30", "--order", "8"], None, "cap"),
        (["--element", "2^1100", "--order", "8"], None, "float range"),
        (["--element", "c[1][1]^1100", "--order", "8"], None, "float range"),
        (["--logd-system", "2", "--h", "2^1100", "--order", "8"], None, "float range"),
        (["--element", "*".join(["(b[1][1]+b[1][2]+b[1][3]+c[1][1])^9"] * 3)], None, "cap"),
        (["--element", "2^20000", "--order", "8"], None, "float range"),
        (["--element", "3^8000000", "--order", "8"], None, "cap"),
        (["--element", "b[1][3]", "--spec"], '{"ranks": [2]}', "b[1][3]"),
        (["--element", "b[2][1]", "--spec"], '{"ranks": [2]}', "b[2][1]"),
        (["--element", "c[1][3]", "--spec"], '{"ranks": [2]}', "c[1][3]"),
        (["--element", "1/u[1][1]"], None, "u[1][1]"),
        (["--logd-system", "2", "--h", "u[1][1]"], None, "u[1][1]"),
        # 2^32 + 1 would spill out of a 32-bit exponent field into its neighbour
        (["--element", "c[1][1]^4294967297*c[1][2]", "--order", "4"], None, "2147483647"),
        (["--element", "b[1][1]^4294967296", "--order", "4"], None, "2147483647"),
        # int() would read these as ranks (1, 2), (1,) and ell 1
        (["--element", "b[1][1]", "--spec"], '{"ranks": [1.7, 2]}', "integers"),
        (["--element", "b[1][1]", "--spec"], '{"ranks": [true]}', "integers"),
        (["--element", "b[1][1]", "--spec"], '{"ranks": [2], "ell": 1.5}', "integer"),
        (["--logd-system", str(cli.MAX_LOGD_SYSTEM + 1), "--order", "2"], None, "cap"),
        # options the mode would ignore
        (["--element", "b[1][1]", "--initial", "nan"], None, "--initial"),
        (["--element", "b[1][1]", "--h", "0"], None, "--h"),
        (["--logd-system", "2", "--spec"], '{"ranks": [2]}', "--spec"),
        # operator text is output only: D is no token of element text
        (["--element", "D[1]"], None, "'D'"),
        # towers past the series symbol cap, by element, by --spec and by --h
        (["--element", f"b[{cli.MAX_SERIES_SYMBOLS + 1}][1]", "--order", "64"], None, "cap"),
        (["--element", f"c[1][{cli.MAX_SERIES_SYMBOLS + 1}]"], None, "cap"),
        (["--element", "b[1][1]", "--spec"], f'{{"ranks": [{cli.MAX_SERIES_SYMBOLS}, 1]}}', "cap"),
        (["--logd-system", "2", "--h", f"b[{cli.MAX_SERIES_SYMBOLS + 1}][1]"], None, "cap"),
        # refused before a rank is built for each of its 10^7 levels
        (["--element", "b[10000000][1] + c[1][2]"], None, "10000001 symbols"),
        # assignments the tower would ignore: no symbol of ranks [1]
        (["--element", "b[1][1]", "--spec"], '{"ranks": [1], "assignments": {"C[1][1]": "7"}}', "C[1][1]"),
        (["--element", "b[1][1]", "--spec"], '{"ranks": [1], "assignments": {"c[1][2]": "7"}}', "c[1][2]"),
        (["--element", "b[1][1]", "--spec"], '{"ranks": [1], "assignments": {"b[1][1]": "7"}}', "b[1][1]"),
        # refused before the parser recurses, and before json.loads' RecursionError
        pytest.param(["--element", "(" * 250 + "b[1][1]" + ")" * 250], None, "nest", id="nested-parentheses"),
        pytest.param(
            ["--element", "b[1][1]", "--spec"], '{"ranks": ' + "[" * 1000 + "]" * 1000 + "}", "nest",
            id="nested-spec",
        ),
        *DIGIT_LIMIT_INPUTS,
    ]

    @pytest.mark.parametrize(
        "argv, slow",
        [
            (["--logd-system", "2", "--order", "5"], "prolonged_residual"),
            (["--element", "b[1][1]", "--order", "5"], "delta_consistency_residual"),
        ],
    )
    def test_check_time_includes_the_residual(self, capsys, monkeypatch, argv, slow):
        real = getattr(series, slow)

        def slow_residual(*args):
            time.sleep(0.2)
            return real(*args)

        monkeypatch.setattr(series, slow, slow_residual)
        code, out, _ = run_cli(capsys, "series", *argv)
        assert code == 0
        check = next(line for line in out.splitlines() if line.startswith("CHECK "))
        assert int(check.split()[3]) >= 200, check

    @pytest.mark.parametrize("initial", ["1,x", ""])
    def test_unparsable_initial_values_are_a_usage_error(self, capsys, initial):
        with pytest.raises(SystemExit) as info:
            main(["series", "--logd-system", "2", "--initial", initial])
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert info.value.code == 2
        assert len(errors) == 1 and "--initial" in errors[0], errors
        assert "_parse_floats" not in errors[0], errors

    def test_float_range_error_names_only_the_magnitude(self, capsys):
        code, _, err = run_cli(capsys, "series", "--element", "2^1100", "--order", "8")
        assert code == 2
        assert err == "error: coefficient of about 10^331 is outside float range\n"

    @pytest.mark.parametrize("argv, spec_text, word", BAD_INPUTS)
    def test_bad_input_is_one_error_line(self, capsys, tmp_path, argv, spec_text, word):
        argv = _with_spec(argv, spec_text, tmp_path / "spec.json")
        _is_one_error_line(*run_cli(capsys, "series", *argv), word)

    @pytest.mark.parametrize("flags", [[], ["-X", "int_max_str_digits=640"]], ids=["default", "640"])
    def test_the_digit_limit_rows_hold_at_any_limit(self, tmp_path, flags):
        rows = [row.values for row in DIGIT_LIMIT_INPUTS]
        argvs = [
            ["series", *_with_spec(argv, spec_text, tmp_path / f"spec{i}.json")]
            for i, (argv, spec_text, _) in enumerate(rows)
        ]
        done = run_python([*flags, "-c", IN_PROCESS_SCRIPT, json.dumps(argvs)], timeout=120)
        for result, (_, _, word) in zip(json.loads(done.stdout), rows, strict=True):
            _is_one_error_line(*result, word)


# Registers every variable of the budget in reversed order before anything
# else touches a monomial, so the packed exponent slots differ from a fresh run.
SLOT_ORDER_SCRIPT = '''
import sys
from deltatower import polyring
if sys.argv[1] == "reversed":
    names = sorted(((k, i, j) for k in "bcu" for i in (1, 2, 3) for j in (1, 2, 3)), reverse=True)
    for v in names:
        polyring.monomial([(v, 1)])
    if polyring._SLOT_VARS != names:
        raise SystemExit("the slots were not assigned in reversed order")
from deltatower.cli import main
main(["tower", "build", "--utype", "2,3", "--check"])
main(["series", "--element", "(b[1][1]+b[1][2]+b[1][3])^-2"])
'''


def test_output_does_not_depend_on_the_slot_order():
    outs = []
    for order in ("fresh", "reversed"):
        done = run_python(["-c", SLOT_ORDER_SCRIPT, order], timeout=120)
        outs.append(_strip_millis(done.stdout))
    assert "RESULT FAIL" not in outs[0] and outs[0].count("RESULT PASS") == 2
    assert outs[0] == outs[1]


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
