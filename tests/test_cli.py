"""Command-line interface: parsing, dispatch, exit codes, JSON output."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import qalg
from qalg import JacobiCharacter, PrecisionContext, agile_star, AgileSpec, make_nome
from qalg.cli import main
from qalg.recognize import QUANTITIES

from oracles import close


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_modulus_r1(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "k", "--r", "1", "--digits", "40")
        assert code == 0
        assert out.startswith("0.7071067811865475244")

    def test_modulus_r1e20(self, capsys):
        # k_r ~ 2^-(2.3e10): the AGM's working precision must not grow with
        # its zero bits
        code, out, _ = run_cli(capsys, "eval", "k", "--r", "100000000000000000000",
                               "--digits", "50")
        assert code == 0
        assert out.startswith("2.47088910192228196664") and out.strip().endswith("e-6821881769")

    def test_rrcf_r4(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "rrcf", "--r", "4", "--digits", "80")
        assert code == 0
        assert out.startswith("0.2840790438404122960282918")

    def test_agile_star_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "agile-star", "--a", "1", "--p", "5",
                               "--r", "2", "--digits", "60")
        assert code == 0
        ctx = PrecisionContext(60)
        lib = agile_star(AgileSpec(1, 5), make_nome(2, ctx))
        with mp.workdps(80):
            printed = mp.mpf(out.strip())
        assert close(printed, lib, 45, dps=80)

    def test_json_wrapping(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "j", "--r", "2", "--digits", "40",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["subject"] == "j"
        assert doc["params"]["r"] == "2"
        assert doc["digits"] == 40
        assert doc["value"].startswith("8000.0000")

    def test_decimal_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "k", "--r", "0.5")
        assert code == 1

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "eval", "agile", "--digits", "40")
        assert code == 2
        assert "needs" in err

    def test_ki(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "ki", "--x", "1/5", "--digits", "40")
        assert code == 0
        assert out.startswith("3.6125473612")

    def test_small_r_gives_a_value(self, capsys):
        # about 7e7 factors per side directly, over the term budget; the
        # dual nome needs a handful of terms
        values = []
        for digits in ("30", "60"):
            code, out, _ = run_cli(capsys, "eval", "agile", "--a", "1", "--p", "5",
                                   "--r", "1/100000000000000", "--digits", digits)
            assert code == 0
            values.append(mp.mpf(out.split()[-1]))
        with mp.workdps(60):
            assert abs(values[0] - values[1]) <= values[1] * mp.mpf(10) ** -30


# one value for every parameter a quantity can read
SAMPLE_PARAMS = {"a": "1", "b": "1/2", "p": "4", "r": "2", "x": "1/5", "k": "1/3",
                 "mult": "2", "n": "2", "via": "eta", "method": "continued_fraction"}


def sample_flags(name):
    return [arg for param in QUANTITIES[name].params
            for arg in (f"--{param}", SAMPLE_PARAMS[param])]


class TestQuantityTable:
    @pytest.mark.parametrize("name", list(QUANTITIES))
    def test_eval(self, capsys, name):
        subject = name.replace("_", "-")
        code, out, err = run_cli(capsys, "eval", subject, *sample_flags(name),
                                 "--digits", "40", "--json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["subject"] == subject
        assert doc["params"] == {p: SAMPLE_PARAMS[p] for p in QUANTITIES[name].params}
        with mp.workdps(50):
            assert mp.isfinite(mp.mpf(doc["value"]))

    @pytest.mark.parametrize("name", list(QUANTITIES))
    def test_recognize(self, capsys, name):
        code, out, err = run_cli(capsys, "recognize", "--expr", name.replace("_", "-"),
                                 *sample_flags(name), "--degree", "2",
                                 "--digits", "60", "--json")
        assert code in (0, 3), err
        assert json.loads(out)["status"] in ("recognized", "refuted-at-bounds")


def series_file(tmp_path):
    """Taylor coefficients whose exponents are the mod-5 symbol pattern."""
    from qalg.moebius import coeffs_from_X
    X = JacobiCharacter(5)
    cs = coeffs_from_X([Fraction(X.value(n)) for n in range(1, 31)], 30)
    f = tmp_path / "series.json"
    f.write_text(json.dumps({"coeffs": [str(c) for c in cs]}))
    return str(f)


class TestAnalyze:
    def test_rrcf_pattern(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "analyze", series_file(tmp_path), "--max-period", "8")
        assert code == 0
        assert "T = 5" in out and "A = 1/5" in out
        assert "[1,5]^(1)" in out and "[2,5]^(-1)" in out

    def test_rrcf_pattern_json(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "analyze", series_file(tmp_path), "--max-period", "8",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["period"] == 5
        assert doc["A"] == "1/5"
        assert doc["catoptric"] is True
        assert ["[1,5]", "1"] in doc["product"]
        assert doc["theta"]["eta_exponent"] == "0"

    def test_log_series_degenerate(self, tmp_path, capsys):
        cs = [Fraction(1, n) for n in range(1, 31)]
        f = tmp_path / "series.json"
        f.write_text(json.dumps({"coeffs": [str(c) for c in cs]}))
        code, out, _ = run_cli(capsys, "analyze", str(f), "--max-period", "8")
        assert code == 0
        assert "degenerate" in out
        assert "(1-q^1)^(1)" in out

    @pytest.mark.parametrize("text", [
        '{"c": ["1"]}',               # no "coeffs"
        '{"coeffs": ["1", "x/2"]}',   # not a rational
        '{"coeffs": [',               # not JSON
        '{"coeffs": [0.1, 0.2, 0.3]}',  # binary floats
        '{"coeffs": [true, "1/2"]}',  # a boolean
    ])
    def test_malformed_input(self, tmp_path, capsys, text):
        f = tmp_path / "series.json"
        f.write_text(text)
        code, _, err = run_cli(capsys, "analyze", str(f))
        assert code == 2
        assert err.startswith("error:")

    def test_not_periodic(self, tmp_path, capsys):
        cs = [Fraction(n * n + 1) for n in range(1, 31)]
        f = tmp_path / "series.json"
        f.write_text(json.dumps({"coeffs": [str(c) for c in cs]}))
        code, out, _ = run_cli(capsys, "analyze", str(f), "--max-period", "8")
        assert code == 4


class TestRecognize:
    def test_const_sqrt2(self, capsys):
        with mp.workdps(80):
            value = mp.nstr(mp.sqrt(2), 70)
        code, out, _ = run_cli(capsys, "recognize", "--expr", "const",
                               "--value", value, "--degree", "4",
                               "--digits", "60")
        assert code == 0
        assert "recognized" in out
        assert "2" in out

    def test_agile_star_quartic(self, capsys):
        code, out, _ = run_cli(capsys, "recognize", "--expr", "agile-star",
                               "--a", "1", "--p", "4", "--r", "2",
                               "--degree", "8", "--digits", "120", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "recognized"
        assert doc["poly"] == [-2, 0, 0, 0, 1]
        # found at degree 4: s(4) = (4+1)*(4+1) + 2*guard, below 120 - guard
        assert doc["lattice_digits"] == 5 * 5 + 2 * 20

    def test_singular_modulus_quadratic(self, capsys):
        code, out, _ = run_cli(capsys, "recognize", "--expr", "k", "--r", "2",
                               "--degree", "4", "--json")
        assert code == 0
        assert json.loads(out)["poly"] == [-1, 2, 1]  # k_2 = sqrt(2) - 1

    @pytest.mark.parametrize("expr, message", [
        ("agile-star", "needs --a"),
        ("theta-quotient", "unknown quantity"),
        ("periodic-normalized", "unknown quantity"),
    ])
    def test_unusable_expression_is_a_domain_error(self, capsys, expr, message):
        code, _, err = run_cli(capsys, "recognize", "--expr", expr, "--r", "2")
        assert code == 2
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("value", ["abc", "1e", ""])
    def test_malformed_value(self, capsys, value):
        code, out, err = run_cli(capsys, "recognize", "--expr", "const",
                                 "--value", value, "--degree", "4")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_value_negative_power(self, capsys):
        # theta(1, 1) is identically 0: its inverse is a typed error
        code, out, err = run_cli(capsys, "recognize", "--expr", "theta", "--a", "1",
                                 "--b", "1", "--r", "1", "--power", "-1",
                                 "--digits", "60")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "power -1" in err

    def test_const_power(self, capsys):
        # the value is raised to the power before recognition: 1/2 is a root of 2x - 1
        code, out, _ = run_cli(capsys, "recognize", "--expr", "const", "--value", "2",
                               "--power", "-1", "--degree", "4", "--digits", "60", "--json")
        assert code == 0
        assert json.loads(out)["poly"] == [-1, 2]
        code, out, err = run_cli(capsys, "recognize", "--expr", "const", "--value", "0",
                                 "--power", "-1", "--digits", "60")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "power -1" in err

    def test_insufficient_digits_guidance(self, capsys):
        code, _, err = run_cli(capsys, "recognize", "--expr", "const",
                               "--value", "1.5", "--degree", "20",
                               "--height-digits", "8", "--digits", "60")
        assert code == 2
        assert "digits" in err


class TestVerify:
    def test_series_exact(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "series-exact",
                               "--digits", "50", "--parallelism", "1")
        assert code == 0
        assert "summary" in out and "fail=0" in out

    def test_json_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "verify", "--suite", "series-exact",
                             "--digits", "50", "--parallelism", "1",
                             "--json", "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["suite"] == "series-exact"
        assert doc["summary"]["fail"] == 0

    def test_bad_suite(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "everything")
        assert code == 1

    def test_digits_floor(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "paper-core",
                               "--digits", "40")
        assert code == 2
        assert err.strip() == "error: suite runs need digits >= 50"

    def test_parallelism_floor(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "series-exact",
                               "--parallelism", "0")
        assert code == 2
        assert err.strip() == "error: parallelism must be >= 1, got 0"


class TestOut:
    """--out writes to the file exactly what stdout shows without it."""

    @pytest.mark.parametrize("argv", [
        ["eval", "k", "--r", "2", "--digits", "40"],
        ["eval", "j", "--r", "2", "--digits", "40", "--json"],
        ["analyze", "SERIES", "--max-period", "8"],
        ["analyze", "SERIES", "--max-period", "8", "--json"],
        ["recognize", "--expr", "k", "--r", "2", "--degree", "4"],
        ["recognize", "--expr", "const", "--value", "3.14159", "--degree", "2",
         "--digits", "60", "--json"],
        ["verify", "--suite", "series-exact", "--digits", "50", "--parallelism", "1"],
    ], ids=["eval", "eval-json", "analyze", "analyze-json", "recognize",
            "recognize-json", "verify"])
    def test_file_matches_stdout(self, tmp_path, capsys, argv):
        argv = [series_file(tmp_path) if a == "SERIES" else a for a in argv]
        code, shown, _ = run_cli(capsys, *argv)
        out_file = tmp_path / "out.txt"
        code_out, printed, _ = run_cli(capsys, *argv, "--out", str(out_file))
        assert code in (0, 3) and code_out == code and printed == ""
        written = out_file.read_text()
        if argv[0] == "verify":  # only the timings may differ
            def strip(text):
                return [line.split("ms  ")[-1] if "ms  " in line else line
                        for line in text.splitlines()]
            assert strip(written) == strip(shown)
        else:
            assert written == shown


def run_module(*argv, **env):
    """Run ``python -m qalg.cli`` in a child with a minimal environment.

    The child imports the same ``qalg`` package as this process (from a
    source tree, an editable or a normal install); apart from that only
    PATH and the given variables are set, so nothing else leaks in.
    """
    pkg_root = str(Path(qalg.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "qalg.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root, **env})


class TestConsoleScript:
    def test_module_invocation(self):
        proc = run_module("eval", "k", "--r", "1", "--digits", "40")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("0.70710678")

    def test_env_digits(self):
        proc = run_module("eval", "k", "--r", "1", QALG_DIGITS="45")
        assert proc.returncode == 0, proc.stderr
        # 45 digits requested, 10 held back from display
        mantissa = proc.stdout.strip().replace("0.", "")
        assert len(mantissa) == 45 - 10
