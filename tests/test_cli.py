"""Command-line interface: parsing, dispatch, exit codes, JSON output."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import qalg
from qalg import JacobiCharacter, PrecisionContext, agile_star, AgileSpec, make_nome
from qalg import harness
from qalg.cli import _rational, main
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

    @pytest.mark.parametrize("text, value", [
        ("1e70", Fraction(10 ** 70)), ("25e-2", Fraction(1, 4)), ("-3E4", Fraction(-30000)),
        ("7e+0", Fraction(7)), ("3", Fraction(3)), ("-2/6", Fraction(-1, 3)),
    ])
    def test_power_of_ten_rationals(self, text, value):
        assert _rational(text) == value

    @pytest.mark.parametrize("text", ["0.1", "1.5e3", "1e", "e5", "1e+", "1/2e3",
                                      "1e99999", "1_000", "inf"])
    def test_other_forms_rejected(self, capsys, text):
        code, _, err = run_cli(capsys, "eval", "k", "--r", text)
        assert code == 1 and "not an exact rational" in err

    def test_r_1e70_matches_integer(self, capsys):
        code, by_exponent, _ = run_cli(capsys, "eval", "k", "--r", "1e70", "--digits", "30")
        assert code == 0
        code, by_digits, _ = run_cli(capsys, "eval", "k", "--r", str(10 ** 70),
                                     "--digits", "30")
        assert code == 0 and by_exponent == by_digits

    def test_bad_env_digits_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QALG_DIGITS", "abc")
        code, out, err = run_cli(capsys, "eval", "k", "--r", "2")
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.splitlines()[-1] == "qalg eval: error: argument --digits: invalid int value: 'abc'"
        # a --digits flag overrides the environment
        code, out, _ = run_cli(capsys, "eval", "k", "--r", "2", "--digits", "40")
        assert code == 0 and out.startswith("0.41421356237")

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

    def test_json_reports_default_workers(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "series-exact", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["workers"] == 1
        assert doc["summary"] == {"pass": 15, "fail": 0, "recorded": 0}

    @pytest.mark.parametrize("suite, flag, expected", [
        ("paper-core", (), 1), ("series-exact", (), 1),
        ("conjectures", (), os.cpu_count() or 1), ("all", (), os.cpu_count() or 1),
        ("paper-core", ("--parallelism", "2"), 2), ("conjectures", ("--parallelism", "1"), 1)])
    def test_parallelism_default_per_suite(self, capsys, monkeypatch, suite, flag, expected):
        seen = []
        report = harness.IdentityReport(id="x", lhs="1", rhs="1", abs_difference="0",
                                        tolerance="1", verdict="pass", wall_time_ms=0, note="")

        def run_suite(name, digits, parallelism):
            seen.append(parallelism)
            return [report] * 40

        monkeypatch.setattr(harness, "run_suite", run_suite)
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, *flag, "--json")
        assert code == 0 and seen == [expected]
        assert json.loads(out)["workers"] == min(expected, 40)

    def test_json_workers_capped_at_check_count(self, capsys, monkeypatch):
        # a stand-in pool that maps in this process, so no worker starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        code, out, _ = run_cli(capsys, "verify", "--suite", "series-exact",
                               "--parallelism", "100", "--json")
        assert code == 0 and sizes == [15] and json.loads(out)["workers"] == 15

    def test_bad_suite(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "everything")
        assert code == 1

    def test_digits_floor(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "paper-core",
                               "--digits", "40")
        assert code == 2
        assert err.strip() == "error: suite runs need digits >= 50"

    def test_digits_zero_is_refused(self, capsys):
        # 0 is a precision below the floor, not a request for the default
        code, out, err = run_cli(capsys, "verify", "--suite", "series-exact", "--digits", "0")
        assert code == 2 and out == ""
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
    def test_import_starts_no_pool_machinery(self):
        # only verify with more than one worker imports concurrent.futures
        pkg_root = str(Path(qalg.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qalg.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_module_invocation(self):
        proc = run_module("eval", "k", "--r", "1", "--digits", "40")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("0.70710678")

    def test_closed_pipe_is_not_an_error(self):
        """A reader that is gone before qalg writes (``qalg ... | head``)."""
        pkg_root = str(Path(qalg.__file__).resolve().parents[1])
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qalg.cli", "verify", "--suite", "series-exact"],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root})
        finally:
            os.close(write)
        assert proc.returncode == 0 and "error:" not in proc.stderr, proc.stderr

    def test_env_digits(self):
        proc = run_module("eval", "k", "--r", "1", QALG_DIGITS="45")
        assert proc.returncode == 0, proc.stderr
        # 45 digits requested, 10 held back from display
        mantissa = proc.stdout.strip().replace("0.", "")
        assert len(mantissa) == 45 - 10
