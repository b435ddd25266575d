"""tools/compare.py: the medians, ratios and wins of a BENCH file;
tools/suite_pairs.py's arguments; tools/layers.py's table."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare, suite_pairs, layers = _load("compare"), _load("suite_pairs"), _load("layers")


@pytest.mark.parametrize("name", ["BENCH_pr25.json", "BENCH_pr30.json"])
def test_reproduces_the_written_summary(name):
    bench = json.loads((ROOT / name).read_text())
    runs = compare.keyed_runs(bench)
    assert set(runs) == set(bench["summary"])
    for key, summary in bench["summary"].items():
        rows, flagged = compare.compare(runs[key], {}, {})
        assert not flagged
        seen = {row[0]: row for row in rows}
        for metric, s in summary.items():
            if not (isinstance(s, dict) and "parent_median" in s):
                continue
            _, pm, cm, ratio, wins, pairs, _ = seen[metric]
            assert (pm, cm, wins, pairs) == (s["parent_median"], s["change_median"],
                                             s["change_wins"], summary["pairs"])
            assert ratio == s["change_median"] / s["parent_median"]


def run(attempted, wall, rss=25.0, hit=0.5):
    return {"result": {"attempted": attempted, "failed": 0, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "recognize.hit_ratio": {"value": hit, "unit": "ratio"}}}}


def write(tmp_path, parent, change):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"runs": {"w": {"parent": parent, "change": change}}}))
    return path


def test_flags_an_end_to_end_metric_past_its_bound(tmp_path, capsys):
    # wall_s 30 % worse; its bound in BENCHMARK.json is 25 %
    path = write(tmp_path, [run(10, 1.0), run(10, 1.0)], [run(10, 1.3), run(10, 1.3)])
    assert compare.main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "WORSE by 30.0% > 25%" in out and "worse than the bound: w: wall_s" in out


def test_single_runs_wins_and_op_counts(tmp_path, capsys):
    # the earliest BENCH files hold one run per side, not a list
    path = write(tmp_path, run(8, 1.0, hit=0.5), run(12, 0.8, rss=26.0, hit=0.7))
    assert compare.main([str(path)]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert "ratio  0.800  won 1/1" in lines["wall_s"]
    assert "won 0/1" in lines["peak_rss_mb"] and "ops 8 -> 12" in lines["peak_rss_mb"]
    # a higher hit ratio is the better one
    assert "won 1/1" in lines["recognize.hit_ratio"]


@pytest.mark.parametrize("digits", ["0", "-5"])
def test_suite_pairs_refuses_digits_below_one(digits, capsys):
    with pytest.raises(SystemExit) as info:
        suite_pairs.parse_args(["A", "B", "--pairs", "1", "--out", "x.json",
                                "--suite", "paper-core", "--digits", digits])
    assert info.value.code == 2
    assert "--digits must be at least 1" in capsys.readouterr().err


def test_suite_pairs_digits_reach_command_and_key():
    args = suite_pairs.parse_args(["A", "B", "--pairs", "1", "--out", "x.json",
                                   "--suite", "paper-core", "--digits", "300"])
    assert suite_pairs.command(args) == ["-m", "qalg.cli", "verify", "--suite", "paper-core",
                                         "--digits", "300", "--parallelism", "1", "--json"]
    assert suite_pairs.bench_key(args) == "paper-core --digits 300"


def test_suite_pairs_key_names_a_held_out_seed():
    args = suite_pairs.parse_args(["A", "B", "--pairs", "1", "--out", "x.json",
                                   "--workload", "eval-ladder", "--seed", "7"])
    assert suite_pairs.bench_key(args) == "eval-ladder --seed 7"
    args.seed = 0
    assert suite_pairs.bench_key(args) == "eval-ladder"


def test_layers_prints_one_row_per_kernel(capsys):
    assert layers.main(["--digits", "30", "--repeat", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[-2:] == ["30", "digits"]
    names = list(layers.kernels(layers.PrecisionContext(30)))
    assert len(names) == 8 and len(rows) == len(names)
    for name, row in zip(names, rows):
        assert row.startswith(name) and float(row[len(name):]) >= 0
