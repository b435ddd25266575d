"""Identity-check registry, suite runner, report emission."""

import json
from dataclasses import asdict
from fractions import Fraction

import mpmath as mp
import pytest

from qalg import (DomainError, PrecisionContext, Residual, harness, make_nome,
                  ramanujan_modular5_check)


# anchors each suite is required to exercise
REQUIRED_ANCHORS = {
    "paper-core": {
        "eq03", "eq04", "eq05", "eq06", "eq08", "eq09", "eq10", "eq17",
        "eq33", "eq35", "eq36", "eq39", "eq40", "eq43", "eq46", "eq47",
        "eq48", "eq53", "eq54", "thm4", "ex2", "ex3",
    },
    "conjectures": {"eq19", "eq45", "eq55", "eq56", "eq57", "eq58", "eq59"},
    "series-exact": {"eq25", "eq33", "eq39", "eq45"},
}


class TestRegistry:
    def test_ids_unique_and_nonempty(self):
        assert len(harness.REGISTRY) > 40

    def test_required_anchors_covered(self):
        missing = []
        for suite, required in REQUIRED_ANCHORS.items():
            have = set()
            for c in harness.checks_for_suite(suite):
                have.update(c.anchors)
            missing += [f"{suite}:{anchor}" for anchor in sorted(required - have)]
        assert missing == []

    def test_every_check_reachable_from_a_suite(self):
        reachable = set()
        for suite in ("paper-core", "conjectures", "series-exact"):
            reachable.update(c.id for c in harness.checks_for_suite(suite))
        assert reachable == set(harness.REGISTRY)

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            harness.checks_for_suite("nope")


class TestExecution:
    def test_cheap_numeric_checks_pass(self):
        for check_id in ("eq05.modulus-theta.r1", "eq46.eisenstein-alpha.r1",
                         "eq47.powersum-even.r1", "eq35.jacobi5-lambert.r1"):
            report = harness._execute_check(check_id, 60)
            assert report.verdict == "pass", f"{check_id}: {report.note}"

    def test_exact_check_passes(self):
        report = harness._execute_check("eq33.series.a1p5", 50)
        assert report.verdict == "pass"
        assert report.abs_difference == "0"
        assert report.tolerance == "1"

    def test_recorded_check_never_fails(self):
        report = harness._execute_check("thm4.p2.r1", 60)
        assert report.verdict == "recorded"

    def test_determinism(self):
        a = asdict(harness._execute_check("eq05.modulus-theta.r1", 60))
        b = asdict(harness._execute_check("eq05.modulus-theta.r1", 60))
        a.pop("wall_time_ms")
        b.pop("wall_time_ms")
        assert a == b

    def test_errors_become_fail_verdicts(self):
        # a check that raises must not abort the runner
        from qalg.harness import IdentityCheck

        def boom(ctx):
            raise RuntimeError("synthetic")

        bad = IdentityCheck("synthetic.boom", ("paper-core",), (), "numeric", boom)
        harness.REGISTRY[bad.id] = bad
        try:
            report = harness._execute_check(bad.id, 60)
            assert report.verdict == "fail"
            assert "synthetic" in report.note
        finally:
            del harness.REGISTRY[bad.id]

    def test_check_runs_at_working_precision(self):
        # the runner, not the check, sets the precision and builds the outcome
        from qalg.harness import IdentityCheck
        seen = []

        def probe(ctx):
            seen.append((mp.mp.dps, ctx.dps))
            return Residual(mp.mpf(1) / 3, 1 - mp.mpf(2) / 3, note="synthetic")

        check = IdentityCheck("synthetic.precision", ("paper-core",), (), "numeric", probe)
        harness.REGISTRY[check.id] = check
        try:
            report = harness._execute_check(check.id, 60)
        finally:
            del harness.REGISTRY[check.id]
        assert seen == [(80, 80)]
        assert report.verdict == "pass"
        assert report.tolerance == "1.0e-40"
        assert report.note == "synthetic"

    def test_residual_sides_reported_at_working_precision(self):
        report = harness._execute_check("eq09.degree5-transform.r25", 120)
        ctx = PrecisionContext(120)
        res = ramanujan_modular5_check(make_nome(Fraction(25), ctx))
        with ctx.workdps():
            assert report.lhs == mp.nstr(res.lhs, 40)
            assert report.rhs == mp.nstr(res.rhs, 40)

    def test_tolerance_reported_at_working_precision(self):
        report = harness._execute_check("eq05.modulus-theta.r1", 120)
        assert report.verdict == "pass"
        assert report.tolerance == "1.0e-100"


class TestSuiteRun:
    def test_series_exact_suite(self):
        reports = harness.run_suite("series-exact", 50)
        assert all(r.verdict == "pass" for r in reports)
        summary = harness.summarize(reports)
        assert summary["fail"] == 0
        assert summary["pass"] == len(reports)

    def test_parallel_matches_sequential(self):
        seq = harness.run_suite("series-exact", 50, parallelism=1)
        par = harness.run_suite("series-exact", 50, parallelism=2)
        assert [r.id for r in seq] == [r.id for r in par]
        assert [r.verdict for r in seq] == [r.verdict for r in par]
        assert [r.abs_difference for r in seq] == [r.abs_difference for r in par]

    def test_digits_floor(self):
        with pytest.raises(DomainError):
            harness.run_suite("series-exact", 30)

    @pytest.mark.parametrize("parallelism", [0, -2])
    def test_parallelism_below_one(self, parallelism):
        with pytest.raises(DomainError):
            harness.run_suite("series-exact", 50, parallelism=parallelism)

    def test_pool_capped_at_check_count(self, monkeypatch):
        # a stand-in pool that records its size and maps in this process,
        # so asking for many workers starts none
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

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        reports = harness.run_suite("series-exact", 50, parallelism=10_000)
        assert sizes == [len(reports)] == [len(harness.checks_for_suite("series-exact"))]
        assert all(r.verdict == "pass" for r in reports)

    @pytest.mark.parametrize("suite, digits", [
        ("paper-core", 60), ("paper-core", 300), ("series-exact", 50), ("conjectures", 300)])
    def test_no_check_takes_the_dual_nome(self, suite, digits, monkeypatch):
        # every identity compares two independent routes only while no sum
        # is taken at the dual nome; count the decisions that would take it
        from qalg import modular, qengine
        taken = []
        decide = qengine._dual

        def counting(nome, s):
            if decide(nome, s):
                taken.append((nome.r, s))
            return decide(nome, s)

        monkeypatch.setattr(qengine, "_dual", counting)
        monkeypatch.setattr(modular, "_dual", counting)
        reports = harness.run_suite(suite, digits)
        assert taken == []
        assert harness.summarize(reports)["fail"] == 0


class TestEmit:
    def test_empty_summary(self):
        doc = json.loads(harness.emit_report([], "json", suite="x", digits=50))
        assert doc["summary"] == {"pass": 0, "fail": 0, "recorded": 0}

    def test_json_roundtrip(self):
        reports = [harness._execute_check("eq33.series.a1p5", 50)]
        doc = json.loads(harness.emit_report(reports, "json", suite="series-exact",
                                             digits=50))
        assert doc["summary"]["pass"] == 1
        rebuilt = [harness.IdentityReport(**c) for c in doc["checks"]]
        assert rebuilt == reports

    def test_text_format(self):
        reports = [harness._execute_check("eq33.series.a1p5", 50)]
        text = harness.emit_report(reports, "text")
        assert "eq33.series.a1p5" in text and "pass" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            harness.emit_report([], "yaml")
