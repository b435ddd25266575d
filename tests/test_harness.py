"""Identity-check registry, suite runner, report emission."""

import json

import pytest

from qalg import DomainError, harness


class TestRegistry:
    def test_ids_unique_and_nonempty(self):
        assert len(harness.REGISTRY) > 40

    def test_required_anchors_covered(self):
        assert harness.registry_self_test() == []

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
        a = harness._execute_check("eq05.modulus-theta.r1", 60).to_dict()
        b = harness._execute_check("eq05.modulus-theta.r1", 60).to_dict()
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
