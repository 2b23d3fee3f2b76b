"""Integration tests: the pipeline's telemetry instrumentation end to end.

These assert on the shared session-scoped tiny study (which runs with a
recording registry — see ``conftest.py``), so they cost no extra pipeline
runs.
"""

import pytest

from repro.pipeline import STAGE_SPANS
from repro.telemetry import validate_report


@pytest.fixture(scope="module")
def report(tiny_study):
    assert tiny_study.telemetry is not None
    return tiny_study.telemetry


class TestStageSpans:
    def test_six_top_level_stage_spans_in_order(self, report):
        assert report.span_names() == list(STAGE_SPANS)
        assert len(STAGE_SPANS) == 6

    def test_stage_walls_are_positive(self, report):
        for span in report.spans:
            assert span.wall_seconds > 0, span.name

    def test_world_build_annotated_with_config(self, tiny_study, report):
        attrs = report.find_span("world_build").attrs
        assert attrs["seed"] == tiny_study.config.seed
        assert attrs["scale"] == tiny_study.config.scale

    def test_timeline_walk_annotated_with_snapshots(self, tiny_study, report):
        attrs = report.find_span("timeline_walk").attrs
        assert attrs["snapshots"] == len(tiny_study.snapshots)


class TestBatchGcdSpans:
    def test_task_spans_merged_from_workers(self, tiny_study, report):
        stage = report.find_span("batch_gcd")
        tasks = [c for c in stage.children if c.name == "batch_gcd.task"]
        assert len(tasks) == tiny_study.cluster_stats.tasks

    def test_task_spans_carry_operand_sizes(self, report):
        task = report.find_span("batch_gcd.task")
        assert task.attrs["product_bits"] > 0
        assert task.attrs["subset_size"] > 0
        # Streaming tasks reuse the parent-built subset tree, so the only
        # per-task substage is the remainder pass — no product_tree child.
        assert {c.name for c in task.children} == {
            "batch_gcd.task.remainder_tree",
        }

    def test_subset_trees_built_once_per_subset(self, tiny_study, report):
        stage = report.find_span("batch_gcd")
        products = next(
            c for c in stage.children if c.name == "batch_gcd.products"
        )
        builds = [
            c for c in products.children if c.name == "batch_gcd.subset_tree"
        ]
        assert len(builds) == tiny_study.cluster_stats.k
        assert all(b.attrs["root_bits"] > 0 for b in builds)

    def test_task_timer_aggregates_every_task(self, tiny_study, report):
        stats = report.timers["batch_gcd.task"]
        assert stats.count == tiny_study.cluster_stats.tasks
        assert stats.max_wall_seconds >= stats.min_wall_seconds > 0

    def test_products_span_and_queue_gauge(self, report):
        assert report.find_span("batch_gcd.products") is not None
        assert report.gauges["batch_gcd.queue_depth"] == 0
        assert report.gauges["batch_gcd.max_product_bits"] > 0


class TestScanAndFingerprintInstruments:
    def test_scan_counters(self, tiny_study, report):
        assert report.counters["scans.snapshots"] == len(tiny_study.snapshots)
        assert report.counters["scans.records"] > 0
        assert report.counters["scans.bit_errors"] > 0

    def test_per_era_counters_cover_all_sources(self, tiny_study, report):
        eras = {s.source for s in tiny_study.snapshots}
        for era in eras:
            assert report.counters[f"scans.era.{era}.records"] > 0

    def test_chain_reconstruction_counted(self, report):
        assert report.counters["scans.chain_reconstruction.removed"] > 0

    def test_fingerprint_substage_spans(self, report):
        stage = report.find_span("fingerprint")
        names = [c.name for c in stage.children]
        assert names == [
            "fingerprint.rules",
            "fingerprint.triage",
            "fingerprint.cliques",
            "fingerprint.extrapolate",
            "fingerprint.openssl",
        ]

    def test_fingerprint_rule_hits_match_report(self, tiny_study, report):
        for rule, hits in tiny_study.fingerprints.rule_counts.items():
            assert report.counters[f"fingerprint.rule.{rule}"] == hits
        assert report.counters["fingerprint.factored_clean"] == len(
            tiny_study.fingerprints.factored_clean
        )


class TestReportEdges:
    def test_report_validates_against_schema(self, report):
        assert validate_report(report.to_dict()) == []

    def test_uninstrumented_run_attaches_no_report(self):
        # The default active registry is disabled; run_study must not
        # fabricate a report (and must not slow down to make one).
        from repro.pipeline import StudyResult

        assert StudyResult.__dataclass_fields__["telemetry"].default is None
