"""Unit tests for the telemetry layer itself (registry, report, schema)."""

import json

import pytest

from repro.telemetry import (
    SCHEMA_VERSION,
    FakeClock,
    RunReport,
    SpanNode,
    Telemetry,
    TimerStats,
    counter,
    gauge,
    get_telemetry,
    set_telemetry,
    span,
    timer,
    use_telemetry,
    validate_report,
)


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def telemetry(clock):
    return Telemetry(clock=clock)


class TestCountersAndGauges:
    def test_counter_accumulates(self, telemetry):
        telemetry.counter("hits")
        telemetry.counter("hits", 4)
        assert telemetry.report().counters == {"hits": 5}

    def test_gauge_last_write_wins(self, telemetry):
        telemetry.gauge("depth", 10)
        telemetry.gauge("depth", 3)
        assert telemetry.report().gauges == {"depth": 3}

    def test_float_counters(self, telemetry):
        telemetry.counter("seconds", 0.5)
        telemetry.counter("seconds", 0.25)
        assert telemetry.report().counters["seconds"] == pytest.approx(0.75)


class TestTimers:
    def test_observe_aggregates(self, telemetry):
        telemetry.observe("task", 2.0, 1.5)
        telemetry.observe("task", 4.0, 3.0)
        stats = telemetry.report().timers["task"]
        assert stats.count == 2
        assert stats.wall_seconds == pytest.approx(6.0)
        assert stats.cpu_seconds == pytest.approx(4.5)
        assert stats.min_wall_seconds == pytest.approx(2.0)
        assert stats.max_wall_seconds == pytest.approx(4.0)

    def test_timer_context_uses_clock(self, telemetry, clock):
        with telemetry.timer("step"):
            clock.advance(1.25, 0.75)
        stats = telemetry.report().timers["step"]
        assert stats.count == 1
        assert stats.wall_seconds == pytest.approx(1.25)
        assert stats.cpu_seconds == pytest.approx(0.75)

    def test_timer_merge(self):
        a = TimerStats()
        a.observe(1.0, 1.0)
        b = TimerStats()
        b.observe(3.0, 2.0)
        b.observe(0.5, 0.5)
        a.merge(b)
        assert a.count == 3
        assert a.min_wall_seconds == pytest.approx(0.5)
        assert a.max_wall_seconds == pytest.approx(3.0)
        assert a.wall_seconds == pytest.approx(4.5)


class TestSpans:
    def test_span_durations_from_clock(self, telemetry, clock):
        with telemetry.span("stage"):
            clock.advance(2.0, 1.0)
        [node] = telemetry.report().spans
        assert node.name == "stage"
        assert node.wall_seconds == pytest.approx(2.0)
        assert node.cpu_seconds == pytest.approx(1.0)

    def test_nested_spans_build_a_tree(self, telemetry, clock):
        with telemetry.span("outer"):
            clock.advance(1.0)
            with telemetry.span("outer.inner", tag="x"):
                clock.advance(2.0)
            clock.advance(1.0)
        [outer] = telemetry.report().spans
        assert outer.wall_seconds == pytest.approx(4.0)
        [inner] = outer.children
        assert inner.name == "outer.inner"
        assert inner.attrs == {"tag": "x"}
        assert inner.wall_seconds == pytest.approx(2.0)

    def test_sibling_spans_ordered(self, telemetry, clock):
        with telemetry.span("root"):
            for name in ("root.a", "root.b"):
                with telemetry.span(name):
                    clock.advance(1.0)
        [root] = telemetry.report().spans
        assert [c.name for c in root.children] == ["root.a", "root.b"]

    def test_annotate_targets_innermost(self, telemetry):
        with telemetry.span("a"), telemetry.span("a.b"):
            telemetry.annotate(bits=96)
        [a] = telemetry.report().spans
        assert a.attrs == {}
        assert a.children[0].attrs == {"bits": 96}

    def test_open_spans_excluded_from_report(self, telemetry):
        handle = telemetry.span("open")
        handle.__enter__()
        assert telemetry.report().spans == []
        handle.__exit__(None, None, None)
        assert telemetry.report().span_names() == ["open"]

    def test_walk_and_find(self):
        tree = SpanNode(
            name="a",
            children=[SpanNode(name="b", children=[SpanNode(name="c")])],
        )
        assert [n.name for n in tree.walk()] == ["a", "b", "c"]
        assert tree.find("c").name == "c"
        assert tree.find("missing") is None


class TestDisabledMode:
    def test_everything_is_a_noop(self):
        telemetry = Telemetry(enabled=False)
        telemetry.counter("hits")
        telemetry.gauge("depth", 1)
        telemetry.observe("task", 1.0)
        with telemetry.span("stage"), telemetry.timer("step"):
            pass
        report = telemetry.report()
        assert report.enabled is False
        assert report.counters == {}
        assert report.timers == {}
        assert report.spans == []

    def test_disabled_span_is_shared_and_allocation_free(self):
        telemetry = Telemetry(enabled=False)
        assert telemetry.span("a") is telemetry.span("b") is telemetry.timer("c")

    def test_default_active_registry_is_disabled(self):
        assert get_telemetry().enabled is False

    def test_merge_report_noop_when_disabled(self, telemetry):
        telemetry.counter("x")
        disabled = Telemetry(enabled=False)
        disabled.merge_report(telemetry.report())
        assert disabled.report().counters == {}


class TestActiveRegistry:
    def test_use_telemetry_restores_previous(self, telemetry):
        before = get_telemetry()
        with use_telemetry(telemetry) as active:
            assert active is telemetry
            assert get_telemetry() is telemetry
        assert get_telemetry() is before

    def test_module_level_functions_hit_active(self, telemetry, clock):
        with use_telemetry(telemetry):
            counter("hits", 2)
            gauge("depth", 7)
            with span("stage"), timer("step"):
                clock.advance(1.0)
        report = telemetry.report()
        assert report.counters == {"hits": 2}
        assert report.gauges == {"depth": 7}
        assert report.span_names() == ["stage"]
        assert report.timers["step"].count == 1

    def test_set_telemetry_none_restores_disabled(self, telemetry):
        previous = set_telemetry(telemetry)
        try:
            assert get_telemetry() is telemetry
        finally:
            set_telemetry(None)
            assert get_telemetry().enabled is False
            set_telemetry(previous)

    def test_exception_inside_use_telemetry_still_restores(self, telemetry):
        before = get_telemetry()
        with pytest.raises(RuntimeError), use_telemetry(telemetry):
            raise RuntimeError("boom")
        assert get_telemetry() is before


class TestWorkerMerge:
    def _worker_report(self, wall=1.0):
        worker = Telemetry(clock=FakeClock())
        with worker.span("batch_gcd.task", subset=0):
            worker.clock.advance(wall, wall)
        worker.counter("worker.items", 3)
        worker.observe("batch_gcd.task", wall, wall)
        return worker.report()

    def test_worker_spans_nest_under_open_parent_span(self, telemetry, clock):
        with telemetry.span("batch_gcd"):
            telemetry.merge_report(self._worker_report())
            telemetry.merge_report(self._worker_report(2.0))
        [parent] = telemetry.report().spans
        assert [c.name for c in parent.children] == [
            "batch_gcd.task", "batch_gcd.task",
        ]

    def test_worker_scalars_aggregate(self, telemetry):
        with telemetry.span("batch_gcd"):
            telemetry.merge_report(self._worker_report(1.0))
            telemetry.merge_report(self._worker_report(2.0))
        report = telemetry.report()
        assert report.counters["worker.items"] == 6
        stats = report.timers["batch_gcd.task"]
        assert stats.count == 2
        assert stats.wall_seconds == pytest.approx(3.0)

    def test_merge_without_open_span_appends_roots(self, telemetry):
        telemetry.merge_report(self._worker_report())
        assert telemetry.report().span_names() == ["batch_gcd.task"]

    def test_merge_survives_pickle_style_round_trip(self, telemetry):
        # Workers ship dicts across process boundaries, not objects.
        payload = self._worker_report().to_dict()
        wire = json.loads(json.dumps(payload))
        with telemetry.span("batch_gcd"):
            telemetry.merge_report(RunReport.from_dict(wire))
        [parent] = telemetry.report().spans
        assert parent.children[0].attrs == {"subset": 0}


class TestSerialisation:
    def _populated(self):
        telemetry = Telemetry(clock=FakeClock())
        with telemetry.span("stage", scale=1000):
            with telemetry.span("stage.sub"):
                telemetry.clock.advance(1.5, 1.0)
            telemetry.counter("records", 42)
            telemetry.gauge("depth", 2)
            telemetry.observe("task", 0.5, 0.25)
        return telemetry.report()

    def test_json_round_trip_is_lossless(self):
        report = self._populated()
        restored = RunReport.from_dict(json.loads(report.to_json()))
        assert restored.to_dict() == report.to_dict()

    def test_schema_version_stamped(self):
        payload = self._populated().to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_unsupported_version_rejected(self):
        payload = self._populated().to_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            RunReport.from_dict(payload)

    def test_render_mentions_stages_and_counters(self):
        text = self._populated().render()
        assert "stage" in text
        assert "records" in text
        assert "task" in text


class TestSchemaValidation:
    def test_generated_reports_validate(self):
        telemetry = Telemetry(clock=FakeClock())
        with telemetry.span("a"):
            telemetry.counter("c")
            telemetry.observe("t", 1.0, 0.5)
        assert validate_report(telemetry.report().to_dict()) == []

    def test_non_object_rejected(self):
        assert validate_report([1, 2]) != []

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p.update(schema_version=0), "schema_version"),
            (lambda p: p.update(enabled="yes"), "enabled"),
            (lambda p: p["counters"].update(bad="x"), "counters"),
            (lambda p: p.update(spans={}), "spans"),
            (lambda p: p["spans"][0].pop("name"), "name"),
            (lambda p: p["spans"][0].update(wall_seconds=-1), "wall_seconds"),
            (lambda p: p["spans"][0].update(name="a..b"), "empty segment"),
            (lambda p: p["timers"]["t"].update(count=-2), "count"),
            (lambda p: p["spans"][0]["attrs"].update(bad=[1]), "attrs"),
        ],
    )
    def test_corruption_detected(self, mutate, fragment):
        telemetry = Telemetry(clock=FakeClock())
        with telemetry.span("a"):
            telemetry.observe("t", 1.0, 0.5)
        payload = telemetry.report().to_dict()
        mutate(payload)
        problems = validate_report(payload)
        assert problems, "corruption not detected"
        assert any(fragment in problem for problem in problems)


class TestReset:
    def test_reset_clears_everything(self, telemetry, clock):
        with telemetry.span("a"):
            telemetry.counter("c")
        telemetry.reset()
        report = telemetry.report()
        assert report.counters == {} and report.spans == []
