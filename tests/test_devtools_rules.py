"""Per-rule fixtures for reprolint: positive, negative, and suppressed."""

import textwrap

import pytest

from repro.devtools import LintEngine

REPRO_PATH = "src/repro/somemodule.py"
TEST_PATH = "tests/test_somemodule.py"


@pytest.fixture(scope="module")
def engine():
    return LintEngine()


def lint(engine, snippet, path=REPRO_PATH):
    return engine.lint_source(textwrap.dedent(snippet), path)


def codes(engine, snippet, path=REPRO_PATH):
    return [f.rule for f in lint(engine, snippet, path)]


class TestDet001UnseededRng:
    def test_positive_no_arg_random(self, engine):
        findings = lint(
            engine,
            """
            import random

            def pick(values):
                rng = random.Random()
                return rng.choice(values)
            """,
        )
        assert [f.rule for f in findings] == ["DET001"]
        assert findings[0].line == 5
        assert "seed" in findings[0].message

    def test_positive_global_rng_call_in_repro(self, engine):
        assert codes(
            engine,
            """
            import random

            def jitter():
                return random.random()
            """,
        ) == ["DET001"]

    def test_positive_from_import_alias(self, engine):
        assert codes(
            engine,
            """
            from random import Random as R

            rng = R()
            """,
        ) == ["DET001"]

    def test_negative_seeded(self, engine):
        assert codes(
            engine,
            """
            import random

            rng = random.Random(42)
            value = rng.random()
            """,
        ) == []

    def test_negative_global_rng_outside_repro(self, engine):
        # module-level random.* is scoped to src/repro by the spec
        assert codes(
            engine,
            """
            import random

            value = random.randrange(10)
            """,
            path=TEST_PATH,
        ) == []

    def test_negative_lookalike_method(self, engine):
        assert codes(
            engine,
            """
            def run(rng):
                return rng.random()
            """,
        ) == []

    def test_suppressed(self, engine):
        assert codes(
            engine,
            """
            import random

            rng = random.Random()  # reprolint: disable=DET001
            """,
        ) == []


class TestDet002WallClock:
    def test_positive_time_time(self, engine):
        assert codes(
            engine,
            """
            import time

            stamp = time.time()
            """,
        ) == ["DET002"]

    def test_positive_datetime_now_from_import(self, engine):
        assert codes(
            engine,
            """
            from datetime import datetime

            today = datetime.now()
            """,
        ) == ["DET002"]

    def test_positive_date_today(self, engine):
        assert codes(
            engine,
            """
            import datetime

            day = datetime.date.today()
            """,
        ) == ["DET002"]

    def test_negative_clock_module_exempt(self, engine):
        assert codes(
            engine,
            """
            import time

            def wall():
                return time.time()
            """,
            path="src/repro/telemetry/clock.py",
        ) == []

    def test_negative_instance_now(self, engine):
        # .now() on an unresolvable receiver must not fire
        assert codes(
            engine,
            """
            def f(clock):
                return clock.now()
            """,
        ) == []


class TestDet003DurationClock:
    def test_positive_perf_counter_in_repro(self, engine):
        findings = lint(
            engine,
            """
            import time

            start = time.perf_counter()
            """,
        )
        assert [f.rule for f in findings] == ["DET003"]
        assert findings[0].severity.value == "warning"

    def test_negative_outside_repro(self, engine):
        assert codes(
            engine,
            """
            import time

            start = time.perf_counter()
            """,
            path=TEST_PATH,
        ) == []


class TestTel001DiscardedHandle:
    def test_positive_bare_span(self, engine):
        assert codes(
            engine,
            """
            from repro.telemetry import span

            def stage():
                span("batch_gcd.products")
            """,
        ) == ["TEL001"]

    def test_positive_method_timer(self, engine):
        assert codes(
            engine,
            """
            def stage(telemetry):
                telemetry.timer("batch_gcd.task")
            """,
        ) == ["TEL001"]

    def test_negative_with_block(self, engine):
        assert codes(
            engine,
            """
            def stage(telemetry):
                with telemetry.span("batch_gcd.products"):
                    pass
            """,
        ) == []

    def test_negative_assigned_handle(self, engine):
        assert codes(
            engine,
            """
            def stage(telemetry):
                handle = telemetry.span("batch_gcd.products")
                return handle
            """,
        ) == []


class TestEngineBehaviour:
    def test_parse_error_is_a_finding(self, engine):
        findings = lint(engine, "def broken(:\n")
        assert [f.rule for f in findings] == ["PARSE"]

    def test_skip_file_directive(self, engine):
        assert codes(
            engine,
            """
            # reprolint: skip-file  (vendored example)
            import random

            rng = random.Random()
            """,
        ) == []

    def test_suppression_on_preceding_comment_line(self, engine):
        assert codes(
            engine,
            """
            import random

            # reprolint: disable=DET001
            rng = random.Random()
            """,
        ) == []

    def test_suppression_is_rule_specific(self, engine):
        assert codes(
            engine,
            """
            import random

            rng = random.Random()  # reprolint: disable=DET002
            """,
        ) == ["DET001"]

    def test_multiple_rules_one_line(self, engine):
        assert codes(
            engine,
            """
            import random, time

            def f():
                return random.random(), time.time()
            """,
        ) == ["DET001", "DET002"]


class TestFlt001UnboundedFutureWait:
    def test_positive_bare_result(self, engine):
        findings = lint(
            engine,
            """
            def drain(futures):
                return [future.result() for future in futures]
            """,
        )
        assert [f.rule for f in findings] == ["FLT001"]
        assert "timeout" in findings[0].message

    def test_positive_bare_exception(self, engine):
        assert codes(
            engine,
            """
            def inspect(fut):
                return fut.exception()
            """,
        ) == ["FLT001"]

    def test_positive_wait_without_timeout(self, engine):
        assert codes(
            engine,
            """
            from concurrent.futures import wait

            def drain(pending):
                done, _ = wait(pending)
                return done
            """,
        ) == ["FLT001"]

    def test_positive_as_completed_without_timeout(self, engine):
        assert codes(
            engine,
            """
            import concurrent.futures

            def drain(pending):
                return list(concurrent.futures.as_completed(pending))
            """,
        ) == ["FLT001"]

    def test_negative_result_with_timeout(self, engine):
        assert codes(
            engine,
            """
            def drain(futures):
                return [future.result(timeout=0) for future in futures]
            """,
        ) == []

    def test_negative_positional_timeout(self, engine):
        assert codes(
            engine,
            """
            def drain(fut):
                return fut.result(5.0)
            """,
        ) == []

    def test_negative_wait_with_timeout(self, engine):
        assert codes(
            engine,
            """
            from concurrent.futures import wait

            def drain(pending):
                done, _ = wait(pending, timeout=1.0)
                return done
            """,
        ) == []

    def test_negative_non_future_receiver(self, engine):
        assert codes(
            engine,
            """
            def run(query):
                return query.result()
            """,
        ) == []

    def test_negative_outside_repro_source(self, engine):
        assert codes(
            engine,
            """
            def drain(futures):
                return [future.result() for future in futures]
            """,
            path=TEST_PATH,
        ) == []

    def test_suppressed(self, engine):
        assert codes(
            engine,
            """
            def drain(fut):
                return fut.result()  # reprolint: disable=FLT001
            """,
        ) == []
