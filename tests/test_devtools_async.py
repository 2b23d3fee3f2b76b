"""Async coloring, CFG/dataflow, and the ASY/XTNT rule family.

Graph-level tests drive :func:`repro.devtools.graph.build_graph` over
scratch trees and assert on the event-loop coloring itself; rule-level
tests drive the real CLI entry point the same way CI does, so the full
pipeline (graph -> coloring -> rules -> suppression -> exit code) is
exercised end to end.
"""

import ast
import json
import os
import textwrap

import pytest

from repro.devtools import dataflow
from repro.devtools import graph as graphmod
from repro.devtools.lint import main


def write(root, relative, content):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(content))
    return path


def build(root, *relatives):
    return graphmod.build_graph([root / rel for rel in relatives], root=root)


# ---------------------------------------------------------------------------
# Event-loop coloring on the whole-program graph
# ---------------------------------------------------------------------------

SVC = """
    import asyncio
    import functools
    import time


    async def handler():
        direct()
        await asyncio.to_thread(offloaded)
        await asyncio.to_thread(functools.partial(partialed, 1))
        register(observed)


    def direct():
        time.sleep(0.1)


    def offloaded():
        time.sleep(0.1)


    def partialed(n):
        return n


    def observed():
        return 1


    def register(callback):
        return callback
    """


class TestAsyncColoring:
    def test_sync_callee_inherits_the_async_root(self, tmp_path):
        write(tmp_path, "src/repro/svc.py", SVC)
        graph = build(tmp_path, "src/repro/svc.py")
        origins = graph.async_origins()
        assert origins["repro.svc.handler"] == "repro.svc.handler"
        assert origins["repro.svc.direct"] == "repro.svc.handler"

    def test_to_thread_target_is_not_colored(self, tmp_path):
        write(tmp_path, "src/repro/svc.py", SVC)
        graph = build(tmp_path, "src/repro/svc.py")
        origins = graph.async_origins()
        assert "repro.svc.offloaded" not in origins
        assert "repro.svc.offloaded" in graph.functions["repro.svc.handler"].offloads

    def test_partial_offload_unwraps_to_its_function(self, tmp_path):
        write(tmp_path, "src/repro/svc.py", SVC)
        graph = build(tmp_path, "src/repro/svc.py")
        assert "repro.svc.partialed" in graph.functions["repro.svc.handler"].offloads
        assert "repro.svc.partialed" not in graph.async_origins()

    def test_callable_passed_to_plain_consumer_is_colored(self, tmp_path):
        """A callable handed to a non-offload call may run on the loop."""
        write(tmp_path, "src/repro/svc.py", SVC)
        graph = build(tmp_path, "src/repro/svc.py")
        origins = graph.async_origins()
        assert origins["repro.svc.register"] == "repro.svc.handler"
        assert origins["repro.svc.observed"] == "repro.svc.handler"

    def test_run_in_executor_target_is_not_colored(self, tmp_path):
        write(
            tmp_path,
            "src/repro/exec.py",
            """
            import asyncio


            async def handler(loop):
                await loop.run_in_executor(None, work)


            def work():
                return 1
            """,
        )
        graph = build(tmp_path, "src/repro/exec.py")
        assert "repro.exec.work" not in graph.async_origins()

    def test_pool_submit_target_is_not_colored(self, tmp_path):
        write(
            tmp_path,
            "src/repro/pooled.py",
            """
            async def handler(pool):
                pool.submit(work, 1)


            def work(n):
                return n
            """,
        )
        graph = build(tmp_path, "src/repro/pooled.py")
        assert "repro.pooled.work" not in graph.async_origins()

    def test_route_decorated_handler_flag(self, tmp_path):
        write(
            tmp_path,
            "src/repro/web.py",
            """
            def route(method, pattern):
                def deco(fn):
                    return fn
                return deco


            @route("GET", "/healthz")
            async def health(request):
                return {}


            async def helper():
                return {}
            """,
        )
        graph = build(tmp_path, "src/repro/web.py")
        assert graph.functions["repro.web.health"].route_decorated
        assert not graph.functions["repro.web.helper"].route_decorated

    def test_coloring_is_deterministic_across_cache_refresh(self, tmp_path):
        target = write(tmp_path, "src/repro/svc.py", SVC)
        first = build(tmp_path, "src/repro/svc.py")
        origins_first = dict(first.async_origins())
        payload_first = first.to_json()
        # Same content, bumped mtime: the per-file cache misses and the
        # module is re-parsed and re-colored from scratch.
        stat = target.stat()
        os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        second = build(tmp_path, "src/repro/svc.py")
        assert second is not first
        assert dict(second.async_origins()) == origins_first
        assert second.to_json() == payload_first

    def test_payload_carries_async_facts(self, tmp_path):
        write(tmp_path, "src/repro/svc.py", SVC)
        payload = json.loads(build(tmp_path, "src/repro/svc.py").to_json())
        assert payload["schema_version"] == 4
        assert payload["async_roots"] == ["repro.svc.handler"]
        assert "repro.svc.direct" in payload["async_colored"]
        assert "repro.svc.offloaded" in payload["offload_boundaries"]
        assert "repro.svc.offloaded" not in payload["async_colored"]


# ---------------------------------------------------------------------------
# CFG/dataflow unit level
# ---------------------------------------------------------------------------


def _parse_fn(source):
    return ast.parse(textwrap.dedent(source)).body[0]


class TestRmwHazards:
    def test_read_await_write_is_flagged(self):
        fn = _parse_fn(
            """
            async def bump(self):
                n = self._n
                await asyncio.sleep(0)
                self._n = n + 1
            """
        )
        (hazard,) = dataflow.rmw_hazards(fn, set())
        assert hazard.name == "self._n"
        assert hazard.read_line < hazard.await_line < hazard.write_line

    def test_lock_guard_exempts(self):
        fn = _parse_fn(
            """
            async def bump(self):
                async with self._lock:
                    n = self._n
                    await asyncio.sleep(0)
                    self._n = n + 1
            """
        )
        assert dataflow.rmw_hazards(fn, set()) == []

    def test_single_swap_is_clean(self):
        """The stop()-style synchronous swap before the await is fine."""
        fn = _parse_fn(
            """
            async def stop(self):
                server, self._server = self._server, None
                if server is not None:
                    await server.wait_closed()
            """
        )
        assert dataflow.rmw_hazards(fn, set()) == []

    def test_mutable_global_counts_as_shared(self):
        fn = _parse_fn(
            """
            async def tick():
                n = COUNTS["tick"]
                await asyncio.sleep(0)
                COUNTS["tick"] = n + 1
            """
        )
        assert dataflow.rmw_hazards(fn, set()) == []  # not known shared
        (hazard,) = dataflow.rmw_hazards(fn, {"COUNTS"})
        assert hazard.name == "COUNTS"


class TestTaintFindings:
    @staticmethod
    def _resolve(raw):
        return raw

    def test_hex_parse_sink(self):
        fn = _parse_fn(
            """
            async def get_job(job_id):
                return int(job_id, 16)
            """
        )
        (finding,) = dataflow.taint_findings(fn, self._resolve)
        assert finding.source == "job_id"
        assert "int(" in finding.sink

    def test_path_sink(self):
        fn = _parse_fn(
            """
            async def fetch(name, base):
                return base / Path(name)
            """
        )
        findings = dataflow.taint_findings(fn, self._resolve)
        assert findings and findings[0].source in {"name", "base"}

    def test_validator_clears_taint(self):
        fn = _parse_fn(
            """
            async def get_job(job_id):
                checked = validate_job_id(job_id)
                return int(checked, 16)
            """
        )
        assert dataflow.taint_findings(fn, self._resolve) == []

    def test_taint_survives_a_loop_header(self):
        """Entry seeding must reach functions whose CFG starts in a loop."""
        fn = _parse_fn(
            """
            async def drain(names):
                for name in names:
                    open(name)
            """
        )
        assert dataflow.taint_findings(fn, self._resolve)


# ---------------------------------------------------------------------------
# The rules end to end, through the CLI
# ---------------------------------------------------------------------------


@pytest.fixture()
def tree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "src" / "repro").mkdir(parents=True)
    return tmp_path


def lint_rules(capsys):
    """Run the CLI over src and return the set of new finding codes."""
    main(["src", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    return {finding["rule"] for finding in payload["findings"]}


class TestAsy001:
    def test_blocking_call_reachable_from_async(self, tree, capsys):
        write(
            tree,
            "src/repro/svc.py",
            """
            import time


            async def _handler():
                return _work()


            def _work():
                time.sleep(0.2)
                return 1
            """,
        )
        assert "ASY001" in lint_rules(capsys)

    def test_offloaded_call_is_clean(self, tree, capsys):
        write(
            tree,
            "src/repro/svc.py",
            """
            import asyncio
            import time


            async def _handler():
                return await asyncio.to_thread(_work)


            def _work():
                time.sleep(0.2)
                return 1
            """,
        )
        assert "ASY001" not in lint_rules(capsys)

    def test_inline_suppression(self, tree, capsys):
        write(
            tree,
            "src/repro/svc.py",
            """
            import time


            async def _handler():
                return _work()


            def _work():
                time.sleep(0.2)  # reprolint: disable=ASY001
                return 1
            """,
        )
        assert "ASY001" not in lint_rules(capsys)


class TestAsy002:
    def test_bare_call_to_async_def(self, tree, capsys):
        write(
            tree,
            "src/repro/svc.py",
            """
            async def _job():
                return 1


            def _kick():
                _job()
            """,
        )
        assert "ASY002" in lint_rules(capsys)

    def test_awaited_call_is_clean(self, tree, capsys):
        write(
            tree,
            "src/repro/svc.py",
            """
            async def _job():
                return 1


            async def _kick():
                return await _job()
            """,
        )
        assert "ASY002" not in lint_rules(capsys)


class TestAsy003:
    def test_discarded_task_handle(self, tree, capsys):
        write(
            tree,
            "src/repro/svc.py",
            """
            import asyncio


            async def _job():
                return 1


            async def _go():
                asyncio.create_task(_job())
            """,
        )
        assert "ASY003" in lint_rules(capsys)

    def test_kept_handle_is_clean(self, tree, capsys):
        write(
            tree,
            "src/repro/svc.py",
            """
            import asyncio


            async def _job():
                return 1


            async def _go():
                task = asyncio.create_task(_job())
                await task
            """,
        )
        assert "ASY003" not in lint_rules(capsys)


class TestAsy004:
    def test_unlocked_rmw_across_await(self, tree, capsys):
        write(
            tree,
            "src/repro/svc.py",
            """
            import asyncio


            class _Counter:
                def __init__(self):
                    self._n = 0

                async def bump(self):
                    n = self._n
                    await asyncio.sleep(0)
                    self._n = n + 1
            """,
        )
        assert "ASY004" in lint_rules(capsys)

    def test_locked_rmw_is_clean(self, tree, capsys):
        write(
            tree,
            "src/repro/svc.py",
            """
            import asyncio


            class _Counter:
                def __init__(self):
                    self._n = 0
                    self._lock = asyncio.Lock()

                async def bump(self):
                    async with self._lock:
                        n = self._n
                        await asyncio.sleep(0)
                        self._n = n + 1
            """,
        )
        assert "ASY004" not in lint_rules(capsys)


class TestXtnt001:
    def test_unvalidated_field_reaches_hex_parse(self, tree, capsys):
        write(
            tree,
            "src/repro/web.py",
            """
            def route(method, pattern):
                def deco(fn):
                    return fn
                return deco


            @route("GET", "/v1/jobs/<job_id>")
            async def _get_job(job_id):
                return int(job_id, 16)
            """,
        )
        rules = lint_rules(capsys)
        assert "PARSE" not in rules
        assert "XTNT001" in rules

    def test_validated_field_is_clean(self, tree, capsys):
        write(
            tree,
            "src/repro/web.py",
            """
            def route(method, pattern):
                def deco(fn):
                    return fn
                return deco


            @route("GET", "/v1/jobs/<job_id>")
            async def _get_job(job_id):
                checked = _validate_job_id(job_id)
                return int(checked, 16)


            def _validate_job_id(value):
                return value
            """,
        )
        rules = lint_rules(capsys)
        assert "PARSE" not in rules
        assert "XTNT001" not in rules

    def test_undecorated_helper_params_are_trusted(self, tree, capsys):
        write(
            tree,
            "src/repro/web.py",
            """
            async def _lookup(job_id):
                return int(job_id, 16)
            """,
        )
        assert "XTNT001" not in lint_rules(capsys)
