"""Unit tests for the whole-program graph (`repro.devtools.graph`)."""

import ast
import collections
import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.devtools import graph as graphmod
from repro.devtools.engine import LintEngine, Rule, RuleRegistry

REPO_ROOT = Path(__file__).resolve().parent.parent


def write(root, relative, content):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(content))
    return path


def build(root, *relatives):
    return graphmod.build_graph([root / rel for rel in relatives], root=root)


class TestImportGraph:
    def test_repro_imports_resolved_including_relative(self, tmp_path):
        write(tmp_path, "src/repro/pkg/__init__.py", "")
        write(tmp_path, "src/repro/pkg/a.py", "from repro.pkg import b\n")
        write(tmp_path, "src/repro/pkg/b.py", "from . import c\nimport os\n")
        write(tmp_path, "src/repro/pkg/c.py", "")
        graph = build(
            tmp_path,
            "src/repro/pkg/__init__.py",
            "src/repro/pkg/a.py",
            "src/repro/pkg/b.py",
            "src/repro/pkg/c.py",
        )
        modules = json.loads(graph.to_json())["modules"]
        assert modules["repro.pkg.a"]["imports"] == ["repro.pkg"]
        assert modules["repro.pkg.b"]["imports"] == ["repro.pkg"]


class TestCallGraph:
    def test_local_and_cross_module_calls_resolve(self, tmp_path):
        write(
            tmp_path,
            "src/repro/util.py",
            """
            def helper():
                return 1
            """,
        )
        write(
            tmp_path,
            "src/repro/mainmod.py",
            """
            from repro.util import helper

            def local():
                return 0

            def driver():
                local()
                return helper()
            """,
        )
        graph = build(tmp_path, "src/repro/util.py", "src/repro/mainmod.py")
        driver = graph.functions["repro.mainmod.driver"]
        assert set(driver.calls) == {
            "repro.mainmod.local",
            "repro.util.helper",
        }

    def test_reexport_chain_resolves_through_package_init(self, tmp_path):
        write(
            tmp_path,
            "src/repro/tel/__init__.py",
            "from repro.tel.registry import use\n",
        )
        write(
            tmp_path,
            "src/repro/tel/registry.py",
            """
            def use():
                return 1
            """,
        )
        write(
            tmp_path,
            "src/repro/job.py",
            """
            from repro.tel import use

            def work():
                return use()
            """,
        )
        graph = build(
            tmp_path,
            "src/repro/tel/__init__.py",
            "src/repro/tel/registry.py",
            "src/repro/job.py",
        )
        assert graph.functions["repro.job.work"].calls == (
            "repro.tel.registry.use",
        )

    def test_self_method_binds_to_enclosing_class(self, tmp_path):
        write(
            tmp_path,
            "src/repro/obj.py",
            """
            class Engine:
                def run(self):
                    return self.step()

                def step(self):
                    return 1
            """,
        )
        graph = build(tmp_path, "src/repro/obj.py")
        assert graph.functions["repro.obj.Engine.run"].calls == (
            "repro.obj.Engine.step",
        )

    def test_callable_argument_becomes_indirect_edge(self, tmp_path):
        write(
            tmp_path,
            "src/repro/cb.py",
            """
            def callback(x):
                return x

            def driver(values):
                return sorted(values, key=callback)
            """,
        )
        graph = build(tmp_path, "src/repro/cb.py")
        assert "repro.cb.callback" in graph.functions["repro.cb.driver"].calls

    def test_nested_function_reachable_from_parent(self, tmp_path):
        write(
            tmp_path,
            "src/repro/nest.py",
            """
            def outer():
                def inner():
                    return 1
                return inner
            """,
        )
        graph = build(tmp_path, "src/repro/nest.py")
        assert "repro.nest.outer.inner" in graph.functions["repro.nest.outer"].calls


class TestOneParseOneBinding:
    """The lint run and the graph share one parse and one import rule."""

    def test_lint_run_parses_each_file_once(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(
            tmp_path,
            "src/repro/web.py",
            """
            def route(method, pattern):
                def deco(fn):
                    return fn
                return deco


            @route("GET", "/v1/jobs/<job_id>")
            async def get_job(job_id):
                return int(job_id, 16)
            """,
        )
        write(tmp_path, "tests/test_web.py", "def test_ok():\n    assert True\n")
        parses = collections.Counter()
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parses[str(filename)] += 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.chdir(tmp_path)
        findings = LintEngine().lint_paths(["src", "tests"])
        # XTNT001, ASY004 and the effect index all read the handler's def
        assert "XTNT001" in {f.rule for f in findings}
        assert parses == {
            "src/repro/__init__.py": 1,
            "src/repro/web.py": 1,
            "tests/test_web.py": 1,
        }

    def test_relative_imports_bind_alike(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(tmp_path, "src/repro/pkg/__init__.py", "")
        write(
            tmp_path,
            "src/repro/pkg/util.py",
            """
            def helper():
                return 1


            def other():
                return 2
            """,
        )
        write(
            tmp_path,
            "src/repro/pkg/mod.py",
            """
            from .util import helper
            from . import util as u


            def run():
                helper()
                return u.other()
            """,
        )
        seen = {}
        reg = RuleRegistry()

        @reg.register
        class _RecordBindings(Rule):
            code = "BIND001"
            node_types = (ast.Call,)

            def check(self, node, ctx):
                seen[ast.unparse(node.func)] = (ctx.resolve(node.func), dict(ctx.imports))
                yield from ()

        monkeypatch.chdir(tmp_path)
        assert LintEngine(reg).lint_paths(["src"], project=False) == []
        bindings = {"helper": "repro.pkg.util.helper", "u": "repro.pkg.util"}
        assert seen == {
            "helper": ("repro.pkg.util.helper", bindings),
            "u.other": ("repro.pkg.util.other", bindings),
        }
        graph = graphmod.build_graph(["src/repro/pkg/util.py", "src/repro/pkg/mod.py"])
        assert graph.modules["repro.pkg.mod"].imports == bindings
        assert graph.functions["repro.pkg.mod.run"].calls == (
            "repro.pkg.util.helper",
            "repro.pkg.util.other",
        )

    def test_function_node_keeps_its_def(self, tmp_path):
        write(
            tmp_path,
            "src/repro/box.py",
            """
            class Box:
                async def get(self):
                    return self.value
            """,
        )
        graph = build(tmp_path, "src/repro/box.py")
        func = graph.functions["repro.box.Box.get"]
        assert isinstance(func.node, ast.AsyncFunctionDef)
        assert (func.node.name, func.node.lineno) == ("get", func.lineno)
        assert "repro.box.Box.get" in json.loads(graph.to_json())["async_roots"]


class TestFactCollection:
    def test_pool_entry_points(self, tmp_path):
        write(
            tmp_path,
            "src/repro/work.py",
            """
            def task(n):
                return n

            def mapped(n):
                return n

            def run(pool, xs):
                return [pool.submit(task, x) for x in xs]

            def run_map(executor, xs):
                return list(executor.map(mapped, xs))

            def not_a_pool(table, xs):
                return list(table.map(mapped, xs))
            """,
        )
        graph = build(tmp_path, "src/repro/work.py")
        functions = graph.functions
        assert functions["repro.work.run"].offloads == ("repro.work.task",)
        assert functions["repro.work.run_map"].offloads == ("repro.work.mapped",)
        # map() only counts on a pool/executor-named receiver
        assert functions["repro.work.not_a_pool"].offloads == ()

    def test_pool_task_kwarg_counts_as_entry_point(self, tmp_path):
        # the recovery seam submits its pool_task= argument on the
        # caller's behalf (ResilientExecutor), so the indirection must
        # still register the worker-side callable
        write(
            tmp_path,
            "src/repro/work.py",
            """
            def chunk_task(chunk_id, attempt, payload):
                return payload

            def run(executor_cls, payloads):
                return executor_cls(payloads=payloads, pool_task=chunk_task)
            """,
        )
        graph = build(tmp_path, "src/repro/work.py")
        assert graph.functions["repro.work.run"].offloads == (
            "repro.work.chunk_task",
        )

    def test_metric_literals_and_fstring_wildcards(self, tmp_path):
        write(
            tmp_path,
            "src/repro/met.py",
            """
            def record(telemetry, name):
                telemetry.counter("stage.count", 1)
                telemetry.gauge(f"stage.era.{name}.depth", 2)
            """,
        )
        graph = build(tmp_path, "src/repro/met.py")
        names = {call.name for call in graph.metric_calls()}
        assert names == {"stage.count", "stage.era.*.depth"}

    def test_mutable_globals(self, tmp_path):
        write(
            tmp_path,
            "src/repro/state.py",
            """
            __all__ = ["remember"]
            _MODE = "fast"
            _CACHE = {}
            _SEEN = set()

            def remember(key, value):
                local = {}
                _CACHE[key] = value
            """,
        )
        graph = build(tmp_path, "src/repro/state.py")
        assert graph.modules["repro.state"].mutable_globals == {"_CACHE", "_SEEN"}


class TestRouteFacts:
    SERVER = """
    _ROUTES = []

    def route(method, pattern):
        def wrap(fn):
            _ROUTES.append((method, pattern, fn))
            return fn
        return wrap

    class Server:
        @route("GET", "/healthz")
        async def health(self, request):
            return None

        @route("POST", "/v1/jobs/<job_id>/pause")
        async def pause(self, request, job_id):
            return None
    """

    def test_decorator_routes_collected(self, tmp_path):
        write(tmp_path, "src/repro/server.py", self.SERVER)
        graph = build(tmp_path, "src/repro/server.py")
        routes = {(call.method, call.pattern) for call in graph.route_calls()}
        assert routes == {
            ("GET", "/healthz"),
            ("POST", "/v1/jobs/<job_id>/pause"),
        }
        assert all(
            call.path.endswith("src/repro/server.py")
            for call in graph.route_calls()
        )

    def test_plain_call_registration_collected(self, tmp_path):
        write(
            tmp_path,
            "src/repro/server.py",
            """
            def install(app):
                app.add_route("GET", "/v1/queue")
            """,
        )
        graph = build(tmp_path, "src/repro/server.py")
        assert [(c.method, c.pattern) for c in graph.route_calls()] == [
            ("GET", "/v1/queue")
        ]

    def test_non_routes_ignored(self, tmp_path):
        write(
            tmp_path,
            "src/repro/server.py",
            """
            def setup(app, method):
                app.add_route("FETCH", "/nope")     # unknown HTTP method
                app.add_route("GET", "relative")    # pattern must start with /
                app.add_route(method, "/dynamic")   # non-literal method
                route = object()
            """,
        )
        graph = build(tmp_path, "src/repro/server.py")
        assert graph.route_calls() == []

    def test_routes_in_json_payload(self, tmp_path):
        write(tmp_path, "src/repro/server.py", self.SERVER)
        graph = build(tmp_path, "src/repro/server.py")
        payload = json.loads(graph.to_json())
        assert payload["routes"] == [
            "GET /healthz",
            "POST /v1/jobs/<job_id>/pause",
        ]


class TestCachingAndDeterminism:
    def test_same_tree_hits_cache(self, tmp_path):
        write(tmp_path, "src/repro/a.py", "def f():\n    return 1\n")
        first = build(tmp_path, "src/repro/a.py")
        second = build(tmp_path, "src/repro/a.py")
        assert first is second

    def test_edit_invalidates_cache(self, tmp_path):
        target = write(tmp_path, "src/repro/a.py", "def f():\n    return 1\n")
        first = build(tmp_path, "src/repro/a.py")
        target.write_text("def f():\n    return 2\n\n\ndef g():\n    return 3\n")
        second = build(tmp_path, "src/repro/a.py")
        assert first is not second
        assert "repro.a.g" in second.functions

    def test_json_payload_is_deterministic(self, tmp_path):
        write(tmp_path, "src/repro/b.py", "def f():\n    return 1\n")
        graph = build(tmp_path, "src/repro/b.py")
        assert graph.to_json() == graph.to_json()
        payload = json.loads(graph.to_json())
        assert payload["schema_version"] == 4
        assert "repro.b" in payload["modules"]


class TestGraphCli:
    def run_graph(self, *args, cwd=REPO_ROOT):
        return subprocess.run(
            [sys.executable, "-m", "repro.devtools.graph", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )

    def test_json_export_is_byte_identical_across_runs(self, tmp_path):
        first = self.run_graph()
        out = tmp_path / "graph.json"
        second = self.run_graph("--out", str(out))
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert first.stdout == out.read_text()
        payload = json.loads(first.stdout)
        assert payload["schema_version"] == 4
        assert "repro.core.clustered" in payload["modules"]
        # the batch-GCD worker runs off the caller's thread
        assert "repro.core.clustered._run_chunk" in payload["offload_boundaries"]
