"""Unit tests for the filesystem-effect analysis (`repro.devtools.effects`).

One fixture per effect kind, each with a positive and a negative shape,
plus the interprocedural propagation fixpoint, the real-repo summaries
the DUR rules lean on, and the cached-vs-fresh determinism of the
schema-3 JSON export.
"""

import ast
import json
import os
import textwrap
from pathlib import Path

from repro.devtools import dataflow
from repro.devtools import graph as graphmod
from repro.devtools.effects import is_tempish, path_tokens

REPO_ROOT = Path(__file__).resolve().parent.parent


def write(root, relative, content):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(content))
    return path


def build(root, *relatives):
    return graphmod.build_graph([root / rel for rel in relatives], root=root)


def summarize(tmp_path, source, qualname="repro.fx.fn"):
    write(tmp_path, "src/repro/fx.py", source)
    graph = build(tmp_path, "src/repro/fx.py")
    summary = graph.effect_index().effects(qualname)
    assert summary is not None, qualname
    return summary


class TestPathTokens:
    def test_names_attributes_and_strings_contribute(self):
        expr = ast.parse('self.directory / "manifest.json"', mode="eval").body
        # Rules match on segment membership, never on order.
        assert set(path_tokens(expr).split("/")) == {
            "self",
            "directory",
            "manifest.json",
        }

    def test_none_is_empty(self):
        assert path_tokens(None) == ""

    def test_tempish(self):
        assert is_tempish("directory/state.json.tmp")
        assert is_tempish("self/_tempfile")
        assert not is_tempish("directory/manifest.json")


class TestOpenEffects:
    def test_builtin_open_for_write(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            def fn(path):
                handle = open(path, "w")
                handle.close()
            """,
        )
        (effect,) = summary.by_kind("open_write")
        assert effect.target == "handle"
        assert effect.path == "path"

    def test_open_for_append_and_mode_keyword(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            def fn(path):
                with open(path, mode="a") as handle:
                    handle.close()
            """,
        )
        assert summary.by_kind("open_append")
        assert not summary.by_kind("open_write")

    def test_open_for_read_is_not_an_effect(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            def fn(path):
                with open(path) as handle:
                    return handle.read()
            """,
        )
        assert not summary.by_kind("open_write", "open_append")

    def test_path_open_method(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            def fn(path):
                with path.open("w") as handle:
                    handle.close()
            """,
        )
        (effect,) = summary.by_kind("open_write")
        assert effect.path == "path"

    def test_temp_create_rides_on_tempish_paths(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            def fn(directory):
                tmp = directory / "state.json.tmp"
                with open(tmp, "w") as handle:
                    handle.close()
            """,
        )
        assert summary.by_kind("temp_create")

    def test_no_temp_create_on_final_paths(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            def fn(directory):
                with open(directory / "state.json", "w") as handle:
                    handle.close()
            """,
        )
        assert not summary.by_kind("temp_create")


class TestWriteFlushFsync:
    def test_handle_write_carries_the_opened_path(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            def fn(path, payload):
                with open(path, "w") as handle:
                    handle.write(payload)
            """,
        )
        (effect,) = summary.by_kind("write")
        assert effect.target == "handle"
        assert effect.path == "path"

    def test_write_text_is_write_file(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            def fn(path, payload):
                path.write_text(payload)
            """,
        )
        (effect,) = summary.by_kind("write_file")
        assert effect.path == "path"
        assert not summary.by_kind("write")

    def test_flush_and_fsync(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            import os


            def fn(path, payload):
                with open(path, "w") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
            """,
        )
        assert summary.by_kind("flush")
        (effect,) = summary.by_kind("fsync")
        assert "handle" in effect.target.split("/")
        assert not summary.by_kind("dir_fsync")

    def test_directory_descriptor_fsync_is_dir_fsync(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            import os


            def fn(path):
                fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            """,
        )
        assert summary.by_kind("dir_fsync")
        assert not summary.by_kind("fsync")


class TestRenameEffects:
    def test_os_replace(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            import os


            def fn(directory):
                tmp = directory / "state.tmp"
                os.replace(tmp, directory / "state.json")
            """,
        )
        (effect,) = summary.by_kind("rename")
        assert effect.target == "tmp"
        assert "state.json" in effect.path.split("/")

    def test_path_replace_method(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            def fn(tmp, final):
                tmp.replace(final)
            """,
        )
        (effect,) = summary.by_kind("rename")
        assert (effect.target, effect.path) == ("tmp", "final")

    def test_str_replace_is_not_a_rename(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            def fn(text):
                return text.replace("a", "b")
            """,
        )
        assert not summary.by_kind("rename")


class TestJournalEffects:
    def test_journal_receiver_methods(self, tmp_path):
        # A journal only appends: commit() and clear() on a journal
        # receiver are plain calls, not filesystem effects.
        summary = summarize(
            tmp_path,
            """
            class Store:
                def __init__(self, journal):
                    self._journal = journal

                def mutate(self, record):
                    seq = self._journal.append(record)
                    self._journal.commit(seq)
                    self._journal.clear()
            """,
            qualname="repro.fx.Store.mutate",
        )
        (append,) = summary.by_kind("journal_append")
        assert append.target == "self._journal"
        assert [e.kind for e in summary.effects] == ["journal_append"]

    def test_list_append_is_not_a_journal(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            def fn(records, record):
                records.append(record)
            """,
        )
        assert not summary.by_kind("journal_append")


class TestJsonlReads:
    def test_unguarded_line_loop(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            import json


            def fn(path):
                return [json.loads(line) for line in []] or [
                    json.loads(line) for line in path.read_text().splitlines()
                ]
            """,
        )
        # Comprehensions are not line loops; only the For shape counts.
        assert not summary.by_kind("jsonl_read", "jsonl_read_unguarded")
        summary = summarize(
            tmp_path,
            """
            import json


            def fn(path):
                records = []
                for line in path.read_text().splitlines():
                    records.append(json.loads(line))
                return records
            """,
        )
        assert summary.by_kind("jsonl_read_unguarded")
        assert not summary.by_kind("jsonl_read")

    def test_try_guard_inside_the_loop(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            import json


            def fn(path):
                records = []
                for line in path.read_text().splitlines():
                    try:
                        records.append(json.loads(line))
                    except ValueError:
                        break
                return records
            """,
        )
        assert summary.by_kind("jsonl_read")
        assert not summary.by_kind("jsonl_read_unguarded")

    def test_loads_in_the_handler_is_not_guarded(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            import json


            def fn(path):
                records = []
                for line in path.read_text().splitlines():
                    try:
                        records.append(json.loads(line))
                    except ValueError:
                        records.append(json.loads(line.strip()))
                return records
            """,
        )
        assert summary.by_kind("jsonl_read")
        assert summary.by_kind("jsonl_read_unguarded")


class TestTransitivePropagation:
    SOURCE = """
    import os


    def _sync(handle):
        handle.flush()
        os.fsync(handle.fileno())


    def fn(path, payload):
        with open(path, "w") as handle:
            handle.write(payload)
            _sync(handle)
    """

    def test_callee_kinds_reach_the_caller(self, tmp_path):
        write(tmp_path, "src/repro/fx.py", self.SOURCE)
        graph = build(tmp_path, "src/repro/fx.py")
        index = graph.effect_index()
        assert "fsync" not in index.own("repro.fx.fn")
        assert {"fsync", "flush"} <= index.transitive("repro.fx.fn")
        assert index.transitive("repro.fx._sync") == index.own("repro.fx._sync")

    def test_nested_defs_keep_their_own_effects(self, tmp_path):
        summary = summarize(
            tmp_path,
            """
            def fn(path):
                def _inner(payload):
                    path.write_text(payload)
                return _inner
            """,
        )
        assert not summary.own


class TestRealRepoSummaries:
    """The summaries the DUR rules rely on, over the live source tree."""

    def _index(self):
        graph = build(
            REPO_ROOT,
            "src/repro/faults/fsio.py",
            "src/repro/faults/journal.py",
        )
        return graph.effect_index()

    def test_atomic_write_text_is_the_full_discipline(self):
        index = self._index()
        transitive = index.transitive("repro.faults.fsio.atomic_write_text")
        assert {
            "open_write",
            "write",
            "flush",
            "fsync",
            "rename",
            "temp_create",
            "dir_fsync",
        } <= transitive

    def test_fsync_helpers(self):
        index = self._index()
        assert index.own("repro.faults.fsio.fsync_file") == {"flush", "fsync"}
        assert "dir_fsync" in index.own("repro.faults.fsio.fsync_dir")

    def test_journal_append_fsyncs_and_read_is_guarded(self):
        # The one JSONL append and the one line-by-line read.  The append
        # opens for append and writes itself, and fsyncs through
        # fsync_file (and, when it creates the log, fsync_dir); every log
        # (the journal included) routes through it.
        graph = build(
            REPO_ROOT, "src/repro/faults/fsio.py", "src/repro/faults/journal.py"
        )
        index = graph.effect_index()
        append = index.effects("repro.faults.fsio.append_jsonl")
        assert {"open_append", "write"} <= append.own
        assert {"flush", "fsync", "dir_fsync"} <= append.transitive
        assert "repro.faults.fsio.fsync_file" in (
            graph.functions["repro.faults.fsio.append_jsonl"].calls
        )
        assert {"open_append", "write", "flush", "fsync"} <= index.transitive(
            "repro.faults.journal.MutationJournal.append"
        )
        read = index.effects("repro.faults.fsio.read_jsonl")
        assert [e.kind for e in read.effects] == ["jsonl_read"]


class TestExportDeterminism:
    SOURCE = """
    import os


    def publish(directory, payload):
        tmp = directory / "state.json.tmp"
        with open(tmp, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, directory / "state.json")
    """

    def test_payload_carries_schema_3_effects(self, tmp_path):
        write(tmp_path, "src/repro/fx.py", self.SOURCE)
        graph = build(tmp_path, "src/repro/fx.py")
        payload = json.loads(graph.to_json())
        assert payload["schema_version"] == 4
        entry = payload["effects"]["repro.fx.publish"]
        assert entry["own"] == sorted(entry["own"])
        assert "rename" in entry["own"]
        assert "fsync" in entry["transitive"]

    def test_cached_and_fresh_graphs_export_identically(self, tmp_path):
        target = write(tmp_path, "src/repro/fx.py", self.SOURCE)
        first = build(tmp_path, "src/repro/fx.py")
        exported = first.to_json()
        # Same content, bumped mtime: the graph cache misses and effects
        # are re-extracted from a fresh parse.
        stat = target.stat()
        os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        second = build(tmp_path, "src/repro/fx.py")
        assert second is not first
        assert second.to_json() == exported


class TestCfgSeams:
    """The public CFG surface the durability rules are built on."""

    def test_build_cfg_and_reachability(self):
        fn = ast.parse(
            textwrap.dedent(
                """
                def f(flag):
                    a = 1
                    if flag:
                        b = 2
                    return a
                """
            )
        ).body[0]
        nodes = dataflow.build_cfg(fn.body)
        reach = dataflow.node_reachability(nodes)
        # Entry reaches every other statement; the return reaches nothing.
        assert reach[0] == {1, 2, 3}
        assert reach[len(nodes) - 1] == set()

    def test_walk_statement_exprs_stays_on_the_header(self):
        stmt = ast.parse("if call_a():\n    call_b()\n").body[0]
        calls = [
            expr
            for expr in dataflow.walk_statement_exprs(stmt)
            if isinstance(expr, ast.Call)
        ]
        assert [call.func.id for call in calls] == ["call_a"]
