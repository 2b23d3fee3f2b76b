"""Unit tests for the durable filesystem primitives (`repro.faults.fsio`)."""

import os
import stat
from pathlib import Path

import pytest

from repro.faults import fsio
from repro.faults.fsio import (
    append_jsonl,
    atomic_write_text,
    fsync_dir,
    fsync_file,
    read_jsonl,
)
from repro.faults.journal import MutationJournal


def _record_dir_fsyncs(monkeypatch):
    """Every directory :func:`fsync_dir` is called on, in call order."""
    synced = []
    real_fsync_dir = fsio.fsync_dir
    monkeypatch.setattr(
        fsio,
        "fsync_dir",
        lambda path: (synced.append(Path(path)), real_fsync_dir(path)),
    )
    return synced


class TestFsyncFile:
    def test_flushes_and_fsyncs_the_descriptor(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        target = tmp_path / "out.txt"
        with open(target, "w", encoding="utf-8") as handle:
            handle.write("payload")
            fsync_file(handle)
            # The flush happened before the fsync: the bytes are already
            # visible to an independent reader while the handle is open.
            assert target.read_text() == "payload"
            assert synced == [handle.fileno()]


class TestFsyncDir:
    def test_syncs_a_directory_descriptor(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        fsync_dir(tmp_path)
        assert len(synced) == 1

    def test_rejects_missing_directories(self, tmp_path):
        with pytest.raises(OSError):
            fsync_dir(tmp_path / "nope")


class TestAtomicWriteText:
    def test_writes_content_with_no_temp_residue(self, tmp_path):
        target = tmp_path / "state" / "manifest.json"
        atomic_write_text(target, '{"count": 1}')
        assert target.read_text() == '{"count": 1}'
        assert list(target.parent.iterdir()) == [target]

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "manifest.json"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_fsyncs_before_the_rename(self, tmp_path, monkeypatch):
        """The ordering is the whole point: content durable, then commit."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda src, dst: (events.append("replace"), real_replace(src, dst)),
        )
        atomic_write_text(tmp_path / "manifest.json", "payload")
        # File fsync, atomic rename, directory fsync — in that order.
        assert events == ["fsync", "replace", "fsync"]

    def test_temp_file_lives_in_the_target_directory(self, tmp_path, monkeypatch):
        """Same-directory temp means the rename can never cross devices."""
        seen = []
        real_replace = os.replace
        monkeypatch.setattr(
            os,
            "replace",
            lambda src, dst: (seen.append((src, dst)), real_replace(src, dst)),
        )
        target = tmp_path / "manifest.json"
        atomic_write_text(target, "payload")
        ((src, dst),) = [seen[0]]
        assert os.path.dirname(os.fspath(src)) == os.fspath(tmp_path)
        assert os.fspath(dst) == os.fspath(target)


class TestJsonl:
    def test_missing_file_reads_as_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "log.jsonl") == []

    def test_appends_sorted_key_lines_and_creates_directories(self, tmp_path):
        path = tmp_path / "deep" / "log.jsonl"
        append_jsonl(path, [{"b": 1, "a": 2}, [0, "ff"]])
        append_jsonl(path, [])
        assert path.read_text() == '{"a": 2, "b": 1}\n[0, "ff"]\n'
        assert read_jsonl(path) == [{"a": 2, "b": 1}, [0, "ff"]]

    def test_torn_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n\n{"n": 2, "to\n{"n": 3}\n[4, "ab')
        assert read_jsonl(path) == [{"n": 1}, {"n": 3}]

    def test_append_after_a_torn_line_keeps_both_sides(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl(path, [{"n": 1}])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"n": 2, "to')  # kill mid-append
        append_jsonl(path, [{"n": 3}])
        assert read_jsonl(path) == [{"n": 1}, {"n": 3}]
        assert path.read_text().endswith('{"n": 2, "to\n{"n": 3}\n')

    def test_each_append_fsyncs_before_it_returns(self, tmp_path, monkeypatch):
        path = tmp_path / "log.jsonl"
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os,
            "fsync",
            lambda fd: (
                synced.append(
                    "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else path.read_text()
                ),
                real_fsync(fd),
            ),
        )
        append_jsonl(path, [{"n": 1}])
        append_jsonl(path, [{"n": 2}])
        # One file fsync per append, each after that append's bytes are
        # written; the append that created the log also fsyncs its
        # directory.
        assert synced == ['{"n": 1}\n', "dir", '{"n": 1}\n{"n": 2}\n']

    def test_only_the_creating_append_fsyncs_the_directory(
        self, tmp_path, monkeypatch
    ):
        synced_dirs = _record_dir_fsyncs(monkeypatch)
        path = tmp_path / "logs" / "log.jsonl"
        append_jsonl(path, [{"n": 1}])
        assert synced_dirs == [path.parent]
        append_jsonl(path, [{"n": 2}])
        append_jsonl(path, [])
        assert synced_dirs == [path.parent]

    def test_append_to_a_committed_journal_adds_no_directory_fsync(
        self, tmp_path, monkeypatch
    ):
        # MutationJournal.commit leaves an empty journal behind; the next
        # append finds it and fsyncs only the file.
        journal = MutationJournal(tmp_path / "journal.jsonl")
        journal.commit(journal.append({"insert": 1}))
        assert journal.path.read_text() == ""
        synced_dirs = _record_dir_fsyncs(monkeypatch)
        journal.append({"insert": 2})
        assert synced_dirs == []
