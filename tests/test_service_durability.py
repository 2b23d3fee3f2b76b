"""Durability regressions for the service persistence layer.

These pin the fixes the DUR rules demanded of real code: the job-queue
journal fsyncs every append (DUR001), ``endpoint.json`` publishes via
temp + atomic rename (DUR002), the mutation journal's commit fsyncs its
rewrite before renaming it, and the product-tree leaf log is fsynced
before the manifest commits to its record count.
"""

import json
import os
import random

from repro.crypto.primes import generate_prime
from repro.faults.journal import MutationJournal
from repro.numt.incremental import ProductTreeStore
from repro.service.models import ServiceConfig
from repro.service.queue import JobQueue
from repro.service.server import ServiceServer


def _moduli(seed=7, count=3, bits=32):
    rng = random.Random(seed)
    return [
        generate_prime(bits, rng) * generate_prime(bits, rng)
        for _ in range(count)
    ]


def _record_fsyncs(monkeypatch):
    """Inode of every fsynced descriptor (appends close their handle)."""
    inodes = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        os,
        "fsync",
        lambda fd: (inodes.append(os.fstat(fd).st_ino), real_fsync(fd)),
    )
    return inodes


class TestQueueJournalFsync:
    def test_every_append_fsyncs_the_journal_descriptor(
        self, tmp_path, monkeypatch
    ):
        queue = JobQueue(tmp_path)
        synced = _record_fsyncs(monkeypatch)
        queue.submit(_moduli())
        # The submit that created the journal also fsyncs its directory.
        journal = (tmp_path / "journal.jsonl").stat().st_ino
        assert synced == [journal, tmp_path.stat().st_ino]
        synced.clear()
        queue.submit(_moduli(seed=8))
        assert synced == [journal]

    def test_submitted_job_survives_an_unflushed_drop(self, tmp_path):
        """The journal on disk is the authority the moment submit returns."""
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_moduli())
        del queue  # no close, no terminal events — the rude shutdown
        reopened = JobQueue(tmp_path)
        assert reopened.get(job.job_id).job_id == job.job_id


class TestEndpointPublish:
    def test_endpoint_file_is_atomic_and_parseable(self, tmp_path):
        state_dir = tmp_path / "state"
        server = ServiceServer(
            JobQueue(tmp_path / "queue"),
            ServiceConfig(state_dir=str(state_dir)),
        )
        server.bound_port = 43210
        server._write_endpoint_file()
        payload = json.loads((state_dir / "endpoint.json").read_text())
        assert payload["port"] == 43210
        assert payload["pid"] == os.getpid()
        # No temp residue: the publish either happened or it didn't.
        assert [p.name for p in state_dir.iterdir()] == ["endpoint.json"]


class TestJournalCommitFsync:
    def test_commit_fsyncs_the_rewrite_before_renaming_it(
        self, tmp_path, monkeypatch
    ):
        journal = MutationJournal(tmp_path / "journal.jsonl")
        first = journal.append({"insert": 1})
        journal.append({"insert": 2})
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
        journal.commit(first)
        assert "replace" in events
        assert events.index("fsync") < events.index("replace")
        assert [r["insert"] for r in journal.pending()] == [2]


class TestStoreLevelFsync:
    def test_insert_fsyncs_level_records_before_the_manifest_commits(
        self, tmp_path, monkeypatch
    ):
        store = ProductTreeStore(tmp_path / "store")
        synced = _record_fsyncs(monkeypatch)
        store.insert(_moduli(count=1)[0])
        # One fsync came from the leaf append (the journal and the atomic
        # manifest writes account for the rest).
        leaves = tmp_path / "store" / "nodes" / "level-0.jsonl"
        assert leaves.stat().st_ino in synced
