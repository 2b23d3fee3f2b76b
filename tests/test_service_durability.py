"""Durability regressions for the service persistence layer.

These pin the fixes the DUR rules demanded of real code: the job-queue
journal fsyncs every append (DUR001), ``endpoint.json`` publishes via
temp + atomic rename (DUR002), and a product-tree store commit is one
append to its log, fsynced before the commit returns.
"""

import json
import os
import random

from repro.crypto.primes import generate_prime
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


class TestStoreLogFsync:
    def test_insert_fsyncs_its_log_append_before_returning(
        self, tmp_path, monkeypatch
    ):
        store = ProductTreeStore(tmp_path / "store")
        first, second = _moduli(count=2)
        store.insert(first)
        synced = _record_fsyncs(monkeypatch)
        store.insert(second)
        # The commit is the log append alone: one fsync, of the log.
        assert synced == [(tmp_path / "store" / "store.jsonl").stat().st_ino]
        assert ProductTreeStore(tmp_path / "store").moduli == [first, second]
