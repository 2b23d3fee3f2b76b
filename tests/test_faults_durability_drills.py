"""Crash drills: the concrete data loss each DUR rule prevents.

One drill per rule.  Each drill runs the *undisciplined* protocol in a
child process that SIGKILLs itself mid-flight and asserts the loss on
disk, then runs the disciplined counterpart and asserts survival.  The
drills are deterministic: the kill lands at a fixed point in the
protocol, not on a timer.

SIGKILL surfaces user-space buffer loss (DUR001/DUR002/DUR003/DUR005)
but not page-cache or directory-entry volatility — the kernel keeps
those across a process kill.  DUR004's hazard (a completed rename whose
directory entry evaporates on power loss) is therefore drilled against
an explicit model of a volatile directory rather than a real kill.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.faults.fsio import atomic_write_text, fsync_dir
from repro.faults.journal import MutationJournal

REPO_ROOT = Path(__file__).resolve().parent.parent

PRELUDE = """
import os
import signal
import sys
"""


def run_until_killed(tmp_path, body):
    """Run a drill script that ends in a self-SIGKILL; assert it died rudely."""
    script = tmp_path / "drill.py"
    script.write_text(PRELUDE + textwrap.dedent(body))
    result = subprocess.run(
        [sys.executable, str(script), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == -signal.SIGKILL, result.stderr
    return result


class TestDur001Drill:
    """An unsynced rename source commits whatever the buffer held: nothing."""

    def test_buffered_write_then_rename_publishes_an_empty_file(self, tmp_path):
        run_until_killed(
            tmp_path,
            """
            root = sys.argv[1]
            tmp = os.path.join(root, "data.tmp")
            handle = open(tmp, "w", encoding="utf-8")
            handle.write("precious payload")  # sits in the user-space buffer
            os.replace(tmp, os.path.join(root, "data.json"))
            os.kill(os.getpid(), signal.SIGKILL)
            """,
        )
        published = tmp_path / "data.json"
        assert published.exists()  # the rename committed...
        assert published.read_text() == ""  # ...an empty file

    def test_fsync_before_rename_publishes_intact(self, tmp_path):
        run_until_killed(
            tmp_path,
            """
            sys.path.insert(0, os.environ["PYTHONPATH"])
            from repro.faults.fsio import atomic_write_text

            root = sys.argv[1]
            atomic_write_text(os.path.join(root, "data.json"), "precious payload")
            os.kill(os.getpid(), signal.SIGKILL)
            """,
        )
        assert (tmp_path / "data.json").read_text() == "precious payload"


class TestDur002Drill:
    """An in-place commit-point write destroys the old state with the new."""

    def test_truncating_the_manifest_in_place_loses_both_states(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"count": 3}')
        run_until_killed(
            tmp_path,
            """
            root = sys.argv[1]
            handle = open(os.path.join(root, "manifest.json"), "w")
            handle.write('{"count":')  # killed mid-write, nothing flushed
            os.kill(os.getpid(), signal.SIGKILL)
            """,
        )
        # The open-for-write truncated the old manifest; the new bytes
        # died in the buffer.  Neither state survives.
        assert (tmp_path / "manifest.json").read_text() == ""

    def test_temp_plus_rename_keeps_the_old_state(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"count": 3}')
        run_until_killed(
            tmp_path,
            """
            root = sys.argv[1]
            handle = open(os.path.join(root, "manifest.json.tmp"), "w")
            handle.write('{"count":')  # killed before the rename
            os.kill(os.getpid(), signal.SIGKILL)
            """,
        )
        assert (tmp_path / "manifest.json").read_text() == '{"count": 3}'


class TestDur003Drill:
    """Mutating before journaling loses the mutation with no replay record."""

    def test_mutation_before_append_is_unrecoverable(self, tmp_path):
        run_until_killed(
            tmp_path,
            """
            sys.path.insert(0, os.environ["PYTHONPATH"])
            from repro.faults.fsio import atomic_write_text
            from repro.faults.journal import MutationJournal

            root = sys.argv[1]
            journal = MutationJournal(os.path.join(root, "journal.jsonl"))
            # Wrong order: persist the (incomplete) mutation first...
            atomic_write_text(os.path.join(root, "state.json"), '["item-1"')
            os.kill(os.getpid(), signal.SIGKILL)
            # ...and never reach the journal append.
            journal.append({"insert": "item-1"})
            """,
        )
        journal = MutationJournal(tmp_path / "journal.jsonl")
        assert journal.records() == []  # nothing to replay
        with pytest.raises(ValueError):
            json.loads((tmp_path / "state.json").read_text())

    def test_journal_first_replays_the_lost_mutation(self, tmp_path):
        run_until_killed(
            tmp_path,
            """
            sys.path.insert(0, os.environ["PYTHONPATH"])
            from repro.faults.journal import MutationJournal

            root = sys.argv[1]
            journal = MutationJournal(os.path.join(root, "journal.jsonl"))
            journal.append({"insert": "item-1"})
            os.kill(os.getpid(), signal.SIGKILL)
            # The state write never happens — but the intent is durable.
            """,
        )
        journal = MutationJournal(tmp_path / "journal.jsonl")
        (record,) = journal.records()
        assert record["insert"] == "item-1"
        # Recovery replays the record into the store.
        atomic_write_text(tmp_path / "state.json", json.dumps([record["insert"]]))
        assert json.loads((tmp_path / "state.json").read_text()) == ["item-1"]


class _VolatileDirectory:
    """A power-loss model for directory entries.

    A completed rename updates the directory's in-memory entry table
    immediately (SIGKILL-safe), but the on-disk table only catches up on
    ``fsync(dirfd)``.  ``power_loss()`` reverts to the last fsynced
    table — exactly the hazard DUR004 warns about, which no process kill
    can surface.
    """

    def __init__(self):
        self.entries = {}
        self._durable = {}

    def rename(self, name, inode):
        self.entries[name] = inode

    def fsync(self):
        self._durable = dict(self.entries)

    def power_loss(self):
        self.entries = dict(self._durable)


class TestDur004Drill:
    def test_unsynced_rename_vanishes_on_power_loss(self):
        directory = _VolatileDirectory()
        directory.rename("manifest.json", inode=42)
        assert directory.entries["manifest.json"] == 42  # visible post-kill
        directory.power_loss()
        assert "manifest.json" not in directory.entries  # gone post-outage

    def test_directory_fsync_pins_the_rename(self):
        directory = _VolatileDirectory()
        directory.rename("manifest.json", inode=42)
        directory.fsync()
        directory.power_loss()
        assert directory.entries["manifest.json"] == 42

    def test_real_fsync_dir_accepts_a_directory(self, tmp_path):
        """The primitive the fix calls must work on a real directory."""
        (tmp_path / "manifest.json").write_text("{}")
        fsync_dir(tmp_path)


class TestDur005Drill:
    """A torn tail is the *expected* post-kill state; readers must survive it."""

    def drill_torn_journal(self, tmp_path):
        run_until_killed(
            tmp_path,
            """
            sys.path.insert(0, os.environ["PYTHONPATH"])
            from repro.faults.journal import MutationJournal

            root = sys.argv[1]
            journal = MutationJournal(os.path.join(root, "journal.jsonl"))
            for index in range(3):
                journal.append({"insert": index})
            # A kill mid-append leaves a torn final line.
            with open(journal.path, "a", encoding="utf-8") as handle:
                handle.write('{"insert": 3, "ite')
                handle.flush()
            os.kill(os.getpid(), signal.SIGKILL)
            """,
        )
        return tmp_path / "journal.jsonl"

    def test_unguarded_reader_throws_away_every_record(self, tmp_path):
        path = self.drill_torn_journal(tmp_path)
        with pytest.raises(ValueError):
            [json.loads(line) for line in path.read_text().splitlines()]

    def test_guarded_reader_keeps_everything_before_the_tear(self, tmp_path):
        path = self.drill_torn_journal(tmp_path)
        journal = MutationJournal(path)
        assert [record["insert"] for record in journal.records()] == [0, 1, 2]
