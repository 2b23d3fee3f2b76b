"""Append-only mutation journal: write-ahead durability for small stores.

:class:`MutationJournal` is the write-ahead half of the incremental
product-tree store's crash-safety story.  The contract is deliberately
minimal:

- **append before mutate** — a caller appends one JSON record describing
  the mutation it is *about* to apply, applies it, and later calls
  :meth:`commit` once the mutation is durably reflected elsewhere (e.g.
  an atomically-renamed manifest).  A SIGKILL between append and commit
  leaves the record behind, and :meth:`pending` surfaces it on the next
  open so the mutation can be replayed.
- **torn tails are expected** — a kill mid-append can leave a partial
  final line.  The journal is an append-only log of
  :func:`repro.faults.fsio.append_jsonl` / :func:`~repro.faults.fsio.read_jsonl`:
  replay skips the unparsable fragment, and the next append
  newline-terminates it first, so no record is ever fused with it.
- **commit truncates** — committed records carry no information (the
  authoritative state lives in the caller's own files), so :meth:`commit`
  rewrites the journal without them through
  :func:`~repro.faults.fsio.atomic_write_text`, keeping the file bounded
  by the in-flight window rather than by history.

Records are JSON objects with sorted keys; the caller owns the schema.
Every record is stamped with a monotonically increasing ``_seq`` so
replay order and the commit horizon are unambiguous.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.faults.fsio import append_jsonl, atomic_write_text, read_jsonl

__all__ = ["MutationJournal"]


class MutationJournal:
    """A torn-tail-tolerant, append-only JSONL write-ahead journal.

    Args:
        path: the journal file (parent directories are created on first
            append).  The file itself appears on first append too — a
            journal that never saw a mutation leaves nothing behind.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._next_seq = 0
        for record in self.pending():
            self._next_seq = max(self._next_seq, int(record["_seq"]) + 1)

    def pending(self) -> list[dict[str, Any]]:
        """All durable, uncommitted records in append order."""
        records = [
            record
            for record in read_jsonl(self.path)
            if isinstance(record, dict) and "_seq" in record
        ]
        return sorted(records, key=lambda r: int(r["_seq"]))

    def append(self, record: dict[str, Any]) -> int:
        """Durably append one mutation record; returns its ``_seq``.

        The record must be JSON-serialisable and must not contain the
        reserved ``_seq`` key (the journal stamps it).
        """
        if "_seq" in record:
            raise ValueError("'_seq' is reserved for the journal")
        seq = self._next_seq
        append_jsonl(self.path, [{**record, "_seq": seq}])
        self._next_seq = seq + 1
        return seq

    def commit(self, through_seq: int) -> None:
        """Drop every record with ``_seq <= through_seq`` (atomic rewrite)."""
        keep = [r for r in self.pending() if int(r["_seq"]) > through_seq]
        atomic_write_text(
            self.path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in keep)
        )

    def clear(self) -> None:
        """Drop every record (the caller's state is fully committed)."""
        self.commit(self._next_seq)
