"""Append-only mutation log: the incremental store's one durable file.

:class:`MutationJournal` is the log that
:class:`repro.numt.incremental.ProductTreeStore` commits through, one
record per committed batch, on the shared primitive pair
:func:`repro.faults.fsio.append_jsonl` / :func:`~repro.faults.fsio.read_jsonl`.
An append is fsynced before it returns.  A kill mid-append leaves a torn
final line, which :meth:`~MutationJournal.records` skips and the next
append newline-terminates first.  The caller owns the record schema.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.faults.fsio import append_jsonl, read_jsonl

__all__ = ["MutationJournal"]


class MutationJournal:
    """A torn-tail-tolerant, append-only JSONL log at ``path``."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def records(self) -> list[Any]:
        """Every intact record in append order (``[]`` without a log)."""
        return read_jsonl(self.path)

    def append(self, record: Any) -> None:
        """Durably append one record: fsynced before the call returns."""
        append_jsonl(self.path, [record])
