"""Durable filesystem primitives shared by every persistence protocol.

Every on-disk format in the repo (the checkpoint log, the product-tree
store's log, the service job-queue journal, ``endpoint.json`` publish)
is built from two shapes, each with one helper here, plus the fsync
moves they share:

- :func:`fsync_file` — flush the user-space buffer *and* fsync the file
  descriptor.  A SIGKILL loses whatever sits in the Python-level buffer;
  a power loss additionally loses whatever sits in the page cache.
  ``flush()`` alone only defends against the first.
- :func:`atomic_write_text` — the commit-point discipline: write a temp
  file **in the same directory**, fsync it, then :func:`os.replace` onto
  the final path, then fsync the directory so the new directory entry is
  itself durable.  A reader never observes a torn file, and a crash at
  any step leaves either the old committed state or the new one.
- :func:`fsync_dir` — make a completed rename durable.  The kernel keeps
  the new directory entry after a SIGKILL, but only a directory fsync
  pins it across power loss.
- :func:`make_dirs` — the same pin for directories: create the missing
  ones one level at a time and fsync the parent of each, so a power loss
  cannot drop a directory whose files were all fsynced.  Both writers
  below create their parents through it.
- :func:`append_jsonl` / :func:`read_jsonl` — the append-only log: one
  JSON record per line, fsynced before the append returns (the append
  that creates the log fsyncs its directory too).  One torn-tail
  policy covers every log: a kill mid-append leaves a partial final
  line, which :func:`read_jsonl` skips and the next :func:`append_jsonl`
  newline-terminates first, so the records on both sides of a tear
  survive.

The DUR rules in :mod:`repro.devtools.checks.durability` machine-check
that persistence code either routes through these helpers or reproduces
the same discipline inline; the crash drills in
``tests/test_faults_durability_drills.py`` demonstrate the data loss each
rule prevents.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Iterable

__all__ = [
    "append_jsonl",
    "atomic_write_text",
    "fsync_dir",
    "fsync_file",
    "make_dirs",
    "read_jsonl",
]


def fsync_file(handle: IO) -> None:
    """Flush the user-space buffer and fsync the descriptor.

    The pair is the unit of durability: ``flush()`` moves bytes from the
    Python buffer to the kernel (SIGKILL-safe), ``os.fsync`` moves them
    from the page cache to the disk (power-loss-safe).
    """
    handle.flush()
    os.fsync(handle.fileno())


def fsync_dir(path: str | Path) -> None:
    """Fsync a directory so renames/creations inside it are durable."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    fd = os.open(os.fspath(path), flags)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def make_dirs(path: str | Path) -> None:
    """Create ``path`` and its missing parents, pinning each in its parent.

    Outermost first, each created directory's parent is fsynced; an
    existing directory costs no fsync.
    """
    missing = []
    directory = Path(path)
    while not directory.exists():
        missing.append(directory)
        directory = directory.parent
    for created in reversed(missing):
        created.mkdir(exist_ok=True)
        fsync_dir(created.parent)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Durably replace ``path`` with ``text`` via temp-file + atomic rename.

    The temp file lives in the same directory (``<name>.tmp``) so the
    rename cannot cross filesystems, and it is fsynced *before* the
    rename — otherwise the rename can land while the content is still in
    the page cache and a power loss commits an empty or torn file.  The
    directory entry is fsynced after, so the commit itself is durable.
    Parent directories are created on demand (:func:`make_dirs`).
    """
    target = Path(path)
    make_dirs(target.parent)
    tmp = target.with_suffix(target.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        fsync_file(handle)
    os.replace(tmp, target)
    fsync_dir(target.parent)


def append_jsonl(path: str | Path, records: Iterable[Any]) -> None:
    """Durably append one sorted-key JSON line per record to ``path``.

    A file that ends mid-line (a kill mid-append) is newline-terminated
    first, so the torn fragment stays one unparsable line that
    :func:`read_jsonl` skips instead of swallowing the first new record.
    The lines are fsynced before the call returns.  Parent directories
    are created on demand (:func:`make_dirs`), and the append that
    creates the file also fsyncs its directory, so a power loss cannot
    drop the new log's directory entry; appends to an existing log fsync
    only the file.
    """
    target = Path(path)
    make_dirs(target.parent)
    created = not target.exists()
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    with open(target, "ab+") as handle:
        if handle.tell():
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                text = "\n" + text
        handle.write(text.encode("utf-8"))
        fsync_file(handle)
    if created:
        fsync_dir(target.parent)


def read_jsonl(path: str | Path) -> list[Any]:
    """Every parseable line of ``path``, in file order.

    Blank and unparsable lines (a torn tail, or a fragment an append
    newline-terminated) are skipped; a missing file reads as ``[]``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return []
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            continue
    return records
