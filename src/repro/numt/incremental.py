"""Incremental batch GCD: a persistent, appendable product-tree store.

The batch engines in :mod:`repro.core` answer "which moduli in this
corpus share primes?" by rebuilding the full product/remainder tree per
run — O(n log n) big-int work even when only one new modulus arrived.
This module is the serving-path answer to the corpus being *dynamic*
(new keys arrive continuously and must be checked against everything
seen so far):

- :class:`IncrementalProductTree` keeps the corpus product tree live in
  memory, appends a leaf by recomputing only the **rightmost spine**
  (amortised O(log n) nodes per insert), and answers "does this new
  modulus share a prime with the corpus?" with a **single descent**: one
  reduction of the stored root (``gcd(m, P mod m)`` — exactly the
  classic ``gcd(m, (P·m mod m²)/m)`` test, since ``P·m mod m² =
  m·(P mod m)``) followed by a divisor-guided walk down the tree to
  locate the partner leaves.
- :class:`ProductTreeStore` persists the corpus on disk — an append-only
  leaf log, an atomically-renamed manifest as the commit point, and a
  write-ahead :class:`~repro.faults.journal.MutationJournal` so a SIGKILL
  mid-insert replays cleanly on the next open — and rebuilds the product
  tree in memory from the leaves when it opens.  Identity extends
  :func:`repro.faults.checkpoint.corpus_digest`'s SHA-256 corpus digest
  to a *chained* form (:func:`extend_digest`) updatable in O(1) per
  insert: both hash the records ``f"{n:x}\\n"``, the chained form just
  folds them in one at a time.

Layout under ``directory``::

    manifest.json        # version/backend/count/digest/jobs — commit point
    journal.jsonl        # write-ahead insert records (empty when idle)
    hits.json            # sparse accumulated divisors [[index, hex], ...]
    nodes/level-0.jsonl  # leaf log, one [index, hex] record per insert

The store persists only what it cannot derive: the internal tree levels
are products of the leaves, so they live in memory only.  Each insert
appends its journal record, appends one leaf record, rewrites the sparse
hits file when the vulnerable set changed, renames a fresh manifest and
commits the journal: a kill at any point either replays the journalled
insert on the next open or never sees it.  The journal and the leaf log
are append-only logs of :func:`repro.faults.fsio.append_jsonl` /
:func:`~repro.faults.fsio.read_jsonl`, so a torn final line is skipped on
read and newline-terminated before the next append.  Leaf records at or
past the committed count (an insert killed before its manifest rename)
are ignored; the journal replays them.

Divisor semantics match the clustered engine's: the accumulated divisor
for a corpus member is the gcd-capped lcm of its pairwise shares, so the
vulnerable/clean *flag* always matches the classic engine, and on
squarefree corpora (every well-formed RSA modulus) the divisors are
byte-identical; on degenerate non-squarefree inputs the multiplicity may
be a proper divisor of the classic one, exactly as for
:class:`repro.core.clustered.ClusteredBatchGcd`.

Telemetry (active registry, see :mod:`repro.telemetry`): each probe
records a ``batch_gcd.incremental.descend`` span (annotated with the
partner count), each insert a ``batch_gcd.incremental.insert`` span plus
the ``batch_gcd.incremental.rebuild_bytes`` counter (bytes of spine
nodes recomputed) and the ``batch_gcd.incremental.store_nodes`` gauge;
bootstrapping records one ``batch_gcd.incremental.bootstrap`` span.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

from repro.faults.fsio import append_jsonl, atomic_write_text, fsync_dir, read_jsonl
from repro.faults.journal import MutationJournal
from repro.numt.backend import BigIntBackend, resolve_backend
from repro.numt.trees import gcd_descent_hits, product_tree
from repro.telemetry import get_telemetry

__all__ = [
    "IncrementalProductTree",
    "PartnerHit",
    "ProbeOutcome",
    "ProductTreeStore",
    "StoreCorruptError",
    "empty_digest",
    "extend_digest",
]

_MANIFEST = "manifest.json"
_JOURNAL = "journal.jsonl"
_HITS = "hits.json"
_NODES_DIR = "nodes"
_LEAVES = "level-0.jsonl"
_VERSION = 1


def empty_digest() -> str:
    """The chained corpus digest of an empty corpus."""
    return hashlib.sha256(b"").hexdigest()


def extend_digest(digest: str, modulus: int) -> str:
    """Fold one appended modulus into a chained corpus digest.

    Chained analogue of :func:`repro.faults.checkpoint.corpus_digest`:
    the same per-modulus record (``f"{n:x}\\n"``) is absorbed one insert
    at a time, so the store's identity updates in O(1) instead of
    rehashing the corpus.
    """
    h = hashlib.sha256()
    h.update(bytes.fromhex(digest))
    h.update(f"{modulus:x}\n".encode("ascii"))
    return h.hexdigest()


class PartnerHit(NamedTuple):
    """One existing corpus member sharing a factor with a probed modulus."""

    index: int
    shared: int


class ProbeOutcome(NamedTuple):
    """Result of probing a modulus against the corpus (no mutation)."""

    divisor: int
    partners: list[PartnerHit]


class StoreCorruptError(RuntimeError):
    """The on-disk store cannot be reconciled (leaf records missing)."""


class IncrementalProductTree:
    """An appendable product tree with divisor-guided descent.

    The level structure is identical to :func:`repro.numt.trees.product_tree`
    (leaves first, odd nodes promoted), so a freshly appended tree is
    level-for-level equal to a batch-built one over the same corpus.

    Args:
        moduli: initial corpus (appended in order).
        backend: big-int backend for the tree's operands.
    """

    def __init__(
        self,
        moduli: Sequence[int] = (),
        backend: str | BigIntBackend | None = None,
    ) -> None:
        self._backend = resolve_backend(backend)
        if moduli:
            self._levels = product_tree(moduli, backend=self._backend)
        else:
            self._levels = [[]]

    @property
    def backend(self) -> BigIntBackend:
        return self._backend

    @property
    def count(self) -> int:
        """Number of leaves (corpus size)."""
        return len(self._levels[0])

    @property
    def node_count(self) -> int:
        """Total nodes across all levels."""
        if not self.count:
            return 0
        return sum(len(level) for level in self._levels)

    @property
    def levels(self) -> list[list[int]]:
        """The live level structure (leaves first).  Not a copy."""
        return self._levels

    def root(self) -> int:
        """Product of the whole corpus (1 when empty), backend operand."""
        if not self.count:
            return self._backend.wrap(1)
        return self._levels[-1][0]

    # -- mutation --------------------------------------------------------

    def append(self, modulus: int) -> list[tuple[int, int]]:
        """Append a leaf, recomputing only the rightmost spine.

        Returns the dirty ``(level, index)`` coordinates — the appended
        leaf plus one recomputed (or newly created) ancestor per level.
        """
        if modulus < 2:
            raise ValueError("all moduli must be >= 2")
        levels = self._levels
        j = len(levels[0])
        levels[0].append(self._backend.wrap(modulus))
        dirty = [(0, j)]
        level = 0
        while len(levels[level]) > 1:
            parent = j >> 1
            nodes = levels[level]
            left = nodes[2 * parent]
            if 2 * parent + 1 < len(nodes):
                value = left * nodes[2 * parent + 1]
            else:
                value = left
            if level + 1 == len(levels):
                levels.append([value])
            elif parent == len(levels[level + 1]):
                levels[level + 1].append(value)
            else:
                levels[level + 1][parent] = value
            dirty.append((level + 1, parent))
            level += 1
            j = parent
        return dirty

    # -- queries ---------------------------------------------------------

    def divisor_against(self, modulus: int) -> int:
        """``gcd(modulus, P mod modulus)`` — the one-reduction weak check.

        Equal to the classic batch-GCD divisor the modulus would receive
        in the corpus-plus-modulus union: with ``P`` the product of the
        existing corpus, ``(P·m mod m²)/m = P mod m``.
        """
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not self.count:
            return 1
        m = self._backend.wrap(modulus)
        return self._backend.unwrap(self._backend.gcd(m, self.root() % m))

    def leaves_sharing(self, divisor: int) -> list[PartnerHit]:
        """Corpus members sharing a factor with ``divisor``, via descent.

        :func:`~repro.numt.trees.gcd_descent_hits` from the root, pruning
        every subtree whose product is coprime to ``divisor``; visits
        O(log n) nodes per surviving path.
        """
        if divisor <= 1 or not self.count:
            return []
        backend = self._backend
        hits = gcd_descent_hits(
            self._levels, backend.wrap(divisor), gcd=backend.gcd
        )
        return [PartnerHit(j, backend.unwrap(g)) for j, g in hits]


class ProductTreeStore:
    """The persistent incremental batch-GCD corpus store.

    One store holds one evolving corpus: the product tree (for O(1
    descent) checks), the accumulated sparse divisors (the vulnerable
    set so far), a chained corpus digest, and per-job insert progress so
    a crashed service job resumes idempotently.

    Args:
        directory: store root on disk, or ``None`` for a memory-only
            store (no persistence, no journal — same API and semantics).
        backend: big-int backend name or instance.  A persisted store
            remembers its backend; reopening with a conflicting explicit
            backend raises.

    Raises:
        StoreCorruptError: on open, if leaf records are missing below
            the committed count (the leaves are the ground truth; every
            tree level above them is rebuilt from them).
        ValueError: on a backend mismatch with the persisted manifest.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        backend: str | BigIntBackend | None = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._journal: MutationJournal | None = None
        self._jobs: dict[str, tuple[int, int]] = {}
        self._hits: dict[int, int] = {}
        self._moduli: list[int] = []
        self._digest = empty_digest()
        self.replayed_inserts = 0
        if self.directory is None:
            self._tree = IncrementalProductTree(backend=backend)
            return
        self._journal = MutationJournal(self.directory / _JOURNAL)
        self._load(backend)

    # -- identity and queries -------------------------------------------

    @property
    def count(self) -> int:
        return len(self._moduli)

    @property
    def digest(self) -> str:
        """Chained SHA-256 corpus digest (see :func:`extend_digest`)."""
        return self._digest

    @property
    def backend(self) -> BigIntBackend:
        return self._tree.backend

    @property
    def node_count(self) -> int:
        return self._tree.node_count

    @property
    def moduli(self) -> list[int]:
        """The corpus in insertion order (a copy)."""
        return list(self._moduli)

    def divisors(self) -> list[int]:
        """Accumulated divisor per corpus member (1 = clean so far)."""
        return [self._hits.get(i, 1) for i in range(len(self._moduli))]

    def job_progress(self, job_id: str) -> tuple[int, int] | None:
        """``(base_index, inserted)`` for a job, or None if unseen."""
        return self._jobs.get(job_id)

    @property
    def jobs(self) -> dict[str, tuple[int, int]]:
        """All recorded per-job progress (a copy)."""
        return dict(self._jobs)

    def probe(self, modulus: int) -> ProbeOutcome:
        """Check a modulus against the corpus without inserting it.

        One root reduction plus, when the divisor is nontrivial, one
        divisor-guided descent to the partner leaves.
        """
        telemetry = get_telemetry()
        with telemetry.span(
            "batch_gcd.incremental.descend", corpus=self.count
        ):
            divisor = self._tree.divisor_against(modulus)
            partners = (
                self._tree.leaves_sharing(divisor) if divisor > 1 else []
            )
            telemetry.annotate(divisor_bits=divisor.bit_length(), partners=len(partners))
        return ProbeOutcome(divisor, partners)

    # -- mutation --------------------------------------------------------

    def insert(self, modulus: int, job_id: str | None = None) -> ProbeOutcome:
        """Probe then append one modulus; durable once the call returns.

        The probe result is folded into the accumulated divisors: the
        new member records its divisor against the prior corpus, and
        every partner leaf lcm-merges its share with the newcomer
        (gcd-capped), so the store's vulnerable set tracks what a full
        batch-GCD over the grown corpus would report.
        """
        outcome = self.probe(modulus)
        index = self.count
        if self._journal is not None:
            seq = self._journal.append(
                {"index": index, "m": f"{modulus:x}", "job": job_id}
            )
        self._apply_insert(modulus, outcome, job_id)
        if self._journal is not None:
            self._journal.commit(seq)
        return outcome

    def extend(
        self, moduli: Iterable[int], job_id: str | None = None
    ) -> list[ProbeOutcome]:
        """Insert a batch in order (each checked against all before it)."""
        return [self.insert(m, job_id=job_id) for m in moduli]

    def apply_job(self, job_id: str, moduli: Sequence[int]) -> tuple[int, int]:
        """Idempotently insert a job's corpus; returns ``(base, count)``.

        A job already applied (fully or partially, e.g. the run was
        SIGKILLed and the queue re-delivered it) resumes from its
        recorded progress instead of re-inserting — re-running a job is
        safe and returns the same index range.
        """
        progress = self._jobs.get(job_id)
        if progress is None:
            base, done = self.count, 0
            self._jobs[job_id] = (base, 0)
        else:
            base, done = progress
        for m in moduli[done:]:
            self.insert(m, job_id=job_id)
        return base, len(moduli)

    def bootstrap(
        self,
        moduli: Sequence[int],
        divisors: Sequence[int] | None = None,
        jobs: dict[str, tuple[int, int]] | None = None,
    ) -> None:
        """Replace the store contents with a batch-built corpus.

        The bulk-ingest path: a full engine run already computed the
        corpus divisors, so the store adopts them and builds the product
        tree once (no per-insert spine work).  The leaf log and the hits
        file are rewritten through temp-file renames with the manifest
        last, so a kill mid-bootstrap leaves the previous committed state
        loadable (the new leaf log only extends the old one).

        Args:
            moduli: the full corpus, in order.  Must extend the current
                corpus (the store is append-only; prefix-checked).
            divisors: aligned accumulated divisors (``None`` = all clean).
            jobs: per-job progress to persist (``None`` keeps current).
        """
        if list(moduli[: self.count]) != self._moduli:
            raise ValueError(
                "bootstrap corpus must extend the existing corpus "
                "(the store is append-only)"
            )
        if divisors is not None and len(divisors) != len(moduli):
            raise ValueError("divisors must align with moduli")
        telemetry = get_telemetry()
        with telemetry.span(
            "batch_gcd.incremental.bootstrap", moduli=len(moduli)
        ):
            digest = self._digest
            for m in moduli[self.count :]:
                digest = extend_digest(digest, m)
            tree = IncrementalProductTree(moduli, backend=self._tree.backend)
            hits = {}
            if divisors is not None:
                hits = {i: d for i, d in enumerate(divisors) if d > 1}
            else:
                hits = dict(self._hits)
            self._tree = tree
            self._moduli = list(moduli)
            self._digest = digest
            self._hits = hits
            if jobs is not None:
                self._jobs = dict(jobs)
            if self.directory is not None:
                atomic_write_text(
                    self._leaves_path,
                    "".join(
                        json.dumps([i, f"{m:x}"]) + "\n"
                        for i, m in enumerate(self._moduli)
                    ),
                )
                self._write_hits()
                self._write_manifest()
                self._journal.clear()
            telemetry.gauge(
                "batch_gcd.incremental.store_nodes", self._tree.node_count
            )

    # -- insert internals ------------------------------------------------

    def _apply_insert(
        self, modulus: int, outcome: ProbeOutcome, job_id: str | None
    ) -> None:
        telemetry = get_telemetry()
        with telemetry.span(
            "batch_gcd.incremental.insert", corpus=self.count
        ):
            index = self.count
            dirty = self._tree.append(modulus)
            self._moduli.append(modulus)
            self._digest = extend_digest(self._digest, modulus)
            if outcome.divisor > 1:
                self._merge_hit(index, outcome.divisor)
            for partner in outcome.partners:
                share = math.gcd(self._moduli[partner.index], modulus)
                self._merge_hit(partner.index, share)
            if job_id is not None:
                base, done = self._jobs.get(job_id, (index, 0))
                self._jobs[job_id] = (base, done + 1)
            rebuilt = sum(
                (self._tree.backend.unwrap(
                    self._tree.levels[level][i]
                ).bit_length() + 7) // 8
                for level, i in dirty
            )
            telemetry.counter("batch_gcd.incremental.rebuild_bytes", rebuilt)
            telemetry.annotate(spine_nodes=len(dirty))
            if self.directory is not None:
                # Durable before the manifest commits count=N on its strength.
                append_jsonl(self._leaves_path, [[index, f"{modulus:x}"]])
                if outcome.divisor > 1 or outcome.partners:
                    self._write_hits()
                self._write_manifest()
            telemetry.gauge(
                "batch_gcd.incremental.store_nodes", self._tree.node_count
            )

    def _merge_hit(self, index: int, share: int) -> None:
        """gcd-capped lcm-merge, the clustered engine's aggregation rule."""
        current = self._hits.get(index, 1)
        merged = current * share // math.gcd(current, share)
        self._hits[index] = math.gcd(merged, self._moduli[index])

    # -- persistence -----------------------------------------------------

    @property
    def _leaves_path(self) -> Path:
        return self.directory / _NODES_DIR / _LEAVES

    def _write_hits(self) -> None:
        payload = {
            "divisors": [
                [i, f"{d:x}"] for i, d in sorted(self._hits.items())
            ]
        }
        atomic_write_text(self.directory / _HITS, json.dumps(payload))

    def _write_manifest(self) -> None:
        manifest = {
            "version": _VERSION,
            "backend": self._tree.backend.name,
            "count": self.count,
            "digest": self._digest,
            "jobs": {
                job: [base, done]
                for job, (base, done) in sorted(self._jobs.items())
            },
        }
        atomic_write_text(
            self.directory / _MANIFEST, json.dumps(manifest, sort_keys=True)
        )

    # -- loading ---------------------------------------------------------

    def _load(self, backend: str | BigIntBackend | None) -> None:
        try:
            manifest = json.loads((self.directory / _MANIFEST).read_text())
        except (OSError, ValueError):
            manifest = None
        if manifest is None or manifest.get("version") != _VERSION:
            self._tree = IncrementalProductTree(backend=backend)
            return
        stored_backend = manifest.get("backend", "python")
        requested = resolve_backend(backend) if backend is not None else None
        if requested is not None and requested.name != stored_backend:
            raise ValueError(
                f"store was persisted with backend {stored_backend!r} but "
                f"{requested.name!r} was requested"
            )
        resolved = resolve_backend(backend if backend is not None else stored_backend)
        count = int(manifest.get("count", 0))
        self._digest = manifest.get("digest", empty_digest())
        self._jobs = {
            job: (int(base), int(done))
            for job, (base, done) in manifest.get("jobs", {}).items()
        }
        pending = [
            record
            for record in self._journal.pending()
            if int(record["index"]) >= count
        ]
        self._moduli = self._load_leaves(count)
        self._drop_internal_levels()
        self._tree = IncrementalProductTree(self._moduli, backend=resolved)
        self._load_hits(count)
        self.replayed_inserts = self._replay(pending)
        if pending:
            self._journal.clear()

    def _load_leaves(self, count: int) -> list[int]:
        leaves: dict[int, int] = {}
        for record in read_jsonl(self._leaves_path):
            try:
                index, hexval = record
                index, value = int(index), int(hexval, 16)
            except (ValueError, TypeError):
                continue
            if 0 <= index < count:
                leaves[index] = value
        if len(leaves) != count:
            raise StoreCorruptError(
                f"store at {self.directory} is missing "
                f"{count - len(leaves)} of {count} leaf records"
            )
        return [leaves[i] for i in range(count)]

    def _drop_internal_levels(self) -> None:
        """Delete the internal-level files the per-level layout persisted.

        This layout rebuilds them from the leaves on every open; once it
        appends a leaf, a stale copy would mislead a per-level reader,
        which trusts any level file that is complete.
        """
        nodes_dir = self.directory / _NODES_DIR
        stale = [p for p in nodes_dir.glob("level-*.jsonl") if p.name != _LEAVES]
        for path in stale:
            path.unlink()
        if stale:
            fsync_dir(nodes_dir)

    def _load_hits(self, count: int) -> None:
        try:
            payload = json.loads((self.directory / _HITS).read_text())
        except (OSError, ValueError):
            self._hits = {}
            return
        hits: dict[int, int] = {}
        for entry in payload.get("divisors", []):
            try:
                index, hexval = int(entry[0]), int(entry[1], 16)
            except (ValueError, TypeError, IndexError):
                continue
            if 0 <= index < count and hexval > 1:
                hits[index] = math.gcd(hexval, self._moduli[index])
        self._hits = hits

    def _replay(self, pending: list[dict[str, Any]]) -> int:
        """Redo journalled inserts the manifest never committed."""
        replayed = 0
        for record in pending:
            index = int(record["index"])
            if index != self.count:
                continue  # duplicate/stale record; the manifest won
            modulus = int(record["m"], 16)
            outcome = self.probe(modulus)
            self._apply_insert(modulus, outcome, record.get("job"))
            replayed += 1
        return replayed


