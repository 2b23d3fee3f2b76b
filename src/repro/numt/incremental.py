"""Incremental batch GCD: a persistent, appendable product-tree store.

The batch engines in :mod:`repro.core` answer "which moduli in this
corpus share primes?" by rebuilding the full product/remainder tree per
run — O(n log n) big-int work even when only one new modulus arrived.
This module is the serving-path answer to the corpus being *dynamic*
(new keys arrive continuously and must be checked against everything
seen so far):

- :class:`IncrementalProductTree` keeps the corpus product tree live in
  memory as **complete blocks** (Bentley and Saxe's logarithmic method):
  level ``L`` holds the ``n >> L`` products of the aligned, full runs of
  ``2**L`` leaves, and nothing else.  The corpus is the disjoint union of
  the blocks named by the set bits of ``n``.  Appending a leaf multiplies
  only the blocks it completes — one product per trailing one bit of
  ``n``, amortised O(1) products per insert — and never touches a node
  that is already built.  It answers "does this new modulus share a
  prime with the corpus?" with one reduction per block root: the
  residues multiply to ``P mod m``, so the divisor is ``gcd(m, P mod m)``
  — exactly the classic ``gcd(m, (P·m mod m²)/m)`` test, since ``P·m mod
  m² = m·(P mod m)`` — over the same bits as one reduction of ``P``.  A
  divisor-guided descent from each block root then locates the partner
  leaves.
- :class:`ProductTreeStore` persists the corpus on disk — an append-only
  leaf log, an atomically-renamed manifest as the commit point, and a
  write-ahead :class:`~repro.faults.journal.MutationJournal` so a SIGKILL
  mid-job replays cleanly on the next open — and rebuilds the blocks in
  memory from the leaves when it opens.  Identity extends
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
are products of the leaves, so they live in memory only.  A batch of
moduli (:meth:`ProductTreeStore.extend`; a service job, or one modulus
for :meth:`~ProductTreeStore.insert`) commits once: one journal record
``{"index", "moduli": [<hex>, ...], "job"}``, then every modulus is
probed and appended in memory, each against everything before it, then
one leaf append, at most one rewrite of the sparse hits file, one
manifest rename and one journal commit.  A kill at any point either
replays the journalled batch on the next open or never sees it.  Replay
also accepts the one-modulus record ``{"index", "m": <hex>, "job"}`` of
stores that committed per modulus.  The journal and the leaf log are
append-only logs of :func:`repro.faults.fsio.append_jsonl` /
:func:`~repro.faults.fsio.read_jsonl`, so a torn final line is skipped on
read and newline-terminated before the next append.  Leaf records at or
past the committed count (a batch killed before its manifest rename) are
ignored; the journal replays them.

Divisor semantics match the clustered engine's: the accumulated divisor
for a corpus member is the gcd-capped lcm of its pairwise shares, so the
vulnerable/clean *flag* always matches the classic engine, and on
squarefree corpora (every well-formed RSA modulus) the divisors are
byte-identical; on degenerate non-squarefree inputs the multiplicity may
be a proper divisor of the classic one, exactly as for
:class:`repro.core.clustered.ClusteredBatchGcd`.

Telemetry (active registry, see :mod:`repro.telemetry`): each probe
records a ``batch_gcd.incremental.descend`` span (annotated with the
partner count), each inserted modulus a ``batch_gcd.incremental.insert``
span (annotated with ``built_nodes``, the nodes its append computed) plus
the ``batch_gcd.incremental.rebuild_bytes`` counter (bytes of those
nodes) and the ``batch_gcd.incremental.store_nodes`` gauge;
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
from repro.numt.trees import gcd_descent_hits
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
    """An appendable product tree of complete blocks, with descent.

    Node ``(L, i)`` is the product of leaves ``[i·2**L, (i+1)·2**L)``, and
    level ``L`` holds exactly the ``n >> L`` such nodes that are
    complete.  So every stored node equals the node of
    :func:`repro.numt.trees.product_tree` at the same ``(level, index)``;
    what is left out are the partial right-edge nodes, which
    ``product_tree`` promotes or multiplies and an append would have to
    recompute.  The last node of each odd-length level is a *block root*:
    the roots cover the corpus, largest block first.

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
        level = self._backend.wrap_all(moduli) if moduli else []
        self._levels = [level]
        while len(level) > 1:
            level = [level[i] * level[i + 1] for i in range(0, len(level) - 1, 2)]
            self._levels.append(level)

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
        return sum(len(level) for level in self._levels)

    @property
    def levels(self) -> list[list[int]]:
        """The live level structure (leaves first).  Not a copy."""
        return self._levels

    def _block_roots(self) -> list[tuple[int, int]]:
        """``(level, index)`` of each block root, leftmost block first."""
        return [
            (level, len(nodes) - 1)
            for level, nodes in reversed(list(enumerate(self._levels)))
            if len(nodes) & 1
        ]

    # -- mutation --------------------------------------------------------

    def append(self, modulus: int) -> list[tuple[int, int]]:
        """Append a leaf, multiplying only the blocks it completes.

        Returns the computed ``(level, index)`` nodes: the new leaf, then
        one product per level whose last pair it completes.  That is
        ``1 + t`` nodes, with ``t`` the trailing one bits of the old
        count, so the amortised cost is O(1) products.
        """
        if modulus < 2:
            raise ValueError("all moduli must be >= 2")
        levels = self._levels
        levels[0].append(self._backend.wrap(modulus))
        built = [(0, len(levels[0]) - 1)]
        level = 0
        while not len(levels[level]) & 1:
            nodes = levels[level]
            if level + 1 == len(levels):
                levels.append([])
            levels[level + 1].append(nodes[-2] * nodes[-1])
            level += 1
            built.append((level, len(levels[level]) - 1))
        return built

    # -- queries ---------------------------------------------------------

    def divisor_against(self, modulus: int) -> int:
        """``gcd(modulus, P mod modulus)`` — the weak check.

        Equal to the classic batch-GCD divisor the modulus would receive
        in the corpus-plus-modulus union: with ``P`` the product of the
        existing corpus, ``(P·m mod m²)/m = P mod m``.  ``P mod m`` is the
        product of the block roots' residues mod ``m``, so the reductions
        read the same bits as one ``P % m``.
        """
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        backend = self._backend
        m = backend.wrap(modulus)
        residue = backend.wrap(1)
        for level, index in self._block_roots():
            residue = residue * (self._levels[level][index] % m) % m
        return backend.unwrap(backend.gcd(m, residue))

    def leaves_sharing(self, divisor: int) -> list[PartnerHit]:
        """Corpus members sharing a factor with ``divisor``, via descent.

        :func:`~repro.numt.trees.gcd_descent_hits` from each block root,
        pruning every subtree whose product is coprime to ``divisor``;
        visits O(log n) nodes per surviving path.
        """
        if divisor <= 1:
            return []
        backend = self._backend
        x = backend.wrap(divisor)
        return [
            PartnerHit(j, backend.unwrap(g))
            for start in self._block_roots()
            for j, g in gcd_descent_hits(
                self._levels, x, gcd=backend.gcd, start=start
            )
        ]


class ProductTreeStore:
    """The persistent incremental batch-GCD corpus store.

    One store holds one evolving corpus: the complete-block product tree
    (for the per-block checks and descents), the accumulated sparse
    divisors (the vulnerable set so far), a chained corpus digest, and
    per-job insert progress so a crashed service job resumes
    idempotently.

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

        One reduction per block root plus, when the divisor is
        nontrivial, one divisor-guided descent to the partner leaves.
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
        """Probe then append one modulus: a one-modulus :meth:`extend`."""
        return self.extend([modulus], job_id=job_id)[0]

    def extend(
        self, moduli: Iterable[int], job_id: str | None = None
    ) -> list[ProbeOutcome]:
        """Insert a batch in order; durable, as one commit, once it returns.

        Each modulus is probed against everything before it, the earlier
        moduli of the batch included, and its outcome is folded into the
        accumulated divisors: the new member records its divisor against
        the prior corpus, and every partner leaf lcm-merges its share
        with the newcomer (gcd-capped), so the store's vulnerable set
        tracks what a full batch-GCD over the grown corpus would report.
        On disk the batch costs one journal append, one leaf append, at
        most one hits rewrite, one manifest rename and one journal
        commit, whatever its size.

        Raises:
            ValueError: if any modulus is < 2 (checked before any write).
        """
        batch = list(moduli)
        if any(m < 2 for m in batch):
            raise ValueError("all moduli must be >= 2")
        if not batch:
            return []
        if self._journal is None:
            return self._apply_batch(batch, job_id)
        seq = self._journal.append(
            {"index": self.count, "moduli": [f"{m:x}" for m in batch], "job": job_id}
        )
        outcomes = self._apply_batch(batch, job_id)
        self._journal.commit(seq)
        return outcomes

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
        self.extend(moduli[done:], job_id=job_id)
        return base, len(moduli)

    def bootstrap(
        self,
        moduli: Sequence[int],
        divisors: Sequence[int] | None = None,
        jobs: dict[str, tuple[int, int]] | None = None,
    ) -> None:
        """Replace the store contents with a batch-built corpus.

        The bulk-ingest path: a full engine run already computed the
        corpus divisors, so the store adopts them and builds the complete
        blocks once (no per-insert appends).  The leaf log and the hits
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

    def _apply_batch(
        self, batch: list[int], job_id: str | None
    ) -> list[ProbeOutcome]:
        """Probe and append each modulus in memory, then commit them once."""
        base = self.count
        outcomes = []
        for modulus in batch:
            outcome = self.probe(modulus)
            self._apply_insert(modulus, outcome, job_id)
            outcomes.append(outcome)
        if self.directory is not None:
            # Durable before the manifest commits the count on their strength.
            append_jsonl(
                self._leaves_path,
                [[base + i, f"{m:x}"] for i, m in enumerate(batch)],
            )
            if any(o.divisor > 1 for o in outcomes):
                self._write_hits()
            self._write_manifest()
        return outcomes

    def _apply_insert(
        self, modulus: int, outcome: ProbeOutcome, job_id: str | None
    ) -> None:
        telemetry = get_telemetry()
        with telemetry.span(
            "batch_gcd.incremental.insert", corpus=self.count
        ):
            index = self.count
            built = self._tree.append(modulus)
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
                for level, i in built
            )
            telemetry.counter("batch_gcd.incremental.rebuild_bytes", rebuilt)
            telemetry.annotate(built_nodes=len(built))
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
        """Redo journalled batches the manifest never committed.

        Returns the number of moduli replayed.  A record is a batch
        ``{"index", "moduli": [<hex>, ...], "job"}`` or, as stores that
        committed per modulus wrote it, ``{"index", "m": <hex>, "job"}``.
        """
        replayed = 0
        for record in pending:
            if int(record["index"]) != self.count:
                continue  # duplicate/stale record; the manifest won
            hexes = record["moduli"] if "moduli" in record else [record["m"]]
            batch = [int(h, 16) for h in hexes]
            self._apply_batch(batch, record.get("job"))
            replayed += len(batch)
        return replayed


