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
- :class:`ProductTreeStore` persists the corpus as one append-only log,
  a :class:`~repro.faults.journal.MutationJournal`.  The blocks live in
  memory only, and an open multiplies only those this process has not
  already built for the store (below).

Layout under ``directory``::

    store.jsonl    # line 1: {"version": 2, "backend": <name>}; then one
                   # record per committed batch: {"index": <first leaf>,
                   # "moduli": [<hex>, ...], "hits": [[index, <hex>], ...],
                   # "jobs": {<job>: [base, done]}}

Only what cannot be derived is persisted: the tree levels above the
leaves live in memory.  A batch (:meth:`ProductTreeStore.extend`, a
service job's :meth:`~ProductTreeStore.apply_job`, one modulus's
:meth:`~ProductTreeStore.insert` or a bulk
:meth:`~ProductTreeStore.bootstrap`) is applied in memory, then committed
by one fsynced append of its moduli, the new value of every divisor it
changed and the new progress of the job it advanced.  A store object
whose batch raised before its commit returned refuses every later batch
(its memory is ahead of the log), and a reopen recovers.  The first commit
writes the identity line with :func:`~repro.faults.fsio.atomic_write_text`,
so no log lacks it.  Opening replays the records in order without
probing, then builds the complete blocks.  A tree is a function of its
leaves alone, so the open keeps the nodes of the tree that the last
store opened or bootstrapped in this process built for the same
directory, over the ``n`` leaves the log and that tree agree on, and
multiplies only the blocks after them (all of them after a restart, or
when the first leaves disagree).  The log stays the only source of
moduli, divisors and job progress.  A torn final line (a
kill mid-append) is skipped by :func:`~repro.faults.fsio.read_jsonl`, so
only a batch whose call never returned is lost; a record that is not a
batch, or that does not start at the leaf count so far, raises
:class:`StoreCorruptError`.  A directory in the earlier manifest layout
(``manifest.json``, ``hits.json``, ``journal.jsonl`` and ``nodes/``) is
upgraded to the log once, on open (see ``docs/FAULTS.md``).

Divisor semantics match the clustered engine's: the accumulated divisor
for a corpus member is the gcd-capped lcm of its pairwise shares, so the
vulnerable/clean *flag* always matches the classic engine, and on
squarefree corpora (every well-formed RSA modulus) the divisors are
byte-identical; on degenerate non-squarefree inputs the multiplicity may
be a proper divisor of the classic one, exactly as for
:class:`repro.core.clustered.ClusteredBatchGcd`.

Telemetry (active registry, see :mod:`repro.telemetry`): each open of a
persistent store records a ``batch_gcd.incremental.open`` span
(annotated with ``replayed_leaves`` and ``kept_leaves``, the leaves
whose nodes were kept rather than multiplied), each probe
records a ``batch_gcd.incremental.descend`` span (annotated with the
partner count), each inserted modulus a ``batch_gcd.incremental.insert``
span (annotated with ``built_nodes``, the nodes its append computed) plus
the ``batch_gcd.incremental.rebuild_bytes`` counter (bytes of those
nodes) and the ``batch_gcd.incremental.store_nodes`` gauge;
bootstrapping records one ``batch_gcd.incremental.bootstrap`` span.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path
from typing import Any, ClassVar, Iterable, NamedTuple, Sequence

from repro.faults.fsio import atomic_write_text, fsync_dir, read_jsonl
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
]

_LOG = "store.jsonl"
_VERSION = 2
#: The manifest layout's files, which only the one-time upgrade reads.
_MANIFEST = "manifest.json"
_HITS = "hits.json"
_WRITE_AHEAD = "journal.jsonl"
_NODES_DIR = "nodes"
_LEAVES = "level-0.jsonl"


def _batch_record(
    index: int,
    moduli: Sequence[int],
    hits: dict[int, int],
    jobs: dict[str, tuple[int, int]],
) -> dict[str, Any]:
    """One committed batch as a log record (see the module docstring)."""
    return {
        "index": index,
        "moduli": [f"{m:x}" for m in moduli],
        "hits": [[i, f"{d:x}"] for i, d in sorted(hits.items())],
        "jobs": {job: [base, done] for job, (base, done) in jobs.items()},
    }


def _log_text(backend: str, *records: dict[str, Any]) -> str:
    """The identity line, then ``records``: a new log's whole text."""
    lines = [{"version": _VERSION, "backend": backend}, *records]
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


class PartnerHit(NamedTuple):
    """One existing corpus member sharing a factor with a probed modulus."""

    index: int
    shared: int


class ProbeOutcome(NamedTuple):
    """Result of probing a modulus against the corpus (no mutation)."""

    divisor: int
    partners: list[PartnerHit]


class StoreCorruptError(RuntimeError):
    """The on-disk store cannot be replayed (a record missing or malformed)."""


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
        reuse: a tree built earlier, maybe over more or fewer leaves.
            If its first ``n`` leaves equal the first ``n`` of ``moduli``,
            ``n`` the smaller count, the first ``n >> L`` nodes of its
            level ``L`` are products of those leaves alone: they are
            copied, into new lists, instead of multiplied again, and only
            the blocks after them are built.  A tree whose leaves or
            backend disagree is not used.
    """

    def __init__(
        self,
        moduli: Sequence[int] = (),
        backend: str | BigIntBackend | None = None,
        reuse: IncrementalProductTree | None = None,
    ) -> None:
        self._backend = resolve_backend(backend)
        n = 0
        if reuse is not None and reuse.backend.name == self._backend.name:
            n = min(reuse.count, len(moduli))
            if reuse.levels[0][:n] != list(moduli[:n]):
                n = 0
        #: Leaves whose nodes were kept from ``reuse``, not multiplied.
        self.reused = n
        kept = reuse.levels[: n.bit_length()] if n else []
        self._levels = [nodes[: n >> level] for level, nodes in enumerate(kept)] or [[]]
        self._levels[0].extend(self._backend.wrap_all(moduli[n:]))
        level = 0
        while len(self._levels[level]) > 1:
            if level + 1 == len(self._levels):
                self._levels.append([])
            nodes, parents = self._levels[level : level + 2]
            parents += [
                nodes[i] * nodes[i + 1]
                for i in range(2 * len(parents), len(nodes) - 1, 2)
            ]
            level += 1

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
    divisors (the vulnerable set so far), and per-job insert progress so
    a crashed service job resumes idempotently.  Only the tree outlives
    a store: a persistent store's tree is kept for the next open of its
    directory in this process, which copies the nodes over the leaves it
    replays from the log (see :class:`IncrementalProductTree`'s
    ``reuse``).  At most one tree is kept per process, and two stores
    open on one directory share no level list.

    Args:
        directory: store root on disk, or ``None`` for a memory-only
            store (no persistence, no log — same API and semantics).
        backend: big-int backend name or instance.  A persisted store
            remembers its backend; reopening with a conflicting explicit
            backend raises.

    Raises:
        StoreCorruptError: on open, if the log does not replay: its
            first line is not the identity, a record is not a batch, or
            a record is missing (the next one does not start at the leaf
            count so far).  Also if a manifest-layout store to upgrade
            is missing leaf records below its committed count.
        ValueError: on a backend mismatch with the persisted identity.
    """

    #: The tree the last persistent store opened or bootstrapped in this
    #: process built, with that store's resolved directory.  The store
    #: keeps appending to it, so the next open of the same directory finds
    #: the log's last commit already multiplied.  It is process-wide
    #: because the runner and the engine open a store per job.  A tree is
    #: a function of its leaves, so whatever tree a test or a racing open
    #: leaves here changes how much an open multiplies, never its result.
    _kept: ClassVar[tuple[Path, IncrementalProductTree] | None] = None

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
        self._ahead_of_log = False
        if self.directory is None:
            self._tree = IncrementalProductTree(backend=backend)
            return
        self._journal = MutationJournal(self.directory / _LOG)
        telemetry = get_telemetry()
        with telemetry.span("batch_gcd.incremental.open"):
            if (self.directory / _MANIFEST).exists():
                self._upgrade()
            self._load(backend)
            telemetry.annotate(
                replayed_leaves=self.count, kept_leaves=self._tree.reused
            )

    # -- identity and queries -------------------------------------------

    @property
    def count(self) -> int:
        return len(self._moduli)

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

    def job_progress(self, job_id: str | None) -> tuple[int, int] | None:
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
        On disk the batch costs one fsynced append to the log, whatever
        its size.

        Raises:
            ValueError: if any modulus is < 2 (checked before any write).
            RuntimeError: if an earlier batch raised before its commit.
        """
        self._refuse_if_ahead_of_log()
        batch = list(moduli)
        if any(m < 2 for m in batch):
            raise ValueError("all moduli must be >= 2")
        if not batch:
            return []
        base = self.count
        changed: set[int] = set()
        outcomes = []
        self._ahead_of_log = True
        for modulus in batch:
            outcome = self.probe(modulus)
            self._apply_insert(modulus, outcome, job_id, changed)
            outcomes.append(outcome)
        jobs = {job_id: self._jobs[job_id]} if job_id is not None else {}
        self._commit(base, batch, {i: self._hits[i] for i in changed}, jobs)
        self._ahead_of_log = False
        return outcomes

    def apply_job(self, job_id: str | None, moduli: Sequence[int]) -> tuple[int, int]:
        """Idempotently insert a job's corpus; returns ``(base, count)``.

        A job already applied (fully or partially, e.g. the run was
        SIGKILLed and the queue re-delivered it) resumes from its
        recorded progress instead of re-inserting — re-running a job is
        safe and returns the same index range.  A ``job_id`` of None
        records no progress: the call is one :meth:`extend`.
        """
        base, done = self._jobs.get(job_id, (self.count, 0))
        self.extend(moduli[done:], job_id=job_id)
        return base, len(moduli)

    def bootstrap(
        self,
        moduli: Sequence[int],
        divisors: Sequence[int] | None = None,
        jobs: dict[str, tuple[int, int]] | None = None,
    ) -> None:
        """Extend the store with a batch-built corpus, as one commit.

        The bulk-ingest path: a full engine run already computed the
        corpus divisors, so the store adopts them and builds the complete
        blocks after its own leaves in one pass (no per-insert appends).
        On disk it is one more fsynced append: the new moduli, the
        divisors that changed and the job entries given.

        Args:
            moduli: the full corpus, in order.  Must extend the current
                corpus (the store is append-only; prefix-checked).
            divisors: aligned accumulated divisors (``None`` keeps the
                current ones).
            jobs: per-job progress entries to merge into the store's.

        Raises:
            RuntimeError: as :meth:`extend`, after a batch that raised.
        """
        self._refuse_if_ahead_of_log()
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
            base = self.count
            hits = self._hits
            if divisors is not None:
                hits = {i: d for i, d in enumerate(divisors) if d > 1}
            changed = {
                i: hits.get(i, 1)
                for i in hits.keys() | self._hits.keys()
                if hits.get(i, 1) != self._hits.get(i, 1)
            }
            given = {job: tuple(progress) for job, progress in (jobs or {}).items()}
            self._ahead_of_log = True
            self._keep(
                IncrementalProductTree(
                    moduli, backend=self._tree.backend, reuse=self._tree
                )
            )
            self._moduli = list(moduli)
            self._hits = hits
            self._jobs.update(given)
            self._commit(base, self._moduli[base:], changed, given)
            self._ahead_of_log = False
            telemetry.gauge(
                "batch_gcd.incremental.store_nodes", self._tree.node_count
            )

    def _refuse_if_ahead_of_log(self) -> None:
        """Refuse a batch while memory holds one that the log lacks.

        A batch that raised before its commit returned left its leaves,
        divisors and job progress in memory; a later commit would write
        a record that skips it.  A reopen reads every committed batch.
        """
        if self._ahead_of_log:
            raise RuntimeError(
                "an earlier batch of this store failed before its commit "
                "returned; reopen the store from its log"
            )

    # -- insert internals ------------------------------------------------

    def _apply_insert(
        self, modulus: int, outcome: ProbeOutcome, job_id: str | None, changed: set[int]
    ) -> None:
        telemetry = get_telemetry()
        with telemetry.span(
            "batch_gcd.incremental.insert", corpus=self.count
        ):
            index = self.count
            built = self._tree.append(modulus)
            self._moduli.append(modulus)
            if outcome.divisor > 1:
                self._merge_hit(index, outcome.divisor, changed)
            for partner in outcome.partners:
                share = math.gcd(self._moduli[partner.index], modulus)
                self._merge_hit(partner.index, share, changed)
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

    def _merge_hit(self, index: int, share: int, changed: set[int]) -> None:
        """gcd-capped lcm-merge, the clustered engine's aggregation rule."""
        current = self._hits.get(index, 1)
        merged = math.gcd(current * share // math.gcd(current, share), self._moduli[index])
        if merged != current:
            self._hits[index] = merged
            changed.add(index)

    # -- persistence -----------------------------------------------------

    def _commit(
        self, index: int, moduli: Sequence[int], hits: dict[int, int], jobs: dict
    ) -> None:
        """Persist one batch: one fsynced append (the first creates the log)."""
        if self._journal is None:
            return
        if not self._logged:
            atomic_write_text(self._journal.path, _log_text(self.backend.name))
            self._logged = True
        self._journal.append(_batch_record(index, moduli, hits, jobs))

    def _keep(self, tree: IncrementalProductTree) -> None:
        """Adopt ``tree``; a persistent store also keeps it for the next open."""
        self._tree = tree
        if self.directory is not None:
            ProductTreeStore._kept = (self.directory.resolve(), tree)

    def _load(self, backend: str | BigIntBackend | None) -> None:
        """Replay the log: extend the leaves, merge hits and jobs, then regrow.

        Every record is read and checked as if nothing were kept.  The
        tree then keeps the kept tree's nodes over the leaves it shares
        with the replayed ones and multiplies only the blocks after them,
        or is built fresh when they disagree.
        """
        identity, *batches = self._journal.records() or [None]
        self._logged = identity is not None
        if self._logged:
            if not isinstance(identity, dict) or identity.get("version") != _VERSION:
                raise StoreCorruptError(
                    f"{self._journal.path} does not start with a version "
                    f"{_VERSION} store identity"
                )
            stored = identity.get("backend")
            backend = resolve_backend(backend if backend is not None else stored)
            if backend.name != stored:
                raise ValueError(
                    f"store was persisted with backend {stored!r} but "
                    f"{backend.name!r} was requested"
                )
        for record in batches:
            try:
                index = int(record["index"])
                moduli = [int(value, 16) for value in record["moduli"]]
                hits = {int(i): int(value, 16) for i, value in record["hits"]}
                jobs = {
                    job: (int(base), int(done))
                    for job, (base, done) in record["jobs"].items()
                }
            except (AttributeError, KeyError, TypeError, ValueError):
                raise StoreCorruptError(
                    f"{self._journal.path} holds a record that is not a batch: "
                    f"{json.dumps(record)[:80]}"
                ) from None
            if index != self.count:
                raise StoreCorruptError(
                    f"{self._journal.path}: the batch at leaf {index} follows "
                    f"{self.count} leaves, so a record is missing"
                )
            self._moduli.extend(moduli)
            self._hits.update(hits)
            self._jobs.update(jobs)
        where, kept = ProductTreeStore._kept or (None, None)
        reuse = kept if where == self.directory.resolve() else None
        self._keep(IncrementalProductTree(self._moduli, backend=backend, reuse=reuse))

    def _upgrade(self) -> None:
        """Rewrite a store of the manifest layout as the one log, once.

        The manifest's count, backend and job progress, the leaves below
        that count and the divisors of ``hits.json`` become the identity
        and one batch record, written with one atomic rewrite.  Then the
        old files go, ``manifest.json`` last: an open that finds the
        manifest next to a written log only finishes the removal.
        """
        directory = self.directory
        if not self._journal.records():
            hits_path = directory / _HITS
            try:
                manifest = json.loads((directory / _MANIFEST).read_text())
                count = int(manifest["count"])
                leaves = dict(read_jsonl(directory / _NODES_DIR / _LEAVES))
                moduli = [int(leaves[i], 16) for i in range(count)]
                entries = (
                    json.loads(hits_path.read_text())["divisors"]
                    if hits_path.exists() else []
                )
                hits = {
                    int(i): math.gcd(int(value, 16), moduli[int(i)])
                    for i, value in entries
                    if int(i) < count
                }
                jobs = {
                    job: (int(base), int(done))
                    for job, (base, done) in manifest.get("jobs", {}).items()
                }
            except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
                raise StoreCorruptError(
                    f"the manifest-layout store at {directory} cannot be "
                    f"upgraded: {exc!r} (a leaf below its count is missing, "
                    "or a file is malformed)"
                ) from None
            record = _batch_record(0, moduli, hits, jobs)
            text = _log_text(manifest.get("backend", "python"), record)
            atomic_write_text(self._journal.path, text)
        for name in (_HITS, _WRITE_AHEAD):
            (directory / name).unlink(missing_ok=True)
        shutil.rmtree(directory / _NODES_DIR, ignore_errors=True)
        fsync_dir(directory)
        (directory / _MANIFEST).unlink()
        fsync_dir(directory)
