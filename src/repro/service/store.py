"""Thread-safe document collection and checking façade.

:class:`DocumentStore` owns the documents and their reader–writer
lock; :class:`CheckingService` composes a store with one of the
run-time checkers and exposes the checker interface with the locking
discipline applied:

* writers (``try_execute`` / ``execute``) are serialized — at most one
  update mutates the documents at a time, and the underlying
  :class:`~repro.xupdate.apply.TransactionLog` guarantees each update
  is all-or-nothing, so readers never observe a torn state;
* readers (``verify_consistency``, ``snapshot``) run concurrently with
  each other and are excluded only while a writer holds the lock.

The service also keeps a *commit log* — the updates that were actually
applied, in commit order — which makes the final state reproducible by
a sequential replay (the oracle the concurrency stress tests check
against, and the natural hook for future replication/sharding layers).

Opened through :meth:`CheckingService.open_durable`, the commit log is
additionally *write-ahead durable*: every accepted update is appended
to an fsync'd on-disk log (:mod:`repro.service.persistence`) before it
commits in memory, periodic snapshots bound the replay tail, and
:meth:`CheckingService.recover` rebuilds the exact pre-crash state by
loading the latest snapshot and re-checking the logged tail through
the checker.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.analysis.concurrency import guarded_by, requires_lock
from repro.core.guard import (
    IntegrityGuard,
    UpdateDecision,
    _CheckerBase,
    verify_documents,
)
from repro.core.schema import ConstraintSchema
from repro.errors import (
    IntegrityViolationError,
    RecoveryError,
    SchemaError,
)
from repro.service.locks import ReadWriteLock
from repro.service.snapshots import DocumentSnapshot, SnapshotManager
from repro.service.persistence import (
    SNAPSHOT_NAME,
    WAL_NAME,
    DurableLog,
    Snapshot,
    WalRecord,
    load_snapshot,
    write_snapshot,
)
from repro.testing.failpoints import fail
from repro.xtree.node import Document
from repro.xtree.parser import parse_document
from repro.xtree.serializer import serialize
from repro.xupdate.parser import Operation, canonical_update_text


@guarded_by("self.lock", "_documents")
class DocumentStore:
    """A collection of documents behind one reader–writer lock.

    The store is the unit of consistency: one lock covers all the
    documents a constraint set spans, because a single update (or a
    single check) may touch several of them.

    A store may carry a ``uid`` — a caller-chosen name for the document
    group.  Uids are validated path-safe (:meth:`validate_uid`) because
    the sharded service derives per-group state-directory names from
    them.
    """

    #: path-safe uid shape: starts with an alphanumeric (which rules
    #: out ``.``, ``..``, absolute paths and option-looking ``-x``),
    #: then up to 63 more of ``[A-Za-z0-9._-]`` — no separators ever
    _UID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")

    def __init__(self, documents: Iterable[Document],
                 uid: "str | None" = None) -> None:
        if uid is not None:
            self.validate_uid(uid)
        self.uid = uid
        self._documents = list(documents)
        seen: set[str] = set()
        for document in self._documents:
            tag = document.root.tag
            if tag in seen:
                raise SchemaError(
                    f"two documents share the root tag {tag!r}; selects "
                    "could not be routed to a single document")
            seen.add(tag)
        self.lock = ReadWriteLock()

    @staticmethod
    def validate_uid(uid: str) -> str:
        """Check that ``uid`` can safely name a state directory.

        The sharded service keys each document group's durable state
        directory off its uid (``shard-<uid>``), so uids must never
        contain path separators, start with a dot or dash, or exceed a
        filesystem-friendly length.  Raises :class:`SchemaError` on
        violation; returns the uid unchanged otherwise.
        """
        if not isinstance(uid, str) \
                or not DocumentStore._UID_PATTERN.fullmatch(uid):
            raise SchemaError(
                f"invalid document-group uid {uid!r}: uids must start "
                "with a letter or digit and contain only letters, "
                "digits, '.', '_' or '-' (at most 64 characters), so "
                "they can safely name per-shard state directories")
        return uid

    @property
    @requires_lock("self.lock")
    def documents(self) -> list[Document]:
        """The live document list (shared with the checkers).

        Callers must hold the appropriate side of :attr:`lock` while
        touching the documents themselves.
        """
        return self._documents

    @requires_lock("self.lock")
    def document(self, root_tag: str) -> Document:
        for document in self._documents:
            if document.root.tag == root_tag:
                return document
        raise SchemaError(f"no document with root tag {root_tag!r}")

    def read_locked(self):
        return self.lock.read_locked()

    def write_locked(self):
        return self.lock.write_locked()

    def snapshot(self) -> list[str]:
        """Serialized form of every document, under the read lock."""
        with self.read_locked():
            return [serialize(document) for document in self._documents]


@dataclass(frozen=True)
class CommittedUpdate:
    """One entry of the service's commit log."""

    sequence: int
    update: "str | Operation"
    decision: UpdateDecision


@dataclass(frozen=True)
class RecoveryInfo:
    """What :meth:`CheckingService.recover` did to reach the state."""

    #: sequence number the snapshot was current through (exclusive)
    snapshot_lsn: int
    #: WAL tail records re-checked and re-applied on top of the snapshot
    replayed: int
    #: total live WAL records after torn-tail truncation
    total_records: int


@guarded_by("self.store.lock",
            "_committed", "_pending_mark", "_last_snapshot_lsn")
class CheckingService:
    """Thread-safe façade over a run-time checker.

    Wraps a checker (an :class:`IntegrityGuard` by default) and a
    :class:`DocumentStore`, serializing writers while letting read-only
    checks run concurrently.  All consistency guarantees of the
    underlying checker — illegal updates never applied, failed updates
    fully rolled back — therefore hold under concurrent callers too.
    """

    def __init__(self, schema: ConstraintSchema,
                 documents: "Iterable[Document] | DocumentStore",
                 checker_factory: Callable[..., _CheckerBase]
                 = IntegrityGuard, *,
                 snapshot_reads: bool = True) -> None:
        self.snapshot_reads = snapshot_reads
        self.snapshots = SnapshotManager(schema.relational)
        if isinstance(documents, DocumentStore):
            # the store may already be shared with running threads, and
            # the checker factory walks the document list (root-tag
            # routing, column-store attachment) — hold the read lock
            # for the whole walk, not just the property access
            self.store = documents
            with self.store.read_locked():
                self.checker = checker_factory(
                    schema, self.store.documents)
                self._publish()
        else:
            self.store = DocumentStore(documents)
            # construction: the fresh store is not shared yet
            self.checker = checker_factory(
                schema, self.store.documents)  # lock: ignore
            self._publish()  # lock: ignore
        self._committed: list[CommittedUpdate] = []
        self._durable: "DurableLog | None" = None
        self._state_dir: "Path | None" = None
        self._durable_sync = True
        self._snapshot_interval = 0
        self._last_snapshot_lsn = 0
        self._pending_mark: "tuple[int, int] | None" = None
        #: populated by :meth:`recover` on recovered instances
        self.last_recovery: "RecoveryInfo | None" = None

    @classmethod
    def from_checker(cls, checker: _CheckerBase, *,
                     snapshot_reads: bool = True) -> "CheckingService":
        """Wrap an existing checker (and its documents) in a service.

        The checker must not be driven directly afterwards — every call
        has to go through the service for the locking to mean anything.
        """
        service = cls.__new__(cls)
        service.snapshot_reads = snapshot_reads
        service.snapshots = SnapshotManager(checker.schema.relational)
        service.store = DocumentStore(checker.documents)
        service.checker = checker
        # construction: the service is not shared with any thread yet
        service._publish()  # lock: ignore
        service._committed = []  # lock: ignore
        service._durable = None
        service._state_dir = None
        service._durable_sync = True
        service._snapshot_interval = 0
        service._last_snapshot_lsn = 0  # lock: ignore
        service._pending_mark = None  # lock: ignore
        service.last_recovery = None
        return service

    @requires_lock("self.store.lock")
    def _publish(self) -> None:
        """Publish a fresh read snapshot of the current documents.

        Called at every commit boundary with the writer lock held (or
        during construction/recovery before the service is shared, and
        under the read lock on the shared-store construction path —
        anything that excludes structural mutation qualifies)."""
        if self.snapshot_reads:
            self.snapshots.publish(self.store.documents)

    # -- durability ----------------------------------------------------------

    @classmethod
    def open_durable(cls, schema: ConstraintSchema,
                     documents: "Iterable[Document] | DocumentStore",
                     state_dir: "str | Path", *,
                     checker_factory: Callable[..., _CheckerBase]
                     = IntegrityGuard,
                     snapshot_interval: int = 64,
                     sync: bool = True) -> "CheckingService":
        """Open a durable service rooted at ``state_dir``.

        When the directory already holds durable state (a snapshot or
        a write-ahead log) this is exactly :meth:`recover` — the
        ``documents`` argument is ignored in favour of the recovered
        state.  Otherwise the given documents become the initial state:
        a baseline snapshot is installed *before* the first update can
        commit, so a crash at any later point always finds a snapshot
        to recover from.
        """
        state_dir = Path(state_dir)
        if (state_dir / SNAPSHOT_NAME).exists() \
                or (state_dir / WAL_NAME).exists():
            return cls.recover(
                schema, state_dir, checker_factory=checker_factory,
                snapshot_interval=snapshot_interval, sync=sync)
        service = cls(schema, documents, checker_factory)
        write_snapshot(state_dir, 0, service.store.snapshot(),
                       sync=sync)
        wal = DurableLog(state_dir / WAL_NAME, sync=sync)
        service._attach_durable(state_dir, wal, snapshot_interval,
                                sync, last_snapshot_lsn=0)
        return service

    @classmethod
    def recover(cls, schema: ConstraintSchema,
                state_dir: "str | Path", *,
                checker_factory: Callable[..., _CheckerBase]
                = IntegrityGuard,
                snapshot_interval: int = 64,
                sync: bool = True) -> "CheckingService":
        """Rebuild a durable service from ``state_dir`` after a crash.

        Loads the latest valid snapshot, opens the write-ahead log
        (truncating any torn trailing record), and replays every
        record with ``seq >= snapshot.lsn`` through the checker —
        re-checking it, so tampered logs cannot smuggle an illegal
        update in.  Replay is idempotent: a crash during recovery
        leaves snapshot and log unchanged, and a retry succeeds.
        """
        state_dir = Path(state_dir)
        snapshot = load_snapshot(state_dir)
        if snapshot is None:
            raise RecoveryError(
                f"no snapshot under {state_dir}; the directory holds "
                "no recoverable durable state",
                code="recover.no-state")
        wal = DurableLog(state_dir / WAL_NAME, sync=sync)
        try:
            service = cls._recover(
                schema, snapshot, wal, checker_factory)
        except BaseException:
            wal.close()
            raise
        service._attach_durable(state_dir, wal, snapshot_interval,
                                sync,
                                last_snapshot_lsn=snapshot.lsn)
        return service

    @classmethod
    def _recover(cls, schema: ConstraintSchema, snapshot: Snapshot,
                 wal: DurableLog,
                 checker_factory: Callable[..., _CheckerBase]
                 ) -> "CheckingService":
        """Snapshot + WAL tail → a service at the pre-crash state."""
        records = wal.records()
        if wal.next_seq < snapshot.lsn:
            raise RecoveryError(
                f"write-ahead log ends at sequence {wal.next_seq} but "
                f"the snapshot is current through {snapshot.lsn}; the "
                "log has lost fsync'd records",
                code="recover.log-corrupt")
        documents = [parse_document(text)
                     for text in snapshot.documents]
        service = cls(schema, documents, checker_factory)
        committed: list[CommittedUpdate] = []
        replayed = 0
        for record in records:
            if record.seq < snapshot.lsn:
                # already reflected in the snapshot: enters the commit
                # log as history, not the checker
                committed.append(CommittedUpdate(
                    record.seq, record.text,
                    UpdateDecision(True, applied=True)))
                continue
            fail.point("persistence.replay_record")
            decision = service.checker.try_execute(record.text)
            if not decision.applied:
                raise RecoveryError(
                    f"logged update {record.seq} is no longer "
                    f"accepted on replay "
                    f"(violated: {decision.violated}); the log or "
                    "snapshot has been corrupted",
                    code="recover.replay-rejected")
            committed.append(CommittedUpdate(
                record.seq, record.text, decision))
            replayed += 1
        # construction: the service is not shared with any thread yet
        # (replay drove the checker directly, so re-publish the
        # recovered state for the snapshot read path)
        service._publish()  # lock: ignore
        service._committed = committed  # lock: ignore
        service.last_recovery = RecoveryInfo(
            snapshot_lsn=snapshot.lsn, replayed=replayed,
            total_records=len(records))
        return service

    def _attach_durable(self, state_dir: Path, wal: DurableLog,
                        snapshot_interval: int, sync: bool, *,
                        last_snapshot_lsn: int) -> None:
        # construction: the service is not shared with any thread yet
        self._state_dir = state_dir
        self._durable = wal
        self._durable_sync = sync
        self._snapshot_interval = max(1, snapshot_interval)
        self._last_snapshot_lsn = last_snapshot_lsn  # lock: ignore
        self.checker.set_pre_commit(
            self._durable_pre_commit, self._durable_abort)

    @property
    def durable(self) -> bool:
        """True when a write-ahead log backs this service."""
        return self._durable is not None

    @property
    def wal_crashed(self) -> bool:
        """True when the write-ahead log marked itself crashed.

        A crashed log refuses further appends; the owning process must
        be recovered (or, in the sharded service, the worker restarted)
        before this state accepts updates again.
        """
        return self._durable is not None and self._durable.crashed

    @requires_lock("self.store.lock")
    def _durable_pre_commit(self, update: "str | Operation",
                            decision: UpdateDecision) -> None:
        """The write-ahead append (the checker's pre-commit hook).

        Runs inside the checker's transactional scope for every update
        it decided to apply, before listeners observe the decision and
        before the in-memory commit: the fsync completing is the
        commit point.  Any exception here aborts the update — the
        checker rolls the in-memory application back and
        :meth:`_durable_abort` reconciles the log.
        """
        wal = self._durable
        assert wal is not None
        self._pending_mark = (wal.next_seq, len(self._committed))
        seq = wal.append(canonical_update_text(update))
        try:
            fail.point("persistence.post_append_pre_apply")
        except BaseException:
            # the record is durable but the update will never commit
            # in this process: exactly the crash window recovery must
            # close by replaying the trailing record
            wal.mark_crashed()
            raise
        fail.point("service.store.pre_commit_append")
        self._committed.append(
            CommittedUpdate(seq, update, decision))

    @requires_lock("self.store.lock")
    def _durable_abort(self, update: "str | Operation") -> None:
        """Reconcile the WAL with an update that aborted post-append.

        Truncates the log and the in-memory commit log back to the
        mark taken at hook entry — unless a simulated crash fired, in
        which case the on-disk artifacts (a torn half-record, a
        logged-but-unapplied record) are exactly what the restart
        tests need and must survive untouched.
        """
        wal, mark = self._durable, self._pending_mark
        self._pending_mark = None
        if wal is None or mark is None or wal.crashed:
            return
        seq, committed_length = mark
        wal.truncate_to_seq(seq)
        del self._committed[committed_length:]

    @requires_lock("self.store.lock")
    def _maybe_snapshot(self) -> None:
        wal = self._durable
        if wal is None or wal.crashed:
            return
        if wal.next_seq - self._last_snapshot_lsn \
                >= self._snapshot_interval:
            self._checkpoint_locked()

    @requires_lock("self.store.lock")
    def _checkpoint_locked(self) -> None:
        """Install a snapshot of the current state (writer lock held).

        A fault at the rename seam is a simulated kill: the log is
        marked crashed so the frozen process cannot diverge from the
        on-disk state the restart will recover.
        """
        wal = self._durable
        assert wal is not None and self._state_dir is not None
        lsn = wal.next_seq
        documents = [serialize(document)
                     for document in self.store.documents]
        try:
            write_snapshot(self._state_dir, lsn, documents,
                           sync=self._durable_sync)
        except BaseException:
            wal.mark_crashed()
            raise
        self._last_snapshot_lsn = lsn

    def checkpoint(self) -> None:
        """Snapshot the current state now, bounding the replay tail."""
        with self.store.write_locked():
            if self._durable is None:
                raise RecoveryError(
                    "service has no durable state to checkpoint")
            self._checkpoint_locked()

    def close(self) -> None:
        """Release the write-ahead log's file handle.

        Buffered bytes are flushed as-is — including the torn residue
        of a simulated crash — matching what the page cache of a
        killed process would expose to the recovering one.
        """
        with self.store.write_locked():
            if self._durable is not None:
                self._durable.close()

    def wal_records(self) -> "list[WalRecord]":
        """The live write-ahead records (empty for volatile services)."""
        with self.store.read_locked():
            if self._durable is None:
                return []
            return self._durable.records()

    # -- writers -------------------------------------------------------------

    def try_execute(self, update: "str | Operation") -> UpdateDecision:
        """Check and (when legal) apply one update, exclusively.

        Exactly :meth:`IntegrityGuard.try_execute` under the writer
        lock; applied updates are appended to the commit log.
        """
        with self.store.write_locked():
            try:
                decision = self.checker.try_execute(update)
                if decision.applied:
                    if self._durable is None:
                        fail.point("service.store.pre_commit_append")
                        self._committed.append(CommittedUpdate(
                            len(self._committed), update, decision))
                    else:
                        # the durable pre-commit hook already logged
                        # and appended inside the checker's
                        # transaction scope
                        self._maybe_snapshot()
            except BaseException:
                # the checker may have committed without a publication
                # reaching the readers: flag the published snapshot so
                # the read path repairs from the live tree
                self.snapshots.invalidate()
                raise
            if decision.applied:
                self._publish()
            return decision

    def execute(self, update: "str | Operation") -> UpdateDecision:
        """Like :meth:`try_execute` but raises on violation."""
        decision = self.try_execute(update)
        if not decision.legal:
            raise IntegrityViolationError(decision.violated)
        return decision

    def check_batch(
            self,
            updates: "list[str | Operation]") -> list[UpdateDecision]:
        """Check and apply a batch of updates under one lock round.

        The checker's sequential :meth:`~repro.core.guard.
        IntegrityGuard.check_batch` loop with the writer lock acquired
        *once* and one snapshot published for the whole batch; applied
        updates enter the commit log in batch order.  Decisions match
        the sequential :meth:`try_execute` loop update for update.
        """
        with self.store.write_locked():
            try:
                decisions = self.checker.check_batch(updates)
                if self._durable is None:
                    for update, decision in zip(updates, decisions):
                        if decision.applied:
                            fail.point(
                                "service.store.pre_commit_append")
                            self._committed.append(CommittedUpdate(
                                len(self._committed), update,
                                decision))
                else:
                    # per-update logging happened in the hook
                    self._maybe_snapshot()
            except BaseException:
                self.snapshots.invalidate()
                raise
            if any(decision.applied for decision in decisions):
                self._publish()
            return decisions

    # -- readers -------------------------------------------------------------

    def _pin_or_repair(self) -> DocumentSnapshot:
        """A pinned snapshot, repairing under the read lock if needed.

        The fast path never touches the store lock: writers and
        readers proceed fully independently.  The slow path (nothing
        published, or a publication died mid-way) rebuilds from the
        live tree under the read lock, which excludes writers.
        Callers must unpin the result.
        """
        snapshot = self.snapshots.pin()
        if snapshot is not None:
            return snapshot
        with self.store.read_locked():
            return self.snapshots.repair(self.store.documents)

    @contextmanager
    def read_view(self) -> "Iterator[DocumentSnapshot]":
        """Pin a consistent document view for arbitrary read work.

        With snapshot reads enabled (the default) this pins the
        latest published snapshot — immutable frozen documents, no
        store lock held, so the view stays coherent for as long as
        the caller keeps it even while writers commit.  With
        ``snapshot_reads=False`` it degrades to holding the read lock
        for the duration and viewing the live documents.
        """
        if self.snapshot_reads:
            snapshot = self._pin_or_repair()
            try:
                yield snapshot
            finally:
                self.snapshots.unpin(snapshot)
        else:
            with self.store.read_locked():
                documents = self.store.documents
                yield DocumentSnapshot(
                    0, documents,
                    [(document.uid, document.revision)
                     for document in documents])

    def verify_consistency(self) -> list[str]:
        """Full constraint check, lock-free against a pinned snapshot
        (or under the read lock with ``snapshot_reads=False``)."""
        if not self.snapshot_reads:
            return self.verify_consistency_locked()
        with self.read_view() as view:
            return verify_documents(self.checker.schema,
                                    list(view.documents))

    def verify_consistency_locked(self) -> list[str]:
        """Full constraint check against the live tree (read lock)."""
        with self.store.read_locked():
            return self.checker.verify_consistency()

    def snapshot(self) -> list[str]:
        """Serialized documents, concurrent with other readers."""
        if not self.snapshot_reads:
            return self.store.snapshot()
        with self.read_view() as view:
            return [serialize(document) for document in view.documents]

    def explain(self) -> list[str]:
        """Planner explain reports for every live full check.

        Runs against a pinned snapshot like any other read, so a slow
        explain (it profiles real evaluations) never holds up writers.
        Drift beyond the re-plan threshold is surfaced per report and
        feeds the planner's adaptive statistics (see
        :func:`repro.xquery.planner.explain_query`).
        """
        from repro.xquery import planner

        reports: list[str] = []
        with self.read_view() as view:
            documents = list(view.documents)
            for constraint in self.checker.schema.constraints:
                if constraint.dead:
                    continue
                for query in constraint.full_queries:
                    if query.prepared is None:
                        continue
                    report = planner.explain_query(
                        query.prepared, documents)
                    reports.append(
                        f"constraint {constraint.name}:\n{report}")
        return reports

    def committed_updates(self) -> list[CommittedUpdate]:
        """The commit log so far, in commit order (a copy)."""
        with self.store.read_locked():
            return list(self._committed)

    # -- passthroughs -------------------------------------------------------

    def subscribe(self, listener) -> None:
        """Register a listener on the underlying checker.

        Listeners run inside the writer-locked, transactional scope: a
        listener that raises rolls the update back.
        """
        self.checker.subscribe(listener)
