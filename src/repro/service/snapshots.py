"""MVCC-lite snapshot publication and epoch-based reclamation.

The service's writers publish an immutable :class:`DocumentSnapshot`
at every commit boundary; readers *pin* the latest published version
and run checks, serialization and explain against it without holding
the store lock at all — a long check never blocks a writer and a busy
writer never delays a check.

Publication is copy-on-write at document granularity: each live
document is keyed by ``(uid, revision)``, and a document whose key is
unchanged since the previous publish reuses the previous snapshot's
frozen clone (the common case — an update touches one document of the
store).  Only mutated documents are deep-copied, frozen
(:meth:`~repro.xtree.node.Document.freeze`), and re-attached to a
column store, so publication cost grows with the size of each
document a commit touches, not with the number of documents.  When
every write lands in one large document — the running example's
``rev`` document takes all submissions — each commit clones and
re-attaches that whole document, and those two steps dominate an
accepted update's cost.

Reclamation is epoch-style, with all bookkeeping on the manager: a
superseded snapshot moves to the retired list and is dropped the
first time a reclaim scan (run at publish and unpin) finds it
unpinned.  Snapshots themselves are pure immutable data — a reader
that crashes between pin and unpin can never corrupt the manager, and
a reclaim interrupted by an injected fault is simply finished by the
next scan.

Publication protocol (writer lock held by the caller):

1. mark the manager *dirty* under the manager lock (write-ahead:
   if the publisher dies here, readers see the dirty flag and repair);
2. clone changed documents **outside** the manager lock, so readers
   keep pinning the previous version at full speed during the copy;
3. install the new version, clear the dirty flag and queue the
   previous version for retirement in one critical section;
4. reclaim unpinned retired versions.

A failed publication (step 2 dying) self-heals on the read path:
:meth:`SnapshotManager.pin` returns ``None`` while dirty and the
service rebuilds the snapshot from the live tree under the store's
*read* lock (:meth:`SnapshotManager.repair`), which excludes writers
and therefore sees a settled state.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.concurrency import (
    guarded_by,
    make_lock,
    requires_lock,
)
from repro.relational import incremental
from repro.testing.failpoints import fail
from repro.xtree.node import Document


class DocumentSnapshot:
    """One published, immutable version of a store's documents.

    ``documents`` are frozen clones (structural mutation raises
    :class:`~repro.errors.FrozenDocumentError`); ``keys`` holds the
    ``(uid, revision)`` of each *live* document at publication time,
    which is what the copy-on-write reuse check compares against.
    """

    __slots__ = ("version", "documents", "keys")

    def __init__(self, version: int, documents: Iterable[Document],
                 keys: Iterable[tuple[int, int]]) -> None:
        self.version = version
        self.documents = tuple(documents)
        self.keys = tuple(keys)

    def document(self, root_tag: str) -> Document | None:
        """The snapshot document with the given root tag, if any."""
        for document in self.documents:
            if document.root.tag == root_tag:
                return document
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DocumentSnapshot(version={self.version}, "
                f"documents={len(self.documents)})")


@guarded_by("self._lock", "_published", "_dirty", "_pins", "_retired",
            "_next_version", "_publishes", "_cloned", "_reused",
            "_repairs", "_reclaimed")
class SnapshotManager:
    """Publication, pinning and reclamation of document snapshots.

    All mutable state lives here, behind one ``service.snapshots``-rank
    lock (between the store lock and the per-document locks in the
    canonical order, so both the writer's publish-under-write-lock and
    the reader's repair-under-read-lock nest legally).
    """

    def __init__(self, relational=None) -> None:
        #: relational schema used to attach column stores to fresh
        #: clones (``None`` → snapshot documents evaluate DOM-only);
        #: immutable after construction
        self._relational = relational
        self._lock = make_lock("service.snapshots")
        # construction: the manager is not shared with any thread yet
        self._published: "DocumentSnapshot | None" = None  # lock: ignore
        self._dirty = False  # lock: ignore
        self._pins: dict[int, int] = {}  # lock: ignore
        self._retired: list[DocumentSnapshot] = []  # lock: ignore
        self._next_version = 1  # lock: ignore
        self._publishes = 0  # lock: ignore
        self._cloned = 0  # lock: ignore
        self._reused = 0  # lock: ignore
        self._repairs = 0  # lock: ignore
        self._reclaimed = 0  # lock: ignore

    # -- writer side ---------------------------------------------------------

    def publish(self, documents: "list[Document]") -> DocumentSnapshot:
        """Publish an immutable snapshot of ``documents``.

        The caller must exclude structural mutation of the documents —
        the store's writer lock, or construction before the service is
        shared.  Unchanged documents (same ``(uid, revision)`` as at
        the previous publish) reuse their existing frozen clone.
        """
        with self._lock:
            previous = self._published
            self._dirty = True
        fail.point("service.snapshots.publish")
        clones, keys, cloned, reused = self._build(documents, previous)
        snapshot = self._install(clones, keys, cloned, reused)
        fail.point("service.snapshots.retire")
        with self._lock:
            self._reclaim_locked()
        return snapshot

    def _build(self, documents: "list[Document]",
               previous: "DocumentSnapshot | None"):
        """Clone changed documents, reusing unchanged frozen clones.

        Runs without the manager lock: cloning is the expensive part
        of publication and readers must be able to pin the previous
        version throughout.
        """
        reuse: dict[tuple[int, int], Document] = {}
        if previous is not None:
            reuse = dict(zip(previous.keys, previous.documents))
        clones: list[Document] = []
        keys: list[tuple[int, int]] = []
        cloned = reused = 0
        for document in documents:
            key = (document.uid, document.revision)
            clone = reuse.get(key)
            if clone is None:
                clone = document.clone()
                if self._relational is not None:
                    incremental.attach(clone, self._relational)
                cloned += 1
            else:
                reused += 1
            clones.append(clone)
            keys.append(key)
        return clones, keys, cloned, reused

    def _install(self, clones: "list[Document]",
                 keys: "list[tuple[int, int]]",
                 cloned: int, reused: int) -> DocumentSnapshot:
        with self._lock:
            snapshot = DocumentSnapshot(self._next_version, clones,
                                        keys)
            self._next_version += 1
            current = self._published
            if current is not None:
                self._retired.append(current)
            self._published = snapshot
            self._dirty = False
            self._publishes += 1
            self._cloned += cloned
            self._reused += reused
            return snapshot

    def invalidate(self) -> None:
        """Mark the published snapshot as possibly stale.

        Called by the service when a writer's critical section dies
        after the checker may have committed but before publication
        (an injected commit-log fault, a failed rollback): readers
        stop pinning the old version and repair from the live tree
        instead.  Idempotent; the next successful publish or repair
        clears it.
        """
        with self._lock:
            self._dirty = True

    # -- reader side ---------------------------------------------------------

    def pin(self) -> "DocumentSnapshot | None":
        """Pin and return the latest published snapshot.

        Returns ``None`` when no clean snapshot is available (nothing
        published yet, or the last publication died mid-way and left
        the manager dirty) — the caller falls back to
        :meth:`repair` under the store's read lock.  Every successful
        pin must be matched by exactly one :meth:`unpin`.
        """
        with self._lock:
            if self._dirty or self._published is None:
                return None
            snapshot = self._published
            self._pins[snapshot.version] = \
                self._pins.get(snapshot.version, 0) + 1
        try:
            fail.point("service.snapshots.pin")
        except BaseException:
            # the pin was taken but the snapshot never reached the
            # reader: release it so retirement still drains
            self.unpin(snapshot)
            raise
        return snapshot

    def unpin(self, snapshot: DocumentSnapshot) -> None:
        """Release one pin and reclaim newly-unpinned retirees."""
        with self._lock:
            count = self._pins.get(snapshot.version, 0)
            if count <= 1:
                self._pins.pop(snapshot.version, None)
            else:
                self._pins[snapshot.version] = count - 1
            self._reclaim_locked()

    def repair(self, documents: "list[Document]") -> DocumentSnapshot:
        """Rebuild the published snapshot from the live documents.

        The reader-side recovery for a publication that died after
        marking the manager dirty.  The caller must hold the store's
        *read* lock: that excludes writers, so the live tree is a
        settled committed state.  Returns an already-pinned snapshot
        (installation and pinning are one critical section, so a
        concurrent repair can never retire it out from under the
        caller); the caller unpins as usual.  Deliberately free of
        failpoints — this path must always converge.
        """
        with self._lock:
            if not self._dirty and self._published is not None:
                snapshot = self._published
                self._pins[snapshot.version] = \
                    self._pins.get(snapshot.version, 0) + 1
                return snapshot
            previous = self._published
            self._repairs += 1
        clones, keys, cloned, reused = self._build(documents, previous)
        with self._lock:
            snapshot = DocumentSnapshot(self._next_version, clones,
                                        keys)
            self._next_version += 1
            current = self._published
            if current is not None:
                self._retired.append(current)
            self._published = snapshot
            self._dirty = False
            self._cloned += cloned
            self._reused += reused
            self._pins[snapshot.version] = \
                self._pins.get(snapshot.version, 0) + 1
            self._reclaim_locked()
            return snapshot

    # -- reclamation ---------------------------------------------------------

    @requires_lock("self._lock")
    def _reclaim_locked(self) -> None:
        if not self._retired:
            return
        keep: list[DocumentSnapshot] = []
        for snapshot in self._retired:
            if self._pins.get(snapshot.version):
                keep.append(snapshot)
            else:
                self._reclaimed += 1
        self._retired = keep

    def stats(self) -> dict:
        """Counters and live state, for invariant checks and benches."""
        with self._lock:
            published = self._published
            return {
                "version": published.version if published else 0,
                "dirty": self._dirty,
                "pins": dict(self._pins),
                "retired": len(self._retired),
                "publishes": self._publishes,
                "cloned": self._cloned,
                "reused": self._reused,
                "repairs": self._repairs,
                "reclaimed": self._reclaimed,
            }
