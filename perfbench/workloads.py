"""Workload definitions and the seeded update streams they replay.

Every workload runs the paper's running example (two DTDs, the
conflict-of-interest and conference-workload denials, the registered
submission pattern) over a seeded synthetic corpus, with the durable
defaults a deployment gets: fsync on every commit, a full snapshot
every 64 commits, snapshot reads on.

The update stream is an endless repetition of one 7-step cycle::

    append, remove, append, remove, append, remove, illegal

Each append adds a fresh-author submission to a non-busy reviewer and
the following remove deletes that same submission again, so a whole
cycle leaves the documents byte-identical to the initial corpus: late
samples measure the same store as early ones, and the final state of a
run that ends on a cycle boundary can be compared byte for byte with
the start.  The seventh update is illegal, alternating between the two
constraints (a reviewer reviewing their own paper; an 11th submission
for a reviewer already in three tracks with 10), so 1 update in 7 is
rejected.  Every update carries its expected verdict.

Cycle ``k`` is generated from its own ``random.Random`` seeded with
``"<seed>:<k>"`` against the initial corpus, so the stream and its
verdicts are a pure function of the seed, whatever part of it a phase
consumes (:func:`stream_digest` shows it).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

from repro.datagen import (
    generate_corpus,
    illegal_submission,
    spec_for_size,
    submission_xupdate,
)
from repro.datagen.workload import _normal_reviewer_targets
from repro.xtree.node import Document
from repro.xtree.serializer import serialize

#: the 7-step cycle; "illegal" alternates conflict / workload
CYCLE = ("append", "remove", "append", "remove", "append", "remove",
         "illegal")

#: the one document group every workload writes to
UID = "bench"


@dataclass(frozen=True)
class Workload:
    name: str
    #: target corpus size (both documents together)
    size_kib: int
    #: updates per write request (1 = one /update or try_execute)
    batch: int
    #: "edge" drives ``python -m repro serve``; "inproc" the library
    mode: str
    why: str


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="edge-submit", size_kib=128, batch=1, mode="edge",
            # The paper's use case: one update checked before it is
            # applied.  Accepted updates are dominated by the commit
            # path (SnapshotManager.publish -> Document.clone +
            # relational.incremental.attach, the GC it triggers, and
            # the WAL fsync); rejected ones run only the simplified
            # check plus the edge and frame hops.  An O(delta) commit
            # must move accept_cpu_ref_ms and leave reject_cpu_ref_ms
            # alone.
            # The window alternates write and read phases: the update
            # stream alone, then full checks through the edge on the
            # restored corpus (the paper's optimized-vs-full
            # comparison), which give read_cpu_ref_ms and read_*.
            why="one /update per request at 128 KiB: rejects pay only "
                "the simplified check, accepts pay the whole-document "
                "snapshot clone and the WAL fsync (fsync per commit, "
                "snapshot every 64)"),
        Workload(
            name="edge-batch", size_kib=32, batch=32, mode="edge",
            # With a small document, per-update fixed costs dominate:
            # one fsync per WAL record, BatchScope repair in the
            # planner, JSON for 32 decisions.  check_batch already
            # publishes once per batch, so a snapshot change should
            # barely move it; a group commit or deleting BatchScope
            # must show here.  Full checks run in read phases between
            # the write phases, as on edge-submit.  Runnable, but not
            # in BENCHMARK.json: its ~700 fsyncs/s come with 1-11%
            # hypervisor steal that varies from run to run on a shared
            # VM, and its p50 latency and throughput follow the steal
            # (run-to-run spread up to 0.40 across ten seeds); a third
            # workload would also leave the runs too short to be steady.
            why="32 updates per /check_batch at 32 KiB: per-update "
                "fixed costs (one fsync per WAL record, batch index "
                "repair, decision JSON) dominate (snapshot every 64)"),
        Workload(
            name="inproc-mix", size_kib=32, batch=1, mode="inproc",
            # The only place reads overlap writes: an open-loop writer
            # (independent submitters arrive on their own schedule)
            # and a closed-loop reader running the paper's full check.
            # Both run under a 1 ms interpreter switch interval, as in
            # benchmarks/test_service_load.py: at the default 5 ms the
            # writer's waits for the reader's interpreter lock made
            # its latency bimodal and run-to-run spreads up to 0.3.
            # It measures what snapshot reads buy or cost and skips
            # the edge, frames and worker.  It does not avoid the
            # snapshot-read stall: publish() marks the manager dirty
            # before cloning, so a reader arriving mid-publish gets
            # None from pin() and blocks in acquire_read until the
            # writer is done.  That shows as the read_p90_ms vs
            # read_p50_ms gap and as service.snapshots.pin_miss_ratio,
            # not in read_cpu_ref_ms: a blocked thread spends no CPU.
            why="library API at 32 KiB: open-loop writer at 30/s and "
                "a closed-loop full-check reader; the only place reads "
                "overlap writes (snapshot reads on, fsync per commit)"),
    )
}

#: open-loop writer rate of inproc-mix, updates per second
INPROC_RATE = 30.0


@dataclass(frozen=True)
class Update:
    text: str
    #: expected verdict: True = legal and applied, False = rejected
    legal: bool


def make_corpus(size_kib: int, seed: int) -> "tuple[Document, Document]":
    """The seeded ``(pub, rev)`` corpus of about ``size_kib`` KiB.

    The shape (reviewers per track, publications) is sized once from
    the default spec; the seed only draws the content.  Sizing from a
    seeded probe instead lets the corpus vary by 7% between seeds,
    which the clone-bound commit cost follows.
    """
    spec = spec_for_size(size_kib * 1024)
    return generate_corpus(replace(spec, seed=seed))


def removal_xupdate(track: int, rev: int, position: int) -> str:
    return f"""<?xml version="1.0"?>
<xupdate:modifications version="1.0"
    xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:remove select="/review/track[{track}]/rev[{rev}]/sub[{position}]"/>
</xupdate:modifications>"""


class UpdateStream:
    """The endless cyclic update stream of one seed over one corpus.

    ``rev_doc`` must be the initial corpus: every cycle starts from
    it, because the previous whole cycle restored it.
    """

    def __init__(self, rev_doc: Document, seed: int) -> None:
        self.seed = seed
        self._rev_doc = rev_doc
        self._targets = _normal_reviewer_targets(rev_doc)
        self._subs: dict[tuple[int, int], int] = {}
        for track_no, track in enumerate(
                rev_doc.root.element_children("track"), start=1):
            for rev_no, rev in enumerate(
                    track.element_children("rev"), start=1):
                self._subs[(track_no, rev_no)] = \
                    len(rev.element_children("sub"))

    def cycle(self, index: int) -> "list[Update]":
        rng = random.Random(f"{self.seed}:{index}")
        updates: list[Update] = []
        for _ in range(CYCLE.count("append")):
            track, rev, _name = rng.choice(self._targets)
            updates.append(Update(submission_xupdate(
                track, rev, f"Bench Sub {rng.randrange(10 ** 9)}",
                f"Fresh Author {rng.randrange(10 ** 9)}"), True))
            updates.append(Update(removal_xupdate(
                track, rev, self._subs[(track, rev)] + 1), True))
        constraint = "conflict" if index % 2 == 0 else "workload"
        updates.append(Update(
            illegal_submission(self._rev_doc, rng, constraint), False))
        return updates

    def updates(self, start_cycle: int = 0):
        """Updates from cycle ``start_cycle`` on, forever."""
        index = start_cycle
        while True:
            yield from self.cycle(index)
            index += 1


def stream_digest(size_kib: int, seed: int, cycles: int = 8) -> str:
    """SHA-256 over the corpus and the first ``cycles`` cycles with
    their verdicts, built from scratch: equal digests for equal seeds
    show the inputs are a pure function of the seed."""
    digest = hashlib.sha256()
    pub_doc, rev_doc = make_corpus(size_kib, seed)
    for document in (pub_doc, rev_doc):
        digest.update(serialize(document).encode())
    stream = UpdateStream(rev_doc, seed)
    for index in range(cycles):
        for update in stream.cycle(index):
            digest.update(b"1" if update.legal else b"0")
            digest.update(update.text.encode())
    return digest.hexdigest()
