"""Crash-consistency harness for the transactional checking pipeline.

Runs a seeded update workload against a :class:`~repro.service.store.
CheckingService` while a fault schedule (armed :mod:`~repro.testing.
failpoints`) fires injected exceptions at the instrumented seams, then
asserts the **invariant battery**:

1. *oracle equality* — the final store state is byte-identical to a
   fault-free sequential replay of the *accepted* updates on a fresh
   corpus, driven by :class:`~repro.core.guard.BruteForceChecker`;
2. *verdict agreement* — every guard verdict observed during the run
   (accepted or rejected) matches the brute-force oracle's verdict for
   the same update against the same state;
3. *no torn state* — an update that errored out mid-flight left no
   trace (implied by 1: errored updates are excluded from the replay);
4. *locks released* — the store's reader–writer lock is fully idle and
   immediately re-acquirable after the workload;
5. *caches cold-rebuild clean* — each document's incremental tag index
   agrees with a cold reparse of its serialized form, and the guard's
   full check (through the planner's statistics/plan caches) agrees
   with a cache-free brute-force check on the reparsed documents;
6. *commit-log consistency* — the service commit log is exactly the
   accepted sequence, except for a possible suffix of entries whose
   steps errored *after* the update committed (the
   ``service.store.pre_commit_append`` seam).

Updates are classified by a checker listener rather than by the
return value of the service call: listeners run inside the
transactional scope, after the decision is final but before anything
else can fail, so a listener-observed ``applied=True`` means the
update is durably in the documents even when the surrounding service
call subsequently raised.

The workload mixes every checking path the guard has: pattern-matched
single appends (legal and constraint-violating), ``insert-after``
variants, multi-operation modification documents, unregistered
publication inserts (brute-force probe, footnote 4), removals, batch
rounds through :meth:`CheckingService.check_batch`, and read-side
calls (``verify_consistency`` / ``snapshot``).
"""

from __future__ import annotations

import random
import shlex
import shutil
import tempfile
import threading
from dataclasses import dataclass, field, replace

from repro.core.guard import BruteForceChecker, verify_documents
from repro.datagen.corpus import CorpusSpec, generate_corpus
from repro.datagen.running_example import make_schema, submission_xupdate
from repro.datagen.workload import (
    busy_reviewer_targets,
    illegal_submission,
    legal_submission,
)
from repro.service.store import CheckingService
from repro.testing.failpoints import fail, parse_schedule
from repro.xtree.node import Document
from repro.xtree.parser import parse_document
from repro.xtree.serializer import serialize
from repro.xupdate.parser import canonical_update_text
from repro.xquery import planner


class InvariantViolation(AssertionError):
    """An invariant of the fault run was violated.

    Subclasses :class:`AssertionError` so pytest reports it as a test
    failure, not an error; the message always embeds the reproduction
    command.
    """


#: Named fault schedules for the CLI and CI matrix.  Each one
#: concentrates on a different seam of the pipeline; ``chaos`` arms a
#: low-probability fault on every seam at once (seeded, so the run is
#: still deterministic for a given harness seed).
SCHEDULES: dict[str, str] = {
    "apply": ("xupdate.apply.pre_op=count:3;"
              "xupdate.apply.post_op=count:7"),
    "rollback": ("xupdate.rollback.pre=count:1;"
                 "xupdate.rollback.post=count:2;"
                 "core.guard.probe.mid=count:2"),
    "guard": ("core.guard.post_check=count:2;"
              "planner.stats.refresh=count:4;"
              "planner.plan_cache.insert=count:2"),
    "service": ("service.store.pre_commit_append=count:2;"
                "service.locks.post_write_acquire=count:4;"
                "service.locks.post_read_acquire=count:2"),
    "columnar": ("columns.delta.apply=count:2;"
                 "columns.delta.settle=count:5;"
                 "columns.rebuild=count:1"),
    "wal": "persistence.post_append_pre_apply=count:3",
    "wal-torn": "persistence.pre_fsync=count:3",
    "snapshot": "persistence.snapshot_rename=count:1",
    "mvcc": ("service.snapshots.publish=count:2;"
             "service.snapshots.pin=count:2;"
             "service.snapshots.retire=count:1"),
    "chaos": ("xupdate.apply.pre_op=prob:0.05:11;"
              "xupdate.apply.post_op=prob:0.05:12;"
              "xupdate.rollback.pre=prob:0.03:13;"
              "core.guard.post_check=prob:0.05:14;"
              "core.guard.probe.mid=prob:0.05:15;"
              "service.store.pre_commit_append=prob:0.05:17;"
              "service.locks.post_write_acquire=prob:0.03:18;"
              "service.locks.post_read_acquire=prob:0.03:19;"
              "planner.stats.refresh=prob:0.03:20;"
              "planner.plan_cache.insert=prob:0.03:21;"
              "columns.delta.apply=prob:0.03:24;"
              "columns.delta.settle=prob:0.03:25;"
              "columns.rebuild=prob:0.03:26;"
              "service.snapshots.publish=prob:0.03:28;"
              "service.snapshots.pin=prob:0.03:29;"
              "service.snapshots.retire=prob:0.03:30"),
}

#: Corpus knobs for the harness: small enough that a full run with
#: oracle replay takes a few seconds, rich enough that every workload
#: kind has targets (busy reviewers for the workload constraint).
_HARNESS_SPEC = CorpusSpec(
    tracks=2, revs_per_track=3, subs_per_rev=2, auts_per_sub=2,
    pubs=6, auts_per_pub=2, busy_reviewers=1, author_pool=30)


@dataclass
class StepOutcome:
    """What one workload step did, as observed from the outside."""

    index: int
    kind: str
    #: "accepted" / "rejected" / "errored" / "read"
    outcome: str
    #: repr of the raised exception for errored steps
    error: str = ""


@dataclass
class FaultRunReport:
    """Everything one :func:`run_scenario` call observed."""

    seed: int
    schedule: str
    spec: str
    ops: int
    mix: str = "default"
    steps: list[StepOutcome] = field(default_factory=list)
    #: site → (hits, fires) for every armed site
    site_counts: dict[str, tuple[int, int]] = field(default_factory=dict)
    accepted: int = 0
    rejected: int = 0
    errored: int = 0
    faults_fired: int = 0

    @property
    def repro_command(self) -> str:
        """Shell command that reruns this exact scenario."""
        schedule = (self.schedule if self.schedule in SCHEDULES
                    else shlex.quote(self.spec))
        mix = "" if self.mix == "default" else f" --mix {self.mix}"
        return (f"python -m repro faultcheck --seed {self.seed} "
                f"--schedule {schedule} --ops {self.ops}{mix}")

    def summary(self) -> str:
        fired = ", ".join(
            f"{site}={fires}/{hits}"
            for site, (hits, fires) in sorted(self.site_counts.items())
            if hits) or "none"
        return (f"seed={self.seed} schedule={self.schedule} "
                f"ops={self.ops}: {self.accepted} accepted, "
                f"{self.rejected} rejected, {self.errored} errored, "
                f"{self.faults_fired} faults fired "
                f"(fires/hits per site: {fired})")


def _fresh_corpus(seed: int) -> tuple[Document, Document]:
    pub_doc, rev_doc = generate_corpus(replace(_HARNESS_SPEC, seed=seed))
    return pub_doc, rev_doc


def _multi_op_update(rev_doc: Document, rng: random.Random) -> str:
    """Two appends in one modification document (transaction path)."""
    inner = []
    for _ in range(2):
        text = legal_submission(rev_doc, rng, kind="append")
        start = text.index("<xupdate:append")
        end = text.index("</xupdate:append>") + len("</xupdate:append>")
        inner.append(text[start:end])
    return ('<?xml version="1.0"?>\n'
            '<xupdate:modifications version="1.0"\n'
            '    xmlns:xupdate="http://www.xmldb.org/xupdate">\n'
            + "\n".join(inner) + "\n</xupdate:modifications>")


def _reviewer_author_pairs(rev_doc: Document) -> list[tuple[str, str]]:
    """(reviewer, submission author) pairs from the review document."""
    pairs = []
    for track in rev_doc.root.element_children("track"):
        for rev in track.element_children("rev"):
            name = rev.first_child("name")
            reviewer = name.text() if name is not None else ""
            for sub in rev.element_children("sub"):
                auts = sub.first_child("auts")
                if auts is None:
                    continue
                for aut in auts.element_children("name"):
                    if aut.text() and reviewer:
                        pairs.append((reviewer, aut.text()))
    return pairs


def _pub_xupdate(authors: list[str]) -> str:
    """An (unregistered-pattern) publication insert — probe path."""
    names = "".join(f"<name>{a}</name>" for a in authors)
    return f"""<?xml version="1.0"?>
<xupdate:modifications version="1.0"
    xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/dblp">
    <xupdate:element name="pub">
      <title>Injected Paper</title>
      <auts>{names}</auts>
    </xupdate:element>
  </xupdate:append>
</xupdate:modifications>"""


def _removal_update(rev_doc: Document, rng: random.Random) -> str:
    """Remove an existing submission (deletion-safety path)."""
    candidates = []
    for t, track in enumerate(rev_doc.root.element_children("track"), 1):
        for r, rev in enumerate(track.element_children("rev"), 1):
            for s, _sub in enumerate(rev.element_children("sub"), 1):
                candidates.append((t, r, s))
    if not candidates:
        return _pub_xupdate(["Fresh Author 0"])
    t, r, s = rng.choice(candidates)
    return f"""<?xml version="1.0"?>
<xupdate:modifications version="1.0"
    xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:remove select="/review/track[{t}]/rev[{r}]/sub[{s}]"/>
</xupdate:modifications>"""


_STEP_KINDS = [
    # (kind, weight)
    ("legal", 5),
    ("legal-after", 2),
    ("illegal-conflict", 3),
    ("illegal-workload", 2),
    ("multi-op", 2),
    ("pub-legal", 1),
    ("pub-illegal", 1),
    ("removal", 1),
    ("bad-select", 1),
    ("batch", 2),
    ("read", 2),
]

#: the ``read-heavy`` mix: mostly snapshot-path reads with enough
#: writes interleaved that publication and epoch retirement keep
#: churning — the shape that exercises the snapshot failpoint sites
_STEP_KINDS_READ_HEAVY = [
    ("legal", 3),
    ("illegal-conflict", 1),
    ("multi-op", 1),
    ("removal", 1),
    ("batch", 1),
    ("read", 12),
]

_MIXES: dict[str, list[tuple[str, int]]] = {
    "default": _STEP_KINDS,
    "read-heavy": _STEP_KINDS_READ_HEAVY,
}


def _make_step(kind: str, rev_doc: Document,
               rng: random.Random) -> "str | list[str] | None":
    """The update text(s) for one step; ``None`` for read-only steps.

    Steps are generated against ``rev_doc`` — the *oracle's untouched
    copy* of the corpus, not the live one — so the workload text is a
    pure function of (seed, step sequence) and never depends on what
    faults did to the live documents.
    """
    if kind == "legal":
        return legal_submission(rev_doc, rng)
    if kind == "legal-after":
        return legal_submission(rev_doc, rng, kind="after")
    if kind == "illegal-conflict":
        return illegal_submission(rev_doc, rng, "conflict")
    if kind == "illegal-workload":
        if not busy_reviewer_targets(rev_doc):
            return legal_submission(rev_doc, rng)
        return illegal_submission(rev_doc, rng, "workload")
    if kind == "multi-op":
        return _multi_op_update(rev_doc, rng)
    if kind == "pub-legal":
        return _pub_xupdate([f"Fresh Author {rng.randrange(10 ** 9)}",
                             f"Fresh Author {rng.randrange(10 ** 9)}"])
    if kind == "pub-illegal":
        pairs = _reviewer_author_pairs(rev_doc)
        if not pairs:
            return _pub_xupdate(["Fresh Author 1"])
        reviewer, author = rng.choice(pairs)
        return _pub_xupdate([reviewer, author])
    if kind == "removal":
        return _removal_update(rev_doc, rng)
    if kind == "bad-select":
        return submission_xupdate(
            9, 9, "Nowhere Submission", "Nobody")
    if kind == "batch":
        batch = []
        for _ in range(rng.randrange(2, 5)):
            sub_kind = rng.choice(
                ["legal", "legal", "illegal-conflict", "pub-legal"])
            update = _make_step(sub_kind, rev_doc, rng)
            assert isinstance(update, str)
            batch.append(update)
        return batch
    assert kind == "read"
    return None


def _weighted_kinds(rng: random.Random, count: int,
                    mix: str = "default") -> list[str]:
    try:
        step_kinds = _MIXES[mix]
    except KeyError:
        raise ValueError(
            f"unknown workload mix {mix!r}; "
            f"choose from {sorted(_MIXES)}") from None
    kinds = [kind for kind, weight in step_kinds
             for _ in range(weight)]
    return [rng.choice(kinds) for _ in range(count)]


# ---------------------------------------------------------------------------
# invariant battery
# ---------------------------------------------------------------------------


def _violation(report: FaultRunReport, invariant: str,
               detail: str) -> InvariantViolation:
    return InvariantViolation(
        f"invariant violated [{invariant}]: {detail}\n"
        f"  run: {report.summary()}\n"
        f"  reproduce with: PYTHONPATH=src {report.repro_command}")


def _check_locks_released(service: CheckingService,
                          report: FaultRunReport) -> None:
    lock = service.store.lock
    with lock._condition:
        state = (lock._readers, lock._writer_active,
                 lock._writers_waiting)
    if state != (0, False, 0):
        raise _violation(
            report, "locks-released",
            f"lock not idle after workload: readers={state[0]}, "
            f"writer_active={state[1]}, writers_waiting={state[2]}")
    # belt and braces: the write side must be immediately acquirable
    acquired = threading.Event()

    def probe() -> None:
        with lock.write_locked():
            acquired.set()

    thread = threading.Thread(target=probe, daemon=True)
    thread.start()
    thread.join(timeout=5.0)
    if not acquired.is_set():
        raise _violation(report, "locks-released",
                         "write lock could not be re-acquired")


def _check_tag_indexes(documents: list[Document],
                       report: FaultRunReport) -> None:
    """Each incremental tag index must match a cold reparse."""
    for document in documents:
        cold = parse_document(serialize(document))
        tags = {element.tag for element in cold.root.iter_elements()}
        if document.element_count() != cold.element_count():
            raise _violation(
                report, "cache-cold-rebuild",
                f"element_count drifted for <{document.root.tag}>: "
                f"{document.element_count()} cached vs "
                f"{cold.element_count()} cold")
        for tag in tags | {"__absent__"}:
            if document.tag_count(tag) != cold.tag_count(tag):
                raise _violation(
                    report, "cache-cold-rebuild",
                    f"tag_count({tag!r}) drifted for "
                    f"<{document.root.tag}>: {document.tag_count(tag)} "
                    f"cached vs {cold.tag_count(tag)} cold")
            if (document.tag_distinct_count(tag)
                    != cold.tag_distinct_count(tag)):
                raise _violation(
                    report, "cache-cold-rebuild",
                    f"tag_distinct_count({tag!r}) drifted for "
                    f"<{document.root.tag}>")


def _check_column_stores(documents: list[Document],
                         report: FaultRunReport) -> None:
    """Each column store must equal a cold rebuild over the final DOM.

    The delta-maintenance protocol self-heals after injected crashes
    (write-ahead invalidation, rebuild on next read), so after the
    workload — whatever faults fired — tables must match a cold
    re-shred and value indexes a from-scratch build.
    """
    from repro.relational.incremental import store_of
    for document in documents:
        store = store_of(document)
        if store is None:
            continue
        for problem in store.verify():
            raise _violation(
                report, "columns-cold-rebuild",
                f"<{document.root.tag}> column store: {problem} "
                f"(delta_failures={store.delta_failures}, "
                f"rebuilds={store.rebuilds})")


def _run_oracle(seed: int, observed: list[tuple[str, bool]],
                report: FaultRunReport) -> tuple[Document, Document]:
    """Replay the observed verdict sequence on a fresh corpus.

    ``observed`` is the listener trace: (update text, applied) in
    notification order.  The brute-force oracle must agree with every
    verdict, and applying exactly the accepted updates yields the
    reference final state.
    """
    schema = make_schema()
    pub_doc, rev_doc = _fresh_corpus(seed)
    oracle = BruteForceChecker(schema, [pub_doc, rev_doc])
    for position, (update, applied) in enumerate(observed):
        decision = oracle.try_execute(update)
        if decision.applied != applied:
            verdict = "accepted" if applied else "rejected"
            oracle_verdict = ("accepted" if decision.applied
                              else f"rejected ({decision.violated})")
        else:
            continue
        raise _violation(
            report, "verdict-agreement",
            f"guard {verdict} update #{position} but the brute-force "
            f"oracle {oracle_verdict}:\n{update}")
    return pub_doc, rev_doc


def _check_commit_log(service: CheckingService,
                      accepted: list[str],
                      report) -> None:
    committed_texts = [canonical_update_text(entry.update)
                       for entry in service.committed_updates()]
    if committed_texts == accepted:
        return
    if service.durable:
        # log-then-apply: the write-ahead append happens *before* the
        # listener observes the decision, so the commit log must be
        # exactly the accepted sequence — the applied-but-unlogged
        # window of the volatile path does not exist
        raise _violation(
            report, "commit-log",
            "durable commit log diverged from the accepted sequence: "
            f"{len(committed_texts)} committed vs "
            f"{len(accepted)} accepted")
    # volatile path: a fault between the document commit and the log
    # append may legitimately drop entries — but only ever *later*
    # accepted entries, never reorderings or inventions
    it = iter(accepted)
    for text in committed_texts:
        for candidate in it:
            if candidate == text:
                break
        else:
            raise _violation(
                report, "commit-log",
                "commit log contains an update the listeners never "
                f"saw accepted:\n{text}")


def _check_snapshot_epochs(service: CheckingService,
                           report: FaultRunReport) -> None:
    """Epoch accounting must be drained once the workload is quiet.

    Every pin taken during the run (including those interrupted by
    injected faults) must be matched by an unpin, every superseded
    snapshot must have been reclaimed by the scans the battery's own
    reads triggered, and a fault that died inside a publication must
    have been repaired by the read path (manager no longer dirty).
    """
    if not service.snapshot_reads:
        return
    stats = service.snapshots.stats()
    if stats["pins"]:
        raise _violation(
            report, "snapshot-epochs",
            f"leaked snapshot pins after workload: {stats['pins']} "
            f"(stats: {stats})")
    if stats["dirty"]:
        raise _violation(
            report, "snapshot-epochs",
            "snapshot manager still dirty after the battery's reads "
            f"(stats: {stats})")
    if stats["retired"]:
        raise _violation(
            report, "snapshot-epochs",
            f"{stats['retired']} retired snapshot(s) never reclaimed "
            f"(stats: {stats})")


def run_scenario(seed: int, schedule: "str | dict" = "chaos",
                 ops: int = 40,
                 mix: str = "default") -> FaultRunReport:
    """One fault-injection scenario: workload, faults, invariants.

    ``schedule`` is a :data:`SCHEDULES` name or a raw failpoint spec
    (``"site=trigger;..."`` or a dict).  ``mix`` picks the workload
    shape (:data:`_MIXES`): ``"default"`` or ``"read-heavy"`` (mostly
    snapshot-path reads, for the publication/retirement seams).
    Schedules that arm a ``persistence.*`` site run against a
    *durable* service (write-ahead log and snapshots in a scratch
    directory) and additionally verify that a post-workload recovery
    reproduces a state consistent with its own commit log.  Raises
    :class:`InvariantViolation` when the battery fails; otherwise
    returns the :class:`FaultRunReport`.
    """
    if isinstance(schedule, str) and schedule in SCHEDULES:
        name, spec_text = schedule, SCHEDULES[schedule]
    elif isinstance(schedule, str):
        name, spec_text = schedule, schedule
    else:
        name = ";".join(f"{k}={v}" for k, v in schedule.items())
        spec_text = name
    spec = parse_schedule(spec_text)
    durable = any(site.startswith("persistence.") for site in spec)

    planner.clear_caches()
    schema = make_schema()
    pub_doc, rev_doc = _fresh_corpus(seed)
    state_dir = None
    if durable:
        state_dir = tempfile.mkdtemp(prefix="repro-faultcheck-")
        service = CheckingService.open_durable(
            schema, [pub_doc, rev_doc], state_dir,
            snapshot_interval=8)
    else:
        service = CheckingService(schema, [pub_doc, rev_doc])
    try:
        return _run_scenario_body(
            seed, name, spec_text, spec, ops, service, state_dir,
            mix=mix)
    finally:
        if state_dir is not None:
            service.close()
            shutil.rmtree(state_dir, ignore_errors=True)


def _run_scenario_body(seed: int, name: str, spec_text: str,
                       spec, ops: int, service: CheckingService,
                       state_dir: "str | None",
                       mix: str = "default") -> FaultRunReport:
    # the workload is generated against an untouched twin corpus so
    # faults cannot perturb which updates get generated
    _, rev_twin = _fresh_corpus(seed)

    observed: list[tuple[str, bool]] = []

    def listener(update, decision) -> None:
        observed.append(
            (canonical_update_text(update), decision.applied))

    service.subscribe(listener)

    report = FaultRunReport(seed=seed, schedule=name, spec=spec_text,
                            ops=ops, mix=mix)
    rng = random.Random(seed)
    kinds = _weighted_kinds(rng, ops, mix=mix)

    with fail.armed(spec) as handle:
        for index, kind in enumerate(kinds):
            step = _make_step(kind, rev_twin, rng)
            try:
                if step is None:
                    roll = rng.random()
                    if roll < 0.4:
                        service.verify_consistency()
                    elif roll < 0.8:
                        service.snapshot()
                    else:
                        # pinned view: two reads through one pin must
                        # see one coherent version
                        with service.read_view() as view:
                            verify_documents(service.checker.schema,
                                             list(view.documents))
                            for doc in view.documents:
                                serialize(doc)
                    outcome = "read"
                elif isinstance(step, list):
                    decisions = service.check_batch(step)
                    outcome = ("accepted" if any(
                        d.applied for d in decisions) else "rejected")
                else:
                    decision = service.try_execute(step)
                    outcome = ("accepted" if decision.applied
                               else "rejected")
            except Exception as exc:  # noqa: BLE001 — faults are Exception
                outcome = "errored"
                report.steps.append(StepOutcome(
                    index, kind, outcome, error=repr(exc)))
            else:
                report.steps.append(StepOutcome(index, kind, outcome))
        report.site_counts = dict(handle.counts())
        report.faults_fired = sum(
            fires for _, fires in report.site_counts.values())

    report.accepted = sum(1 for _, applied in observed if applied)
    report.rejected = sum(1 for _, applied in observed if not applied)
    report.errored = sum(
        1 for step in report.steps if step.outcome == "errored")

    # ---- invariant battery (fault-free from here on) -------------------
    _check_locks_released(service, report)

    accepted_texts = [text for text, applied in observed if applied]
    oracle_pub, oracle_rev = _run_oracle(seed, observed, report)

    live = service.snapshot()
    reference = [serialize(oracle_pub), serialize(oracle_rev)]
    if live != reference:
        raise _violation(
            report, "oracle-equality",
            "final store state differs from the fault-free replay of "
            f"the accepted updates ({len(accepted_texts)} accepted)")

    _check_tag_indexes(service.store.documents, report)
    _check_column_stores(service.store.documents, report)

    # the guard's full check runs through the planner's statistics and
    # plan caches; a cache poisoned by a mid-fault must not change the
    # verdict relative to a cache-free check on reparsed documents
    live_violations = service.verify_consistency()
    cold_docs = [parse_document(text) for text in live]
    cold_checker = BruteForceChecker(make_schema(), cold_docs)
    planner.clear_caches()
    cold_violations = cold_checker.check_only()
    if sorted(live_violations) != sorted(cold_violations):
        raise _violation(
            report, "cache-cold-rebuild",
            f"cached full check reports {live_violations!r} but a "
            f"cold check on the same state reports {cold_violations!r}")

    _check_commit_log(service, accepted_texts, report)
    _check_snapshot_epochs(service, report)

    if state_dir is not None:
        _check_durable_recovery(service, state_dir, accepted_texts,
                                seed, report)
    return report


def _check_durable_recovery(service: CheckingService, state_dir: str,
                            accepted: list[str], seed: int,
                            report) -> None:
    """Recovery from the scratch directory must reproduce the state.

    The recovered commit log must extend the accepted sequence by at
    most the one trailing record a crash can leave logged-but-
    unapplied, the recovered documents must equal a fault-free
    sequential replay of that log, and the full constraint check must
    be clean.
    """
    service.close()
    recovered = CheckingService.recover(make_schema(), state_dir)
    try:
        texts = [canonical_update_text(entry.update)
                 for entry in recovered.committed_updates()]
        if texts[:len(accepted)] != accepted \
                or len(texts) > len(accepted) + 1:
            raise _violation(
                report, "durable-recovery",
                f"recovered commit log ({len(texts)} entries) is not "
                f"the accepted sequence ({len(accepted)} entries) "
                "plus at most one trailing logged-but-unapplied "
                "record")
        pub_doc, rev_doc = _fresh_corpus(seed)
        oracle = BruteForceChecker(make_schema(), [pub_doc, rev_doc])
        for position, text in enumerate(texts):
            if not oracle.try_execute(text).applied:
                raise _violation(
                    report, "durable-recovery",
                    f"recovered commit-log entry #{position} is "
                    f"rejected by the fault-free oracle:\n{text}")
        reference = [serialize(pub_doc), serialize(rev_doc)]
        if recovered.snapshot() != reference:
            raise _violation(
                report, "durable-recovery",
                "recovered store differs from the sequential replay "
                f"of its own {len(texts)}-entry commit log")
        violations = recovered.verify_consistency()
        if violations:
            raise _violation(
                report, "durable-recovery",
                f"recovered store violates constraints: {violations}")
    finally:
        recovered.close()


def run_matrix(seeds: "list[int]", schedules: "list[str]",
               ops: int = 40, mix: str = "default",
               progress=None) -> list[FaultRunReport]:
    """Run every (seed, schedule) pair; raise on the first violation."""
    reports = []
    for schedule in schedules:
        for seed in seeds:
            report = run_scenario(seed, schedule, ops=ops, mix=mix)
            if progress is not None:
                progress(report)
            reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# crash-restart harness
# ---------------------------------------------------------------------------


#: Kill sites for the restart matrix: each entry simulates the process
#: dying at one seam (the trigger picks a mid-workload occurrence),
#: after which :func:`run_restart_scenario` recovers from disk and
#: asserts the recovered state.  ``persistence.replay_record`` is the
#: recursive case — the crash happens *during recovery* and the retry
#: must succeed from the same snapshot and log.
RESTART_SITES: dict[str, str] = {
    "persistence.pre_fsync": "count:3",
    "persistence.post_append_pre_apply": "count:3",
    "persistence.snapshot_rename": "count:1",
    "persistence.replay_record": "count:2",
    "service.store.pre_commit_append": "count:3",
    "xupdate.apply.post_op": "count:5",
    "core.guard.post_check": "count:4",
}


@dataclass
class RestartRunReport:
    """Everything one :func:`run_restart_scenario` call observed."""

    seed: int
    site: str
    trigger: str
    ops: int
    accepted: int = 0
    rejected: int = 0
    errored: int = 0
    faults_fired: int = 0
    #: WAL tail records the final recovery replayed through the checker
    replayed: int = 0
    #: recovered commit-log entries beyond the listener-accepted prefix
    extra_committed: int = 0

    @property
    def repro_command(self) -> str:
        """Shell command that reruns this exact scenario."""
        return (f"python -m repro faultcheck --crash-restart "
                f"--seed {self.seed} --site {self.site} "
                f"--ops {self.ops}")

    def summary(self) -> str:
        return (f"seed={self.seed} site={self.site} "
                f"trigger={self.trigger} ops={self.ops}: "
                f"{self.accepted} accepted, {self.rejected} rejected, "
                f"{self.errored} errored, {self.faults_fired} faults "
                f"fired, {self.replayed} replayed, "
                f"{self.extra_committed} extra committed")


def run_restart_scenario(seed: int, site: str,
                         ops: int = 40) -> RestartRunReport:
    """Kill the durable service at ``site``, restart, and verify.

    Runs the standard workload against a durable service with the kill
    site armed, treats the injected fault as the process dying (the
    write-ahead log freezes itself at persistence seams), then
    recovers from the on-disk state and asserts:

    * the recovered commit log is the listener-accepted sequence plus
      at most one trailing logged-but-unapplied record;
    * the recovered documents are byte-identical to a fault-free
      sequential oracle replay of that commit log;
    * the full constraint check, the incremental tag indexes and the
      column stores are clean on the recovered state;
    * a second recovery from the same directory is deterministic
      (byte-identical state and commit log);
    * the recovered service still accepts new updates (liveness).
    """
    trigger = RESTART_SITES.get(site, "count:3")
    report = RestartRunReport(seed=seed, site=site, trigger=trigger,
                              ops=ops)
    state_dir = tempfile.mkdtemp(prefix="repro-restart-")
    try:
        _run_restart_body(seed, site, trigger, ops, state_dir, report)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    return report


def _run_restart_body(seed: int, site: str, trigger: str, ops: int,
                      state_dir: str,
                      report: RestartRunReport) -> None:
    planner.clear_caches()
    schema = make_schema()
    pub_doc, rev_doc = _fresh_corpus(seed)
    # the replay_record site fires during recovery, not the workload:
    # build the pre-crash state fault-free with a wide-open snapshot
    # interval so the WAL tail is long enough to die in the middle of
    replay_site = site == "persistence.replay_record"
    interval = 10 ** 6 if replay_site else 8
    service = CheckingService.open_durable(
        schema, [pub_doc, rev_doc], state_dir,
        snapshot_interval=interval)

    _, rev_twin = _fresh_corpus(seed)
    observed: list[tuple[str, bool]] = []

    def listener(update, decision) -> None:
        observed.append(
            (canonical_update_text(update), decision.applied))

    service.subscribe(listener)
    rng = random.Random(seed)
    kinds = _weighted_kinds(rng, ops)

    workload_spec = {} if replay_site else {site: trigger}
    with fail.armed(workload_spec) as handle:
        for kind in kinds:
            step = _make_step(kind, rev_twin, rng)
            try:
                if step is None:
                    service.verify_consistency()
                elif isinstance(step, list):
                    service.check_batch(step)
                else:
                    service.try_execute(step)
            except Exception:  # noqa: BLE001 — faults are Exception
                report.errored += 1
        report.faults_fired = sum(
            fires for _, (_, fires) in handle.counts().items())
    service.close()

    report.accepted = sum(1 for _, applied in observed if applied)
    report.rejected = sum(1 for _, applied in observed if not applied)
    accepted = [text for text, applied in observed if applied]

    if replay_site:
        # recovery itself dies at the armed site ...
        with fail.armed({site: trigger}) as handle:
            try:
                crashed = CheckingService.recover(schema, state_dir)
            except Exception:  # noqa: BLE001 — faults are Exception
                pass
            else:
                crashed.close()
                raise _violation(
                    report, "restart-recovery",
                    f"armed recovery at {site} completed without the "
                    "fault firing")
            report.faults_fired = sum(
                fires for _, (_, fires) in handle.counts().items())
        # ... and the retry must succeed from the same snapshot + log

    recovered = CheckingService.recover(schema, state_dir)
    try:
        _check_recovered_state(recovered, accepted, seed, report)
        first_snapshot = recovered.snapshot()
        first_log = [canonical_update_text(entry.update)
                     for entry in recovered.committed_updates()]
    finally:
        recovered.close()

    # second recovery: determinism, then liveness on the result
    again = CheckingService.recover(schema, state_dir)
    try:
        if again.snapshot() != first_snapshot or first_log != [
                canonical_update_text(entry.update)
                for entry in again.committed_updates()]:
            raise _violation(
                report, "restart-determinism",
                "two recoveries from the same directory disagree")
        probe = _pub_xupdate(
            [f"Post Restart {seed}", f"Probe Author {seed}"])
        decision = again.try_execute(probe)
        if not decision.applied:
            raise _violation(
                report, "restart-liveness",
                "recovered service rejected an always-legal update: "
                f"{decision.violated}")
    finally:
        again.close()


def _check_recovered_state(recovered: CheckingService,
                           accepted: list[str], seed: int,
                           report: RestartRunReport) -> None:
    info = recovered.last_recovery
    assert info is not None
    report.replayed = info.replayed
    texts = [canonical_update_text(entry.update)
             for entry in recovered.committed_updates()]
    report.extra_committed = len(texts) - len(accepted)
    if texts[:len(accepted)] != accepted \
            or len(texts) > len(accepted) + 1:
        raise _violation(
            report, "restart-commit-log",
            f"recovered commit log ({len(texts)} entries) is not the "
            f"accepted sequence ({len(accepted)} entries) plus at "
            "most one trailing logged-but-unapplied record")
    pub_doc, rev_doc = _fresh_corpus(seed)
    oracle = BruteForceChecker(make_schema(), [pub_doc, rev_doc])
    for position, text in enumerate(texts):
        if not oracle.try_execute(text).applied:
            raise _violation(
                report, "restart-oracle",
                f"recovered commit-log entry #{position} is rejected "
                f"by the fault-free oracle:\n{text}")
    if recovered.snapshot() != [serialize(pub_doc),
                                serialize(rev_doc)]:
        raise _violation(
            report, "restart-oracle",
            "recovered store differs from the sequential oracle "
            f"replay of its own {len(texts)}-entry commit log")
    violations = recovered.verify_consistency()
    if violations:
        raise _violation(
            report, "restart-consistency",
            f"recovered store violates constraints: {violations}")
    _check_tag_indexes(recovered.store.documents, report)
    _check_column_stores(recovered.store.documents, report)


def run_restart_matrix(seeds: "list[int]",
                       sites: "list[str] | None" = None,
                       ops: int = 40,
                       progress=None) -> list[RestartRunReport]:
    """Run every (seed, kill-site) pair; raise on first violation."""
    reports = []
    for site in (sites if sites is not None
                 else sorted(RESTART_SITES)):
        for seed in seeds:
            report = run_restart_scenario(seed, site, ops=ops)
            if progress is not None:
                progress(report)
            reports.append(report)
    return reports
