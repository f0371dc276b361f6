"""Deterministic fault injection: named failpoints on the hot path.

The transactional machinery grown around the paper's checkers —
:class:`~repro.xupdate.apply.TransactionLog`, the guard's probe paths,
the :class:`~repro.service.CheckingService` commit log, the column
stores' incremental deltas — claims to keep the store consistent under
*any* mid-flight failure.  This module makes that claim testable: the
instrumented modules call :meth:`fail.point(name) <FailPointRegistry.
point>` at every seam of the update/check/commit path, and a test (or
the ``repro faultcheck`` harness) *arms* a subset of those sites with
deterministic triggers that raise :class:`FailPointError` at exactly
chosen hits.

Design constraints, in order:

1. **Zero overhead unarmed.**  Production code pays one dictionary
   lookup per site when nothing is armed (the registry's dict is
   empty, ``dict.get`` returns ``None``, done).  No locks, no string
   formatting, no counters.  ``benchmarks/test_failpoint_overhead.py``
   keeps this honest.
2. **Deterministic.**  Triggers are counted or seeded; the same
   schedule against the same workload fires at the same hits.  No
   wall-clock, no global entropy.
3. **Accountable.**  Every armed site counts hits and fires, so a
   test can assert a schedule actually exercised the seam it targets
   instead of passing vacuously.

Trigger spec grammar (used by :meth:`FailPointRegistry.armed`, the
``REPRO_FAILPOINTS`` environment variable and ``repro faultcheck
--schedule``)::

    spec     := entry (';' entry)*
    entry    := site '=' trigger ('@thread=' pattern)?
    trigger  := 'count:' N          # fire once, on the Nth hit
              | 'every:' N          # fire on hits N, 2N, 3N, ...
              | 'prob:' P (':' S)?  # fire with probability P, RNG
                                    # seeded with S (default 0)

``pattern`` is an :mod:`fnmatch` glob matched against the hitting
thread's name — the filter for concurrency tests that want to fault
one writer while its peers proceed.

Example::

    with fail.armed({"core.guard.post_check": "count:2"}) as fp:
        ...
        assert fp.fired("core.guard.post_check")

or, from the outside::

    REPRO_FAILPOINTS="xupdate.apply.pre_op=count:3" repro guard ...
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from fnmatch import fnmatchcase
from typing import Iterator

from repro.analysis.concurrency import guarded_by, make_lock

__all__ = [
    "FailPointError",
    "FailPointRegistry",
    "SITES",
    "Trigger",
    "fail",
]


class FailPointError(Exception):
    """The exception an armed failpoint injects.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the library
    never catches it as part of normal error handling, so an injected
    fault propagates exactly like an unforeseen runtime failure
    (``MemoryError``, a bug) would — which is the condition the
    crash-consistency harness is probing.

    Attributes:
        site: the failpoint name that fired.
        hit: the 1-based hit number at which it fired.
    """

    def __init__(self, site: str, hit: int) -> None:
        self.site = site
        self.hit = hit
        super().__init__(f"injected fault at {site!r} (hit {hit})")


#: Catalog of instrumented sites: name → where it sits and what an
#: injected fault there simulates.  ``point()`` does not require the
#: site to be listed (instrumentation may grow faster than the
#: catalog), but schedules are validated against it to catch typos.
SITES: dict[str, str] = {
    "xupdate.apply.pre_op":
        "TransactionLog.apply, before the operation executes — the "
        "update fails before touching the document",
    "xupdate.apply.post_op":
        "TransactionLog.apply, after the undo record is logged — a "
        "later operation of the same update will never run",
    "xupdate.rollback.pre":
        "TransactionLog abort, before any compensation runs — the "
        "first rollback attempt dies and is retried once",
    "xupdate.rollback.post":
        "TransactionLog abort, after every compensation ran — the "
        "rollback succeeded but its caller sees an error",
    "core.guard.post_check":
        "IntegrityGuard, between a passed check and the apply — "
        "early detection decided, execution fails anyway",
    "core.guard.probe.mid":
        "apply-check-rollback probe, between the probe apply and the "
        "consistency check — the probe must still roll back",
    "service.locks.post_read_acquire":
        "ReadWriteLock.read_locked, after acquisition — the reader "
        "dies while holding the lock",
    "service.locks.post_write_acquire":
        "ReadWriteLock.write_locked, after acquisition — the writer "
        "dies while holding the lock",
    "service.store.pre_commit_append":
        "CheckingService, after the checker committed and before the "
        "commit-log append — the applied update goes unlogged",
    "planner.stats.refresh":
        "check planner, while refreshing per-document statistics for "
        "a (re)plan",
    "planner.plan_cache.insert":
        "check planner, before a fresh plan enters the plan cache",
    "columns.delta.apply":
        "column store mutation listener, after the store is marked "
        "dirty and before the delta patches any column — the store "
        "self-heals with a full rebuild on the next read",
    "columns.delta.settle":
        "column store mutation listener, after the delta patched the "
        "columns and before the document revision is stamped back — "
        "a fully-applied delta is discarded and rebuilt",
    "columns.rebuild":
        "column store validation, before a dirty store rebuilds its "
        "materialized tables and indexes from the DOM",
    "service.snapshots.publish":
        "snapshot publisher, after the manager is marked dirty and "
        "before the new snapshot version installs — readers see no "
        "pinnable snapshot and repair one under the read lock",
    "service.snapshots.pin":
        "snapshot pin, after the pin count is taken and before the "
        "snapshot is handed to the reader — the pin must be released "
        "so retirement still drains",
    "service.snapshots.retire":
        "epoch retirement, after a superseded snapshot is queued and "
        "before unpinned versions are reclaimed — the next publish or "
        "unpin must finish the reclaim",
    "persistence.pre_fsync":
        "DurableLog.append, between the record's first and last bytes "
        "reaching the file and before fsync — the process dies with a "
        "torn trailing record that recovery must truncate",
    "persistence.post_append_pre_apply":
        "durable pre-commit hook, after the WAL record is fsync'd and "
        "before the update commits in memory — logged but never "
        "applied; restart-and-replay must apply it",
    "persistence.snapshot_rename":
        "snapshot writer, after the temp file is written and fsync'd "
        "and before the atomic rename installs it — the previous "
        "snapshot stays current and the temp file is ignored",
    "persistence.replay_record":
        "recovery, before a WAL tail record is replayed through the "
        "checker — recovery dies mid-replay and a retry must succeed "
        "from the same snapshot and log",
}


class Trigger:
    """A parsed firing rule: when does an armed site actually raise."""

    __slots__ = ("kind", "value", "seed", "thread_pattern", "_rng")

    def __init__(self, kind: str, value: float, seed: int = 0,
                 thread_pattern: str | None = None) -> None:
        if kind not in ("count", "every", "prob"):
            raise ValueError(f"unknown trigger kind {kind!r}")
        if kind in ("count", "every") and (value != int(value)
                                           or value < 1):
            raise ValueError(
                f"{kind} trigger needs a positive integer, got {value}")
        if kind == "prob" and not 0.0 <= value <= 1.0:
            raise ValueError(
                f"prob trigger needs a probability in [0, 1], "
                f"got {value}")
        self.kind = kind
        self.value = value
        self.seed = seed
        self.thread_pattern = thread_pattern
        self._rng = random.Random(seed) if kind == "prob" else None

    @classmethod
    def parse(cls, text: str) -> "Trigger":
        """Parse one trigger spec (``count:2``, ``every:3``,
        ``prob:0.25:7``, optionally ``@thread=...``)."""
        text = text.strip()
        thread_pattern = None
        if "@thread=" in text:
            text, _, thread_pattern = text.partition("@thread=")
            text = text.strip()
            thread_pattern = thread_pattern.strip()
            if not thread_pattern:
                raise ValueError("empty @thread= filter")
        parts = text.split(":")
        kind = parts[0].strip()
        try:
            if kind in ("count", "every"):
                if len(parts) != 2:
                    raise ValueError
                return cls(kind, int(parts[1]),
                           thread_pattern=thread_pattern)
            if kind == "prob":
                if len(parts) not in (2, 3):
                    raise ValueError
                seed = int(parts[2]) if len(parts) == 3 else 0
                return cls(kind, float(parts[1]), seed=seed,
                           thread_pattern=thread_pattern)
        except ValueError:
            pass
        raise ValueError(
            f"malformed trigger spec {text!r} (expected count:N, "
            f"every:N or prob:P[:SEED], optionally @thread=GLOB)")

    def matches_thread(self, thread_name: str) -> bool:
        return self.thread_pattern is None \
            or fnmatchcase(thread_name, self.thread_pattern)

    def decide(self, eligible_hit: int, fires_so_far: int) -> bool:
        """Whether the ``eligible_hit``-th matching hit fires.

        Called under the registry lock, so the probabilistic RNG draws
        form one deterministic per-arming sequence.
        """
        if self.kind == "count":
            return fires_so_far == 0 and eligible_hit == int(self.value)
        if self.kind == "every":
            return eligible_hit % int(self.value) == 0
        assert self._rng is not None
        return self._rng.random() < self.value

    def render(self) -> str:
        if self.kind == "prob":
            text = f"prob:{self.value:g}:{self.seed}"
        else:
            text = f"{self.kind}:{int(self.value)}"
        if self.thread_pattern is not None:
            text += f"@thread={self.thread_pattern}"
        return text


class _ArmedSite:
    """Mutable per-site arming state: the trigger plus accounting."""

    __slots__ = ("site", "trigger", "hits", "eligible_hits", "fires")

    def __init__(self, site: str, trigger: Trigger) -> None:
        self.site = site
        self.trigger = trigger
        #: every time the instrumented line ran while armed
        self.hits = 0
        #: hits that passed the thread filter
        self.eligible_hits = 0
        #: hits that raised
        self.fires = 0


class ArmedHandle:
    """What :meth:`FailPointRegistry.armed` yields: the accounting
    view of one arming session."""

    def __init__(self, sites: dict[str, _ArmedSite],
                 lock: threading.Lock) -> None:
        self._sites = sites
        self._registry_lock = lock

    def hits(self, site: str) -> int:
        """Times the site was reached while this arming was active."""
        with self._registry_lock:
            return self._sites[site].hits

    def fires(self, site: str) -> int:
        """Times the site raised while this arming was active."""
        with self._registry_lock:
            return self._sites[site].fires

    def fired(self, site: str) -> bool:
        return self.fires(site) > 0

    def counts(self) -> dict[str, tuple[int, int]]:
        """site → (hits, fires) for every armed site."""
        with self._registry_lock:
            return {name: (armed.hits, armed.fires)
                    for name, armed in self._sites.items()}

    def assert_fired(self, *sites: str) -> None:
        """Fail loudly when a schedule never exercised its targets."""
        quiet = [site for site in (sites or self._sites)
                 if not self.fired(site)]
        if quiet:
            raise AssertionError(
                "failpoint site(s) never fired: " + ", ".join(quiet))


ScheduleSpec = "dict[str, str | Trigger] | str | None"


def parse_schedule(spec: "dict[str, str | Trigger] | str",
                   known_only: bool = True) -> dict[str, Trigger]:
    """Normalize a schedule (mapping or ``a=b;c=d`` text) to triggers."""
    entries: dict[str, Trigger] = {}
    if isinstance(spec, str):
        pairs = [entry for entry in spec.split(";") if entry.strip()]
        mapping: dict[str, str | Trigger] = {}
        for pair in pairs:
            site, separator, trigger = pair.partition("=")
            if not separator:
                raise ValueError(
                    f"malformed schedule entry {pair!r} "
                    "(expected site=trigger)")
            mapping[site.strip()] = trigger
    else:
        mapping = dict(spec)
    for site, trigger in mapping.items():
        if known_only and site not in SITES:
            raise ValueError(
                f"unknown failpoint site {site!r}; see "
                "repro.testing.failpoints.SITES (or pass "
                "known_only=False)")
        entries[site] = trigger if isinstance(trigger, Trigger) \
            else Trigger.parse(trigger)
    return entries


@guarded_by("self._registry_lock", "_armed")
class FailPointRegistry:
    """Process-global registry of armed failpoints.

    One instance (:data:`fail`) serves the whole process.  The
    instrumented modules call :meth:`point`; tests arm sites through
    :meth:`armed` (scoped) or the environment (process lifetime).
    """

    def __init__(self) -> None:
        #: armed site → state.  Replaced wholesale (never mutated in
        #: place) on arm/disarm, so :meth:`point` may read it without
        #: the lock: under the GIL ``dict.get`` on a stable reference
        #: is atomic, and an unarmed registry is an *empty* dict —
        #: the advertised single-lookup fast path.
        self._armed: dict[str, _ArmedSite] = {}
        self._registry_lock = make_lock("testing.failpoints")

    def point(self, site: str) -> None:
        """Fault-injection site: no-op unless ``site`` is armed.

        The unlocked read is the documented benign fast path — see the
        ``_armed`` comment in :meth:`__init__`.
        """
        armed = self._armed.get(site)  # lock: ignore
        if armed is None:
            return
        self._hit(armed)

    def _hit(self, armed: _ArmedSite) -> None:
        with self._registry_lock:
            armed.hits += 1
            trigger = armed.trigger
            if not trigger.matches_thread(
                    threading.current_thread().name):
                return
            armed.eligible_hits += 1
            if not trigger.decide(armed.eligible_hits, armed.fires):
                return
            armed.fires += 1
            hit = armed.hits
        raise FailPointError(armed.site, hit)

    def active_sites(self) -> dict[str, str]:
        """Currently armed site → rendered trigger spec."""
        with self._registry_lock:
            return {name: armed.trigger.render()
                    for name, armed in self._armed.items()}

    @contextmanager
    def armed(self, schedule: "dict[str, str | Trigger] | str",
              known_only: bool = True) -> Iterator[ArmedHandle]:
        """Arm a schedule for the duration of the block.

        Nested armings compose: inner schedules shadow outer ones per
        site and the outer arming (with its counters) is restored on
        exit.  Yields an :class:`ArmedHandle` for hit accounting.
        """
        triggers = parse_schedule(schedule, known_only=known_only)
        session = {site: _ArmedSite(site, trigger)
                   for site, trigger in triggers.items()}
        with self._registry_lock:
            previous = self._armed
            merged = dict(previous)
            merged.update(session)
            self._armed = merged
        try:
            yield ArmedHandle(session, self._registry_lock)
        finally:
            with self._registry_lock:
                restored = {
                    name: armed
                    for name, armed in self._armed.items()
                    if session.get(name) is not armed}
                for name, armed in previous.items():
                    if name in session and name not in restored:
                        restored[name] = armed
                self._armed = restored

    def arm_persistent(self,
                       schedule: "dict[str, str | Trigger] | str",
                       known_only: bool = True) -> ArmedHandle:
        """Arm without a scope (environment/CLI use); see
        :meth:`disarm_all`."""
        triggers = parse_schedule(schedule, known_only=known_only)
        session = {site: _ArmedSite(site, trigger)
                   for site, trigger in triggers.items()}
        with self._registry_lock:
            merged = dict(self._armed)
            merged.update(session)
            self._armed = merged
        return ArmedHandle(session, self._registry_lock)

    def disarm_all(self) -> None:
        with self._registry_lock:
            self._armed = {}


#: The process-global registry every instrumented module imports.
fail = FailPointRegistry()


def _arm_from_environment(registry: FailPointRegistry) -> None:
    spec = os.environ.get("REPRO_FAILPOINTS", "").strip()
    if spec:
        registry.arm_persistent(spec)


_arm_from_environment(fail)
