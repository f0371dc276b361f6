"""Span tracing by wrapping each layer's public functions from outside.

Nothing under ``src/`` is edited: :class:`Tracer.install` replaces the
listed functions and methods with timing wrappers at every place the
running process binds them (module globals that imported the function
by name included), and :meth:`Tracer.uninstall` puts the originals
back and proves that no wrapper is left anywhere.

A span records name, start, end, parent span and request id.  Spans
stay in per-thread lists (appends from two threads never race) and are
written out when the run ends.  A layer's self time is its span minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.core.guard import IntegrityGuard, verify_documents
from repro.relational import incremental
from repro.service.locks import ReadWriteLock
from repro.service.net.worker import ShardWorker
from repro.service.persistence import DurableLog, write_snapshot
from repro.service.snapshots import SnapshotManager
from repro.service.store import CheckingService
from repro.xquery.translate import TranslatedQuery
from repro.xtree.node import Document
from repro.xupdate.parser import parse_modifications

_MARK = "__perfbench_wrapper__"

#: (span name, owner, attribute): the layer boundaries, named after
#: the modules that own them
METHODS = (
    ("core.guard", IntegrityGuard, "try_execute"),
    ("core.guard", IntegrityGuard, "check_batch"),
    ("xquery.truth", TranslatedQuery, "truth"),
    ("xtree.clone", Document, "clone"),
    ("service.snapshots.publish", SnapshotManager, "publish"),
    ("service.snapshots.pin", SnapshotManager, "pin"),
    ("service.locks.read_wait", ReadWriteLock, "acquire_read"),
    ("service.locks.write_wait", ReadWriteLock, "acquire_write"),
    ("service.persistence.append", DurableLog, "append"),
    ("service.store", CheckingService, "try_execute"),
    ("service.store", CheckingService, "check_batch"),
    ("service.store.read", CheckingService, "verify_consistency"),
    ("service.net.handle", ShardWorker, "handle"),
)

#: free functions, rebound in every ``repro`` module that holds them
FUNCTIONS = (
    ("xupdate.parse", parse_modifications),
    ("xquery.full_check", verify_documents),
    ("relational.attach", incremental.attach),
    ("service.persistence.snapshot_write", write_snapshot),
)

#: ``os.fsync`` as the persistence layer calls it (``os.fsync(...)``)
FSYNC = "service.persistence.fsync"


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid",
                 "returned_none")

    def __init__(self, name: str, parent: int, rid: "int | None"
                 ) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.rid = rid
        self.returned_none = False

    def as_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.rid]


class Tracer:
    """In-memory span recorder plus the wrapper installation."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: "list[list[Span]]" = []
        self._threads_lock = threading.Lock()
        self._patched: "list[tuple[object, str, object]]" = []
        self._next_rid = 0
        self._rid_lock = threading.Lock()
        #: request id -> kind ("accept", "reject", "batch", "read")
        self.kinds: "dict[int, str]" = {}
        self.gc_events: "list[tuple[int, float]]" = []
        self._gc_start = 0.0

    # -- recording ----------------------------------------------------------

    def _spans(self) -> "list[Span]":
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            self._local.stack = []
            self._local.rid = None
            with self._threads_lock:
                self._threads.append(spans)
        return spans

    def _wrap(self, name: str, function):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans = tracer._spans()
            local = tracer._local
            stack = local.stack
            span = Span(name, stack[-1] if stack else -1, local.rid)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = function(*args, **kwargs)
                span.returned_none = result is None
                return result
            finally:
                span.end = clock()
                stack.pop()

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper

    @contextmanager
    def request(self):
        """One client-level request: a root span with a fresh id.
        The caller stores its kind in :attr:`kinds`."""
        with self._rid_lock:
            rid = self._next_rid
            self._next_rid += 1
        spans = self._spans()
        local = self._local
        previous = local.rid
        local.rid = rid
        span = Span("request", -1, rid)
        spans.append(span)
        local.stack.append(len(spans) - 1)
        span.start = time.perf_counter()
        try:
            yield rid
        finally:
            span.end = time.perf_counter()
            local.stack.pop()
            local.rid = previous

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_events.append(
                (info["generation"],
                 time.perf_counter() - self._gc_start))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, owner, attribute in METHODS:
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self._wrap(name, original))
            self._patched.append((owner, attribute, original))
        for name, original in FUNCTIONS:
            wrapper = self._wrap(name, original)
            for module in _repro_modules():
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        self._patched.append(
                            (module, attribute, original))
        self._patched.append((os, "fsync", os.fsync))
        os.fsync = self._wrap(FSYNC, os.fsync)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every original; raise if any wrapper survives."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        leftovers = installed_wrappers()
        if leftovers:
            raise RuntimeError(f"wrappers left installed: {leftovers}")

    # -- results ------------------------------------------------------------

    def spans(self) -> "list[list[Span]]":
        with self._threads_lock:
            return [list(spans) for spans in self._threads]


def installed_wrappers() -> "list[str]":
    """Where any tracer's wrapper is installed right now."""
    return [f"{module.__name__}.{attribute}"
            for module in [*_repro_modules(), os]
            for attribute, value in _members(module)
            if getattr(value, _MARK, False)]


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _members(module):
    """Module globals plus the attributes of classes it defines."""
    for attribute, value in list(vars(module).items()):
        yield attribute, value
        if isinstance(value, type) \
                and value.__module__ == module.__name__:
            for name, member in list(vars(value).items()):
                yield f"{attribute}.{name}", member


# ---------------------------------------------------------------------------
# per-request aggregation
# ---------------------------------------------------------------------------


def _covered(intervals: "list[tuple[float, float]]") -> float:
    total = 0.0
    last_end = float("-inf")
    for start, end in sorted(intervals):
        if end <= last_end:
            continue
        total += end - max(start, last_end)
        last_end = end
    return total


class RequestProfile:
    """Per-layer time and call counts inside one request."""

    __slots__ = ("rid", "kind", "total", "inclusive", "self_time",
                 "calls", "misses")

    def __init__(self, rid: int, kind: str) -> None:
        self.rid = rid
        self.kind = kind
        self.total = 0.0
        #: outermost-span time per layer (a layer nested in itself,
        #: like a guard calling a guard, counts once)
        self.inclusive: "dict[str, float]" = defaultdict(float)
        self.self_time: "dict[str, float]" = defaultdict(float)
        self.calls: "dict[str, int]" = defaultdict(int)
        #: calls that returned None (pin misses)
        self.misses: "dict[str, int]" = defaultdict(int)


def profiles(tracer: Tracer) -> "list[RequestProfile]":
    """Fold every thread's spans into one profile per request."""
    result: "dict[int, RequestProfile]" = {}
    for spans in tracer.spans():
        children: "dict[int, list[int]]" = defaultdict(list)
        for index, span in enumerate(spans):
            if span.parent >= 0:
                children[span.parent].append(index)
        for index, span in enumerate(spans):
            if span.rid is None or span.rid not in tracer.kinds:
                continue
            profile = result.get(span.rid)
            if profile is None:
                profile = result[span.rid] = RequestProfile(
                    span.rid, tracer.kinds[span.rid])
            duration = span.end - span.start
            if span.parent < 0:
                profile.total += duration
            covered = _covered(
                [(spans[child].start, spans[child].end)
                 for child in children.get(index, ())])
            profile.self_time[span.name] += duration - covered
            profile.calls[span.name] += 1
            if span.returned_none:
                profile.misses[span.name] += 1
            ancestor = span.parent
            nested = False
            while ancestor >= 0:
                if spans[ancestor].name == span.name:
                    nested = True
                    break
                ancestor = spans[ancestor].parent
            if not nested:
                profile.inclusive[span.name] += duration
    return [result[rid] for rid in sorted(result)]


def span_dump(tracer: Tracer) -> "list[list]":
    return [span.as_json() for spans in tracer.spans() for span in spans]
