"""Small measurement helpers: percentiles, RSS, disk use, CPU time,
machine speed, noise."""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import deque
from pathlib import Path


def percentile(values: "list[float]", fraction: float) -> float:
    """Nearest-rank percentile (no interpolation) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, fraction: float) -> int:
    """Samples strictly above the ``fraction`` percentile of ``count``."""
    return count - max(1, math.ceil(fraction * count))


def peak_rss_mib(pid: "int | str" = "self") -> float:
    """``VmHWM`` of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def tree_bytes(directory: Path) -> int:
    return sum(path.stat().st_size
               for path in directory.rglob("*") if path.is_file())


class CpuClock:
    """CPU seconds spent so far by the main threads of ``pids``.

    Read from ``/proc/<pid>/schedstat``, the scheduler's own count in
    nanoseconds.  With paravirtual steal accounting (as on KVM guests)
    it leaves out time the hypervisor gave to other machines, and it
    never counts time a thread waited in the run queue, so a busy host
    slows the wall clock of a request but not its CPU time.  Each
    service process answers requests on its main thread.
    """

    def __init__(self, pids: "list[int]") -> None:
        self._fds = [os.open(f"/proc/{pid}/schedstat", os.O_RDONLY)
                     for pid in pids]

    def __call__(self) -> float:
        return sum(int(os.pread(fd, 128, 0).split()[0])
                   for fd in self._fds) / 1e9

    def close(self) -> None:
        for fd in self._fds:
            os.close(fd)
        self._fds = []


#: thread CPU seconds :func:`reference_loop` takes at the reference
#: speed, about its median on the 2-vCPU VM the bounds were set on.
#: The ``*_ref`` metrics are times rescaled to that speed.
REFERENCE_LOOP_S = 0.0013


class _Node:
    __slots__ = ("name", "children")

    def __init__(self, name: str, children: list) -> None:
        self.name = name
        self.children = children


def _tree(depth: int, name: str = "0") -> _Node:
    return _Node(name, [] if depth == 0 else
                 [_tree(depth - 1, f"{name}.{index}")
                  for index in range(4)])


#: 5461 nodes, about 1 MB: walked by :func:`reference_loop`
_REFERENCE_TREE = _tree(6)


def reference_loop() -> float:
    """Thread CPU seconds of a fixed walk over a tree of small objects
    that fills a dict, the kind of work the checker does on its
    documents.  When the machine slows down, its time follows the
    program's more closely than
    an arithmetic loop's does: over 4-second stretches of back-to-back
    full checks of a 32 KiB corpus, the ratio of the two varied by 3%
    (coefficient of variation) against 7% for such a loop."""
    begin = time.thread_time()
    seen = {}
    stack = [_REFERENCE_TREE]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        seen[node.name] = len(node.children)
    return time.thread_time() - begin


class Speed:
    """The machine's speed, sampled between requests.

    On a shared VM the CPU time of the same code drifts by 20-40% over
    minutes and switches between a fast and a slow mode every few
    seconds; a CPU clock cannot leave that out.  :meth:`tick` runs
    :func:`reference_loop` at most every ``every_s`` seconds, and
    :meth:`scale` is the factor that rescales a time measured now to
    the reference speed, from the median of the last ``keep`` loop
    times.  The loop is the benchmark's own code, so a change to the
    program does not move it.
    """

    def __init__(self, every_s: float = 0.05, keep: int = 5) -> None:
        self._every = every_s
        self._recent: deque = deque(maxlen=keep)
        self._last = -math.inf
        #: every loop time, in seconds
        self.samples: "list[float]" = []

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last >= self._every or not self._recent:
            self._last = now
            seconds = reference_loop()
            self._recent.append(seconds)
            self.samples.append(seconds)

    def scale(self) -> float:
        return REFERENCE_LOOP_S / statistics.median(list(self._recent))


class CpuMeter:
    """CPU time of one request, with the factor that rescales it (or
    its latency) to the reference speed."""

    def __init__(self, clock, speed: Speed) -> None:
        self.clock = clock
        self.speed = speed

    def start(self, tick: bool = True) -> float:
        if tick:
            self.speed.tick()
        return self.clock()

    def stop(self, begin: float) -> "tuple[float, float]":
        return self.clock() - begin, self.speed.scale()


def noise_reference_s() -> float:
    """Seconds for a fixed pure-Python loop: a machine-noise reference
    recorded before and after each run, never used to normalise a
    metric (the ``*_ref`` metrics use :class:`Speed`'s samples, taken
    between requests)."""
    begin = time.perf_counter()
    total = 0
    for index in range(600_000):
        total += index * index % 7
    return time.perf_counter() - begin


def cpu_ticks() -> "list[int]":
    """The machine-wide ``cpu`` line of ``/proc/stat``: user, nice,
    system, idle, iowait, irq, softirq, steal, ... in clock ticks."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: "list[int]", after: "list[int]") -> float:
    """Share of CPU time the hypervisor took from this machine between
    two :func:`cpu_ticks` readings (0 where none is reported)."""
    deltas = [end - begin for begin, end in zip(before, after)]
    total = sum(deltas[:8])
    return deltas[7] / total if len(deltas) > 7 and total else 0.0


def fsync_reference_ms(directory: Path, count: int = 50) -> float:
    """Median milliseconds of ``count`` fsyncs, each after a small
    append to a scratch file in ``directory``: a disk noise reference,
    recorded beside each run and never used to normalise a metric."""
    path = directory / "fsync-reference"
    times = []
    with open(path, "ab") as handle:
        for _ in range(count):
            handle.write(b"x" * 256)
            handle.flush()
            begin = time.perf_counter()
            os.fsync(handle.fileno())
            times.append(time.perf_counter() - begin)
    path.unlink()
    return percentile(times, 0.5) * 1000.0


def child_pids(parent: int) -> "list[int]":
    """Direct children of ``parent`` (scans ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after ")"
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == parent:
            children.append(int(entry))
    return children


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(
                errors="replace")
    except OSError:
        return ""
