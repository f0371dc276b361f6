"""Load generators: the closed loop, the open-loop mix, the channels.

A *channel* sends one worker-style request (``{"op": ..., ...}``) and
returns ``(status, response)``.  The same closed loop drives the HTTP
edge, raw frames to a spawned worker and an in-process
``ShardWorker.handle``, so all three see the identical request stream.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from measure import CpuMeter, Speed
from workloads import UID, Update, UpdateStream

from repro.service.net.client import ServiceClient, ServiceClientError
from repro.service.net.frames import FrameError, recv_frame, send_frame
from repro.service.net.worker import ShardWorker
from repro.service.store import CheckingService

#: whole cycles per round of the closed loop (a round ends on a cycle
#: boundary): 1 cycle of single updates, or 7 batches of 32 = 32 cycles
_CYCLE = 7
SWITCH_INTERVAL_S = 0.001


@dataclass
class Window:
    """What one timed window measured (latencies in seconds)."""

    update: "list[float]" = field(default_factory=list)
    accept: "list[float]" = field(default_factory=list)
    reject: "list[float]" = field(default_factory=list)
    batch: "list[float]" = field(default_factory=list)
    read: "list[float]" = field(default_factory=list)
    #: CPU seconds the service spent per accepted / rejected update
    #: (a batch's share) and per full check, where a CPU meter is
    #: given; ``*_ref`` these and the latencies rescaled to the
    #: reference speed (:class:`measure.Speed`)
    accept_cpu: "list[float]" = field(default_factory=list)
    reject_cpu: "list[float]" = field(default_factory=list)
    read_cpu: "list[float]" = field(default_factory=list)
    accept_cpu_ref: "list[float]" = field(default_factory=list)
    reject_cpu_ref: "list[float]" = field(default_factory=list)
    read_cpu_ref: "list[float]" = field(default_factory=list)
    update_ref: "list[float]" = field(default_factory=list)
    read_ref: "list[float]" = field(default_factory=list)
    #: open loop: how late each write was issued
    late: "list[float]" = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    updates: int = 0
    reads: int = 0
    accepted: int = 0
    accepted_bytes: int = 0
    cycles: int = 0
    #: length of the write window and of the time reads ran in
    seconds: float = 0.0
    read_seconds: float = 0.0
    errors: "list[str]" = field(default_factory=list)
    #: reference loop times (seconds) sampled during the window
    speed_samples: "list[float]" = field(default_factory=list)
    #: (op, start, seconds) of every request, in issue order
    log: "list[tuple[str, float, float]]" = field(default_factory=list)

    def note_error(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.note_error(message)

    def note_verdict(self, update: Update, decision: "dict | None",
                     latency: float,
                     cpu: "tuple[float, float] | None" = None) -> None:
        """One update's outcome; a missing or unexpected verdict fails.
        ``cpu`` is the service CPU it took and the factor to the
        reference speed (:meth:`measure.CpuMeter.stop`)."""
        self.attempted += 1
        self.updates += 1
        self.update.append(latency)
        if cpu is not None:
            self.update_ref.append(latency * cpu[1])
        if decision is None:
            self.fail("no decision")
            return
        if decision.get("applied") is True:
            self.accepted += 1
            self.accepted_bytes += len(update.text.encode())
            self.accept.append(latency)
            if cpu is not None:
                self.accept_cpu.append(cpu[0])
                self.accept_cpu_ref.append(cpu[0] * cpu[1])
        else:
            self.reject.append(latency)
            if cpu is not None:
                self.reject_cpu.append(cpu[0])
                self.reject_cpu_ref.append(cpu[0] * cpu[1])
        if decision.get("applied") is not update.legal \
                or decision.get("legal") is not update.legal:
            self.fail(f"verdict {decision} for expected "
                      f"legal={update.legal}")

    def note_read(self, violations: "list | None", latency: float,
                  cpu: "tuple[float, float] | None" = None) -> None:
        """One full check; anything but ``[]`` fails."""
        self.attempted += 1
        self.reads += 1
        self.read.append(latency)
        if cpu is not None:
            self.read_cpu.append(cpu[0])
            self.read_cpu_ref.append(cpu[0] * cpu[1])
            self.read_ref.append(latency * cpu[1])
        if violations != []:
            self.fail(f"full check found {violations}")


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def http_channel(client: ServiceClient):
    def call(request: dict) -> "tuple[int, dict]":
        payload = {key: value for key, value in request.items()
                   if key != "op"}
        return client.request("/" + request["op"], payload)
    return call


def frame_channel(sock: socket.socket):
    def call(request: dict) -> "tuple[int, dict]":
        send_frame(sock, request)
        response = recv_frame(sock)
        if response is None:
            raise FrameError("worker closed the connection")
        return (200 if response.get("ok") else 500), response
    return call


def handle_channel(worker: ShardWorker):
    def call(request: dict) -> "tuple[int, dict]":
        response = worker.handle(request)
        return (200 if response.get("ok") else 500), response
    return call


_TRANSPORT_ERRORS = (ServiceClientError, FrameError, OSError)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


def closed_loop(call, stream: UpdateStream, batch: int, *,
                seconds: float = 0.0, rounds: int = 0,
                start_cycle: int = 0, tracer=None, cpu=None,
                window: "Window | None" = None) -> Window:
    """Drive ``call`` with write requests of ``batch`` updates, one at
    a time, until ``seconds`` passed (or for exactly ``rounds``
    rounds), ending on a cycle boundary.  Only the update stream is
    sent: full checks are timed apart, by :func:`full_checks`.
    ``cpu``, when given, is a :class:`measure.CpuMeter` on the
    service's CPU clock.
    The results add to ``window`` when one is given."""
    window = Window() if window is None else window
    updates = stream.updates(start_cycle)
    clock = time.perf_counter
    begin = clock()
    deadline = begin + seconds
    done_rounds = 0
    while True:
        for _ in range(_CYCLE):
            chunk = [next(updates) for _ in range(batch)]
            _write(call, chunk, window, tracer, cpu)
        done_rounds += 1
        window.cycles += batch  # 7 requests of `batch` updates
        if rounds and done_rounds >= rounds:
            break
        if not rounds and clock() >= deadline:
            break
    window.seconds += clock() - begin
    return window


def full_checks(call, window: Window, *, seconds: float = 0.0,
                count: int = 0, tracer=None, cpu=None) -> None:
    """Closed-loop full checks (``check``) into ``window``, back to
    back, for ``seconds`` (or exactly ``count`` of them).  Meant for
    when the documents equal the initial corpus, so every check must
    find nothing."""
    clock = time.perf_counter
    begin = clock()
    deadline = begin + seconds
    done = 0
    while (done < count) if count else (clock() < deadline):
        _check(call, window, tracer, cpu)
        done += 1
    window.read_seconds += clock() - begin


def _request(call, request: dict, window: Window, tracer, kind, cpu):
    """One timed round trip; ``kind(response)`` names it for tracing.
    Returns the response (``None`` when the request failed), its
    latency and the service CPU it took with the factor to the
    reference speed (``None`` without ``cpu``)."""
    clock = time.perf_counter
    response: "dict | None" = None
    with tracer.request() if tracer else nullcontext() as rid:
        cpu_begin = cpu.start() if cpu else 0.0
        begin = clock()
        try:
            status, response = call(request)
        except _TRANSPORT_ERRORS as error:
            status, response = 0, None
            window.note_error(f"{request['op']}: {error}")
        elapsed = clock() - begin
        spent = cpu.stop(cpu_begin) if cpu else None
    if tracer:
        tracer.kinds[rid] = kind(response)
    window.log.append((request["op"], begin, elapsed))
    if response is not None and not 200 <= status < 300:
        window.note_error(f"{request['op']}: HTTP {status} {response}")
        response = None
    return response, elapsed, spent


def _write(call, chunk: "list[Update]", window: Window, tracer,
           cpu) -> None:
    if len(chunk) == 1:
        request = {"op": "update", "uid": UID, "update": chunk[0].text}

        def kind(response):
            applied = (response or {}).get("decision", {}).get("applied")
            return "accept" if applied else "reject"
    else:
        request = {"op": "check_batch", "uid": UID,
                   "updates": [update.text for update in chunk]}

        def kind(response):
            return "batch"
    response, elapsed, spent = _request(call, request, window, tracer,
                                        kind, cpu)
    window.batch.append(elapsed)
    if response is None:
        decisions: list = [None] * len(chunk)
    elif len(chunk) == 1:
        decisions = [response.get("decision")]
    else:
        decisions = list(response.get("decisions") or [])
        if len(decisions) != len(chunk):
            window.note_error(f"{len(decisions)} decisions for "
                              f"{len(chunk)} updates")
            decisions = (decisions + [None] * len(chunk))[:len(chunk)]
    share = None if spent is None else (spent[0] / len(chunk),
                                        spent[1])
    for update, decision in zip(chunk, decisions):
        window.note_verdict(update, decision, elapsed, share)


def _check(call, window: Window, tracer, cpu) -> None:
    response, elapsed, spent = _request(
        call, {"op": "check", "uid": UID}, window, tracer,
        lambda response: "read", cpu)
    window.note_read(None if response is None
                     else response.get("violations"), elapsed, spent)


# ---------------------------------------------------------------------------
# open-loop writer + closed-loop reader (in process)
# ---------------------------------------------------------------------------


def open_loop_mix(service: CheckingService, stream: UpdateStream, *,
                  rate: float, seconds: float, start_cycle: int = 0,
                  tracer=None) -> Window:
    """One writer thread submitting at ``rate`` updates per second on a
    fixed schedule, and one reader thread running full checks back to
    back until the writer is done.  The writer stops scheduling at the
    first whole cycle due after ``seconds``; update latency counts from
    when the update was due.  The CPU time of a call is that of the
    thread making it (the service runs on its caller's thread); the
    reader samples the machine's speed between its checks."""
    window = Window()
    meter = CpuMeter(time.thread_time, Speed())
    lock = threading.Lock()
    writer_done = threading.Event()
    start = threading.Barrier(2)
    clock = time.perf_counter
    crashed: "list[BaseException]" = []

    def traced(kind_of, function):
        if tracer is None:
            return function()
        with tracer.request() as rid:
            result = function()
        tracer.kinds[rid] = kind_of(result)
        return result

    def writer() -> None:
        try:
            start.wait()
            begin = clock()
            updates = stream.updates(start_cycle)
            index = 0
            while True:
                if index % _CYCLE == 0 and index / rate >= seconds:
                    break
                update = next(updates)
                due = begin + index / rate
                pause = due - clock()
                if pause > 0:
                    time.sleep(pause)
                cpu_begin = meter.start(tick=False)
                issued = clock()
                decision = traced(
                    lambda d: "accept" if d.applied else "reject",
                    lambda: service.try_execute(update.text))
                done = clock()
                spent = meter.stop(cpu_begin)
                with lock:
                    window.log.append(("update", issued, done - issued))
                    window.late.append(issued - due)
                    window.batch.append(done - issued)
                    window.note_verdict(update, {
                        "applied": decision.applied,
                        "legal": decision.legal}, done - due, spent)
                index += 1
            with lock:
                window.cycles = index // _CYCLE
                window.seconds = window.read_seconds = clock() - begin
        except BaseException as error:  # noqa: B036 - re-raised below
            crashed.append(error)
        finally:
            writer_done.set()

    def reader() -> None:
        try:
            start.wait()
            while not writer_done.is_set():
                cpu_begin = meter.start()
                begin = clock()
                violations = traced(lambda v: "read",
                                    service.verify_consistency)
                elapsed = clock() - begin
                spent = meter.stop(cpu_begin)
                with lock:
                    window.log.append(("check", begin, elapsed))
                    window.note_read(violations, elapsed, spent)
        except BaseException as error:  # noqa: B036 - re-raised below
            crashed.append(error)

    # the writer rescales by the reader's speed samples: take one first
    meter.speed.tick()
    threads = [threading.Thread(target=writer, name="bench-writer"),
               threading.Thread(target=reader, name="bench-reader")]
    # a 1 ms interpreter switch interval, as in the repository's
    # service load harness: a writer waking while the reader holds the
    # interpreter lock waits at most 1 ms instead of 5 ms, so latency
    # measures blocking on the service rather than the scheduler beat
    previous = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(previous)
    if crashed:
        raise crashed[0]
    window.speed_samples = meter.speed.samples
    return window
