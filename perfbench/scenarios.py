"""Set up, drive, check and tear down one workload run."""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from drive import (
    Window,
    closed_loop,
    frame_channel,
    full_checks,
    handle_channel,
    http_channel,
    open_loop_mix,
)
from edge import FrameWorker, Serve, service_config
from measure import (
    CpuClock,
    CpuMeter,
    Speed,
    beyond,
    peak_rss_mib,
    percentile,
    tree_bytes,
)
from trace import Tracer, installed_wrappers, profiles, span_dump
from workloads import (
    CYCLE,
    INPROC_RATE,
    UID,
    UpdateStream,
    Workload,
    make_corpus,
    stream_digest,
)

from repro.datagen.running_example import make_schema
from repro.service.net.client import ServiceClient
from repro.service.net.worker import SHARD_DIR_PREFIX, ShardWorker
from repro.service.store import CheckingService
from repro.xtree.serializer import serialize

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: setups per untraced run; setup_s is the median of their times, each
#: rescaled to the reference speed sampled between its phases (raw,
#: set-up times follow the machine's speed: a set of ten runs in a
#: fast spell had a median 35% below one in a slow spell)
SETUPS = 5
#: warm-up rounds before timing (a round is 1 cycle of single updates,
#: or 7 batches), then warm-up full checks
WARM_ROUNDS = 2
WARM_CHECKS = 3
#: an edge window alternates write and read phases in slices of about
#: this many seconds, so that both sample the whole run: the machine's
#: speed drifts by 10-20% over tens of seconds
SLICE_S = 3.0
#: share of a slice that writes; the rest is its read phase, full
#: checks on the restored corpus with no writer running
WRITE_SHARE = 0.75


@dataclass
class Report:
    #: metric name -> (value, sample count)
    metrics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    spans: "list | None" = None
    #: (op, start offset, seconds) of every timed request
    requests: "list | None" = None
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def absorb(self, label: str, window: Window) -> None:
        """Count a window's operations and keep its first errors."""
        self.attempted += window.attempted
        self.failed += window.failed
        if window.errors:
            self.meta.setdefault("errors", {})[label] = window.errors

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (value, samples)

    def put_percentile(self, name: str, values: "list[float]",
                       fraction: float,
                       independent: "int | None" = None) -> None:
        """A latency percentile in ms.  Warns when fewer than ten
        independent samples (requests, where one request times several
        updates) lie beyond it."""
        if not values:
            self.warnings.append(f"{name}: no samples")
            self.put(name, 0.0, 0)
            return
        count = len(values) if independent is None else independent
        if fraction > 0.5 and beyond(count, fraction) < 10:
            self.warnings.append(
                f"{name}: only {beyond(count, fraction)} samples "
                "beyond the percentile (want 10)")
        self.put(name, percentile(values, fraction) * 1000.0, count)

    def put_interdecile_mean(self, name: str,
                             values: "list[float]") -> None:
        """The mean of the samples between the 10th and the 90th
        percentile, in ms.  Unlike a median it moves smoothly when the
        machine's speed drifts during a run (a median jumps between
        the modes of a two-speed mix); unlike a plain mean it ignores
        a collector pause landing on a request that rarely gets one."""
        if not values:
            self.warnings.append(f"{name}: no samples")
            self.put(name, 0.0, 0)
            return
        ordered = sorted(values)
        cut = len(ordered) // 10
        middle = ordered[cut:len(ordered) - cut]
        self.put(name, statistics.fmean(middle) * 1000.0, len(values))


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        run_dir: Path) -> Report:
    report = Report()
    digest = stream_digest(workload.size_kib, seed)
    report.meta["stream_digest"] = digest
    other = _child_digest(workload.size_kib, seed)
    report.check("stream is a pure function of the seed",
                 digest == other,
                 f"sha256 {digest[:16]} here, {other[:16]} in a child "
                 "process with another hash seed")
    runner = {("edge", False): _edge, ("edge", True): _edge_traced,
              ("inproc", False): _inproc,
              ("inproc", True): _inproc_traced}
    runner[(workload.mode, trace)](report, workload, seed, seconds,
                                   run_dir)
    return report


def _child_digest(size_kib: int, seed: int) -> str:
    """:func:`stream_digest` computed again in a fresh interpreter
    with a different ``PYTHONHASHSEED``: equal digests show the stream
    depends on nothing but the seed, not on this process."""
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join((str(HERE), str(SRC))))
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys; from workloads import stream_digest; "
         "print(stream_digest(int(sys.argv[1]), int(sys.argv[2])))",
         str(size_kib), str(seed)],
        env=env, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=120, check=False)
    if child.returncode != 0:
        return f"child failed: {child.stderr.strip()[-200:]}"
    return child.stdout.strip()


def _warm(call, stream: UpdateStream, batch: int) -> Window:
    """Warm-up: whole rounds of the update stream, then full checks."""
    warm = closed_loop(call, stream, batch, rounds=WARM_ROUNDS)
    full_checks(call, warm, count=WARM_CHECKS)
    return warm


def _edge_window(call, stream: UpdateStream, batch: int,
                 seconds: float, start_cycle: int,
                 tracer=None, cpu=None) -> Window:
    """A timed edge window, in slices of about :data:`SLICE_S`
    seconds.  Each slice sends the update stream alone for
    :data:`WRITE_SHARE` of the slice, ending on a cycle boundary (so
    the documents equal the initial corpus again), then runs a read
    phase of back-to-back full checks for the rest."""
    window = Window()
    slices = max(1, round(seconds / SLICE_S))
    for _ in range(slices):
        closed_loop(call, stream, batch,
                    seconds=seconds * WRITE_SHARE / slices,
                    start_cycle=start_cycle + window.cycles,
                    tracer=tracer, cpu=cpu, window=window)
        full_checks(call, window,
                    seconds=seconds * (1 - WRITE_SHARE) / slices,
                    tracer=tracer, cpu=cpu)
    return window


def _texts(documents) -> "list[str]":
    return [serialize(document) for document in documents]


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def _final_state(report: Report, call, initial: "list[str]",
                 label: str) -> None:
    """Full check empty and documents byte-identical to the start."""
    status, body = call({"op": "check", "uid": UID})
    report.check(f"{label}: final full check empty",
                 status == 200 and body.get("violations") == [],
                 f"{body.get('violations')}")
    status, body = call({"op": "read", "uid": UID})
    report.check(f"{label}: final documents byte-identical",
                 status == 200 and body.get("documents") == initial)


def _recovery(report: Report, state_dir: Path, served: "list[str]",
              acknowledged: int) -> None:
    """Recover the stopped state directory and compare with what was
    served: the same bytes, one WAL record per acknowledged commit."""
    service = CheckingService.recover(make_schema(), state_dir)
    try:
        documents = service.snapshot()
        records = len(service.wal_records())
    finally:
        service.close()
    report.check("recovered documents equal served documents",
                 documents == served)
    report.check("WAL records equal acknowledged commits",
                 records == acknowledged,
                 f"{records} records, {acknowledged} acknowledged")


def _end_to_end(report: Report, window: Window,
                setups: "list[tuple[float, float]]", rss_mib: float,
                stored_ratio: float) -> None:
    report.absorb("window", window)
    report.put("setup_s", statistics.median(ref for _, ref in setups),
               len(setups))
    report.put("setup_wall_s", statistics.median(s for s, _ in setups),
               len(setups))
    report.put("updates_per_s", window.updates / window.seconds,
               window.updates)
    # in a batch every update's verdict arrives with its batch: one
    # independent sample per request
    requests = len(window.batch)
    report.put_percentile("update_p50_ms", window.update, 0.50,
                          requests)
    report.put_percentile("update_p90_ms", window.update, 0.90,
                          requests)
    report.put_percentile("accept_p50_ms", window.accept, 0.50)
    report.put_percentile("reject_p50_ms", window.reject, 0.50)
    report.put_percentile("batch_p50_ms", window.batch, 0.50)
    report.put_percentile("batch_p90_ms", window.batch, 0.90)
    report.put_percentile("read_p50_ms", window.read, 0.50)
    report.put_percentile("read_p90_ms", window.read, 0.90)
    report.put("reads_per_s", window.reads / window.read_seconds,
               window.reads)
    report.put_interdecile_mean("accept_cpu_ms", window.accept_cpu)
    report.put_interdecile_mean("reject_cpu_ms", window.reject_cpu)
    report.put_interdecile_mean("read_cpu_ms", window.read_cpu)
    report.put_interdecile_mean("accept_cpu_ref_ms",
                                window.accept_cpu_ref)
    report.put_interdecile_mean("reject_cpu_ref_ms",
                                window.reject_cpu_ref)
    report.put_interdecile_mean("read_cpu_ref_ms", window.read_cpu_ref)
    report.put_percentile("update_ref_p50_ms", window.update_ref, 0.50,
                          requests)
    report.put_percentile("update_ref_p90_ms", window.update_ref, 0.90,
                          requests)
    report.put_percentile("read_ref_p50_ms", window.read_ref, 0.50)
    report.put_percentile("read_ref_p90_ms", window.read_ref, 0.90)
    # the paper's comparison, checking an update against re-checking
    # the whole documents, both sides measured in the same run
    full_check_ms = report.metrics["read_cpu_ms"][0]
    for verdict in ("accept", "reject"):
        cost_ms, samples = report.metrics[f"{verdict}_cpu_ms"]
        report.put(f"{verdict}_vs_full_check",
                   cost_ms / full_check_ms if full_check_ms else 0.0,
                   samples)
    report.put("peak_rss_mib", rss_mib, 1)
    report.put("stored_bytes_per_user_byte", stored_ratio, 1)
    report.meta["window"] = {
        "seconds": window.seconds, "cycles": window.cycles,
        "read_seconds": window.read_seconds,
        "updates": window.updates, "accepted": window.accepted,
        "reads": window.reads,
        "setups_s": [wall for wall, _ in setups],
        "reference_loop_ms": {
            "samples": len(window.speed_samples),
            "p10": percentile(window.speed_samples, 0.1) * 1000.0,
            "p50": percentile(window.speed_samples, 0.5) * 1000.0,
            "p90": percentile(window.speed_samples, 0.9) * 1000.0}}
    first = window.log[0][1] if window.log else 0.0
    report.requests = [(op, start - first, seconds)
                       for op, start, seconds in window.log]


# ---------------------------------------------------------------------------
# edge workloads
# ---------------------------------------------------------------------------


@dataclass
class _Edge:
    serve: Serve
    client: ServiceClient
    stream: UpdateStream
    initial: "list[str]"
    warm: Window
    setup_s: float
    #: ``setup_s`` at the reference speed
    setup_ref_s: float


def _edge_setup(report: Report, workload: Workload, seed: int,
                run_dir: Path) -> _Edge:
    """Corpus, ``repro serve`` start-up, first shard open, warm-up."""
    speed = Speed(every_s=0.0)
    speed.tick()
    begin = time.perf_counter()
    documents = make_corpus(workload.size_kib, seed)
    texts = _texts(documents)
    speed.tick()
    serve = Serve(SRC, run_dir, texts)
    try:
        host, port = serve.wait_serving()
        speed.tick()
        client = ServiceClient(host, port)
        status, body = client.read(UID)  # opens the shard
        speed.tick()
        initial = body.get("documents") if status == 200 else None
        report.check("served documents equal the generated corpus",
                     initial == texts)
        stream = UpdateStream(documents[1], seed)
        warm = _warm(http_channel(client), stream, workload.batch)
    except BaseException:
        serve.stop()
        raise
    report.absorb("warm-up", warm)
    elapsed = time.perf_counter() - begin
    speed.tick()
    return _Edge(serve, client, stream, initial, warm, elapsed,
                 elapsed * speed.scale())


def _edge_finish(report: Report, edge: _Edge, window: Window
                 ) -> "tuple[float, float]":
    """Final checks, SIGINT stop, recovery; ``(rss, stored ratio)``."""
    _final_state(report, http_channel(edge.client), edge.initial,
                 "edge")
    rss = peak_rss_mib(edge.serve.worker_pid())
    edge.client.close()
    status = edge.serve.stop()
    report.check("repro serve exits 0 on SIGINT", status == 0,
                 f"exit status {status}")
    shard = edge.serve.state_dir / (SHARD_DIR_PREFIX + UID)
    stored = tree_bytes(shard)
    user_bytes = edge.warm.accepted_bytes + window.accepted_bytes
    _recovery(report, shard, edge.initial,
              edge.warm.accepted + window.accepted)
    return rss, stored / user_bytes


def _edge(report: Report, workload: Workload, seed: int,
          seconds: float, run_dir: Path) -> None:
    setups = []
    for attempt in range(SETUPS):
        edge = _edge_setup(report, workload, seed,
                           run_dir / f"serve{attempt}")
        setups.append((edge.setup_s, edge.setup_ref_s))
        if attempt < SETUPS - 1:
            edge.client.close()
            edge.serve.stop()
            shutil.rmtree(edge.serve.run_dir)
    try:
        # the service's CPU: the edge process and its worker
        clock = CpuClock([edge.serve.process.pid,
                          edge.serve.worker_pid()])
        speed = Speed()
        try:
            window = _edge_window(http_channel(edge.client), edge.stream,
                                  workload.batch, seconds,
                                  edge.warm.cycles,
                                  cpu=CpuMeter(clock, speed))
        finally:
            clock.close()
        window.speed_samples = speed.samples
        rss, stored_ratio = _edge_finish(report, edge, window)
    finally:
        edge.serve.stop()
    _wrappers_gone(report)
    _end_to_end(report, window, setups, rss, stored_ratio)


def _replay_worker(report: Report, directory: Path,
                   texts: "list[str]", stream: UpdateStream,
                   batch: int) -> "tuple[ShardWorker, int]":
    """An in-process ShardWorker over a fresh state directory, warmed
    up; returns it with the next cycle index."""
    worker = ShardWorker(0, 1, directory, service_config(texts))
    try:
        warm = _warm(handle_channel(worker), stream, batch)
    except BaseException:
        worker.close()
        raise
    report.absorb("warm-up", warm)
    return worker, warm.cycles


def _edge_traced(report: Report, workload: Workload, seed: int,
                 seconds: float, run_dir: Path) -> None:
    """The edge stream four ways, a quarter of the time each: over
    HTTP, over raw frames, through ``ShardWorker.handle`` in process,
    and the same with the wrappers installed."""
    share = seconds / 4
    batch = workload.batch
    edge = _edge_setup(report, workload, seed, run_dir / "serve")
    try:
        http = _edge_window(http_channel(edge.client), edge.stream,
                            batch, share, edge.warm.cycles)
        report.absorb("http", http)
        _edge_finish(report, edge, http)
    finally:
        edge.serve.stop()
    texts, stream = edge.initial, edge.stream

    frames = FrameWorker(SRC, run_dir / "frames", texts)
    try:
        call = frame_channel(frames.sock)
        warm = _warm(call, stream, batch)
        report.absorb("warm-up", warm)
        framed = _edge_window(call, stream, batch, share, warm.cycles)
        report.absorb("frames", framed)
        _final_state(report, call, texts, "frames")
    finally:
        frames.close()

    worker, start = _replay_worker(report, run_dir / "replay", texts,
                                   stream, batch)
    try:
        plain = _edge_window(handle_channel(worker), stream, batch,
                             share, start)
        report.absorb("replay", plain)
        _final_state(report, handle_channel(worker), texts, "replay")
    finally:
        worker.close()

    # the traced replay continues the stream where the plain one
    # stopped: this process's parse cache has seen those texts
    worker, _ = _replay_worker(report, run_dir / "traced", texts,
                               stream, batch)
    start += plain.cycles
    try:
        wal = run_dir / "traced" / (SHARD_DIR_PREFIX + UID) / "wal.log"
        wal_before = wal.stat().st_size
        tracer = Tracer()
        try:
            tracer.install()
            traced = _edge_window(handle_channel(worker), stream,
                                  batch, share, start, tracer=tracer)
        finally:
            tracer.uninstall()
        report.absorb("traced", traced)
        wal_bytes = wal.stat().st_size - wal_before
        _final_state(report, handle_channel(worker), texts, "traced")
        snapshot_stats = worker.services[UID].snapshots.stats()
    finally:
        worker.close()
    _wrappers_gone(report)

    # the request class the net hops are compared on: rejected single
    # updates (cheap, so the hops are a large share), or whole batches
    def hop_class(window: Window) -> "list[float]":
        return window.reject if batch == 1 else window.batch

    handle_ms = _median_ms(hop_class(plain))
    frame_ms = _median_ms(hop_class(framed))
    report.put("service.net.worker_handle_ms", handle_ms,
               len(hop_class(plain)))
    report.put("service.net.frame_rtt_ms", frame_ms,
               len(hop_class(framed)))
    report.put("service.net.edge_ms",
               _median_ms(hop_class(http)) - frame_ms,
               len(hop_class(http)))
    report.put("driver.late_p95_ms", 0.0, 0)  # closed loop: never late
    _layers(report, tracer, traced, plain, wal_bytes, snapshot_stats)


# ---------------------------------------------------------------------------
# in-process workload
# ---------------------------------------------------------------------------


@dataclass
class _Inproc:
    service: CheckingService
    state_dir: Path
    stream: UpdateStream
    initial: "list[str]"
    warm: Window
    setup_s: float
    #: ``setup_s`` at the reference speed
    setup_ref_s: float


def _inproc_setup(report: Report, workload: Workload, seed: int,
                  run_dir: Path) -> _Inproc:
    """Corpus, durable open (baseline snapshot), warm-up."""
    speed = Speed(every_s=0.0)
    speed.tick()
    begin = time.perf_counter()
    documents = make_corpus(workload.size_kib, seed)
    texts = _texts(documents)
    _pub, rev_doc = make_corpus(workload.size_kib, seed)
    speed.tick()
    state_dir = run_dir / "state"
    service = CheckingService.open_durable(
        make_schema(), list(documents), state_dir)
    speed.tick()
    stream = UpdateStream(rev_doc, seed)
    warm = Window()
    updates = stream.updates()
    for _ in range(WARM_ROUNDS * len(CYCLE)):
        update = next(updates)
        decision = service.try_execute(update.text)
        warm.note_verdict(update, {"applied": decision.applied,
                                   "legal": decision.legal}, 0.0)
    speed.tick()
    warm.note_read(service.verify_consistency(), 0.0)
    warm.cycles = WARM_ROUNDS
    report.absorb("warm-up", warm)
    initial = service.snapshot()
    report.check("service documents equal the generated corpus",
                 initial == texts)
    elapsed = time.perf_counter() - begin
    speed.tick()
    return _Inproc(service, state_dir, stream, initial, warm, elapsed,
                   elapsed * speed.scale())


def _inproc_finish(report: Report, run: _Inproc, window: Window,
                   label: str) -> float:
    """Final checks, close, recovery; returns the stored-bytes ratio."""
    report.check(f"{label}: final full check empty",
                 run.service.verify_consistency() == [])
    report.check(f"{label}: final documents byte-identical",
                 run.service.snapshot() == run.initial)
    run.service.close()
    stored = tree_bytes(run.state_dir)
    _recovery(report, run.state_dir, run.initial,
              run.warm.accepted + window.accepted)
    return stored / (run.warm.accepted_bytes + window.accepted_bytes)


def _inproc(report: Report, workload: Workload, seed: int,
            seconds: float, run_dir: Path) -> None:
    setups = []
    for attempt in range(SETUPS):
        run = _inproc_setup(report, workload, seed,
                            run_dir / f"setup{attempt}")
        setups.append((run.setup_s, run.setup_ref_s))
        if attempt < SETUPS - 1:
            run.service.close()
            shutil.rmtree(run_dir / f"setup{attempt}")
    window = open_loop_mix(run.service, run.stream, rate=INPROC_RATE,
                           seconds=seconds,
                           start_cycle=run.warm.cycles)
    rss = peak_rss_mib()
    stored_ratio = _inproc_finish(report, run, window, "inproc")
    report.meta["snapshot_stats"] = run.service.snapshots.stats()
    _wrappers_gone(report)
    _end_to_end(report, window, setups, rss, stored_ratio)


def _inproc_traced(report: Report, workload: Workload, seed: int,
                   seconds: float, run_dir: Path) -> None:
    """Half the time untraced, half with the wrappers installed, each
    on a fresh durable service."""
    share = seconds / 2
    run = _inproc_setup(report, workload, seed, run_dir / "plain")
    plain = open_loop_mix(run.service, run.stream, rate=INPROC_RATE,
                          seconds=share, start_cycle=run.warm.cycles)
    report.absorb("plain", plain)
    _inproc_finish(report, run, plain, "plain")

    run = _inproc_setup(report, workload, seed, run_dir / "traced")
    wal = run.state_dir / "wal.log"
    wal_before = wal.stat().st_size
    tracer = Tracer()
    try:
        tracer.install()
        # continue the stream: the plain half's texts are in this
        # process's parse cache
        traced = open_loop_mix(run.service, run.stream,
                               rate=INPROC_RATE, seconds=share,
                               start_cycle=run.warm.cycles
                               + plain.cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    report.absorb("traced", traced)
    wal_bytes = wal.stat().st_size - wal_before
    snapshot_stats = run.service.snapshots.stats()
    _inproc_finish(report, run, traced, "traced")
    _wrappers_gone(report)
    for name in ("worker_handle_ms", "frame_rtt_ms", "edge_ms"):
        # no worker, frames or edge in process
        report.put(f"service.net.{name}", 0.0, 0)
    report.put_percentile("driver.late_p95_ms", traced.late, 0.95)
    _layers(report, tracer, traced, plain, wal_bytes, snapshot_stats)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _median_ms(values: "list[float]") -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def _wrappers_gone(report: Report) -> None:
    left = installed_wrappers()
    report.check("no timing wrapper installed", not left,
                 ", ".join(left))


def _layers(report: Report, tracer: Tracer, traced: Window,
            plain: Window, wal_bytes: int, snapshot_stats: dict
            ) -> None:
    """Per-layer metrics from the traced window's spans.

    ``<layer>_ms`` is the median, over the requests that reach the
    layer, of the time spent in it per request (self time where the
    name says ``self``); waits are means over all requests of the
    kind, so rare stalls show.
    """
    requests = profiles(tracer)
    writes = [p for p in requests if p.kind != "read"]
    reads = [p for p in requests if p.kind == "read"]
    commits = [p for p in requests
               if p.kind == "accept" or p.kind == "batch"]
    updates = max(1, traced.updates)
    accepted = max(1, traced.accepted)

    def median_in(layer, group, field="inclusive"):
        values = [getattr(p, field)[layer] for p in group
                  if p.calls.get(layer)]
        return _median_ms(values), len(values)

    def calls_in(layer, group):
        return sum(p.calls.get(layer, 0) for p in group)

    def mean_in(layer, group):
        values = [p.inclusive.get(layer, 0.0) for p in group]
        return (statistics.fmean(values) * 1000.0 if values else 0.0,
                len(values))

    put = report.put
    put("xupdate.parse_calls_per_update",
        calls_in("xupdate.parse", writes) / updates, updates)
    put("xupdate.parse_ms", *median_in("xupdate.parse", writes))
    put("core.guard.self_ms", *median_in("core.guard", writes,
                                         "self_time"))
    put("core.guard.checks_per_update",
        calls_in("core.guard", writes) / updates, updates)
    put("xquery.truth_ms", *median_in("xquery.truth", writes))
    put("xquery.truth_calls_per_update",
        calls_in("xquery.truth", writes) / updates, updates)
    put("xquery.full_check_ms", *median_in("xquery.full_check", reads))
    put("xtree.clone_ms", *median_in("xtree.clone", writes))
    put("xtree.clones_per_commit",
        calls_in("xtree.clone", writes) / accepted, accepted)
    put("relational.attach_ms", *median_in("relational.attach", writes))
    put("relational.attaches_per_commit",
        calls_in("relational.attach", writes) / accepted, accepted)
    put("service.snapshots.publish_ms",
        *median_in("service.snapshots.publish", writes))
    put("service.snapshots.publishes_per_commit",
        calls_in("service.snapshots.publish", writes) / accepted,
        accepted)
    pins = calls_in("service.snapshots.pin", requests)
    misses = sum(p.misses.get("service.snapshots.pin", 0)
                 for p in requests)
    put("service.snapshots.pin_miss_ratio", misses / pins if pins
        else 0.0, pins)
    put("service.locks.read_wait_ms",
        *mean_in("service.locks.read_wait", reads))
    put("service.locks.write_wait_ms",
        *mean_in("service.locks.write_wait", writes))
    put("service.persistence.append_ms",
        *median_in("service.persistence.append", writes))
    put("service.persistence.fsyncs_per_update",
        calls_in("service.persistence.fsync", writes) / updates,
        updates)
    put("service.persistence.wal_bytes_per_update",
        wal_bytes / updates, updates)
    put("service.persistence.snapshot_write_ms",
        *median_in("service.persistence.snapshot_write", writes))
    put("service.store.self_ms", *median_in("service.store", writes,
                                            "self_time"))
    full = [pause for generation, pause in tracer.gc_events
            if generation == 2]
    put("runtime.gc_gen2_per_commit", len(full) / accepted,
        len(tracer.gc_events))
    put("runtime.gc_pause_ms_per_commit",
        sum(pause for _, pause in tracer.gc_events) * 1000.0 / accepted,
        len(tracer.gc_events))
    put("trace.write_overhead_p50_ms",
        _median_ms(traced.batch) - _median_ms(plain.batch),
        len(traced.batch))
    put("trace.read_overhead_p50_ms",
        _median_ms(traced.read) - _median_ms(plain.read),
        len(traced.read))
    put("trace.commit_span_ms",
        _median_ms([p.total for p in commits]), len(commits))
    commit_time = sum(p.total for p in commits)
    put("trace.publish_share",
        sum(p.inclusive.get("service.snapshots.publish", 0.0)
            for p in commits) / commit_time if commit_time else 0.0,
        len(commits))

    report.meta["commit_self_share"] = _shares(commits, "self_time")
    report.meta["commit_inclusive_share"] = _shares(commits,
                                                    "inclusive")
    report.meta["snapshot_stats"] = snapshot_stats
    report.spans = span_dump(tracer)


def _shares(group, field: str) -> dict:
    """Each layer's share of the summed request time, largest first."""
    total = sum(p.total for p in group)
    if not total:
        return {}
    sums: dict = {}
    for p in group:
        for layer, value in getattr(p, field).items():
            sums[layer] = sums.get(layer, 0.0) + value
    return {layer: round(value / total, 4) for layer, value in
            sorted(sums.items(), key=lambda item: -item[1])}
