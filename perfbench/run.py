"""End-to-end benchmark of the checking service, from the HTTP edge in.

Usage (from the repository root)::

    python3 perfbench/run.py --workload edge-submit --seed 1 \\
        --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
The bounded timings are the set-up time, the median update latency
and the service's CPU time per accepted update, per rejected update
and per full check, each rescaled to a reference machine speed that the benchmark samples
between requests with a fixed loop of its own (``measure.Speed``);
raw CPU times, wall-clock latency and throughput are printed beside
them, unbounded.
``--trace 1`` replays the same seeded streams with timing wrappers
installed around each layer's public functions and reports per-layer
metrics instead (see ``trace.py``).  Workloads and their rationale are
in ``workloads.py``.

Every run checks its own outputs: the stream is the same when
rebuilt in a child process, each update's verdict matches the expected
one, every full check finds nothing, the final documents are
byte-identical to the initial corpus, and the state recovered from the
write-ahead log equals the served state.  The last line of standard
output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a run whose outputs are
wrong exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("update_ref_p50_ms", "ms"),
    ("accept_cpu_ref_ms", "ms"),
    ("reject_cpu_ref_ms", "ms"),
    ("read_cpu_ref_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("stored_bytes_per_user_byte", "ratio"),
)

#: measured and printed with the end-to-end metrics but left out of
#: BENCHMARK.json, because no bound on them could hold here.  On a
#: shared 2-vCPU VM the machine's speed drifts by 20-40% over minutes
#: (a fixed pure-Python loop took 0.041 s in one run and 0.069 s a few
#: minutes later), and every absolute time follows it: across ten
#: seeded runs of the same code edge-submit's latencies spread by up
#: to a third of their median, and even the service's CPU time per
#: request (``*_cpu_ms``, which leaves out time the hypervisor or
#: other processes took) by a fifth.  The bounded ``*_ref_ms`` metrics
#: rescale those times by the speed sampled around each request, which
#: brought their spread down to 0.03-0.07.  ``update_ref_p90_ms`` and
#: ``read_ref_p50_ms`` stay unbounded (0.12 and 0.11 on inproc-mix in
#: one five-seed trial), and so does ``read_ref_p90_ms`` (0.10-0.32).
#: ``*_vs_full_check`` is the paper's comparison, an update's check
#: and commit against re-checking the whole documents; it is not
#: bounded because a faster full check would read as a regression.
UNBOUNDED = (
    ("setup_wall_s", "s"),
    ("update_ref_p90_ms", "ms"),
    ("read_ref_p50_ms", "ms"),
    ("read_ref_p90_ms", "ms"),
    ("accept_vs_full_check", "ratio"),
    ("reject_vs_full_check", "ratio"),
    ("accept_cpu_ms", "ms"),
    ("reject_cpu_ms", "ms"),
    ("read_cpu_ms", "ms"),
    ("updates_per_s", "1/s"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("accept_p50_ms", "ms"),
    ("reject_p50_ms", "ms"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("reads_per_s", "1/s"),
)

PER_LAYER = (
    ("xupdate.parse_calls_per_update", "count"),
    ("xupdate.parse_ms", "ms"),
    ("core.guard.self_ms", "ms"),
    ("core.guard.checks_per_update", "count"),
    ("xquery.truth_ms", "ms"),
    ("xquery.truth_calls_per_update", "count"),
    ("xquery.full_check_ms", "ms"),
    ("xtree.clone_ms", "ms"),
    ("xtree.clones_per_commit", "count"),
    ("relational.attach_ms", "ms"),
    ("relational.attaches_per_commit", "count"),
    ("service.snapshots.publish_ms", "ms"),
    ("service.snapshots.publishes_per_commit", "count"),
    ("service.snapshots.pin_miss_ratio", "ratio"),
    ("service.locks.read_wait_ms", "ms"),
    ("service.locks.write_wait_ms", "ms"),
    ("service.persistence.append_ms", "ms"),
    ("service.persistence.fsyncs_per_update", "count"),
    ("service.persistence.wal_bytes_per_update", "B"),
    ("service.persistence.snapshot_write_ms", "ms"),
    ("service.store.self_ms", "ms"),
    ("service.net.worker_handle_ms", "ms"),
    ("service.net.frame_rtt_ms", "ms"),
    ("service.net.edge_ms", "ms"),
    ("runtime.gc_gen2_per_commit", "count"),
    ("runtime.gc_pause_ms_per_commit", "ms"),
    ("driver.late_p95_ms", "ms"),
    ("trace.write_overhead_p50_ms", "ms"),
    ("trace.read_overhead_p50_ms", "ms"),
    ("trace.commit_span_ms", "ms"),
    ("trace.publish_share", "ratio"),
)

RECOVERY_NOTE = (
    "recovery check: the served shard is stopped with SIGINT, so the "
    "OS page cache survives; this checks recovery logic, not device "
    "flushes")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # unwind through the finally blocks that stop the service
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is "
              "missing (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    import scenarios
    from measure import (
        REFERENCE_LOOP_S,
        cpu_ticks,
        fsync_reference_ms,
        noise_reference_s,
        steal_share,
    )

    run_dir = (ROOT / ".perfbench_run"
               / f"{workload.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    noise_before = noise_reference_s()
    fsync_before = fsync_reference_ms(run_dir)
    started = time.perf_counter()
    ticks = cpu_ticks()
    report = scenarios.run(workload, args.seed, args.seconds,
                           bool(args.trace), run_dir)
    steal = steal_share(ticks, cpu_ticks())
    noise_after = noise_reference_s()
    fsync_after = fsync_reference_ms(run_dir)
    report.meta["noise_reference_s"] = {"before": noise_before,
                                        "after": noise_after}
    report.meta["fsync_reference_ms"] = {"before": fsync_before,
                                         "after": fsync_after}
    report.meta["cpu_steal_share"] = steal
    report.meta["wall_s"] = time.perf_counter() - started

    names = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    print(f"workload {workload.name}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"why: {workload.why}")
    print("durable settings: fsync on every commit, snapshot every 64 "
          "commits, snapshot reads on")
    if workload.mode == "edge" and not args.trace:
        print(RECOVERY_NOTE)
    for name, unit in names:
        value, samples = report.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:42s} {value:12.4f} {unit:6s} (n={samples})")
    unbounded = {}
    if not args.trace:
        for name, unit in UNBOUNDED:
            value, samples = report.metrics[name]
            unbounded[name] = {"value": value, "unit": unit}
            print(f"  {name:42s} {value:12.4f} {unit:6s} (n={samples}; "
                  "no bound)")
    if args.trace:
        shares = report.meta["commit_self_share"]
        top = ", ".join(f"{layer} {share:.1%}"
                        for layer, share in list(shares.items())[:4])
        publish = report.meta["commit_inclusive_share"].get(
            "service.snapshots.publish", 0.0)
        print(f"  largest self-time shares of committing requests: "
              f"{top}; service.snapshots.publish inclusive {publish:.1%}")
    for warning in report.warnings:
        print(f"  warning: {warning}")
    error_rate = report.failed / max(1, report.attempted)
    print(f"  error_rate {error_rate:.6f} "
          f"({report.failed} failed of {report.attempted} attempted)")
    for name, ok, detail in report.checks:
        print(f"  check {name:28s} {'ok' if ok else 'FAILED'}  {detail}")
    loop = report.meta.get("window", {}).get("reference_loop_ms")
    if loop:
        print(f"  reference loop: {loop['p10']:.3f} / {loop['p50']:.3f} "
              f"/ {loop['p90']:.3f} ms (p10/p50/p90 of "
              f"{loop['samples']}; {REFERENCE_LOOP_S * 1000:.3f} ms at "
              "the reference speed)")
    print(f"  noise reference loop: {noise_before:.4f} s before, "
          f"{noise_after:.4f} s after; fsync reference: "
          f"{fsync_before:.3f} ms before, {fsync_after:.3f} ms after; "
          f"CPU steal during the run {steal:.1%}")
    correct = report.failed == 0 and all(ok for _, ok, _ in report.checks)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / (f"{workload.name}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "correct": correct, "metrics": metrics,
                   "unbounded": unbounded,
                   "samples": {name: report.metrics[name][1]
                               for name, _ in names},
                   "checks": report.checks, "meta": report.meta,
                   "requests": report.requests,
                   "spans": report.spans}, handle)
    print("meta " + json.dumps(report.meta, sort_keys=True))
    print(f"full report: {out_path.relative_to(ROOT)}")
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct,
                      "attempted": report.attempted,
                      "failed": report.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
