"""The deployed service as users run it, plus a bare frame worker.

:class:`Serve` launches ``python -m repro serve --workers 1 --port 0``
as a subprocess of its own run directory, reads the bound port from
its ``serving on http://...`` line, and stops it with SIGINT (the
interactive stop; the service drains its worker, which closes its
write-ahead log).

``repro serve`` puts its worker sockets under a fresh
``tempfile.mkdtemp`` directory; the subprocess gets ``TMPDIR=.`` so
that directory is created inside the run directory (a relative path,
which also keeps the unix socket path short).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from measure import child_pids, cmdline

from repro.datagen.running_example import (
    CONFERENCE_WORKLOAD,
    CONFLICT_OF_INTEREST,
    PUB_DTD,
    REV_DTD,
    submission_xupdate,
)
from repro.service.net.config import ServiceConfig
from repro.service.net.frames import FrameError, recv_frame, send_frame
from repro.service.net.worker import worker_main

#: generous: the first run in a fresh checkout also compiles bytecode
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0

PATTERNS = (submission_xupdate(1, 1, "x", "y", kind="append"),
            submission_xupdate(1, 1, "x", "y", kind="after"))
DOCUMENT_FILES = ("pub.xml", "rev.xml")
WORKER_SOCKET = "w.sock"


def service_config(documents: "list[str]") -> ServiceConfig:
    """The config ``repro serve`` builds from the files :class:`Serve`
    writes (default snapshot interval and fsync policy)."""
    return ServiceConfig(
        dtds=(PUB_DTD, REV_DTD),
        constraints=(CONFLICT_OF_INTEREST, CONFERENCE_WORKLOAD),
        patterns=PATTERNS, documents=tuple(documents))


class Serve:
    """One ``repro serve`` subprocess rooted at ``run_dir``."""

    def __init__(self, src: Path, run_dir: Path,
                 documents: "list[str]") -> None:
        run_dir.mkdir(parents=True)
        self.run_dir = run_dir
        self.state_dir = run_dir / "state"
        files = {"pub.dtd": PUB_DTD, "rev.dtd": REV_DTD,
                 "append.xml": PATTERNS[0], "after.xml": PATTERNS[1],
                 **dict(zip(DOCUMENT_FILES, documents))}
        for name, text in files.items():
            (run_dir / name).write_text(text, encoding="utf-8")
        command = [
            sys.executable, "-m", "repro", "serve",
            "--workers", "1", "--port", "0", "--state-dir", "state",
            "--dtd", "pub.dtd", "--dtd", "rev.dtd",
            "--constraint", CONFLICT_OF_INTEREST,
            "--constraint", CONFERENCE_WORKLOAD,
            "--pattern", "append.xml", "--pattern", "after.xml",
            "--document", "pub.xml", "--document", "rev.xml"]
        env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=".")
        self._log_path = run_dir / "serve.log"
        self._log = open(self._log_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=run_dir, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT)

    def log(self) -> str:
        return self._log_path.read_text(encoding="utf-8",
                                        errors="replace")

    def wait_serving(self) -> "tuple[str, int]":
        """``(host, port)`` from the ``serving on`` line."""
        deadline = time.monotonic() + START_TIMEOUT
        prefix = "serving on http://"
        while time.monotonic() < deadline:
            for line in self.log().splitlines():
                if line.startswith(prefix):
                    address = line[len(prefix):].split()[0]
                    host, _, port = address.rpartition(":")
                    return host, int(port)
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"repro serve did not start:\n{self.log()}")

    def worker_pid(self) -> int:
        """The spawned worker: the child running ``spawn_main``."""
        workers = [pid for pid in child_pids(self.process.pid)
                   if "spawn_main" in cmdline(pid)]
        if len(workers) != 1:
            raise RuntimeError(f"expected one worker, found {workers}")
        return workers[0]

    def stop(self) -> int:
        """SIGINT, then wait; returns the exit status.  Idempotent.

        A service that ignores SIGINT is killed together with its
        worker (a killed edge would leave the worker orphaned)."""
        if self.process.returncode is not None:
            return self.process.returncode
        children = child_pids(self.process.pid)
        try:
            self.process.send_signal(signal.SIGINT)
            return self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            for pid in children:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            raise RuntimeError(
                f"repro serve ignored SIGINT:\n{self.log()}")
        finally:
            self._log.close()


class FrameWorker:
    """A shard worker started on its own (``python3 edge.py worker``),
    spoken to in raw frames over its unix socket: the edge's own
    transport, minus the edge."""

    def __init__(self, src: Path, run_dir: Path,
                 documents: "list[str]") -> None:
        run_dir.mkdir(parents=True)
        for name, text in zip(DOCUMENT_FILES, documents):
            (run_dir / name).write_text(text, encoding="utf-8")
        self._log = open(run_dir / "worker.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "worker"],
            cwd=run_dir, env=dict(os.environ, PYTHONPATH=str(src)),
            stdin=subprocess.DEVNULL, stdout=self._log,
            stderr=subprocess.STDOUT)
        # relative: short enough for AF_UNIX wherever the checkout is
        path = os.path.relpath(run_dir / WORKER_SOCKET)
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                self.sock.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline \
                        or self.process.poll() is not None:
                    self.close()
                    raise RuntimeError("frame worker did not start")
                time.sleep(0.01)

    def close(self) -> None:
        """Drain (the worker closes its shards and exits), then wait."""
        try:
            if self.process.poll() is None:
                send_frame(self.sock, {"op": "drain"})
                recv_frame(self.sock)
        except (OSError, FrameError):
            pass
        finally:
            self.sock.close()
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self._log.close()


if __name__ == "__main__" and sys.argv[1:] == ["worker"]:
    # the FrameWorker process, started in its run directory
    worker_main(0, 1, "state", WORKER_SOCKET, service_config(
        [Path(name).read_text(encoding="utf-8")
         for name in DOCUMENT_FILES]))
