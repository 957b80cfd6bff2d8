"""The admission daemon as a subprocess, and a line-JSON client for it."""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from common import ROOT, child_env, proc_cpu_s, proc_peak_rss_mb

READY_TIMEOUT_S = 120.0
EXIT_TIMEOUT_S = 60.0


class DaemonError(RuntimeError):
    """The daemon did not start, answer or stop as expected."""


class Daemon:
    """One ``svc-repro serve`` process over a journal directory.

    ``spans_path`` runs it under ``traced_serve.py`` so its layers are
    timed.  ``setup_s`` is launch-to-ready: from ``Popen`` to the ready line.
    """

    def __init__(
        self,
        workdir: Path,
        name: str,
        scale: str,
        journal_dir: Path,
        fsync: bool = False,
        failpoints: Optional[str] = None,
        spans_path: Optional[Path] = None,
    ) -> None:
        args: List[str] = [
            "--port", "0", "--scale", scale, "--journal-dir", str(journal_dir),
            "--log-level", "warning",
        ]
        if fsync:
            args.append("--fsync")
        if failpoints:
            args += ["--failpoints", failpoints]
        if spans_path is not None:
            command = [sys.executable, str(Path(__file__).with_name("traced_serve.py")),
                       str(spans_path), *args]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve", *args]
        self.spans_path = spans_path
        self.log_path = workdir / f"{name}.log"
        self._log = open(self.log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL,
        )
        try:
            self.ready = self._read_ready()
        except BaseException:
            self.kill()
            raise
        self.ready_at = time.perf_counter()
        self.setup_s = self.ready_at - started
        self.port = int(self.ready["port"])
        self.pid = self.proc.pid

    def _read_ready(self) -> Dict[str, Any]:
        deadline = time.monotonic() + READY_TIMEOUT_S
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise DaemonError(
                    f"daemon exited with {self.proc.returncode}:\n{self.log_tail()}"
                )
            readable, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if readable:
                line = self.proc.stdout.readline()
                if not line:
                    continue
                ready = json.loads(line)
                if ready.get("event") != "ready":
                    raise DaemonError(f"unexpected first line {line!r}")
                return ready
        raise DaemonError("daemon did not print its ready line in time")

    def connect(self) -> "LineClient":
        return LineClient(self.port)

    def cpu_s(self) -> float:
        return proc_cpu_s(self.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.pid)

    def dump_spans(self, timeout_s: float = 30.0) -> None:
        """Ask a traced daemon to write its spans now (before a SIGKILL)."""
        assert self.spans_path is not None
        if self.spans_path.exists():
            self.spans_path.unlink()
        os.kill(self.pid, signal.SIGUSR1)
        deadline = time.monotonic() + timeout_s
        while not self.spans_path.exists():
            if time.monotonic() > deadline:
                raise DaemonError("traced daemon did not dump its spans")
            time.sleep(0.02)

    def shutdown(self) -> None:
        """Clean stop through the protocol (checkpoints the journal)."""
        if self.proc.poll() is None:
            try:
                with self.connect() as client:
                    client.call({"op": "shutdown"})
            except (OSError, DaemonError):
                pass
            try:
                self.proc.wait(EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                raise DaemonError("daemon did not exit after shutdown") from None
        self._close()

    def kill(self) -> float:
        """SIGKILL and reap; returns the kill instant (perf_counter)."""
        at = time.perf_counter()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(EXIT_TIMEOUT_S)
        self._close()
        return at

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()

    def log_tail(self, lines: int = 20) -> str:
        try:
            return "\n".join(self.log_path.read_text(errors="replace").splitlines()[-lines:])
        except OSError:
            return ""


class LineClient:
    """One TCP connection speaking the line-JSON protocol."""

    def __init__(self, port: int, timeout_s: float = 120.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, command: Dict[str, Any]) -> None:
        self.sock.sendall(json.dumps(command).encode("utf-8") + b"\n")

    def recv(self) -> Dict[str, Any]:
        line = self.reader.readline()
        if not line:
            raise DaemonError("daemon closed the connection")
        return json.loads(line)

    def call(self, command: Dict[str, Any]) -> Dict[str, Any]:
        self.send(command)
        return self.recv()

    def close(self) -> None:
        try:
            self.reader.close()
        finally:
            self.sock.close()

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def launch_setups(
    workdir: Path, scale: str, count: int, fsync: bool = False
) -> List[float]:
    """Launch ``count`` throwaway daemons; their launch-to-ready times."""
    times = []
    for index in range(count):
        daemon = Daemon(workdir, f"setup-{index}", scale, workdir / f"setup-{index}", fsync=fsync)
        times.append(daemon.setup_s)
        daemon.shutdown()
    return times


def stop_all(daemons: Sequence[Optional[Daemon]]) -> None:
    """Best-effort teardown on an error path: kill whatever still runs."""
    for daemon in daemons:
        if daemon is not None and daemon.proc.poll() is None:
            daemon.kill()
