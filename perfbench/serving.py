"""Boot, probe and stop ``fairank serve`` processes from the outside.

A server is launched as ``python -m repro.cli serve --catalog SNAPSHOT
--port 0 [--workers N]`` with the checkout's ``src`` on ``PYTHONPATH``.  It
is *ready* once it has printed its bound port and answered ``GET
/v2/health`` with 200; that interval is the boot part of ``setup_s``.
"""

from __future__ import annotations

import collections
import http.client
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_PORT_LINE = re.compile(r"http://[\d.]+:(\d+)")
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def _children(pid: int) -> List[int]:
    """Direct children of ``pid`` (from ``/proc``)."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # the process exited while /proc was listed
            stat = ""
        # The command name is parenthesised and may contain spaces.
        fields = stat.rpartition(")")[2].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class Server:
    """One ``fairank serve`` process (plus, when routed, its worker fleet)."""

    def __init__(self, root: Path, snapshot: Path, workers: int, workdir: Path) -> None:
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--catalog", str(snapshot), "--host", "127.0.0.1", "--port", "0",
        ]
        if workers > 1:
            argv += ["--workers", str(workers)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(workdir)
        self.workers = workers
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.tail: "collections.deque[str]" = collections.deque(maxlen=20)
        self._pump = threading.Thread(target=self._read_output, daemon=True)
        self._pump.start()
        self.port: Optional[int] = None
        self.announced_s: Optional[float] = None
        self.ready_s: Optional[float] = None
        self._fleet: List[int] = []

    def _read_output(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.tail.append(line.rstrip())
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self) -> float:
        """Block until the server accepts requests; returns seconds since launch."""
        deadline = self.launched + BOOT_TIMEOUT_S
        while self.port is None:
            try:
                line = self._lines.get(timeout=max(0.05, deadline - time.perf_counter()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError(self._failure("never announced a port"))
            match = _PORT_LINE.search(line)
            if match:
                self.port = int(match.group(1))
                self.announced_s = time.perf_counter() - self.launched
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(self._failure("exited during readiness"))
            try:
                status, _ = self.get("/v2/health")
            except OSError:
                status = 0
            if status == 200:
                self.ready_s = time.perf_counter() - self.launched
                self._fleet = _children(self.process.pid) if self.workers > 1 else []
                return self.ready_s
            time.sleep(0.01)
        raise RuntimeError(self._failure("never answered /v2/health"))

    def _failure(self, reason: str) -> str:
        tail = "\n".join(self.tail)
        return f"fairank serve {reason}; last output:\n{tail}"

    def get(self, path: str) -> Tuple[int, bytes]:
        """One GET on a fresh connection."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def metrics(self) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
        """A ``/v2/metrics`` scrape as flat ``{(name, labels): value}`` samples."""
        from repro.obs.metrics import parse_prometheus

        status, body = self.get("/v2/metrics")
        if status != 200:
            raise RuntimeError(f"/v2/metrics answered {status}")
        return dict(parse_prometheus(body.decode("utf-8")).samples)

    def peak_rss_mb(self) -> float:
        """Peak RSS (``VmHWM``) summed over the server and its worker fleet."""
        pids = [self.process.pid] + self._fleet
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGTERM (the server drains and stops its fleet), then reap everything."""
        fleet = self._fleet or (
            _children(self.process.pid) if self.process.poll() is None else []
        )
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=STOP_TIMEOUT_S)
        self._pump.join(timeout=STOP_TIMEOUT_S)
        if self.process.stdout is not None:
            self.process.stdout.close()
        # Workers are the router's children; the router stops them on
        # SIGTERM, but a killed router would orphan them.
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in fleet:
            while _alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    deadline = time.monotonic() + STOP_TIMEOUT_S
                time.sleep(0.02)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")
