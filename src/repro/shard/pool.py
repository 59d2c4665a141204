"""Worker subprocess lifecycle for sharded serving.

A :class:`WorkerPool` owns N ``fairank serve`` processes, every one booted
from the *same* catalog snapshot — snapshots make worker state reproducible,
so any worker can answer any request byte-identically and the router's only
job is cache affinity.  The pool:

* **boots** each worker on an ephemeral port (``--port 0``), parses the
  announced port from the worker's stdout, then readiness-polls
  ``GET /v2/health`` until the worker answers ``status: ok``;
* **monitors** nothing in the background — the router reports forward
  failures, and the pool checks the process: a dead worker's slot is
  respawned on a daemon thread with **capped exponential backoff**
  (``backoff_base_s * 2^restarts``, capped at ``backoff_max_s``), so a
  crash-looping snapshot cannot hot-spin the machine;
* **stops** the fleet with SIGTERM (workers drain in-flight requests and
  exit cleanly — see the CLI's signal handling), escalating to SIGKILL only
  for a worker that does not exit in time.

The pool never proxies traffic itself; it only hands live
:class:`WorkerHandle` entries to the router.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
import urllib.request
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ServiceError
from repro.obs.log import WORKER_SLOT_ENV, get_logger
from repro.obs.metrics import get_registry

__all__ = ["WorkerHandle", "WorkerPool"]

#: The machine-readable line ``fairank serve`` prints once bound.
_PORT_PATTERN = re.compile(r"http://[\d.]+:(\d+)")


def _default_worker_command(snapshot: Path, host: str) -> List[str]:
    """Boot one single-process ``fairank serve`` worker from the snapshot."""
    return [
        sys.executable, "-m", "repro.cli", "serve",
        "--catalog", str(snapshot), "--host", host, "--port", "0",
    ]


def _worker_env() -> Dict[str, str]:
    """The child environment, with this build of ``repro`` importable."""
    src_dir = Path(__file__).resolve().parent.parent.parent
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + ([existing] if existing else [])
    )
    return env


class _StdoutPump:
    """Drains a worker's stdout for its whole life (a full pipe blocks the
    worker) while parsing the announced port and keeping a diagnostic tail."""

    def __init__(self, process: subprocess.Popen) -> None:
        self.port: Optional[int] = None
        self.port_found = threading.Event()
        self.tail: "deque[str]" = deque(maxlen=50)
        self._thread = threading.Thread(
            target=self._pump, args=(process,), daemon=True
        )
        self._thread.start()

    def _pump(self, process: subprocess.Popen) -> None:
        assert process.stdout is not None
        for line in process.stdout:
            self.tail.append(line.rstrip())
            if not self.port_found.is_set():
                match = _PORT_PATTERN.search(line)
                if match:
                    self.port = int(match.group(1))
                    self.port_found.set()
        # EOF: release any waiter so boot failure is detected promptly.
        self.port_found.set()


@dataclass
class WorkerHandle:
    """One live worker process (immutable once handed to the router)."""

    slot: int
    process: subprocess.Popen
    port: int
    base_url: str
    pump: _StdoutPump
    started_at: float = field(default_factory=time.monotonic)

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def describe(self) -> Dict[str, object]:
        return {
            "slot": self.slot,
            "pid": self.process.pid,
            "port": self.port,
            "url": self.base_url,
            "alive": self.alive,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
        }


class WorkerPool:
    """Spawns and supervises N snapshot-booted ``fairank serve`` workers.

    Parameters
    ----------
    snapshot:
        Catalog snapshot every worker boots from (``fairank serve --catalog``).
    size:
        Number of worker processes (routing slots).
    host:
        Bind address workers listen on (and the router forwards to).
    boot_timeout_s:
        Deadline for one worker to announce its port *and* pass the
        ``/v2/health`` readiness poll.
    backoff_base_s / backoff_max_s:
        Restart backoff: a slot that has been restarted ``r`` times waits
        ``min(backoff_base_s * 2**r, backoff_max_s)`` before respawning.
    worker_arguments:
        Extra ``fairank serve`` flags appended to every worker's command
        line (e.g. ``["--verbose", "--slow-ms", "50"]``).
    warm_dir:
        Optional warm-start root.  Each slot gets its own
        ``--warm-dir <warm_dir>/slot-<n>`` (per-slot subdirectories keep
        concurrent shutdown saves from colliding); because the flag is part
        of the slot's boot argv, a crash-restarted replacement reloads the
        slot's warm bundle automatically.
    command:
        Override the worker command line (tests); a callable of
        ``(snapshot_path, host) -> argv`` (``worker_arguments`` are still
        appended).
    """

    def __init__(
        self,
        snapshot: Union[str, Path],
        size: int,
        *,
        host: str = "127.0.0.1",
        boot_timeout_s: float = 60.0,
        backoff_base_s: float = 0.25,
        backoff_max_s: float = 5.0,
        worker_arguments: Sequence[str] = (),
        warm_dir: Optional[Union[str, Path]] = None,
        command: Optional[Callable[[Path, str], Sequence[str]]] = None,
    ) -> None:
        if size < 1:
            raise ServiceError(f"a worker pool needs at least 1 worker, got {size}")
        self.snapshot = Path(snapshot)
        if not self.snapshot.is_file():
            raise ServiceError(
                f"cannot boot workers: catalog snapshot {self.snapshot} does not exist"
            )
        self.host = host
        self.boot_timeout_s = boot_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self._command = command or _default_worker_command
        self._worker_arguments = [str(argument) for argument in worker_arguments]
        self._warm_dir = Path(warm_dir) if warm_dir is not None else None
        self._env = _worker_env()
        self._slots: List[Optional[WorkerHandle]] = [None] * size
        self._restarts = [0] * size
        # Why each slot needed lifecycle intervention: a worker that died
        # after serving ("crash") vs a replacement that never came up
        # ("failed_boot").  Surfaced in health payloads and metrics.
        self._restart_reasons: List[Dict[str, int]] = [
            {"crash": 0, "failed_boot": 0} for _ in range(size)
        ]
        self._restarting: set = set()
        # Processes spawned but not yet slotted (mid-boot); tracked so
        # ``stop()`` can terminate a replacement worker that a restart
        # thread is still readiness-polling.
        self._booting: set = set()
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._started = False

    # -- introspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._slots)

    def peek(self, slot: int) -> Optional[WorkerHandle]:
        """The slot's current handle (None while it is down/restarting)."""
        with self._lock:
            self._reap_locked()
            return self._slots[slot]

    def restarts(self, slot: Optional[int] = None) -> int:
        """Restart count for one slot (or the whole fleet)."""
        with self._lock:
            if slot is not None:
                return self._restarts[slot]
            return sum(self._restarts)

    def restart_reasons(self, slot: int) -> Dict[str, int]:
        """Why the slot needed intervention: crash and failed-boot counts."""
        with self._lock:
            return dict(self._restart_reasons[slot])

    @property
    def alive_count(self) -> int:
        with self._lock:
            self._reap_locked()
            return sum(1 for handle in self._slots if handle is not None)

    def candidates(self, preferred_slot: int) -> List[WorkerHandle]:
        """Live workers in retry order: the routed slot first, then the rest.

        A request whose preferred worker just died is retried on the
        neighbouring slots (losing only cache affinity, never the answer —
        every worker serves the same snapshot).  Reading the candidate list
        also *reaps*: a slot whose process died since the last look is
        scheduled for its backoff restart right here, so crashes are healed
        by the next request that notices them, not only by failed forwards.
        """
        with self._lock:
            self._reap_locked()
            ordered = [
                self._slots[(preferred_slot + offset) % self.size]
                for offset in range(self.size)
            ]
        return [handle for handle in ordered if handle is not None]

    def describe(self) -> Dict[str, object]:
        """Pool metadata for the router's aggregated health payload."""
        with self._lock:
            self._reap_locked()
            slots = [
                {
                    **(
                        {"slot": index, "alive": False}
                        if handle is None
                        else handle.describe()
                    ),
                    "restarts": self._restarts[index],
                    "restart_reasons": dict(self._restart_reasons[index]),
                }
                for index, handle in enumerate(self._slots)
            ]
        return {
            "workers": self.size,
            "alive": sum(1 for entry in slots if entry["alive"]),
            "restarts": sum(self._restarts),
            "snapshot": str(self.snapshot),
            "slots": slots,
        }

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Boot every worker (concurrently) and wait until all are ready."""
        if self._started:
            raise ServiceError("this worker pool has already been started")
        self._started = True
        from concurrent.futures import ThreadPoolExecutor, wait

        with ThreadPoolExecutor(max_workers=self.size) as boots:
            futures = [boots.submit(self._boot_worker, slot) for slot in range(self.size)]
            wait(futures)
        booted = [future for future in futures if future.exception() is None]
        failed = [future for future in futures if future.exception() is not None]
        if failed:
            # One worker failing must not leak its booted siblings.
            for future in booted:
                handle = future.result()
                handle.process.terminate()
            self._stopping.set()
            raise failed[0].exception()
        with self._lock:
            for future in booted:
                handle = future.result()
                self._slots[handle.slot] = handle
        return self

    def stop(self, timeout_s: float = 15.0) -> None:
        """SIGTERM the fleet (workers drain), SIGKILL stragglers.

        Covers slotted workers *and* any replacement a restart thread is
        still booting (``_stopping`` also aborts those boots at their next
        poll, so the restart thread exits promptly).
        """
        self._stopping.set()
        with self._lock:
            processes = [
                handle.process for handle in self._slots if handle is not None
            ]
            processes.extend(self._booting)
            self._slots = [None] * self.size
        for process in processes:
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + timeout_s
        for process in processes:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- boot / restart machinery ---------------------------------------------

    def _boot_worker(self, slot: int) -> WorkerHandle:
        """Spawn one worker and wait for port announcement + health readiness."""
        argv = list(self._command(self.snapshot, self.host)) + self._worker_arguments
        if self._warm_dir is not None:
            # Per-slot bundle directories: slots save on their own shutdown
            # without racing each other, and a crash-restarted replacement
            # (this method re-runs with the same slot) reloads its own state.
            argv += ["--warm-dir", str(self._warm_dir / f"slot-{slot}")]
        # The slot travels in the environment so every structured log event
        # the worker emits carries a "worker" field (see repro.obs.log).
        env = dict(self._env)
        env[WORKER_SLOT_ENV] = str(slot)
        try:
            # A fresh session detaches workers from the terminal's process
            # group: Ctrl-C on `fairank serve` reaches only the router, which
            # then stops the fleet deterministically (drain, then SIGTERM).
            process = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
                start_new_session=True,
            )
        except OSError as error:
            raise ServiceError(f"cannot spawn worker {slot}: {error}") from None
        with self._lock:
            self._booting.add(process)
        try:
            pump = _StdoutPump(process)
            deadline = time.monotonic() + self.boot_timeout_s
            port = self._await_port(slot, process, pump, deadline)
            base_url = f"http://{self.host}:{port}"
            self._await_health(slot, process, pump, base_url, deadline)
        finally:
            with self._lock:
                self._booting.discard(process)
        get_logger().event("worker_ready", slot=slot, pid=process.pid, port=port)
        return WorkerHandle(
            slot=slot, process=process, port=port, base_url=base_url, pump=pump
        )

    def _boot_failure(
        self, slot: int, process: subprocess.Popen, pump: _StdoutPump, reason: str
    ) -> ServiceError:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        tail = "\n".join(pump.tail)
        detail = f"; last output:\n{tail}" if tail else ""
        return ServiceError(f"worker {slot} failed to boot: {reason}{detail}")

    def _await_port(
        self,
        slot: int,
        process: subprocess.Popen,
        pump: _StdoutPump,
        deadline: float,
    ) -> int:
        while time.monotonic() < deadline:
            if self._stopping.is_set():
                raise self._boot_failure(slot, process, pump, "the pool is stopping")
            if pump.port_found.wait(timeout=0.1) and pump.port is not None:
                return pump.port
            if process.poll() is not None and pump.port is None:
                raise self._boot_failure(
                    slot, process, pump,
                    f"process exited with code {process.returncode} before binding",
                )
        raise self._boot_failure(
            slot, process, pump,
            f"no bound port announced within {self.boot_timeout_s:.0f}s",
        )

    def _await_health(
        self,
        slot: int,
        process: subprocess.Popen,
        pump: _StdoutPump,
        base_url: str,
        deadline: float,
    ) -> None:
        import json

        while time.monotonic() < deadline:
            if self._stopping.is_set():
                raise self._boot_failure(slot, process, pump, "the pool is stopping")
            if process.poll() is not None:
                raise self._boot_failure(
                    slot, process, pump,
                    f"process exited with code {process.returncode} during readiness",
                )
            try:
                with urllib.request.urlopen(f"{base_url}/v2/health", timeout=2) as response:
                    payload = json.loads(response.read())
                if payload.get("status") == "ok":
                    return
            # Readiness poll: the worker is still booting, so refused
            # connections / partial JSON are the expected steady state
            # until the boot deadline fires.
            # fairlint: disable=FL007 -- boot-poll retry; deadline-bounded
            except (OSError, ValueError):
                pass
            self._stopping.wait(timeout=0.05)
        raise self._boot_failure(
            slot, process, pump,
            f"/v2/health never answered ok within {self.boot_timeout_s:.0f}s",
        )

    def report_failure(self, handle: WorkerHandle) -> None:
        """The router observed a transport failure against ``handle``.

        Only a *dead* process triggers a restart — a transient socket error
        against a live worker is the request's problem (it was already
        retried elsewhere), not a lifecycle event.  Restarting happens on a
        daemon thread so the reporting request is never blocked by a boot.
        """
        if self._stopping.is_set():
            return
        with self._lock:
            if self._slots[handle.slot] is not handle:
                return  # stale handle: the slot was already replaced
            if handle.process.poll() is None:
                return
            self._retire_locked(handle.slot, handle)

    def _retire_locked(self, slot: int, handle: WorkerHandle) -> None:
        """Record a crashed worker and schedule its restart (lock must be held).

        The crash is a first-class lifecycle event: counted per slot with
        its reason, logged structured (slot, pid, exit code, uptime), and
        then healed by the backoff restart thread.
        """
        self._slots[slot] = None
        self._restart_reasons[slot]["crash"] += 1
        get_registry().counter(
            "fairank_worker_incidents_total",
            "Worker lifecycle incidents by slot and reason",
        ).inc(slot=str(slot), reason="crash")
        get_logger().event(
            "worker_crash",
            slot=slot,
            pid=handle.process.pid,
            returncode=handle.process.returncode,
            uptime_s=round(time.monotonic() - handle.started_at, 3),
        )
        self._schedule_restart_locked(slot)

    def _reap_locked(self) -> None:
        """Drop dead handles and schedule their restarts (lock must be held)."""
        if self._stopping.is_set():
            return
        for slot, handle in enumerate(self._slots):
            if handle is not None and handle.process.poll() is not None:
                self._retire_locked(slot, handle)

    def _schedule_restart_locked(self, slot: int) -> None:
        """Kick off the slot's backoff restart thread (lock must be held)."""
        if self._stopping.is_set() or slot in self._restarting:
            return
        self._restarting.add(slot)
        threading.Thread(
            target=self._restart_slot, args=(slot,), daemon=True
        ).start()

    def _restart_slot(self, slot: int) -> None:
        attempt = self._restarts[slot]
        try:
            while not self._stopping.is_set():
                delay = min(self.backoff_base_s * (2 ** attempt), self.backoff_max_s)
                if self._stopping.wait(timeout=delay):
                    return
                try:
                    handle = self._boot_worker(slot)
                except ServiceError as error:
                    if self._stopping.is_set():
                        # stop() aborted this boot: not a failed boot.
                        return
                    attempt += 1
                    with self._lock:
                        self._restart_reasons[slot]["failed_boot"] += 1
                    get_registry().counter(
                        "fairank_worker_incidents_total",
                        "Worker lifecycle incidents by slot and reason",
                    ).inc(slot=str(slot), reason="failed_boot")
                    get_logger().event(
                        "worker_boot_failed",
                        slot=slot,
                        attempt=attempt,
                        reason=str(error).splitlines()[0],
                    )
                    continue
                with self._lock:
                    if self._stopping.is_set():
                        handle.process.terminate()
                        return
                    self._restarts[slot] += 1
                    restarts = self._restarts[slot]
                    self._slots[slot] = handle
                get_logger().event(
                    "worker_restarted",
                    slot=slot,
                    pid=handle.process.pid,
                    restarts=restarts,
                )
                return
        finally:
            with self._lock:
                self._restarting.discard(slot)
