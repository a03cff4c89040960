"""Launching, probing and stopping the daemon as its own process."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Engine workers the daemon runs with: what ``--workers auto``
#: (cores - 1) picks on the two-core reference box, pinned so the
#: configuration does not follow the machine.
WORKERS = 1

_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 20.0


def child_env(root: Path, scratch: Path) -> Dict[str, str]:
    """Environment for a repro process: sources importable, temp files local."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root), str(root / "src")])
    env["REPRO_SPILL_DIR"] = str(scratch / "spill")
    env["TMPDIR"] = str(scratch)
    return env


@dataclass
class Daemon:
    """One running daemon process."""

    process: subprocess.Popen
    port: int
    setup_s: float
    #: perf_counter just before the process was spawned
    launched: float = 0.0

    def get(self, target: str) -> Dict[str, Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", target)
            response = conn.getresponse()
            return json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()

    def stats(self) -> Dict[str, Any]:
        return self.get("/stats")["stats"]

    def descendants(self) -> List[int]:
        return descendants(self.process.pid)

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the daemon and every process under it."""
        pids = [self.process.pid] + self.descendants()
        return sum(vm_hwm_kib(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, and reap anything left over."""
        children = self.descendants()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(_STOP_TIMEOUT_S)
        if self.process.stdout is not None:
            self.process.stdout.close()
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        while children and time.monotonic() < deadline:
            children = [pid for pid in children if _alive(pid)]
            if children:
                time.sleep(0.02)
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def launch(root: Path, scratch: Path, traced_spans: Optional[Path] = None) -> Daemon:
    """Start the daemon; returns once ``/healthz`` first answers ``200``.

    ``setup_s`` runs from just before the process is spawned to that
    first ``200``: interpreter start, imports, corpus warm-up and the
    engine-worker fork.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    if traced_spans is None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--workers", str(WORKERS)]
    else:
        traced_spans.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, "-m", "perfbench.traced_serve",
                   "--spans-dir", str(traced_spans), "--workers", str(WORKERS)]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=str(scratch), env=child_env(root, scratch),
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
    )
    line = process.stdout.readline() if process.stdout is not None else ""
    if "listening on http://" not in line:
        process.kill()
        process.wait(_STOP_TIMEOUT_S)
        raise RuntimeError(f"daemon did not start: {line!r}")
    port = int(line.strip().rstrip("/").rsplit(":", 1)[1])
    daemon = Daemon(process, port, 0.0, started)
    deadline = time.monotonic() + _START_TIMEOUT_S
    while True:
        try:
            if daemon.get("/healthz").get("status") == "ok":
                break
        except (OSError, http.client.HTTPException, ValueError):
            pass
        if time.monotonic() > deadline:
            daemon.stop()
            raise RuntimeError("daemon never answered /healthz")
        time.sleep(0.002)
    daemon.setup_s = time.perf_counter() - started
    return daemon


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` (Linux ``/proc``)."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for task in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                kids = [int(p) for p in task.read_text().split()]
            except OSError:
                continue
            found.extend(kids)
            frontier.extend(kids)
    return found


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set of one process, in KiB (0 if it is gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"
