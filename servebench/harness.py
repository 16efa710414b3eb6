"""Process control and measurement around the program under test.

The daemon is driven only from outside: it is launched through the real
CLI (``python -m repro.cli serve``), reached over its HTTP API, and
measured through ``/proc`` (CPU ticks and proportional set size of the
daemon and every worker it forked). Nothing here imports the service
package.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: the trained bank and per-run dirs.
WORK = ROOT / ".servebench"

_TICKS = os.sysconf("SC_CLK_TCK")
_ANNOUNCE = re.compile(r"API on http://[^:]+:(\d+) ")
READY_POLL_S = 0.001
LAUNCH_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """A correctness check or a lifecycle step of the program failed."""


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def canonical(proto: int, a: str, a_port: int, b: str,
              b_port: int) -> tuple:
    """Direction-free 5-tuple: the lower endpoint first."""
    if (a, a_port) <= (b, b_port):
        return (proto, a, a_port, b, b_port)
    return (proto, b, b_port, a, a_port)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      round(q / 100.0 * len(ordered) + 0.5) - 1))
    return ordered[rank]


# -- HTTP ---------------------------------------------------------------------

class Api:
    """A tiny client for the daemon's HTTP plane (one connection per
    request, as the stdlib server closes after each response)."""

    def __init__(self, port: int) -> None:
        self.port = port

    def request(self, method: str, path: str,
                timeout: float = 60.0) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def json(self, method: str, path: str) -> dict:
        status, body = self.request(method, path)
        if status != 200:
            raise BenchError(f"{method} {path} -> {status}: {body[:200]!r}")
        return json.loads(body)

    def timed(self, method: str, path: str) -> tuple[float, bytes]:
        start = time.perf_counter()
        status, body = self.request(method, path)
        elapsed = time.perf_counter() - start
        if status != 200:
            raise BenchError(f"{method} {path} -> {status}: {body[:200]!r}")
        return elapsed, body


# -- /proc --------------------------------------------------------------------

def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it."""
    found, stack = [], [pid]
    while stack:
        current = stack.pop()
        found.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
            except OSError:
                continue
    return found


def cpu_seconds(pids: list[int]) -> float:
    """User plus system CPU seconds of ``pids`` (exited ones read 0)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _TICKS


def pss_mb(pids: list[int]) -> float:
    """Summed proportional set size of ``pids`` in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# -- the daemon ---------------------------------------------------------------

def _is_ours(pid: int, args: list[str]) -> bool:
    """Whether ``pid`` still runs the daemon's command line (workers
    are forked, so they share it) -- never signal a reused pid."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            cmdline = fh.read().split(b"\0")
    except OSError:
        return False
    return [part.decode(errors="replace") for part in cmdline
            if part] == list(args)


class Daemon:
    """One ``repro serve`` process launched through the CLI.

    :meth:`launch` returns once ``/readyz`` answers 200 and records
    ``setup_s`` (launch to ready). Readiness is polled every
    millisecond, well under 1% of a start-up of about a second; the
    port comes from the announcement the CLI writes to stderr, which is
    redirected to a file so no pipe can fill up and stall the daemon.
    """

    def __init__(self, bank: Path, source: Path, workdir: Path,
                 extra: list[str]) -> None:
        self.bank = bank
        self.source = source
        self.workdir = workdir
        self.extra = extra
        self.proc: subprocess.Popen | None = None
        self.api: Api | None = None
        self.setup_s = 0.0
        self.stop_s = 0.0
        self._pids: list[int] = []
        self._log = workdir / "serve.stderr"

    def launch(self) -> "Daemon":
        checkpoint = self.workdir / "checkpoint"
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--bank", str(self.bank),
                   "--source", f"tail:{self.source}",
                   "--port", "0", "--checkpoint-dir", str(checkpoint),
                   *self.extra]
        log = open(self._log, "wb")
        start = time.perf_counter()
        try:
            self.proc = subprocess.Popen(command, env=program_env(),
                                         stdout=subprocess.DEVNULL,
                                         stderr=log, cwd=self.workdir)
        finally:
            log.close()
        try:
            port = self._await_port(start)
            self.api = Api(port)
            self._await_ready(start)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start
        return self

    def _await_port(self, start: float) -> int:
        while time.perf_counter() - start < LAUNCH_TIMEOUT_S:
            match = _ANNOUNCE.search(self._log.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(READY_POLL_S)
        raise BenchError(f"repro serve did not announce its port: "
                         f"{self._log.read_text(errors='replace')[-800:]}")

    def _await_ready(self, start: float) -> None:
        while time.perf_counter() - start < LAUNCH_TIMEOUT_S:
            try:
                status, _ = self.api.request("GET", "/readyz", timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                return
            if self.proc.poll() is not None:
                break
            time.sleep(READY_POLL_S)
        raise BenchError("repro serve never became ready: "
                         f"{self._log.read_text(errors='replace')[-800:]}")

    def pids(self) -> list[int]:
        """The daemon and its workers (cached: the fleet is fixed once
        ready, and a re-scan per sample would cost more than the read)."""
        if not self._pids:
            self._pids = descendants(self.proc.pid)
        return self._pids

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pids())

    def pss_mb(self) -> float:
        return pss_mb(self.pids())

    def stop(self) -> None:
        """SIGTERM and wait for a clean exit; records ``stop_s``."""
        start = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=120.0)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("repro serve did not exit within 120 s of "
                             "SIGTERM") from None
        self.stop_s = time.perf_counter() - start
        if code != 0:
            raise BenchError(
                f"repro serve exited {code} after SIGTERM: "
                f"{self._log.read_text(errors='replace')[-800:]}")
        self._reap_workers()

    def kill(self) -> None:
        """Error path: end the daemon and its workers, whatever state.
        A no-op once the daemon has exited cleanly."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self._pids = descendants(self.proc.pid)
        for pid in reversed(self._pids):
            if _is_ours(pid, self.proc.args):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.proc.wait()
        self._reap_workers()

    def _reap_workers(self) -> None:
        """Wait (bounded) until no worker outlives the daemon."""
        deadline = time.monotonic() + 10.0
        for pid in self._pids[1:]:
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except OSError:
                    break
                time.sleep(0.01)
