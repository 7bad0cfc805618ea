"""Start and stop ``wotsim run`` as a separate process, and read its CPU time
and thread count from /proc."""

from __future__ import annotations

import http.client
import os
import socket
import subprocess
import sys
import time
from urllib.parse import quote

from workloads import ROOT

HOST = "127.0.0.1"
READY_TIMEOUT = 60.0
_TICKS = os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def _answers_200(port: int, path: str) -> bool:
    conn = http.client.HTTPConnection(HOST, port, timeout=5.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        response.read()
        return response.status == 200
    except OSError:
        return False
    finally:
        conn.close()


class Servient:
    """One ``wotsim run`` process serving the given TD files."""

    def __init__(self, td_paths: list, titles: list[str], seed: int,
                 event_args: list[str], log_path):
        self.port = free_port()
        self.base_url = f"http://{HOST}:{self.port}"
        self.titles = titles
        cmd = [sys.executable, "-m", "wotsim", "run", *map(str, td_paths),
               "--address", HOST, "--port", str(self.port), "--seed", str(seed),
               "--log-level", "warn", *event_args]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self._log,
                                     env=env, cwd=ROOT)
        try:
            self._wait_ready(started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self, started: float) -> None:
        path = "/" + quote(self.titles[0], safe="")
        while not _answers_200(self.port, path):
            if self.proc.poll() is not None:
                raise RuntimeError(f"wotsim run exited with {self.proc.returncode}"
                                   f" (log: {self._log.name})")
            if time.perf_counter() - started > READY_TIMEOUT:
                raise RuntimeError("wotsim run did not answer within "
                                   f"{READY_TIMEOUT:.0f} s")
            time.sleep(0.002)

    def cpu_s(self) -> float:
        """User plus system CPU seconds the servient has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def threads(self) -> int:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
        raise RuntimeError("no thread count in /proc status")

    def stop(self) -> None:
        """Kill the servient and wait until it has ended. Its graceful
        shutdown is not measured and takes half a second."""
        self.proc.kill()
        self.proc.wait()
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
