"""Server processes under test: launch, set-up timing, scraping, teardown.

The service runs in its own process, started as ``repro serve`` starts it
(``python -m repro.cli serve``), or, for the traced run, through
``traced_serve.py``, which runs the same command with span recorders.
Its stdout is a pipe read only up to the ``serving ... on host:port``
banner; its stderr (logs) goes to a file in the run's work directory.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

_SERVING = re.compile(r"^serving .* on ([0-9.]+):(\d+)")
_HTTP = re.compile(r"^operations HTTP plane on ([0-9.]+):(\d+)")

BANNER_TIMEOUT_S = 60.0

#: With two or more CPUs the server runs on the last one and the
#: generator on the others, so the two processes do not trade places on
#: the cores mid-run.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = {_CPUS[-1]} if len(_CPUS) >= 2 else set()
GENERATOR_CPUS = set(_CPUS[:-1]) if len(_CPUS) >= 2 else set()


def pin_generator() -> None:
    if GENERATOR_CPUS:
        os.sched_setaffinity(0, GENERATOR_CPUS)


class BenchError(RuntimeError):
    """A workload could not run to its end."""


def server_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_SHARD_BACKEND", None)
    return env


class Server:
    """One running service process."""

    def __init__(self, serve_args: list[str], workdir: Path, tag: str,
                 spans_path: Path | None = None) -> None:
        from repro.service.client import ServiceClient

        self.spans_path = spans_path
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_serve.py"), str(spans_path), "serve"]
        cmd += ["--port", "0", "--http-port", "0", "--log-level", "warning", *serve_args]
        self.log_path = workdir / f"server-{tag}.log"
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=str(workdir), env=server_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log,
            )
        if SERVER_CPUS:
            os.sched_setaffinity(self.proc.pid, SERVER_CPUS)
        self.port = self.http_port = 0
        deadline = started + BANNER_TIMEOUT_S
        assert self.proc.stdout is not None
        while not self.port:
            line = self.proc.stdout.readline().decode(errors="replace")
            if not line:
                self.kill()
                raise BenchError(f"server exited before serving: {self.log_tail()}")
            if (m := _HTTP.match(line)) is not None:
                self.http_port = int(m.group(2))
            if (m := _SERVING.match(line)) is not None:
                self.port = int(m.group(2))
            if time.perf_counter() > deadline:
                self.kill()
                raise BenchError("server banner timed out")
        client = ServiceClient(port=self.port, binary="never")
        try:
            if not client.ping():
                raise BenchError("server did not answer ping")
        finally:
            client.close()
        self.setup_s = time.perf_counter() - started

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def rss_peak_mb(self) -> float:
        """Peak resident set size (VmHWM) of the server process."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def scrape(self) -> dict[str, float]:
        """Unlabelled samples of the Prometheus exposition, by name."""
        with urllib.request.urlopen(
            f"http://127.0.0.1:{self.http_port}/metrics", timeout=30
        ) as response:
            text = response.read().decode()
        samples: dict[str, float] = {}
        for line in text.splitlines():
            if line.startswith("#") or "{" in line or not line.strip():
                continue
            name, _, value = line.partition(" ")
            samples[name] = float(value.split()[0])
        return samples

    def dump_spans(self) -> None:
        """Ask a traced server to write its spans; wait until it has."""
        if self.spans_path is None:
            return
        if self.spans_path.exists():
            self.spans_path.unlink()
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not self.spans_path.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError("traced server did not write its spans")
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL (the crash of the durability epilogue) and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close_pipe()

    def _close_pipe(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
