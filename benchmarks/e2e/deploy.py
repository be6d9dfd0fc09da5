"""Where the benchmark runs: paths, child processes and their resource use.

Everything a run writes lives under ``.bench_work/`` at the checkout root
and is removed when the run ends.  Daemons are real ``python -m
repro.cli serve`` subprocesses (or ``traced_serve.py`` in a traced run);
:class:`Fleet` starts them, waits for their ready lines and always stops
and reaps them.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
READY_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0
_TICKS = os.sysconf("SC_CLK_TCK")
#: One BLAS thread per process.  Every workload already runs more
#: threads than the 2-core box has; extra BLAS workers spin-wait, which
#: doubled the CPU per served op and made run-to-run throughput bimodal.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def pin_environment() -> None:
    """This process's environment, before numpy loads: default plan policy
    (``REPRO_PLAN_MODE`` unset) and one BLAS thread; children inherit it."""
    os.environ.pop("REPRO_PLAN_MODE", None)
    os.environ.update(SINGLE_THREAD_BLAS)


def child_env() -> Dict[str, str]:
    """Environment of every child: this (pinned) one plus the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    return env


def make_workdir(tag: str) -> str:
    path = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only when no other run is using it
    except OSError:
        pass


# ---------------------------------------------------------------------------
# /proc readings
# ---------------------------------------------------------------------------


def cpu_seconds(pid: Optional[int] = None) -> float:
    """User plus system CPU seconds of one process (this one by default)."""
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of one process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# ---------------------------------------------------------------------------
# Daemon fleets
# ---------------------------------------------------------------------------


class Fleet:
    """Daemon subprocesses, one per catalog, started in parallel.

    ``spans_dir`` (traced runs) starts each daemon through
    ``traced_serve.py``, which writes its spans there when it drains.
    """

    def __init__(self, catalogs: Sequence[str], spans_dir: Optional[str] = None):
        self.processes: List[subprocess.Popen] = []
        self.ports: List[int] = []
        self.span_files: List[str] = []
        self._drains: List[threading.Thread] = []
        try:
            for index, catalog in enumerate(catalogs):
                command = [sys.executable]
                if spans_dir is None:
                    command += ["-m", "repro.cli", "serve"]
                else:
                    spans = os.path.join(spans_dir, f"daemon{index}.json")
                    self.span_files.append(spans)
                    command += [os.path.join(HERE, "traced_serve.py"), spans]
                command += ["--catalog", catalog, "--port", "0"]
                self.processes.append(
                    subprocess.Popen(
                        command,
                        stdout=subprocess.PIPE,
                        stderr=subprocess.STDOUT,
                        stdin=subprocess.DEVNULL,
                        text=True,
                        env=child_env(),
                        cwd=ROOT,
                    )
                )
            self.ports = [self._await_port(p) for p in self.processes]
        except BaseException:
            self.stop()
            raise
        # Keep reading what the daemons print so a full pipe never blocks one.
        self._drains = [
            threading.Thread(target=process.stdout.read, daemon=True)
            for process in self.processes
        ]
        for drain in self._drains:
            drain.start()

    @staticmethod
    def _await_port(process: subprocess.Popen) -> int:
        deadline = time.monotonic() + READY_TIMEOUT
        assert process.stdout is not None
        seen = []
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            seen.append(line)
            if "listening on" in line:
                address = line.split("listening on", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        raise RuntimeError(f"daemon never became ready: {''.join(seen)[-2000:]}")

    @property
    def pids(self) -> List[int]:
        return [process.pid for process in self.processes]

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def signal(self, signum: int) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.send_signal(signum)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then reap; kill what does not exit."""
        self.signal(signal.SIGTERM)
        for process in self.processes:
            try:
                process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for drain in self._drains:
            drain.join(timeout=STOP_TIMEOUT)
        for process in self.processes:
            if process.stdout is not None:
                process.stdout.close()
        self.processes = []
        self._drains = []

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
