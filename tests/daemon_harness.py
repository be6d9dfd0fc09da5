"""A live in-thread daemon for service tests, and gates that hold it.

:class:`DaemonHarness` runs a :class:`SimilarityDaemon` on a background
thread with its own event loop, bound to an ephemeral port.
:class:`ExecutionGate` makes concurrency deterministic: it holds every
query execution the daemon starts until released, so requests sent
meanwhile stay in flight instead of racing to completion.
:class:`LoopGate` holds one daemon's event loop, so it answers nothing
at all until released.
"""

from __future__ import annotations

import asyncio
import threading
import time

import repro.service.daemon as daemon_module
from repro.service import ServiceClient
from repro.service.daemon import SimilarityDaemon


class DaemonHarness:
    """A live daemon on a background thread with its own event loop."""

    def __init__(self, catalog_path: str, **kwargs) -> None:
        self.daemon: SimilarityDaemon = None  # type: ignore[assignment]
        self.loop: asyncio.AbstractEventLoop = None  # type: ignore
        ready = threading.Event()

        def _serve() -> None:
            async def _main() -> None:
                self.daemon = SimilarityDaemon(catalog_path, **kwargs)
                await self.daemon.start()
                self.loop = asyncio.get_running_loop()
                ready.set()
                await self.daemon.serve_forever()

            asyncio.run(_main())

        self.thread = threading.Thread(target=_serve, daemon=True)
        self.thread.start()
        if not ready.wait(timeout=120.0):
            raise RuntimeError("daemon did not come up")

    @property
    def port(self) -> int:
        return self.daemon.port

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, **kwargs)

    def queued(self) -> int:
        """In-flight requests besides the first one a gate holds."""
        return max(0, len(self.daemon._inflight) - 1)

    def stop(self, timeout: float = 60.0) -> None:
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.daemon.stop())
            )
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "daemon failed to drain"


class ExecutionGate:
    """Hold every in-thread daemon query execution until :meth:`release`.

    Patches ``repro.service.daemon.execute_query`` with a wrapper that
    blocks its pool thread on one shared event.  The gate itself does
    the holding: the daemon takes no lock around an execution, so every
    request sent while the gate is shut stays in flight — blocked in
    the wrapper, or queued for a pool thread when all of them are held —
    and :meth:`wait_queued` blocks until they are there.
    """

    TIMEOUT = 30.0

    def __init__(self, monkeypatch) -> None:
        self.entered = threading.Event()
        self._released = threading.Event()
        original = daemon_module.execute_query

        def execute(*args, **kwargs):
            self.entered.set()
            if not self._released.wait(timeout=self.TIMEOUT):
                raise RuntimeError("execution gate was never released")
            return original(*args, **kwargs)

        monkeypatch.setattr(daemon_module, "execute_query", execute)

    def wait_entered(self) -> None:
        """Block until an execution is held inside the kernel call."""
        assert self.entered.wait(timeout=self.TIMEOUT), "nothing executed"

    def wait_queued(self, harness: DaemonHarness, count: int) -> None:
        """Block until ``count`` more requests are in flight besides the
        first held one."""
        deadline = time.monotonic() + self.TIMEOUT
        while harness.queued() < count:
            assert time.monotonic() < deadline, (
                f"{harness.queued()} of {count} requests queued"
            )
            time.sleep(0.005)

    def release(self) -> None:
        self._released.set()


class LoopGate:
    """Hold one harness's event loop until :meth:`release`.

    While held, the daemon reads no request and sends no reply, not even
    its own ``Timeout`` reply.  A request held by an
    :class:`ExecutionGate` gets that reply at about its budget, so it
    races the client's socket timeout; a request sent to a held loop
    stays unanswered past any budget.  Release before stopping the
    harness.
    """

    def __init__(self, harness: DaemonHarness) -> None:
        self._released = threading.Event()
        held = threading.Event()

        def hold() -> None:
            held.set()
            self._released.wait(timeout=ExecutionGate.TIMEOUT)

        harness.loop.call_soon_threadsafe(hold)
        assert held.wait(timeout=ExecutionGate.TIMEOUT), "loop never held"

    def release(self) -> None:
        self._released.set()
