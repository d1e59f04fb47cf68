"""Shared plumbing for the live runtime: clock, counters, sockets."""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import socket
import time
from typing import Any, Callable, List, Optional, Set, Tuple

Endpoint = Tuple[str, int]
"""A UDP (host, port) pair as asyncio datagram transports use it."""

DEFAULT_SOCKET_BUFFER = 1 << 22
"""4 MiB send/receive buffers. Loopback UDP drops silently once the
receive buffer overflows; at the burst rates the throughput probe
generates, the Linux defaults (typically 208 KiB) lose packets long
before the event loop is the bottleneck."""


class WallClock:
    """Monotonic nanoseconds since construction.

    Exposes the same ``.now`` attribute the simulator core does, so an
    unmodified :class:`~repro.core.scheduler.DraconisProgram` reads
    wall-clock time through ``switch.sim.now`` without knowing it left
    the simulator.
    """

    __slots__ = ("t0",)

    def __init__(self) -> None:
        self.t0 = time.monotonic_ns()

    @property
    def now(self) -> int:
        return time.monotonic_ns() - self.t0


class WallTimers:
    """The simulator's scheduling surface, on the asyncio clock.

    Code written against ``sim.now`` / ``sim.call_at_cancellable`` /
    ``sim.timeout`` + ``sim.spawn`` — the fault injector, the oracle's
    sampler, ``ctrl.CheckpointManager`` — runs on wall time through this
    object without knowing it left the simulator. Every timer and task
    it starts is tracked: :meth:`idle` answers "is anything still
    scheduled" for quiescence checks, :meth:`close` / :meth:`aclose`
    leave nothing behind on the loop.
    """

    def __init__(self, clock: Any, loop: Any = None) -> None:
        self.clock = clock
        #: ``None`` = the running loop at call time (tests pass a fake)
        self._loop = loop
        self._timers: Set[Any] = set()
        self._tasks: List[Any] = []

    @property
    def now(self) -> int:
        return self.clock.now

    def call_at_cancellable(
        self, when_ns: int, callback: Callable[..., None], *args: Any
    ):
        """Schedule ``callback(*args)`` at clock time ``when_ns``."""
        loop = self._loop or asyncio.get_running_loop()
        handle = None

        def fire() -> None:
            self._timers.discard(handle)
            callback(*args)

        handle = loop.call_later(max(0, when_ns - self.clock.now) / 1e9, fire)
        self._timers.add(handle)
        return handle

    def timeout(self, delay_ns: int) -> int:
        """What a spawned generator yields to sleep ``delay_ns``."""
        return delay_ns

    def spawn(self, work: Any, name: Optional[str] = None):
        """Run a coroutine, or a generator of :meth:`timeout` delays."""
        loop = self._loop or asyncio.get_running_loop()
        if not inspect.iscoroutine(work):
            work = self._drive(work)
        task = loop.create_task(work, name=name)
        self._tasks.append(task)
        return task

    @staticmethod
    async def _drive(gen) -> None:
        for delay_ns in gen:
            await asyncio.sleep(delay_ns / 1e9)

    def pending(self) -> int:
        """Timers scheduled and neither fired nor cancelled."""
        return sum(1 for handle in self._timers if not handle.cancelled())

    def idle(self) -> bool:
        """No timer pending and every spawned task finished."""
        return self.pending() == 0 and all(t.done() for t in self._tasks)

    def close(self) -> None:
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        for task in self._tasks:
            task.cancel()

    async def aclose(self) -> None:
        """:meth:`close`, then await the cancelled tasks off the loop."""
        self.close()
        for task in self._tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._tasks.clear()


class Counters(dict):
    """Per-component event counters (a dict with an increment helper)."""

    def incr(self, name: str, n: int = 1) -> None:
        self[name] = self.get(name, 0) + n


def bump_socket_buffers(
    transport, size: int = DEFAULT_SOCKET_BUFFER
) -> None:
    """Enlarge a datagram transport's socket buffers (best effort)."""
    sock: Optional[socket.socket] = transport.get_extra_info("socket")
    if sock is None:
        return
    for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
        try:
            sock.setsockopt(socket.SOL_SOCKET, option, size)
        except OSError:
            pass  # the kernel cap (rmem_max) wins; keep whatever it grants
