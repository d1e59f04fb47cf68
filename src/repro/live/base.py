"""Shared plumbing for the live runtime: clock, timers, counters, sockets."""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import socket
import time
from typing import Any, Callable, List, Optional, Set, Tuple

Endpoint = Tuple[str, int]
"""A UDP (host, port) pair as the socket layer uses it."""

DEFAULT_SOCKET_BUFFER = 1 << 22
"""4 MiB send/receive buffers. Loopback UDP drops silently once the
receive buffer overflows; at the burst rates the throughput probe
generates, the Linux defaults (typically 208 KiB) lose packets long
before the event loop is the bottleneck."""

RECV_BUDGET = 32
"""Datagrams one socket may deliver per readiness wakeup. Draining
amortizes the event-loop iteration over a burst; the cap keeps a saturated
socket from starving the loop's other sockets and timers (the rest is
delivered next iteration, after everyone had a turn). A constant: it
bounds timer delay at budget x per-datagram cost, under the ~1 ms epoll
timer granularity, and no workload wants a different trade."""

MAX_DATAGRAM = 65536  # receive buffer size: no UDP datagram is larger


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

    def call_later(self, delay_s: float, callback: Callable[..., None], *args: Any):
        """Schedule ``callback(*args)`` after ``delay_s`` seconds."""
        loop = self._loop or asyncio.get_running_loop()
        handle = None

        def fire() -> None:
            self._timers.discard(handle)
            callback(*args)

        handle = loop.call_later(delay_s, fire)
        self._timers.add(handle)
        return handle

    def call_at_cancellable(
        self, when_ns: int, callback: Callable[..., None], *args: Any
    ):
        """Schedule ``callback(*args)`` at clock time ``when_ns``."""
        return self.call_later(
            max(0, when_ns - self.clock.now) / 1e9, callback, *args
        )

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

    __len__ = pending

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
    """Per-component event counters: a dict whose missing keys read 0,
    so per-datagram paths bump in place (``counters["rx"] += 1``) without
    a method call. A name never bumped stays absent from the dict."""

    def __missing__(self, name: str) -> int:
        return 0

    def incr(self, name: str, n: int = 1) -> None:
        self[name] += n


class UdpPort:
    """A non-blocking UDP socket, drained on every readiness wakeup.

    ``remote_addr`` connects it (executors, clients: no address to
    ``sendto``, and ``addr=None`` to handlers — plain ``recv`` is cheaper);
    ``local_addr`` binds it (switch, controller replicas). On readable it
    receives until ``EWOULDBLOCK`` or :data:`RECV_BUDGET`, handing each
    datagram to ``handler()(data, addr)`` — ``handler`` is asked once per
    wakeup for the component's *current* entry point, so one wrapped
    after start-up (a tracer, a test) is the one that runs. ``data`` is a
    view of one reused buffer, valid during the call only: the codec
    copies what it keeps. Socket errors either way (ICMP port-unreachable surfacing as
    ``ConnectionRefusedError`` on a connected socket, a full send buffer)
    are counted, never raised into the handler chain. The surface is the
    slice of ``asyncio.DatagramTransport`` that the components, the chaos
    layer and the benchmark tracer use, so those may wrap a port.
    """

    def __init__(
        self,
        handler: Callable[[], Callable[[Any, Optional[Endpoint]], None]],
        counters: Counters,
        local_addr: Optional[Endpoint] = None,
        remote_addr: Optional[Endpoint] = None,
    ) -> None:
        host = (remote_addr or local_addr or ("127.0.0.1", 0))[0]
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        sock = socket.socket(family, socket.SOCK_DGRAM)
        sock.setblocking(False)
        for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            # best effort: the kernel cap (rmem_max) wins, keep what it grants
            with contextlib.suppress(OSError):
                sock.setsockopt(socket.SOL_SOCKET, option, DEFAULT_SOCKET_BUFFER)
        try:
            if local_addr is not None:
                sock.bind(local_addr)
            if remote_addr is not None:
                sock.connect(remote_addr)
        except OSError:
            sock.close()
            raise
        self._sock: Optional[socket.socket] = sock
        self._sockname = sock.getsockname()
        self._connected = remote_addr is not None
        self._handler = handler
        self._counters = counters
        self._buffer = memoryview(bytearray(MAX_DATAGRAM))
        self._loop = asyncio.get_running_loop()
        self._loop.add_reader(sock.fileno(), self._on_readable)

    def _on_readable(self) -> None:
        sock, buffer, connected = self._sock, self._buffer, self._connected
        handler = self._handler()
        addr = None
        for _ in range(RECV_BUDGET):
            try:
                if connected:
                    size = sock.recv_into(buffer)  # type: ignore[union-attr]
                else:
                    size, addr = sock.recvfrom_into(buffer)  # type: ignore[union-attr]
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._counters["socket_errors"] += 1
                continue
            handler(buffer[:size], addr)
            if self._sock is None:
                return  # the handler closed this port (kill, teardown)

    def sendto(self, data, addr: Optional[Endpoint] = None) -> None:
        sock = self._sock
        if sock is None:
            return
        try:
            if addr is None:
                sock.send(data)
            else:
                sock.sendto(data, addr)
        except (BlockingIOError, InterruptedError):
            self._counters["send_drops"] += 1
        except OSError:
            self._counters["socket_errors"] += 1

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            self._loop.remove_reader(sock.fileno())
            sock.close()

    abort = close

    def is_closing(self) -> bool:
        return self._sock is None

    def get_extra_info(self, name: str, default=None):
        info = {"socket": self._sock, "sockname": self._sockname}
        return info.get(name, default)


class SwitchPeer:
    """Lifecycle shared by the components that talk to the switch over
    one port (executor and client connected, controller replica bound):
    one transport, one set of tracked timers and tasks, and a teardown
    that leaves neither behind on the loop."""

    def __init__(self, clock: Any, transport_wrap: Optional[Callable]) -> None:
        self.clock = clock
        self.transport_wrap = transport_wrap
        self.counters = Counters()
        self._transport: Any = None
        #: timers and background tasks (watchdogs); close() cancels all
        self._timers = WallTimers(clock)
        self.closed = False

    def _connect(self, switch: Endpoint) -> None:
        self.connection_made(
            UdpPort(
                lambda: self.datagram_received,  # type: ignore[attr-defined]
                self.counters,
                remote_addr=switch,
            )
        )

    def connection_made(self, transport) -> None:
        if self.transport_wrap is not None:
            transport = self.transport_wrap(transport)
        self._transport = transport

    def close(self) -> None:
        self.closed = True
        self._timers.close()
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    async def aclose(self) -> None:
        """Close and *await* the cancelled tasks, so none outlives the
        component ("Task was destroyed but it is pending" at loop
        shutdown, under chaos teardown especially)."""
        self.close()
        await self._timers.aclose()
