"""A wall-clock executor: register, pull, execute, complete, repeat.

The live executor mirrors the simulated one (pull model, §4.6; piggyback
pulls on completions, §3.1) on a real socket. Task durations come from
the FN_PAR blob exactly as in the simulator; *how* they elapse is the one
place the live runtime must diverge:

* durations at or below ``spin_under_ns`` busy-spin on
  ``time.perf_counter_ns`` — the paper's executors "continually perform
  integer arithmetic operations for the task duration" (§8.4), and an
  asyncio timer cannot express microseconds anyway;
* longer durations yield to the event loop via ``call_later`` (epoll
  timer granularity ≈ 1 ms — a documented sim-vs-live deviation, see
  DESIGN.md §9);
* zero-duration tasks (the FN_NOOP throughput probe) complete inline.

Outstanding work is self-limited to ``max_outstanding`` pulls + running
tasks (the JBSQ-style bound the switch also enforces from the
registration handshake). A watchdog re-registers until acked and clears
pull credit that a dropped datagram left dangling.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cluster.task import FN_NOOP, decode_duration
from repro.errors import ProtocolError
from repro.live.base import Endpoint, SwitchPeer, WallClock
from repro.obs.hdr import LogHistogram
from repro.protocol import codec
from repro.protocol.messages import (
    Completion,
    ExecutorRegister,
    NoOpTask,
    RegisterAck,
    TaskAssignment,
    TaskRequest,
)


@dataclass
class LiveExecutorConfig:
    """Tunables for one live executor."""

    #: JBSQ-style bound on outstanding pulls + running tasks.
    max_outstanding: int = 2
    #: base re-poll delay after a no-op (doubles per consecutive no-op).
    poll_interval_s: float = 0.002
    #: cap on the no-op backoff (2**n doublings of poll_interval_s).
    poll_backoff_max: int = 5
    #: durations at or below this busy-spin; above, an asyncio timer.
    spin_under_ns: int = 1_000_000
    #: multiply every task duration (slow-motion runs / unit tests /
    #: the live WorkerSlowdown fault, which scales and later restores it).
    time_scale: float = 1.0
    #: registration retry + lost-pull recovery period.
    watchdog_s: float = 0.25


class LiveExecutor(SwitchPeer):
    """One executor process-equivalent on a connected UDP socket."""

    def __init__(
        self,
        executor_id: int,
        switch: Endpoint,
        config: Optional[LiveExecutorConfig] = None,
        node_id: int = 0,
        rack_id: int = 0,
        exec_rsrc: int = 0,
        transport_wrap: Optional[Callable] = None,
    ) -> None:
        self.executor_id = executor_id
        self.switch = switch
        self.config = config or LiveExecutorConfig()
        self.node_id = node_id
        self.rack_id = rack_id
        self.exec_rsrc = exec_rsrc
        super().__init__(WallClock(), transport_wrap)
        #: wall-clock service time per executed task, nanoseconds
        self.service_hist = LogHistogram()
        self.epoch = 0
        self.registered = asyncio.Event()
        self._idle_pulls = 0
        self._running = 0
        self._scheduled_pulls = 0
        self._noop_streak = 0
        self._request = TaskRequest(
            executor_id=executor_id,
            node_id=node_id,
            rack_id=rack_id,
            exec_rsrc=exec_rsrc,
        )
        self._request_bytes = codec.encode(self._request)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._connect(self.switch)
        self._timers.spawn(self._watch())

    async def wait_registered(self, timeout_s: float = 2.0) -> None:
        await asyncio.wait_for(self.registered.wait(), timeout_s)

    def kill(self) -> None:
        """Fail-stop this executor (the live WorkerCrash fault).

        Identical to :meth:`close` — a crashed process sends nothing, not
        even in-flight completions — but named for the injector so crash
        sites are greppable. Tasks it held die with it; the client's
        resubmit watchdog recovers them through other executors.
        """
        self.counters.incr("killed")
        self.close()

    # -- protocol ----------------------------------------------------------

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self._register()

    def datagram_received(self, data, addr) -> None:
        counters = self.counters
        try:
            message = codec.decode(data)
        except ProtocolError:
            counters["malformed"] += 1
            return
        cls = message.__class__
        if cls is TaskAssignment:
            if self._idle_pulls > 0:
                self._idle_pulls -= 1
            self._noop_streak = 0
            counters["assignments"] += 1
            self._execute(message)
        elif cls is NoOpTask:
            if self._idle_pulls > 0:
                self._idle_pulls -= 1
            counters["noops"] += 1
            self._noop_streak += 1
            exponent = min(self._noop_streak - 1, self.config.poll_backoff_max)
            self._schedule_pull(self.config.poll_interval_s * (1 << exponent))
        elif cls is RegisterAck:
            if message.accepted:
                self.epoch = message.epoch
                if not self.registered.is_set():
                    self.registered.set()
                self._ensure_pulls()
            else:
                counters.incr("register_rejected")
        else:
            counters.incr("unexpected")

    # -- registration + pulls ----------------------------------------------

    def _register(self) -> None:
        if self._transport is None:
            return
        self.counters.incr("register_sent")
        self._transport.sendto(
            codec.encode(
                ExecutorRegister(
                    executor_id=self.executor_id,
                    node_id=self.node_id,
                    rack_id=self.rack_id,
                    exec_rsrc=self.exec_rsrc,
                    max_outstanding=self.config.max_outstanding,
                )
            )
        )

    def _outstanding(self) -> int:
        return self._idle_pulls + self._running + self._scheduled_pulls

    def _ensure_pulls(self) -> None:
        while (
            not self.closed
            and self._transport is not None
            and self._outstanding() < self.config.max_outstanding
        ):
            self._idle_pulls += 1
            self.counters["pulls"] += 1
            self._transport.sendto(self._request_bytes)

    def _schedule_pull(self, delay_s: float) -> None:
        if self.closed:
            return
        if self._outstanding() >= self.config.max_outstanding:
            return
        self._scheduled_pulls += 1
        self._timers.call_later(delay_s, self._fire_scheduled_pull)

    def _fire_scheduled_pull(self) -> None:
        self._scheduled_pulls -= 1
        self._ensure_pulls()

    async def _watch(self) -> None:
        """Re-register until acked; recover pulls lost to datagram drops.

        If nothing has been outstanding-consistent for a full watchdog
        period — idle pulls recorded but no traffic arriving — the pulls
        (or their replies) were dropped; zero the credit and pull again.
        Parked pulls at the switch expire well inside one period, so a
        healthy quiet system re-pulls at this cadence too, which is the
        drain path after the workload ends.
        """
        last_rx = dict(self.counters)
        while not self.closed:
            await asyncio.sleep(self.config.watchdog_s)
            if not self.registered.is_set():
                self._register()
                continue
            progressed = dict(self.counters) != last_rx
            last_rx = dict(self.counters)
            if progressed:
                continue
            if self._idle_pulls > 0:
                self.counters.incr("watchdog_repulls")
                self._idle_pulls = 0
            self._ensure_pulls()

    # -- execution ---------------------------------------------------------

    def _execute(self, assignment: TaskAssignment) -> None:
        task = assignment.task
        duration_ns = 0
        if task.fn_id != FN_NOOP:
            duration_ns = int(
                decode_duration(task.fn_par) * self.config.time_scale
            )
        started = time.monotonic_ns()  # the one clock read of an inline task
        if duration_ns <= 0:
            self._complete(assignment, started, started)
        elif duration_ns <= self.config.spin_under_ns:
            self.counters["spins"] += 1
            self._running += 1
            deadline = started + duration_ns
            now = time.monotonic_ns()
            while now < deadline:
                now = time.monotonic_ns()
            self._running -= 1
            self._complete(assignment, started, now)
        elif not self.closed:
            self.counters["timers"] += 1
            self._running += 1
            self._timers.call_later(
                duration_ns / 1e9, self._finish_timer, assignment, started
            )

    def _finish_timer(self, assignment: TaskAssignment, started_ns: int) -> None:
        self._running -= 1
        self._complete(assignment, started_ns, time.monotonic_ns())

    def _complete(
        self, assignment: TaskAssignment, started_ns: int, now_ns: int
    ) -> None:
        if self._transport is None:
            return
        self.service_hist.record(now_ns - started_ns)
        self.counters["completions"] += 1
        # Piggyback the next pull on the completion (§3.1) whenever the
        # freed slot leaves budget for one; the switch processes both in
        # the same traversal.
        piggyback = None
        if (
            not self.closed
            and self._outstanding() < self.config.max_outstanding
        ):
            self._idle_pulls += 1
            self.counters["pulls"] += 1
            piggyback = self._request
        self._transport.sendto(
            codec.encode(
                Completion(
                    assignment.uid,
                    assignment.jid,
                    assignment.task.tid,
                    self.executor_id,
                    True,
                    assignment.client,
                    piggyback,
                )
            )
        )
