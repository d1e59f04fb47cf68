"""Open-loop clients submitting jobs to the scheduler (paper §3.1).

The simulator driver of :class:`~repro.cluster.client_core.ClientCore`:
the core decides what to send (packetisation §4.3, bounce retries §4.3,
timeout resubmissions §8.3 — the paper sets 2× the execution time in the
R2P2 drop experiments and notes clients typically use 5–10×); this class
owns the :class:`~repro.net.host.Socket`, the three generator processes
that wait on simulated time, and the evidence the simulator has and a
real client would not — the :class:`~repro.metrics.collector.
MetricsCollector` records, including whether a timed-out task is known
to be running somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.cluster.client_core import DUPLICATE, STRAY, ClientConfig, ClientCore
from repro.cluster.task import SubmitEvent
from repro.metrics.collector import MetricsCollector
from repro.net.host import Host, Socket
from repro.net.packet import Address
from repro.protocol import codec
from repro.protocol.messages import (
    Completion,
    ErrorPacket,
    JobSubmission,
    TaskKey,
)
from repro.sim.core import Simulator

__all__ = ["CLIENT_PORT", "Client", "ClientConfig", "ClientStats"]

CLIENT_PORT = 6000


@dataclass
class ClientStats:
    jobs_submitted: int = 0
    packets_sent: int = 0
    tasks_submitted: int = 0
    tasks_completed: int = 0
    bounces: int = 0
    #: bounced tasks abandoned because their shared retry budget
    #: (``max_retries``, bounces + timeouts combined) ran out
    bounce_give_ups: int = 0
    timeouts: int = 0
    #: timed-out tasks abandoned because the shared retry budget ran out
    timeout_give_ups: int = 0
    #: completion notices for tasks already completed (resubmission races
    #: or duplicated packets); suppressed, first completion wins
    duplicate_completions: int = 0
    #: completion notices for tasks this client never submitted (stray or
    #: misrouted traffic); ignored without creating a phantom record
    stray_completions: int = 0


class Client:
    """One submitting client (UID) with an open-loop arrival process."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        uid: int,
        scheduler: Address,
        workload: Iterable[SubmitEvent],
        collector: MetricsCollector,
        config: Optional[ClientConfig] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.uid = uid
        self.scheduler = scheduler
        self.collector = collector
        self.config = config or ClientConfig()
        self.stats = ClientStats()
        self.socket: Socket = host.socket(CLIENT_PORT)
        self.core = ClientCore(
            uid, self.config, np.random.default_rng(100_000 + uid)
        )
        #: set while the timeout process sleeps on an empty deadline heap
        self._timeout_waker = None
        self.submit_process = sim.spawn(
            self._submit_loop(iter(workload)), name=f"client{uid}-submit"
        )
        self.recv_process = sim.spawn(self._recv_loop(), name=f"client{uid}-recv")
        if self.config.timeout_factor is not None:
            self.timeout_process = sim.spawn(
                self._timeout_loop(), name=f"client{uid}-timeout"
            )

    # -- sending ------------------------------------------------------------

    def _send(self, packets: List[JobSubmission]) -> None:
        for message in packets:
            self.socket.send(self.scheduler, message, codec.wire_size(message))
        self.stats.packets_sent += len(packets)

    def _wake_timeouts(self) -> None:
        """A deadline was armed while the timeout process slept on none."""
        waker = self._timeout_waker
        if waker is not None and self.core.deadlines:
            self._timeout_waker = None
            waker.succeed()

    def _submit_event(self, event: SubmitEvent) -> None:
        now = self.sim.now
        jid, packets = self.core.submit(now, event.tasks)
        self._wake_timeouts()
        on_submit = self.collector.on_submit
        for tid, spec in enumerate(event.tasks):
            on_submit(
                (self.uid, jid, tid), now, priority=spec.priority,
                duration_ns=spec.duration_ns,
            )
        self.stats.jobs_submitted += 1
        self.stats.tasks_submitted += len(event.tasks)
        self._send(packets)

    def _submit_loop(self, events):
        for event in events:
            if event.time_ns > self.sim.now:
                yield self.sim.timeout(event.time_ns - self.sim.now)
            self._submit_event(event)

    # -- responses ------------------------------------------------------------

    def _recv_loop(self):
        while True:
            packet = yield self.socket.recv()
            payload = packet.payload
            if isinstance(payload, Completion):
                self._on_completion(payload)
            elif isinstance(payload, ErrorPacket):
                self.sim.spawn(self._retry_bounced(payload))
            # SubmissionAck is informational; anything else is stray traffic

    def _on_completion(self, completion: Completion) -> None:
        key = completion.key
        status = self.core.complete(key)
        if status == STRAY:
            self.stats.stray_completions += 1
            return
        self.collector.on_complete(key, self.sim.now)
        if status == DUPLICATE:
            self.stats.duplicate_completions += 1
        else:
            self.stats.tasks_completed += 1

    def _resent(self, packets: List[JobSubmission], record) -> int:
        """Tell the collector about every re-sent task, then send."""
        now, count = self.sim.now, 0
        for message in packets:
            for key in message.task_keys():
                record(key, now)
                count += 1
        self._send(packets)
        return count

    def _retry_bounced(self, error: ErrorPacket):
        """Re-send tasks rejected by a full queue, after a backoff wait."""
        yield self.sim.timeout(self.core.bounce_delay_ns(error))
        packets, gave_up = self.core.retry_bounced(self.sim.now, error)
        self.stats.bounce_give_ups += len(gave_up)
        self._wake_timeouts()
        self.stats.bounces += self._resent(packets, self.collector.on_bounce)

    # -- timeouts (§8.3) -------------------------------------------------------

    def _presumed_running(self, key: TaskKey, window_ns: int) -> bool:
        """Whether this task is plausibly still executing somewhere.

        ``started_at`` alone is not enough: an executor that crashed
        mid-task leaves the record started-but-never-finished forever, and
        trusting it would mean never resubmitting — the task is lost. A
        start only defers resubmission while the execution is younger than
        the task's own timeout window; past that, the executor is presumed
        dead (or the completion lost) and the client resubmits. Finished
        but the completion never arrived: resubmit.
        """
        record = self.collector.records.get(key)
        if record is None or record.started_at < 0 or record.finished_at >= 0:
            return False
        return self.sim.now - record.started_at <= window_ns

    def _timeout_loop(self):
        core = self.core
        while True:
            packets, gave_up = core.expire(self.sim.now, self._presumed_running)
            self.stats.timeout_give_ups += len(gave_up)
            self.stats.timeouts += self._resent(
                packets, self.collector.on_resubmit
            )
            deadline = core.next_deadline()
            if deadline is None:
                self._timeout_waker = self.sim.event()
                yield self._timeout_waker
            else:
                # Sleeps through to the deadline it saw: one armed
                # meanwhile with an earlier deadline is served late.
                yield self.sim.timeout(deadline - self.sim.now)

    # -- verify-oracle inspection -------------------------------------------

    def gave_up_keys(self) -> set:
        """Outstanding keys abandoned after the retry budget ran out."""
        return set(self.core.gave_up)

    def pending_timeout_keys(self) -> set:
        """Outstanding keys that still have a resubmit timer armed."""
        return self.core.pending_timeout_keys()
