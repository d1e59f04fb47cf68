"""The live submission client: :class:`ClientCore` on a real UDP socket.

The wall-clock driver of :class:`~repro.cluster.client_core.ClientCore`
— the same packetisation, bounce backoff, resubmit deadlines and by-key
ledger the simulated :class:`repro.cluster.client.Client` runs. UDP on
loopback drops silently when a socket buffer overflows, so the resubmit
deadline is the conservation backstop; resubmit races produce *duplicate*
completions (counted, harmless), never phantoms or losses. This class
adds the connected port, the wall timers (one per bounced batch, one for
the earliest deadline) and the live evidence: counters, the end-to-end
latency histogram and the per-job ``on_job_done`` callback. Backoff
jitter draws from a seeded RNG stream, never wall-clock entropy, so two
runs of the same seed retry on the same schedule (modulo event-loop
timing).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.cluster.client_core import (
    DONE,
    DUPLICATE,
    LATE,
    LIVE_CLIENT_CONFIG,
    STRAY,
    ClientConfig,
    ClientCore,
)
from repro.cluster.task import TaskSpec
from repro.errors import ProtocolError
from repro.live.base import Endpoint, SwitchPeer, WallClock
from repro.obs.hdr import LogHistogram
from repro.protocol import codec
from repro.protocol.messages import (
    Completion,
    ErrorPacket,
    JobSubmission,
    SubmissionAck,
    TaskKey,
)

#: the counter for a completion that was not the task's first in time
_ODD_COMPLETIONS = {
    LATE: "late_completions",
    DUPLICATE: "duplicates",
    STRAY: "phantoms",
}


class LiveClient(SwitchPeer):
    """One submitting client on a connected UDP socket."""

    def __init__(
        self,
        uid: int = 0,
        config: Optional[ClientConfig] = None,
        clock: Optional[WallClock] = None,
        on_job_done: Optional[Callable[[int], None]] = None,
        rng: Optional[np.random.Generator] = None,
        transport_wrap: Optional[Callable] = None,
    ) -> None:
        self.uid = uid
        self.config = config or LIVE_CLIENT_CONFIG
        self.on_job_done = on_job_done
        super().__init__(clock or WallClock(), transport_wrap)
        self.core = ClientCore(uid, self.config, rng)
        #: end-to-end latency (submit -> completion notice), nanoseconds
        self.e2e_hist = LogHistogram()
        #: per unfinished job: [tasks neither completed nor given up,
        #: submit time]
        self._jobs: Dict[int, List[int]] = {}
        #: the timer armed for the earliest resubmit deadline, once started
        self._wake: Any = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self, switch: Endpoint) -> None:
        self._connect(switch)
        self._started = True
        self._arm_deadline()

    # -- submission --------------------------------------------------------

    def submit(self, specs: Sequence[TaskSpec]) -> int:
        """Submit one job of ``specs``; returns its jid."""
        now = self.clock.now
        jid, packets = self.core.submit(now, specs)
        self._jobs[jid] = [len(specs), now]
        self.counters["jobs_submitted"] += 1
        self.counters["tasks_submitted"] += len(specs)
        self._send(packets)
        return jid

    def _send(self, packets: List[JobSubmission]) -> None:
        """Put packets on the wire and keep the deadline timer armed.
        Like the simulated client, the timer sleeps through to the
        deadline it was armed for."""
        transport = self._transport
        if transport is None:
            return
        for message in packets:
            transport.sendto(codec.encode(message))
        self.counters["submissions_sent"] += len(packets)
        if self._wake is None and self._started:
            self._arm_deadline()

    def _arm_deadline(self) -> None:
        deadline = self.core.next_deadline()
        if deadline is not None:
            self._wake = self._timers.call_at_cancellable(
                deadline, self._on_deadline
            )

    # -- receive -----------------------------------------------------------

    def datagram_received(self, data, addr) -> None:
        try:
            message = codec.decode(data)
        except ProtocolError:
            self.counters["malformed"] += 1
            return
        cls = message.__class__
        if cls is Completion:
            self._on_completion(message)
        elif cls is ErrorPacket:
            self._on_bounce(message)
        elif cls is SubmissionAck:
            self.counters["acks"] += 1
        else:
            self.counters.incr("unexpected")

    def _on_completion(self, completion: Completion) -> None:
        jid = completion.jid
        status = self.core.complete((completion.uid, jid, completion.tid))
        if status != DONE:
            # LATE: the retry budget ran out, but a copy already queued
            # finished anyway — the task did complete (the ledger says
            # so), its job was already released at the give-up.
            self.counters.incr(_ODD_COMPLETIONS[status])
            return
        self.counters["completed"] += 1
        self.e2e_hist.record(self.clock.now - self._jobs[jid][1])
        self._job_finished_one(jid)

    def _job_finished_one(self, jid: int) -> None:
        job = self._jobs[jid]
        job[0] -= 1
        if not job[0]:
            del self._jobs[jid]
            if self.on_job_done is not None:
                self.on_job_done(jid)

    def _give_up(self, keys: List[TaskKey], reason: str) -> None:
        for key in keys:
            self.counters.incr("give_ups")
            self.counters.incr(reason)
            self._job_finished_one(key[1])

    def _on_bounce(self, error: ErrorPacket) -> None:
        self.counters.incr("bounces")
        if not self.closed:
            self._timers.call_later(
                self.core.bounce_delay_ns(error) / 1e9,
                self._retry_bounced,
                error,
            )

    def _retry_bounced(self, error: ErrorPacket) -> None:
        packets, gave_up = self.core.retry_bounced(self.clock.now, error)
        self._give_up(gave_up, "bounce_give_ups")
        if packets:
            self.counters.incr(
                "bounce_retries", sum(len(p.tasks) for p in packets)
            )
            self._send(packets)

    # -- loss recovery -----------------------------------------------------

    def _on_deadline(self) -> None:
        self._wake = None
        packets, gave_up = self.core.expire(self.clock.now)
        self._give_up(gave_up, "timeout_give_ups")
        if packets:
            self.counters.incr("resubmits", len(packets))  # one task each
        self._send(packets)

    # -- accounting --------------------------------------------------------

    @property
    def tasks_submitted(self) -> int:
        return self.counters.get("tasks_submitted", 0)

    @property
    def completed_count(self) -> int:
        return self.core.completed

    @property
    def pending_count(self) -> int:
        """Tasks still being retried."""
        return len(self.core.outstanding) - len(self.core.gave_up)

    @property
    def lost_count(self) -> int:
        """Tasks not completed: given up, or still being retried."""
        return len(self.core.outstanding)

    def pending_keys(self) -> Set[TaskKey]:
        return set(self.core.outstanding) - self.core.gave_up

    def gave_up_keys(self) -> Set[TaskKey]:
        return set(self.core.gave_up)

    async def drain(self, timeout_s: float) -> int:
        """Wait for the pending set to empty; returns what is left."""
        deadline = self.clock.now + int(timeout_s * 1e9)
        while self.pending_count and self.clock.now < deadline:
            await asyncio.sleep(0.01)
        return self.pending_count
