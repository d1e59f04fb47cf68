"""The live submission client: submit, track, retry, account.

Mirrors the simulated :class:`repro.cluster.client.Client` contract on a
real socket: jobs split into codec-limit packets, bounced tasks retry
with capped-exponential backoff (honouring the switch's
``backoff_hint_ns``), and a resubmit watchdog covers outright datagram
loss — UDP on loopback drops silently when a socket buffer overflows, so
the client is the conservation backstop. Task accounting is by unique
``(uid, jid, tid)`` key: resubmit races produce *duplicate* completions
(counted, harmless), never phantoms or losses. Backoff jitter draws from
a seeded RNG stream, never wall-clock entropy, so two runs of the same
seed retry on the same schedule (modulo event-loop timing).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.cluster.task import FN_SPIN, TaskSpec, encode_duration
from repro.errors import ProtocolError
from repro.live.base import Endpoint, SwitchPeer, WallClock
from repro.obs.hdr import LogHistogram
from repro.protocol import codec
from repro.protocol.messages import (
    Completion,
    ErrorPacket,
    JobSubmission,
    SubmissionAck,
    TaskInfo,
    TaskKey,
)


@dataclass
class LiveClientConfig:
    """Retry and framing knobs."""

    max_tasks_per_packet: int = codec.MAX_TASKS_PER_PACKET
    #: base bounce-retry delay; doubles per retry of the same task.
    bounce_retry_s: float = 0.001
    #: cap on the exponential (2**n doublings of bounce_retry_s).
    bounce_backoff_max: int = 6
    #: ± fraction of jitter on each bounce wait (seeded RNG, not wall
    #: clock), desynchronizing clients that bounced together.
    bounce_jitter: float = 0.2
    #: shared retry budget per task (bounces + loss resubmits).
    max_retries: int = 12
    #: tasks pending longer than this are resubmitted (loss recovery);
    #: None disables the watchdog.
    resubmit_timeout_s: Optional[float] = 1.0


class _Pending:
    __slots__ = ("info", "jid", "submitted_ns", "retries")

    def __init__(self, info: TaskInfo, jid: int, submitted_ns: int) -> None:
        self.info = info
        self.jid = jid
        self.submitted_ns = submitted_ns
        self.retries = 0


class LiveClient(SwitchPeer):
    """One submitting client on a connected UDP socket."""

    def __init__(
        self,
        uid: int = 0,
        config: Optional[LiveClientConfig] = None,
        clock: Optional[WallClock] = None,
        on_job_done: Optional[Callable[[int], None]] = None,
        rng: Optional[np.random.Generator] = None,
        transport_wrap: Optional[Callable] = None,
    ) -> None:
        self.uid = uid
        self.config = config or LiveClientConfig()
        self.on_job_done = on_job_done
        self.rng = rng
        super().__init__(clock or WallClock(), transport_wrap)
        #: end-to-end latency (submit -> completion notice), nanoseconds
        self.e2e_hist = LogHistogram()
        self._pending: Dict[TaskKey, _Pending] = {}
        self._done: Set[TaskKey] = set()
        self._gave_up: Set[TaskKey] = set()
        self._job_left: Dict[int, int] = {}
        self._next_jid = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self, switch: Endpoint) -> None:
        self._connect(switch)
        if self.config.resubmit_timeout_s is not None:
            self._timers.spawn(self._watch())

    # -- submission --------------------------------------------------------

    def submit(self, specs: Sequence[TaskSpec]) -> int:
        """Submit one job of ``specs``; returns its jid."""
        jid = self._next_jid
        self._next_jid += 1
        now = self.clock.now
        infos = []
        for tid, spec in enumerate(specs):
            fn_par = (
                encode_duration(spec.duration_ns)
                if spec.fn_id == FN_SPIN and spec.duration_ns > 0
                else b""
            )
            info = TaskInfo(tid, spec.fn_id, fn_par, spec.tprops)
            infos.append(info)
            self._pending[(self.uid, jid, tid)] = _Pending(info, jid, now)
        self._job_left[jid] = len(infos)
        self.counters["jobs_submitted"] += 1
        self.counters["tasks_submitted"] += len(infos)
        self._send_tasks(jid, infos)
        return jid

    def _send_tasks(self, jid: int, infos: Sequence[TaskInfo]) -> None:
        if self._transport is None:
            return
        limit = self.config.max_tasks_per_packet
        for i in range(0, len(infos), limit):
            self._transport.sendto(
                codec.encode(
                    JobSubmission(self.uid, jid, list(infos[i : i + limit]))
                )
            )
            self.counters["submissions_sent"] += 1

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
        key = (completion.uid, completion.jid, completion.tid)
        entry = self._pending.pop(key, None)
        if entry is None:
            if key in self._done:
                # A resubmitted task finished twice; by-key accounting
                # keeps conservation exact.
                self.counters.incr("duplicates")
            elif key in self._gave_up:
                # The retry budget ran out, but a copy was already queued
                # and finished anyway (e.g. behind a fault window). The
                # task *did* complete — move it back to done so the loss
                # accounting stays truthful. No latency sample: the
                # give-up discarded its submit timestamp.
                self._gave_up.discard(key)
                self._done.add(key)
                self.counters.incr("late_completions")
            else:
                self.counters.incr("phantoms")
            return
        self._done.add(key)
        self.counters["completed"] += 1
        self.e2e_hist.record(self.clock.now - entry.submitted_ns)
        self._job_finished_one(entry.jid)

    def _job_finished_one(self, jid: int) -> None:
        left = self._job_left.get(jid)
        if left is None:
            return
        left -= 1
        if left <= 0:
            del self._job_left[jid]
            if self.on_job_done is not None:
                self.on_job_done(jid)
        else:
            self._job_left[jid] = left

    def _on_bounce(self, error: ErrorPacket) -> None:
        self.counters.incr("bounces")
        retry: List[TaskInfo] = []
        max_retry_round = 0
        for info in error.tasks:
            key = (error.uid, error.jid, info.tid)
            entry = self._pending.get(key)
            if entry is None:
                continue  # completed (or given up) while the bounce flew
            entry.retries += 1
            if entry.retries > self.config.max_retries:
                self._give_up(key, entry, "bounce_give_ups")
                continue
            max_retry_round = max(max_retry_round, entry.retries)
            retry.append(entry.info)
        if not retry or self.closed:
            return
        exponent = min(max_retry_round - 1, self.config.bounce_backoff_max)
        delay_s = self.config.bounce_retry_s * (1 << exponent)
        if self.rng is not None and self.config.bounce_jitter > 0:
            jitter = self.config.bounce_jitter
            delay_s *= 1.0 + float(self.rng.uniform(-jitter, jitter))
        delay_s = max(delay_s, error.backoff_hint_ns / 1e9)
        self.counters.incr("bounce_retries", len(retry))
        self._timers.call_later(delay_s, self._send_tasks, error.jid, retry)

    def _give_up(self, key: TaskKey, entry: _Pending, reason: str) -> None:
        del self._pending[key]
        self._gave_up.add(key)
        self.counters.incr("give_ups")
        self.counters.incr(reason)
        self._job_finished_one(entry.jid)

    # -- loss recovery -----------------------------------------------------

    async def _watch(self) -> None:
        timeout_s = self.config.resubmit_timeout_s
        assert timeout_s is not None
        timeout_ns = int(timeout_s * 1e9)
        while not self.closed:
            await asyncio.sleep(timeout_s / 4)
            now = self.clock.now
            stale: Dict[int, List[TaskInfo]] = {}
            for key, entry in list(self._pending.items()):
                if now - entry.submitted_ns < timeout_ns * (entry.retries + 1):
                    continue
                entry.retries += 1
                if entry.retries > self.config.max_retries:
                    self._give_up(key, entry, "timeout_give_ups")
                    continue
                stale.setdefault(entry.jid, []).append(entry.info)
            for jid, infos in stale.items():
                self.counters.incr("resubmits", len(infos))
                self._send_tasks(jid, infos)

    # -- accounting --------------------------------------------------------

    @property
    def tasks_submitted(self) -> int:
        return self.counters.get("tasks_submitted", 0)

    @property
    def completed_count(self) -> int:
        return len(self._done)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def gave_up_count(self) -> int:
        return len(self._gave_up)

    @property
    def lost_count(self) -> int:
        """Tasks neither completed nor still being retried."""
        return len(self._gave_up) + len(self._pending)

    def pending_keys(self) -> Set[TaskKey]:
        return set(self._pending)

    def gave_up_keys(self) -> Set[TaskKey]:
        return set(self._gave_up)

    async def drain(self, timeout_s: float) -> int:
        """Wait for the pending set to empty; returns what is left."""
        deadline = self.clock.now + int(timeout_s * 1e9)
        while self._pending and self.clock.now < deadline:
            await asyncio.sleep(0.01)
        return len(self._pending)
