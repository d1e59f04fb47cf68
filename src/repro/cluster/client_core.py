"""The submission client as a pure state machine (paper §3.1, §4.3, §8.3).

:class:`ClientCore` is everything a client decides, written once for both
clocks: job ids, packetisation at the codec limit (§4.3 "Handling Large
Jobs"), the by-key conservation ledger, the bounce backoff and its jitter
draw (§4.3), and per-task resubmit deadlines (§8.3) sharing one retry
budget with the bounces. Every method takes ``now`` where it needs time
and returns what to send; :meth:`ClientCore.next_deadline` says when to
wake. Nothing here reads a clock, owns a socket or yields: the simulated
:class:`repro.cluster.client.Client` and the wall-clock
:class:`repro.live.client.LiveClient` are the two drivers, each adding
only its transport, its timers and its own evidence.

The simulator's semantics are the reference (its outputs are pinned bit
for bit): a retry is counted when the task is *re-sent*, the deadline is
re-armed at every send, a task whose budget ran out stays outstanding
(and is reported given-up) until a late completion redeems it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.task import TaskSpec, decode_duration, encode_duration
from repro.protocol.codec import MAX_TASKS_PER_PACKET
from repro.protocol.messages import ErrorPacket, JobSubmission, TaskInfo, TaskKey

#: what a completion notice meant to the ledger (:meth:`ClientCore.complete`)
DONE, LATE, DUPLICATE, STRAY = range(4)

Resend = Tuple[List[JobSubmission], List[TaskKey]]
"""Packets to send now, and the keys abandoned for want of retry budget."""


@dataclass(frozen=True)
class ClientConfig:
    """Client behaviour knobs, in nanoseconds of the driver's clock.

    The defaults are the simulator's (µs-scale network);
    :data:`LIVE_CLIENT_CONFIG` is the wall-clock set.
    """

    #: base wait before retrying tasks bounced with an error_packet (§4.3)
    bounce_retry_ns: int = 50_000
    #: each bounce retry multiplies the wait (capped exponential backoff —
    #: a persistently full queue must not be hammered at a fixed interval)
    bounce_backoff: float = 2.0
    #: cap on the backoff multiplier (bounce_retry_ns × this at most)
    bounce_backoff_max: float = 32.0
    #: ± fraction of random jitter on each bounce wait, desynchronizing
    #: clients that were all bounced by the same full-queue window
    bounce_jitter: float = 0.2
    #: resubmit timeout as a multiple of task execution time; None disables
    timeout_factor: Optional[float] = None
    #: floor for the resubmit timeout (short tasks need network headroom)
    timeout_floor_ns: int = 50_000
    #: each retry multiplies the timeout (congestion would otherwise
    #: amplify: a queue-backlogged burst times out, the duplicates deepen
    #: the backlog, and the spiral never converges)
    timeout_backoff: float = 2.0
    #: give up after this many re-sends of one task (bounces + timeouts)
    max_retries: int = 8
    #: cap on tasks per job_submission packet
    max_tasks_per_packet: int = MAX_TASKS_PER_PACKET


#: Defaults for real sockets: millisecond bounce waits, and a 1 s loss
#: timeout re-armed unchanged at each send — on loopback a timeout means a
#: dropped datagram, not a backlog, so there is no congestion spiral to
#: back away from.
LIVE_CLIENT_CONFIG = ClientConfig(
    bounce_retry_ns=1_000_000,
    bounce_backoff_max=64.0,
    timeout_factor=2.0,
    timeout_floor_ns=1_000_000_000,
    timeout_backoff=1.0,
    max_retries=12,
)


class ClientCore:
    """Ledger and retry policy of one submitting client (UID)."""

    def __init__(
        self, uid: int, config: ClientConfig, rng: Any = None
    ) -> None:
        self.uid = uid
        self.config = config
        #: jitter source (``numpy`` Generator); None = no jitter
        self.rng = rng
        #: tasks per job, indexed by jid: which keys this client ever
        #: submitted, without keeping one entry per finished task
        self.job_sizes: List[int] = []
        #: submitted and not completed (given-up tasks stay here)
        self.outstanding: Dict[TaskKey, TaskInfo] = {}
        #: re-sends so far per task, bounces and timeouts together;
        #: pruned on completion
        self.retries: Dict[TaskKey, int] = {}
        #: outstanding tasks whose retry budget ran out — the one
        #: *allowed* way a submitted task ends incomplete
        self.gave_up: Set[TaskKey] = set()
        self.completed = 0
        #: (deadline, key) min-heap; entries of completed tasks linger
        #: until they reach the top or the heap is compacted
        self.deadlines: List[Tuple[int, TaskKey]] = []
        self._compact_at = 64

    # -- submission ---------------------------------------------------------

    def submit(
        self, now: int, specs: Sequence[TaskSpec]
    ) -> Tuple[int, List[JobSubmission]]:
        """Admit one job; returns its jid and the packets carrying it."""
        if len(self.deadlines) > self._compact_at:
            self._compact()
        jid = len(self.job_sizes)
        self.job_sizes.append(len(specs))
        uid, outstanding, deadlines = self.uid, self.outstanding, self.deadlines
        timed = self.config.timeout_factor is not None
        infos = []
        duration_ns = fn_par = deadline = None
        for tid, spec in enumerate(specs):
            if spec.duration_ns != duration_ns:
                # a run of equal durations shares the blob and the deadline
                duration_ns = spec.duration_ns
                fn_par = encode_duration(duration_ns)
                if timed:
                    deadline = now + self.window_ns(duration_ns, 0)
            info = TaskInfo(tid, spec.fn_id, fn_par, spec.tprops)
            infos.append(info)
            key = (uid, jid, tid)
            outstanding[key] = info
            if timed:
                heapq.heappush(deadlines, (deadline, key))
        if 0 < len(infos) <= self.config.max_tasks_per_packet:
            return jid, [JobSubmission(uid, jid, infos)]  # the common case
        return jid, self._packets(jid, infos)

    def _packets(self, jid: int, infos: List[TaskInfo]) -> List[JobSubmission]:
        cap = self.config.max_tasks_per_packet
        return [
            JobSubmission(self.uid, jid, infos[i : i + cap])
            for i in range(0, len(infos), cap)
        ]

    # -- completions ----------------------------------------------------------

    def complete(self, key: TaskKey) -> int:
        """Settle one completion notice: DONE (first one), LATE (first
        one, after the budget ran out), DUPLICATE (a resubmission race;
        by-key accounting keeps conservation exact) or STRAY (never
        submitted here — no phantom record is created)."""
        if self.outstanding.pop(key, None) is None:
            uid, jid, tid = key
            known = (
                uid == self.uid
                and 0 <= jid < len(self.job_sizes)
                and 0 <= tid < self.job_sizes[jid]
            )
            return DUPLICATE if known else STRAY
        self.completed += 1
        if self.retries:
            self.retries.pop(key, None)
        if key in self.gave_up:
            self.gave_up.discard(key)
            return LATE
        return DONE

    # -- bounces (§4.3) -------------------------------------------------------

    def bounce_delay_ns(self, error: ErrorPacket) -> int:
        """Wait before re-sending a bounced batch.

        Capped exponential in the batch's retry round (its least-retried
        outstanding task), with jitter, and never below the scheduler's
        degraded-mode ``backoff_hint_ns``. Draws the jitter: call it
        once, when the error_packet arrives.
        """
        cfg = self.config
        rounds = min(
            (
                self.retries.get((error.uid, error.jid, t.tid), 0)
                for t in error.tasks
                if (error.uid, error.jid, t.tid) in self.outstanding
            ),
            default=0,
        )
        multiplier = min(cfg.bounce_backoff ** rounds, cfg.bounce_backoff_max)
        delay = cfg.bounce_retry_ns * multiplier
        if cfg.bounce_jitter > 0 and self.rng is not None:
            delay *= 1.0 + float(
                self.rng.uniform(-cfg.bounce_jitter, cfg.bounce_jitter)
            )
        return max(1, int(max(delay, error.backoff_hint_ns)))

    def retry_bounced(self, now: int, error: ErrorPacket) -> Resend:
        """Re-send the still-outstanding tasks of a bounced batch, once
        its :meth:`bounce_delay_ns` has passed."""
        infos: List[TaskInfo] = []
        gave_up: List[TaskKey] = []
        for task in error.tasks:
            key = (error.uid, error.jid, task.tid)
            info = self.outstanding.get(key)
            if info is None:
                continue  # completed meanwhile (duplicate submission)
            if self._spend(now, key, info, gave_up):
                infos.append(info)
        return self._packets(error.jid, infos), gave_up

    # -- resubmit deadlines (§8.3) -------------------------------------------

    def window_ns(self, duration_ns: int, retries: int) -> int:
        """Resubmit window of a task re-sent ``retries`` times so far."""
        cfg = self.config
        return int(
            max(duration_ns * (cfg.timeout_factor or 1.0), cfg.timeout_floor_ns)
            * cfg.timeout_backoff ** retries
        )

    def _arm(self, now: int, key: TaskKey, duration_ns: int) -> None:
        window_ns = self.window_ns(duration_ns, self.retries.get(key, 0))
        heapq.heappush(self.deadlines, (now + window_ns, key))

    def _spend(
        self, now: int, key: TaskKey, info: TaskInfo, gave_up: List[TaskKey]
    ) -> bool:
        """Charge one re-send to the task's budget and re-arm its deadline;
        False once the budget is gone — the task is given up (reported in
        ``gave_up`` the first time), not left spinning forever."""
        retries = self.retries.get(key, 0)
        if retries >= self.config.max_retries:
            if key not in self.gave_up:
                self.gave_up.add(key)
                gave_up.append(key)
            return False
        self.retries[key] = retries + 1
        if self.config.timeout_factor is not None:
            self._arm(now, key, decode_duration(info.fn_par))
        return True

    def _compact(self) -> None:
        """Drop the deadlines of completed tasks, wherever they sit in the
        heap. Run from :meth:`submit` once the heap has doubled, so it
        stays proportional to the outstanding set at amortised O(1) per
        send — instead of growing by one entry per task until a timer
        reads the top and stalls popping them all."""
        outstanding = self.outstanding
        self.deadlines[:] = [e for e in self.deadlines if e[1] in outstanding]
        heapq.heapify(self.deadlines)
        self._compact_at = 2 * len(self.deadlines) + 64

    def next_deadline(self) -> Optional[int]:
        """When :meth:`expire` next has work, or None with nothing armed."""
        heap, outstanding = self.deadlines, self.outstanding
        while heap and heap[0][1] not in outstanding:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def expire(
        self,
        now: int,
        presumed_running: Optional[Callable[[TaskKey, int], bool]] = None,
    ) -> Resend:
        """Resubmit every task whose deadline is due, one packet each.

        ``presumed_running(key, window_ns)`` is the driver's evidence
        that the task is plausibly still executing somewhere; such a task
        is re-armed, not duplicated.
        """
        packets: List[JobSubmission] = []
        gave_up: List[TaskKey] = []
        heap = self.deadlines
        while True:
            deadline = self.next_deadline()
            if deadline is None or deadline > now:
                return packets, gave_up
            key = heapq.heappop(heap)[1]
            info = self.outstanding[key]
            duration_ns = decode_duration(info.fn_par)
            if presumed_running is not None and presumed_running(
                key, self.window_ns(duration_ns, self.retries.get(key, 0))
            ):
                self._arm(now, key, duration_ns)
            elif self._spend(now, key, info, gave_up):
                packets.append(JobSubmission(self.uid, key[1], [info]))

    # -- inspection -------------------------------------------------------------

    def pending_timeout_keys(self) -> Set[TaskKey]:
        """Outstanding keys that still have a resubmit deadline armed: an
        outstanding key with neither a deadline nor a give-up was
        silently abandoned."""
        return {key for _, key in self.deadlines if key in self.outstanding}
