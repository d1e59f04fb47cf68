"""The two live workloads: cluster set-up, load generators, one repetition,
and the span-traced pass.

The cluster is what ``repro.live.runtime.run_live`` stands up — one
``SoftSwitch``, four ``LiveExecutor``s and one ``LiveClient`` sharing one
asyncio loop over loopback UDP — but the benchmark owns the generators so
it can time every job from the instant it was *due* and report how late
the generator ran. Traffic crosses the host's loopback interface, never a
link.
"""

from __future__ import annotations

import asyncio
import gc
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from harness import RepResult
from repro.cluster.task import FN_NOOP, TaskSpec
from repro.live.client import LiveClient
from repro.live.executor import LiveExecutor, LiveExecutorConfig
from repro.live.softswitch import SoftSwitch
from repro.protocol import codec
from repro.sim.rng import RngStreams

EXECUTORS = 4
DRAIN_S = 3.0
#: an open-loop repetition is not a latency result when the generator ran
#: later than this at its p99, or fewer than this share of jobs came back
MAX_LAG_P99_US = 5_000.0
MIN_DELIVERED = 0.99
SPAN_FILE_CAP = 50_000

clock = time.perf_counter


@dataclass(frozen=True)
class LiveWorkload:
    name: str
    mode: str  # "closed" | "open"
    tasks_per_job: int
    outstanding_jobs: int = 0  # closed loop
    rate_tps: float = 0.0  # open loop
    task_ns: int = 0  # 0 = FN_NOOP


LIVE_WORKLOADS: Dict[str, LiveWorkload] = {
    w.name: w
    for w in (
        LiveWorkload("live_closed_noop", "closed", tasks_per_job=32,
                     outstanding_jobs=8),
        LiveWorkload("live_open_3k", "open", tasks_per_job=1,
                     rate_tps=3000.0, task_ns=20_000),
    )
}


# -- load generators -----------------------------------------------------------


class _LoadGen:
    """Shared bookkeeping: due time per job, latency on ``on_job_done``."""

    def __init__(self, client: LiveClient, workload: LiveWorkload) -> None:
        self.client = client
        if workload.task_ns:
            spec = TaskSpec(duration_ns=workload.task_ns)
        else:
            spec = TaskSpec(duration_ns=0, fn_id=FN_NOOP)
        self.specs = [spec] * workload.tasks_per_job
        self.latencies_s: List[float] = []
        self.lags_s: List[float] = []
        self._due: Dict[int, float] = {}
        self._submitting = True
        self.idle = asyncio.Event()
        client.on_job_done = self._on_done

    def submit(self, due: float) -> None:
        """Send one job that was due at ``due`` (a ``clock()`` reading)."""
        self.lags_s.append(clock() - due)
        self._due[self.client.submit(self.specs)] = due

    def _on_done(self, jid: int) -> None:
        self.latencies_s.append(clock() - self._due.pop(jid))
        self.after_done()
        if not self._submitting and not self._due:
            self.idle.set()

    def after_done(self) -> None:
        pass

    def stop_submitting(self) -> None:
        self._submitting = False
        if not self._due:
            self.idle.set()

    async def drain(self) -> None:
        try:
            await asyncio.wait_for(self.idle.wait(), DRAIN_S)
        except asyncio.TimeoutError:
            pass  # whatever is still pending is counted as failed


class ClosedLoop(_LoadGen):
    """Keep ``outstanding_jobs`` jobs in flight: every completed job
    submits the next from inside the completion callback."""

    def __init__(self, client, workload, rep_seconds: float) -> None:
        super().__init__(client, workload)
        self.outstanding = workload.outstanding_jobs
        self.rep_seconds = rep_seconds
        self._deadline = 0.0

    async def run(self) -> None:
        self._deadline = clock() + self.rep_seconds
        for _ in range(self.outstanding):
            self.submit(clock())
        await asyncio.sleep(self.rep_seconds)
        self.stop_submitting()

    def after_done(self) -> None:
        now = clock()
        if now < self._deadline:
            self.submit(now)


class OpenLoop(_LoadGen):
    """Poisson arrivals at a fixed rate, sent no earlier than due."""

    def __init__(self, client, workload, rep_seconds: float, seed: int) -> None:
        super().__init__(client, workload)
        rng = RngStreams(seed).stream("arrivals")
        job_rate = workload.rate_tps / workload.tasks_per_job
        gaps = rng.exponential(1.0 / job_rate, int(job_rate * rep_seconds * 1.5) + 64)
        offsets = np.cumsum(gaps)
        self.offsets = offsets[offsets < rep_seconds].tolist()

    async def run(self) -> None:
        start = clock()
        for offset in self.offsets:
            due = start + offset
            lead = due - clock()
            if lead > 0:
                await asyncio.sleep(lead)
            self.submit(due)
        self.stop_submitting()


# -- cluster -------------------------------------------------------------------


@dataclass
class Cluster:
    switch: SoftSwitch
    executors: List[LiveExecutor]
    client: LiveClient

    async def close(self) -> None:
        await self.client.aclose()
        for executor in self.executors:
            await executor.aclose()
        self.switch.close()
        # Let transport close callbacks run before the loop is torn down.
        await asyncio.sleep(0)


async def start_cluster(seed: int, tracer: "Optional[SpanRecorder]" = None) -> Cluster:
    """Sockets up, executors registered, client connected."""
    wrap = tracer.transport_wrap if tracer else None
    switch = SoftSwitch(queue_capacity=4096, transport_wrap=wrap)
    endpoint = await switch.start()
    executors = [
        LiveExecutor(
            executor_id=i,
            switch=endpoint,
            config=LiveExecutorConfig(max_outstanding=2),
            node_id=i,
            transport_wrap=wrap,
        )
        for i in range(EXECUTORS)
    ]
    client = LiveClient(
        uid=0,
        clock=switch.sim,
        rng=RngStreams(seed).stream("live-client"),
        transport_wrap=wrap,
    )
    if tracer:
        tracer.instrument(switch, executors, client)
    for executor in executors:
        await executor.start()
    await asyncio.gather(*(e.wait_registered(5.0) for e in executors))
    await client.start(endpoint)
    return Cluster(switch, executors, client)


async def _rep(
    workload: LiveWorkload,
    seed: int,
    rep_seconds: float,
    tracer: "Optional[SpanRecorder]",
) -> RepResult:
    start = clock()
    cluster = await start_cluster(seed, tracer)
    setup_s = clock() - start
    try:
        if workload.mode == "closed":
            gen = ClosedLoop(cluster.client, workload, rep_seconds)
        else:
            gen = OpenLoop(cluster.client, workload, rep_seconds, seed)
        if tracer:
            gen.submit = tracer.wrap("loadgen", gen.submit)
        gc.collect()
        cpu_start = time.process_time()
        wall_start = clock()
        await gen.run()
        await gen.drain()
        wall_s = clock() - wall_start
        cpu_s = time.process_time() - cpu_start
        return _summarize(workload, cluster, gen, setup_s, wall_s, cpu_s)
    finally:
        await cluster.close()


def _summarize(
    workload: LiveWorkload,
    cluster: Cluster,
    gen: _LoadGen,
    setup_s: float,
    wall_s: float,
    cpu_s: float,
) -> RepResult:
    client, switch = cluster.client, cluster.switch
    attempted = client.tasks_submitted
    tasks = client.completed_count
    counts = {
        "lost": client.lost_count,
        "duplicates": client.counters.get("duplicates", 0),
        "phantoms": client.counters.get("phantoms", 0),
        "priority_inversions": switch.priority_inversions,
    }
    failed = sum(counts.values())
    problems = [f"{name} = {n}, want 0" for name, n in counts.items() if n]
    lag_p99_us = float(np.percentile(gen.lags_s, 99)) * 1e6
    if workload.mode == "open":
        if tasks < MIN_DELIVERED * attempted:
            problems.append(
                f"delivered {tasks}/{attempted} < {MIN_DELIVERED:.0%} of offered"
            )
        if lag_p99_us > MAX_LAG_P99_US:
            problems.append(
                f"generator ran {lag_p99_us:.0f} us late at p99 "
                f"(limit {MAX_LAG_P99_US:.0f}): overloaded, not a latency result"
            )
    pulls = noops = 0
    for executor in cluster.executors:
        pulls += executor.counters.get("pulls", 0)
        noops += executor.counters.get("noops", 0)
    latencies_us = np.asarray(gen.latencies_s) * 1e6
    return RepResult(
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        tasks=tasks,
        latencies_us=latencies_us,
        attempted=attempted,
        failed=failed,
        problems=problems,
        details={
            "jobs": len(latencies_us),
            "e2e_p999_us": float(np.percentile(latencies_us, 99.9)),
            "loadgen_lag_p99_us": lag_p99_us,
            "loadgen_lag_max_us": float(np.max(gen.lags_s)) * 1e6,
            "failed_share": failed / attempted if attempted else 0.0,
            "datagrams": switch.counters.get("rx", 0) + switch.counters.get("tx", 0),
            "pulls": pulls,
            "noops": noops,
            "bounded_rejects": switch.counters.get("bounded_rejects", 0),
        },
    )


def run_rep(
    workload: LiveWorkload,
    seed: int,
    rep_seconds: float,
    tracer: "Optional[SpanRecorder]" = None,
) -> RepResult:
    """One repetition in a fresh event loop. Timed section: first submit
    to drain complete."""
    return asyncio.run(_rep(workload, seed, rep_seconds, tracer))


# -- traced pass ---------------------------------------------------------------

LIVE_SPANS = (
    "switch", "decode", "encode", "program", "sendto", "executor", "client",
    "loadgen",
)


def _message_key(message) -> Optional[Tuple[int, Optional[int]]]:
    """(jid, tid) of a protocol message, where it names a task."""
    jid = getattr(message, "jid", None)
    if jid is None:
        return None
    tid = getattr(message, "tid", None)
    if tid is None:
        task = getattr(message, "task", None)
        tid = getattr(task, "tid", None)
    return (jid, tid)


class _TracedTransport:
    """Datagram transport whose ``sendto`` is a span; the rest delegates."""

    def __init__(self, transport, sendto: Callable) -> None:
        self._transport = transport
        self.sendto = sendto

    def __getattr__(self, name):
        return getattr(self._transport, name)


class SpanRecorder:
    """In-memory spans around the calls into each live layer.

    One span per wrapped call: ``(id, name, start_ns, end_ns, parent_id,
    key)``, where ``key`` is the ``(jid, tid)`` the datagram was about
    (inherited from the ``decode``/``encode`` child that saw the message).
    Everything runs on one thread, so the open spans form a stack; a
    span's self time is its duration minus its children's.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, key_of: Optional[Callable] = None):
        stack, spans, self_ns = self._stack, self.spans, self.self_ns
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            # [id, child_ns, key]
            frame = [span_id, 0, None]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
                if key_of is not None:
                    frame[2] = key_of(args, result)
                return result
            finally:
                end = now()
                stack.pop()
                duration = end - start
                self_ns[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    if parent[2] is None:
                        parent[2] = frame[2]
                spans.append(
                    (span_id, name, start, end,
                     parent[0] if parent else None, frame[2])
                )

        return traced

    def transport_wrap(self, transport) -> _TracedTransport:
        return _TracedTransport(transport, self.wrap("sendto", transport.sendto))

    def instrument(self, switch, executors, client) -> None:
        """Wrap the per-datagram entry of each component, per instance.

        ``SoftSwitch._on_datagram`` is the datagram-in/replies-out entry
        ``tests/test_live.py::make_switch`` drives; the executors and the
        client are their own asyncio protocols, so their public
        ``datagram_received`` is the entry.
        """
        switch._on_datagram = self.wrap("switch", switch._on_datagram)
        switch.program.process = self.wrap("program", switch.program.process)
        for executor in executors:
            executor.datagram_received = self.wrap(
                "executor", executor.datagram_received
            )
        client.datagram_received = self.wrap("client", client.datagram_received)

    def write(self, path: Path) -> int:
        """Write the first :data:`SPAN_FILE_CAP` spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, name, start, end, parent, key in self.spans[:SPAN_FILE_CAP]:
                out.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent, "key": key},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return min(len(self.spans), SPAN_FILE_CAP)


def traced_rep(
    workload: LiveWorkload, seed: int, rep_seconds: float, span_file: Path
) -> Tuple[RepResult, Dict[str, float]]:
    """One repetition with every layer boundary wrapped in a span."""
    tracer = SpanRecorder()
    decode, encode = codec.decode, codec.encode
    codec.decode = tracer.wrap(
        "decode", decode, key_of=lambda args, result: _message_key(result)
    )
    codec.encode = tracer.wrap(
        "encode", encode, key_of=lambda args, result: _message_key(args[0])
    )
    try:
        result = run_rep(workload, seed, rep_seconds, tracer)
    finally:
        codec.decode, codec.encode = decode, encode
    tasks = max(1, result.tasks)
    cpu_ns = result.cpu_s * 1e9
    trace: Dict[str, float] = {}
    attributed = 0
    for name in LIVE_SPANS:
        trace[f"trace.live.share.{name}"] = tracer.self_ns[name] / cpu_ns
        attributed += tracer.self_ns[name]
    trace["trace.live.share.loop_other"] = (cpu_ns - attributed) / cpu_ns
    trace["trace.datagrams_per_task"] = result.details["datagrams"] / tasks
    pulls = result.details["pulls"]
    trace["trace.noop_reply_share"] = result.details["noops"] / pulls if pulls else 0.0
    trace["trace.bounded_rejects"] = result.details["bounded_rejects"]
    try:
        result.details["spans_written"] = tracer.write(span_file)
    except OSError as exc:
        result.details["spans_written"] = 0
        print(f"WARNING: could not write {span_file}: {exc}", file=sys.stderr)
    result.details["spans_recorded"] = len(tracer.spans)
    return result, trace
