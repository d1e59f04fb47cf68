"""Wire-corruption faults: corrupted frames are decoded (parser fuzz)
then dropped (FCS model), with the damage counted at every layer."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults import (
    Degradation,
    FaultInjector,
    FaultPlan,
    PacketCorruption,
    SimTargets,
    chaos_for,
)
from repro.metrics import summarize_links
from repro.net import Address
from repro.net.link import Link
from repro.net.packet import Packet
from repro.protocol import TaskRequest
from repro.sim import Simulator, ms, us

from tests.test_faults import build_cluster


def make_link(sim):
    received = []
    link = Link(sim, "test-link", lambda pkt: received.append((sim.now, pkt)))
    return link, received


def make_packet(payload, size=100):
    return Packet(
        src=Address("a", 1), dst=Address("b", 2), payload=payload, size=size
    )


class TestLinkCorruption:
    def test_corrupted_frame_dropped_and_counted_everywhere(self):
        sim = Simulator()
        link, received = make_link(sim)
        chaos = chaos_for(link, sim, rng=np.random.default_rng(0))
        deg = chaos.add(Degradation(corrupt_prob=1.0))
        # a real protocol message: the codec encodes it, the corruption
        # mangles the bytes, the decoder must survive the mangled frame
        assert link.send(make_packet(TaskRequest(executor_id=3))) is False
        sim.run()
        assert received == []
        assert link.corrupt_drops == 1
        assert link.injected_drops == 1
        assert link.packets_dropped == 1
        assert deg.corrupt_drops == 1
        assert deg.drops == 1

    def test_non_codec_payload_still_dropped(self):
        # baseline experiments send plain objects; unencodable payloads
        # skip the bit-flip but the frame is still lost on the wire
        sim = Simulator()
        link, received = make_link(sim)
        chaos = chaos_for(link, sim, rng=np.random.default_rng(1))
        chaos.add(Degradation(corrupt_prob=1.0))
        assert link.send(make_packet("not-a-protocol-message")) is False
        sim.run()
        assert received == []
        assert link.corrupt_drops == 1

    def test_corruption_is_seed_deterministic(self):
        def run(seed):
            sim = Simulator()
            link, _ = make_link(sim)
            chaos = chaos_for(link, sim, rng=np.random.default_rng(seed))
            chaos.add(Degradation(corrupt_prob=0.5, truncate_prob=0.3))
            for i in range(200):
                link.send(make_packet(TaskRequest(executor_id=i)))
            sim.run()
            return link.corrupt_drops

        assert run(7) == run(7)
        # different seeds corrupt different packets (overwhelmingly)
        assert 0 < run(7) < 200

    def test_zero_prob_never_corrupts(self):
        sim = Simulator()
        link, received = make_link(sim)
        chaos_for(link, sim, rng=np.random.default_rng(0)).add(
            Degradation(corrupt_prob=0.0)
        )
        assert link.send(make_packet(TaskRequest(executor_id=1))) is True
        sim.run()
        assert len(received) == 1
        assert link.corrupt_drops == 0


class TestCorruptionEvent:
    def test_validation(self):
        with pytest.raises(Exception):
            PacketCorruption(start_ns=10, end_ns=5).validate()
        with pytest.raises(Exception):
            PacketCorruption(start_ns=0, end_ns=1, corrupt_prob=1.5).validate()
        with pytest.raises(Exception):
            PacketCorruption(start_ns=0, end_ns=1, max_bit_flips=0).validate()
        PacketCorruption(start_ns=0, end_ns=1).validate()

    def test_injector_arms_corruption_window(self):
        cluster = build_cluster(workers=2, timeout_factor=4.0)
        plan = FaultPlan(
            [
                PacketCorruption(
                    start_ns=us(200), end_ns=us(900), corrupt_prob=0.4
                )
            ]
        )
        injector = FaultInjector(
            cluster.sim,
            plan,
            SimTargets(cluster.sim, cluster.topology, workers=cluster.workers),
        ).arm()
        cluster.sim.run(until=ms(40))
        assert injector.stats.corruptions == 1
        totals = injector.injected_totals()
        assert totals["corrupt_drops"] > 0
        # dropped-then-resubmitted traffic still converges: every task
        # completes despite the corruption window (client timeouts repair)
        assert cluster.client.stats.tasks_completed == cluster.tasks
        # windows close behind themselves
        for link in injector.targets.touched_links:
            assert link.fault_hook.active == []


class TestSummaryAggregation:
    def test_summarize_links_includes_corrupt_drops(self):
        links = [
            SimpleNamespace(
                packets_sent=10,
                packets_dropped=4,
                injected_drops=3,
                injected_dups=0,
                injected_delays=0,
                corrupt_drops=2,
            ),
            # links without the counter (e.g. stubs) default to zero
            SimpleNamespace(
                packets_sent=5,
                packets_dropped=0,
                injected_drops=0,
                injected_dups=0,
                injected_delays=0,
            ),
        ]
        summary = summarize_links(links)
        assert summary.corrupt_drops == 2
        assert "corrupt=2" in summary.row()
