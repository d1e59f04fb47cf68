"""The wire-fault model: what a degraded link does to one packet.

A :class:`Degradation` is the live counterpart of one plan window
(:func:`degradation_for`); :func:`decide` rolls the dice for one packet
against the degradations active on its link and :func:`fuzz_parser`
mutates a corrupted frame into the decoder. Both are pure functions of
``(rng, degradations, packet)``, shared by the two runtimes:

* the simulator attaches a :class:`LinkChaos`
  (:class:`repro.net.link.LinkFaultHook`) per link and the injector
  adds/removes degradations as windows open and close;
* the live :class:`~repro.live.chaos.ChaosTransport` matches windows by
  wall time per datagram and calls the same two functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.faults.events import LinkFault, PacketCorruption, Partition
from repro.net.link import Link, LinkFaultHook, SendDecision
from repro.net.packet import Packet
from repro.protocol import codec
from repro.sim.core import Simulator


@dataclass
class Degradation:
    """One active way a link is currently misbehaving.

    ``match`` optionally restricts the degradation to packets satisfying
    a predicate (e.g. only task assignments), which is how the targeted
    loss tests select traffic without wrapping ``Link.send``.

    ``corrupt_prob`` models wire corruption: the payload is run through
    the real protocol codec, the encoded bytes are mutated (truncation
    with probability ``truncate_prob``, otherwise 1..``max_bit_flips``
    random bit-flips), and the mutated frame is pushed back through
    ``decode``. The frame is then discarded either way — the FCS catches
    corrupted frames long before a parser sees them in a real deployment
    — but the decode attempt is a live parser fuzz: anything other than
    a clean decode or a ``ProtocolError`` crashes the run, which is
    exactly what the chaos fuzzer exists to surface.
    """

    loss_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_jitter_ns: int = 5_000
    corrupt_prob: float = 0.0
    truncate_prob: float = 0.3
    max_bit_flips: int = 3
    match: Optional[Callable[[Packet], bool]] = None
    #: packets this degradation dropped (per-window accounting)
    drops: int = field(default=0, init=False)
    #: packets dropped because this degradation corrupted them
    corrupt_drops: int = field(default=0, init=False)

    def applies_to(self, packet: Packet) -> bool:
        return self.match is None or bool(self.match(packet))


def degradation_for(event) -> Degradation:
    """The degradation one wire-fault plan event puts on each of its links."""
    if isinstance(event, LinkFault):
        return Degradation(
            loss_prob=event.loss_prob,
            duplicate_prob=event.duplicate_prob,
            reorder_prob=event.reorder_prob,
            reorder_jitter_ns=event.reorder_jitter_ns,
        )
    if isinstance(event, PacketCorruption):
        return Degradation(
            corrupt_prob=event.corrupt_prob,
            truncate_prob=event.truncate_prob,
            max_bit_flips=event.max_bit_flips,
        )
    if isinstance(event, Partition):
        return Degradation(loss_prob=1.0)
    raise ConfigurationError(f"not a wire fault: {event!r}")


def decide(
    rng: np.random.Generator,
    active: Sequence[Degradation],
    packet: Any = None,
) -> Tuple[Optional[SendDecision], Optional[Degradation]]:
    """Roll the dice for one packet against the active degradations.

    Returns the decision (``None`` = send unharmed) and, for a drop, the
    degradation that caused it. The draw order — per degradation: loss,
    corruption, duplication, reorder — is the replay contract of every
    simulator artifact; the live transports follow it too.
    """
    decision: Optional[SendDecision] = None
    for deg in active:
        if not deg.applies_to(packet):
            continue
        if deg.loss_prob > 0 and rng.random() < deg.loss_prob:
            deg.drops += 1
            return SendDecision(drop=True), deg
        if deg.corrupt_prob > 0 and rng.random() < deg.corrupt_prob:
            deg.drops += 1
            deg.corrupt_drops += 1
            return SendDecision(drop=True, corrupt=True), deg
        if decision is None:
            decision = SendDecision()
        if deg.duplicate_prob > 0 and rng.random() < deg.duplicate_prob:
            decision.duplicate = True
        if deg.reorder_prob > 0 and rng.random() < deg.reorder_prob:
            decision.extra_delay_ns = max(
                decision.extra_delay_ns,
                int(rng.integers(1, max(2, deg.reorder_jitter_ns))),
            )
    if decision is not None and (
        decision.duplicate or decision.extra_delay_ns > 0
    ):
        return decision, None
    return None, None


def fuzz_parser(
    rng: np.random.Generator, deg: Degradation, frame: bytes
) -> None:
    """Mutate a corrupted frame's bytes and push them through the decoder.

    Truncation with probability ``truncate_prob``, otherwise
    1..``max_bit_flips`` bit-flips. ``ProtocolError`` — detected
    corruption — is the normal outcome and is swallowed; any *other*
    exception propagates: a decoder that crashes on garbage is the bug
    this fault hunts for.
    """
    data = bytearray(frame)
    if not data:
        return
    if rng.random() < deg.truncate_prob:
        data = data[: int(rng.integers(0, len(data)))]
    else:
        flips = int(rng.integers(1, deg.max_bit_flips + 1))
        for _ in range(flips):
            bit = int(rng.integers(0, len(data) * 8))
            data[bit // 8] ^= 1 << (bit % 8)
    try:
        codec.decode(bytes(data))
    except ProtocolError:
        pass


class LinkChaos(LinkFaultHook):
    """Aggregates active degradations for one link."""

    def __init__(self, sim: Simulator, rng: Optional[np.random.Generator] = None):
        self.sim = sim
        self.rng = rng or np.random.default_rng(0)
        self._active: List[Degradation] = []

    def add(self, degradation: Degradation) -> Degradation:
        self._active.append(degradation)
        return degradation

    def remove(self, degradation: Degradation) -> None:
        if degradation in self._active:
            self._active.remove(degradation)

    @property
    def active(self) -> List[Degradation]:
        return list(self._active)

    def on_send(self, link: Link, packet: Packet) -> Optional[SendDecision]:
        if not self._active:
            return None
        decision, culprit = decide(self.rng, self._active, packet)
        if culprit is not None and decision.corrupt:
            # Payloads the protocol codec cannot encode (baseline
            # schedulers ship plain Python objects) have no bytes to
            # mutate; the frame is simply counted as a corrupt drop.
            try:
                frame = codec.encode(packet.payload)
            except ProtocolError:
                return decision
            fuzz_parser(self.rng, culprit, frame)
        return decision


def chaos_for(link: Link, sim: Simulator, rng=None) -> LinkChaos:
    """Return the link's LinkChaos hook, installing one if absent."""
    hook = link.fault_hook
    if isinstance(hook, LinkChaos):
        return hook
    if hook is not None:
        raise TypeError(
            f"link {link.name} already has a non-LinkChaos fault hook: {hook!r}"
        )
    hook = LinkChaos(sim, rng=rng)
    link.fault_hook = hook
    return hook
