"""Delta-debugging shrinker for failing fault plans.

A fuzzer-found failure usually arrives wrapped in noise: eight fault
events, of which one crash actually triggers the bug. The shrinker
reduces the plan while a caller-supplied ``still_fails`` predicate
keeps returning True, in three phases:

1. **event reduction** — classic ddmin over the event list: try ever
   smaller subsets and their complements, keeping any reduction that
   still fails. This removes irrelevant events wholesale.
2. **window narrowing** — for each surviving windowed event, repeatedly
   halve ``end_ns`` toward ``start_ns``. A 6 ms loss window that only
   needs its first 400 µs to trip the oracle shrinks to those 400 µs.
3. **intensity reduction** — for each probability field, try zero
   first (proves the field irrelevant), then halve toward zero;
   slowdown factors halve toward 1.0.

The predicate is typically "re-run the scenario with this candidate
plan and check whether the original invariant family still trips"
(see :func:`~repro.verify.fuzzer.shrink_failure`). The
shrinker itself is fully deterministic — no randomness, pure
candidate enumeration — so the same failing plan always shrinks to
the same minimal reproduction, and every candidate evaluation counts
against ``max_attempts`` so a slow predicate cannot run unbounded.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Tuple

from repro.faults.events import (
    LinkFault,
    PacketCorruption,
    WorkerSlowdown,
)
from repro.faults.plan import FaultPlan

#: per-event-type probability-like fields phase 3 reduces toward zero
_PROB_FIELDS = {
    LinkFault: ("loss_prob", "duplicate_prob", "reorder_prob"),
    PacketCorruption: ("corrupt_prob", "truncate_prob"),
}

#: window floor: a narrowed window keeps at least this many ns so the
#: event still fires (open == close would be a zero-length no-op)
MIN_WINDOW_NS = 1_000


class _Budget:
    """Counts predicate evaluations; exhaustion stops the shrink."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 0

    def exhausted(self) -> bool:
        return self.spent >= self.limit

    def check(
        self, plan: FaultPlan, still_fails: Callable[[FaultPlan], bool]
    ) -> bool:
        if self.exhausted():
            return False
        self.spent += 1
        return still_fails(plan)


def shrink_plan(
    plan: FaultPlan,
    still_fails: Callable[[FaultPlan], bool],
    max_attempts: int = 250,
) -> Tuple[FaultPlan, int]:
    """Reduce ``plan`` while ``still_fails(candidate)`` holds.

    Returns ``(minimal_plan, attempts_used)``. The input plan is assumed
    failing; it is returned unchanged if no reduction reproduces the
    failure (or the attempt budget runs out first).
    """
    budget = _Budget(max_attempts)
    events = _ddmin(list(plan), still_fails, budget)
    events = _narrow_windows(events, still_fails, budget)
    events = _reduce_intensities(events, still_fails, budget)
    return FaultPlan(events), budget.spent


# -- phase 1: ddmin event-subset reduction --------------------------------


def _ddmin(
    events: List,
    still_fails: Callable[[FaultPlan], bool],
    budget: _Budget,
) -> List:
    if len(events) <= 1:
        return events
    chunks = 2
    while len(events) > 1 and not budget.exhausted():
        chunk_size = max(1, len(events) // chunks)
        subsets = [
            events[i : i + chunk_size]
            for i in range(0, len(events), chunk_size)
        ]
        reduced = False
        for i, subset in enumerate(subsets):
            if budget.check(FaultPlan(subset), still_fails):
                events = subset
                chunks = 2
                reduced = True
                break
            complement = [
                e for j, s in enumerate(subsets) if j != i for e in s
            ]
            if complement and budget.check(
                FaultPlan(complement), still_fails
            ):
                events = complement
                chunks = max(2, chunks - 1)
                reduced = True
                break
        if not reduced:
            if chunks >= len(events):
                break
            chunks = min(len(events), chunks * 2)
    return events


# -- phase 2: window narrowing --------------------------------------------


def _narrow_windows(
    events: List,
    still_fails: Callable[[FaultPlan], bool],
    budget: _Budget,
) -> List:
    for i, event in enumerate(events):
        if not hasattr(event, "end_ns") or not hasattr(event, "start_ns"):
            continue
        while not budget.exhausted():
            span = event.end_ns - event.start_ns
            if span <= MIN_WINDOW_NS:
                break
            narrowed = replace(
                event,
                end_ns=event.start_ns + max(MIN_WINDOW_NS, span // 2),
            )
            candidate = events[:i] + [narrowed] + events[i + 1 :]
            if budget.check(FaultPlan(candidate), still_fails):
                event = narrowed
                events = candidate
            else:
                break
    return events


# -- phase 3: intensity reduction -----------------------------------------


def _reduce_intensities(
    events: List,
    still_fails: Callable[[FaultPlan], bool],
    budget: _Budget,
) -> List:
    for i in range(len(events)):
        event = events[i]
        for fld in _PROB_FIELDS.get(type(event), ()):
            events[i] = event = _reduce_field(
                events, i, event, fld, still_fails, budget
            )
        if isinstance(event, WorkerSlowdown) and event.factor > 1.0:
            # halve the slowdown toward 1.0 (no slowdown)
            while not budget.exhausted():
                smaller = 1.0 + (event.factor - 1.0) / 2
                if event.factor - smaller < 0.25:
                    break
                candidate_event = replace(event, factor=smaller)
                candidate = (
                    events[:i] + [candidate_event] + events[i + 1 :]
                )
                if budget.check(FaultPlan(candidate), still_fails):
                    events[i] = event = candidate_event
                else:
                    break
    return events


def _reduce_field(
    events: List,
    i: int,
    event,
    fld: str,
    still_fails: Callable[[FaultPlan], bool],
    budget: _Budget,
):
    value = getattr(event, fld)
    if value <= 0:
        return event
    # zero first: proves the whole mechanism irrelevant in one attempt
    zeroed = replace(event, **{fld: 0.0})
    if _event_does_something(zeroed) and budget.check(
        FaultPlan(events[:i] + [zeroed] + events[i + 1 :]), still_fails
    ):
        return zeroed
    while not budget.exhausted():
        value = getattr(event, fld)
        smaller = value / 2
        if smaller < 0.005:
            break
        candidate_event = replace(event, **{fld: smaller})
        if budget.check(
            FaultPlan(events[:i] + [candidate_event] + events[i + 1 :]),
            still_fails,
        ):
            event = candidate_event
        else:
            break
    return event


def _event_does_something(event) -> bool:
    """Reject reductions that turn an event into a guaranteed no-op.

    ``FaultPlan``/``validate()`` accept an all-zero LinkFault, but
    keeping one in a "minimal" repro is noise; skip the zeroing attempt
    when it would leave no active mechanism (ddmin already tried
    dropping the event outright).
    """
    if isinstance(event, LinkFault):
        return (
            event.loss_prob > 0
            or event.duplicate_prob > 0
            or event.reorder_prob > 0
        )
    if isinstance(event, PacketCorruption):
        return event.corrupt_prob > 0
    return True
