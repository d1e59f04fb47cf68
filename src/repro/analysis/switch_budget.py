"""Switch resource budget analysis (paper §7).

The paper reports a 164 K-task queue and 4 priority levels on its
first-generation switch and estimates ~1 M tasks and 12 levels on
Tofino 2. This module reproduces the estimate from a field-by-field entry
layout and the per-stage SRAM envelopes in
:mod:`repro.switchsim.resources`, and renders the comparison table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.queue import SwitchCircularQueue
from repro.errors import PipelineResourceError
from repro.switchsim.registers import RegisterFile
from repro.switchsim.resources import MODELS, SwitchModel, TOFINO1, TOFINO2


@dataclass(frozen=True)
class QueueEntryLayout:
    """Register widths of one circular-queue entry, per field (bits)."""

    tid: int = 32
    fn_id: int = 32
    fn_par: int = 64  # in-switch profile; larger params use §4.4 indirection
    tprops: int = 32
    client_ip: int = 32
    client_port: int = 16
    uid_jid_tag: int = 32
    skip_and_valid: int = 16

    def total_bits(self) -> int:
        return (
            self.tid
            + self.fn_id
            + self.fn_par
            + self.tprops
            + self.client_ip
            + self.client_port
            + self.uid_jid_tag
            + self.skip_and_valid
        )


def queue_capacity_estimate(
    model: SwitchModel, layout: QueueEntryLayout = QueueEntryLayout()
) -> int:
    """Tasks one circular queue can hold in the model's register budget."""
    return model.queue_capacity(layout.total_bits())


def priority_levels_supported(
    model: SwitchModel, stages_per_queue: int = 5
) -> int:
    """Independent priority queues that fit in the stage budget (§6, §7).

    A queue needs stages for its two pointers, flag/value registers and
    slot arrays; five suffices in our dataplane layout (see
    ``SwitchCircularQueue.__init__``).
    """
    return model.max_priority_levels(stages_per_queue=stages_per_queue)


@dataclass
class BudgetRow:
    model: str
    queue_capacity: int
    priority_levels: int
    paper_queue_capacity: int
    paper_priority_levels: int

    def capacity_error(self) -> float:
        return (
            abs(self.queue_capacity - self.paper_queue_capacity)
            / self.paper_queue_capacity
        )


PAPER_CLAIMS = {
    "tofino1": (164_000, 4),
    "tofino2": (1_000_000, 12),
}


def budget_report(layout: QueueEntryLayout = QueueEntryLayout()) -> List[BudgetRow]:
    """The §7 capacity table: our estimate vs the paper's claims."""
    rows = []
    for name, model in MODELS.items():
        paper_capacity, paper_levels = PAPER_CLAIMS[name]
        stages_per_queue = 5 if name == "tofino1" else 3
        rows.append(
            BudgetRow(
                model=name,
                queue_capacity=queue_capacity_estimate(model, layout),
                priority_levels=priority_levels_supported(
                    model, stages_per_queue
                ),
                paper_queue_capacity=paper_capacity,
                paper_priority_levels=paper_levels,
            )
        )
    return rows


def declared_queue_fits(model_name: str, capacity: int) -> bool:
    """Declare a real :class:`SwitchCircularQueue` of ``capacity`` and check
    its registers against the model's budget (not only the estimate)."""
    model = MODELS[model_name]
    registers = RegisterFile()
    # The one object array stands in for the per-stage field arrays, so cap
    # per-stage occupancy explicitly, spread as the budget model assumes.
    per_stage = model.sram_bits_per_stage // QueueEntryLayout().total_bits()
    if capacity > per_stage * model.register_stages_for_queue:
        return False
    SwitchCircularQueue(registers, "q", max(2, min(capacity, per_stage)))
    try:
        model.check_fits(registers)
    except PipelineResourceError:
        return False
    return True
