"""Run every figure of the evaluation table, then the chaos sweep.

Usage::

    python -m repro.experiments.run_all [--scale {test,smoke,report,bench}]
        [--jobs N] [--check] [--json rows.json] [figure ...]

``smoke`` finishes in a few minutes; ``report`` (default) is the scale
EXPERIMENTS.md was produced at (~30 minutes). Figures, scales and flags
are those of :mod:`repro.experiments.figures`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments import fault_tolerance, figures
from repro.sim.core import ms

#: §3.3 chaos sweep per scale: a smoke-sized sweep except at report scale
CHAOS = {
    scale: dict(seeds=(0, 1), duration_ns=ms(12), drain_ns=ms(20)) for scale in figures.SCALES
}
CHAOS[figures.REPORT] = dict(seeds=(0, 1, 2, 3, 4), duration_ns=ms(40), drain_ns=ms(40))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = figures.parse_args(argv, __doc__)

    def chaos() -> None:
        fault_tolerance.print_table(fault_tolerance.run(**CHAOS[args.scale], jobs=args.jobs))

    return figures.report(args, extra=[("§3.3 — fault tolerance (chaos sweep)", chaos)])


if __name__ == "__main__":
    raise SystemExit(main())
