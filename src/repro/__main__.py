"""Top-level entry point: ``python -m repro <command> [args...]``.

One place to discover and launch every runnable module in the tree —
figure reproductions, the fuzzer, the live runtime — instead of
memorizing module paths. Every figure command (``fig5a``, ``resources``, ...)
runs that figure of :mod:`repro.experiments.figures`.
``python -m repro`` (or ``python -m repro list``) prints the table;
anything after the command name is passed through untouched.
"""

from __future__ import annotations

import runpy
import sys
from typing import Optional, Sequence

FIGURES = "repro.experiments.figures"

#: command -> (module, one-line description). Figures are addressed by
#: their paper number; everything else by subsystem.
COMMANDS = {
    "run-all": (
        "repro.experiments.run_all",
        "every figure experiment back to back",
    ),
    "figures": (FIGURES, "every figure at one scale (--check, --json PATH)"),
    "fig5a": (FIGURES, "scheduling latency vs load"),
    "fig5b": (FIGURES, "scheduling throughput"),
    "fig6": (FIGURES, "synthetic workload latency"),
    "fig7": (FIGURES, "recirculation and drops"),
    "fig8": (FIGURES, "JBSQ(k) dispatch bound sweep"),
    "fig9": (FIGURES, "google-trace workload"),
    "fig10": (FIGURES, "locality placement"),
    "fig10-limits": (FIGURES, "locality start-limit sweep"),
    "fig11": (FIGURES, "resource-aware policy"),
    "fig12": (FIGURES, "priority policy"),
    "fig13": (FIGURES, "get_task() priority ladder"),
    "fig13-staged": (FIGURES, "get_task() with queues in separate stages"),
    "ablation-retrieve": (FIGURES, "conditional vs delayed retrieve (§4.5)"),
    "ablation-ps": (FIGURES, "RackSched intra-node cFCFS vs PS (§2.2)"),
    "scalability": (FIGURES, "cluster-size model and DES spot checks"),
    "rtt": (FIGURES, "RTT sensitivity sweep"),
    "resources": (FIGURES, "switch resource table"),
    "fuzz": (
        "repro.experiments.fuzz",
        "randomized invariant fuzzer (--runtime sim|live)",
    ),
    "chaos": (
        "repro.experiments.fault_tolerance",
        "fault injection / chaos runs",
    ),
    "recovery": ("repro.experiments.recovery", "failover recovery experiment"),
    "ha": (
        "repro.experiments.controller_ha",
        "replicated controller vs single-controller crash sweep",
    ),
    "replay": ("repro.verify.replay", "deterministic replay of a fuzz case"),
    "report": ("repro.obs.report", "render saved observability artifacts"),
    "live": ("repro.live.run", "live UDP runtime, one workload"),
    "live-conformance": (
        "repro.live.conformance",
        "sim-vs-live conformance harness",
    ),
}


def list_commands() -> str:
    width = max(len(name) for name in COMMANDS)
    lines = ["usage: python -m repro <command> [args...]", "", "commands:"]
    for name, (module, description) in COMMANDS.items():
        lines.append(f"  {name:<{width}}  {description}  ({module})")
    lines.append("")
    lines.append("`python -m repro <command> --help` for per-command flags.")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("list", "-h", "--help"):
        print(list_commands())
        return 0
    name, rest = argv[0], argv[1:]
    entry = COMMANDS.get(name)
    if entry is None:
        print(f"unknown command {name!r}\n", file=sys.stderr)
        print(list_commands(), file=sys.stderr)
        return 2
    module, _ = entry
    if module == FIGURES and name != "figures":
        rest = [name, *rest]
    # Hand over exactly as `python -m <module> rest...` would: the target
    # owns argparse, exit codes, everything. runpy + argv surgery keeps
    # this dispatcher agnostic to each module's main() signature. A stale
    # sys.modules entry (the target imported as a library earlier in this
    # process) would make runpy warn and re-execute a half-initialized
    # module; drop it so the run is fresh.
    sys.argv = [f"python -m {module}"] + rest
    sys.modules.pop(module, None)
    try:
        runpy.run_module(module, run_name="__main__")
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
