"""Top-level entry point: ``python -m repro <command> [args...]``.

One place to discover and launch every runnable module in the tree —
figure reproductions, the fuzzer, the live runtime — instead of
memorizing ``python -m repro.experiments.fig5b_throughput`` paths.
``python -m repro`` (or ``python -m repro list``) prints the table;
anything after the command name is passed through untouched.
"""

from __future__ import annotations

import runpy
import sys
from typing import Optional, Sequence

#: command -> (module, one-line description). Figures are addressed by
#: their paper number; everything else by subsystem.
COMMANDS = {
    "run-all": (
        "repro.experiments.run_all",
        "every figure experiment back to back",
    ),
    "fig5a": ("repro.experiments.fig5a_latency", "scheduling latency vs load"),
    "fig5b": ("repro.experiments.fig5b_throughput", "scheduling throughput"),
    "fig6": ("repro.experiments.fig6_synthetic", "synthetic workload latency"),
    "fig7": ("repro.experiments.fig7_recirculation", "recirculation ablation"),
    "fig8": ("repro.experiments.fig8_jbsq", "JBSQ(k) dispatch bound sweep"),
    "fig9": ("repro.experiments.fig9_google", "google-trace workload"),
    "fig10": ("repro.experiments.fig10_locality", "locality placement"),
    "fig11": ("repro.experiments.fig11_resources", "resource-aware policy"),
    "fig12": ("repro.experiments.fig12_priority", "priority policy"),
    "fig13": ("repro.experiments.fig13_gettask", "GetTask retrieve modes"),
    "ablation-retrieve": (
        "repro.experiments.ablation_retrieve",
        "conditional vs delayed retrieve (§4.5)",
    ),
    "scalability": ("repro.experiments.scalability", "cluster-size sweep"),
    "rtt": ("repro.experiments.rtt_sensitivity", "RTT sensitivity sweep"),
    "resources": (
        "repro.experiments.table_switch_resources",
        "switch resource table",
    ),
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
