"""Record the exact counters that ``run.py`` compares against.

Usage, from the repository root::

    python3 perfbench/record_counters.py --seeds 0-63
    python3 perfbench/record_counters.py --seeds 5 --workload replay_gauss

For each workload and seed this sets the workload up, runs the fixed op set
once with every layer traced (so traced-only counters such as
``fp.quantize_calls`` are recorded too), checks the outputs, and writes the
counters into ``counters.json``.  Run it only when a change alters the
counted work on purpose; the new values then show in the change's diff.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import COUNTERS, import_program, log, recorded_counters, traced_phase


def parse_seeds(text: str) -> list:
    """``"0-63"`` or ``"3"`` or ``"1,4,9"`` to a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def save(name: str, seed: int, counters: dict) -> None:
    """Merge one record into ``counters.json`` (re-read first, replace atomically)."""
    table = recorded_counters()
    table.setdefault(name, {})[str(seed)] = counters
    partial = COUNTERS.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    os.replace(partial, COUNTERS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-63, or 1,4,9")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    if not import_program():
        return 2
    from workloads import WORKLOADS

    for name in args.workload or list(WORKLOADS):
        for seed in parse_seeds(args.seeds):
            workload = WORKLOADS[name](seed)
            try:
                phase, tracer = traced_phase(workload, 0.0)
                tracer.restore()
                failed = workload.check(phase)
            finally:
                workload.close()
            if failed:
                log(f"{name} seed {seed}: {failed} failed ops, not recorded")
                return 1
            save(name, seed, phase.counters)
            log(f"{name} seed {seed}: recorded {len(phase.counters)} counters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
