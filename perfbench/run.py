"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with no instrumentation.  ``--trace 1`` reports the per-layer metrics: it
runs the workload untraced for half the seconds, then from a fresh set-up
with every layer entry point wrapped (see ``layers.py``) for the other
half, and reports the throughput lost to tracing as ``trace.overhead``.

Human-readable detail (machine fingerprint, sample counts, exact counters,
the model-fidelity record and, for traced runs, the measured Fig. 5 stage
breakdown) goes to standard error.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Exact-counter guard: counters that are a pure function of the seed are
compared with the values committed in ``counters.json`` for that workload
and seed, and any difference marks the run incorrect.  A change that alters
the counted work on purpose re-records them with ``record_counters.py``, so
the new values show in its diff.  The two phases of a traced run must also
agree with each other, so tracing can never change the work done.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTERS = Path(__file__).resolve().parent / "counters.json"

#: Headline numbers of the paper's abstract, per algorithm.
PAPER = {
    "original": {
        "mean_raster_speedup": 23.0,
        "mean_energy_improvement": 24.0,
        "mean_end_to_end_speedup": 6.0,
        "mean_gaurast_fps": 24.0,
    },
    "optimized": {"mean_end_to_end_speedup": 4.0, "mean_gaurast_fps": 46.0},
}


def log(message: str = "") -> None:
    print(message, file=sys.stderr)


def import_program() -> bool:
    """Put this checkout's ``src`` first on the path and import ``repro`` from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        log(f"perfbench: cannot import the program from {src}: {error}")
        return False
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        log(f"perfbench: imported repro from {repro.__file__}, not from {src}")
        return False
    return True


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children, in MB."""
    import resource

    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                total_kb += next(
                    int(line.split()[1]) for line in status if line.startswith("VmHWM:")
                )
        except (OSError, StopIteration):
            if pid == os.getpid():
                total_kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024


def fingerprint() -> str:
    import numpy

    method = multiprocessing.get_start_method(allow_none=True) or (
        multiprocessing.get_context().get_start_method()
    )
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} start_method={method} machine={platform.machine()}"
    )


def fidelity_record() -> None:
    """Print the model's headline numbers next to the abstract's, with errors."""
    from repro.core import GauRastSystem

    system = GauRastSystem()
    log("model fidelity: GauRastSystem().summary() vs the paper's abstract")
    for algorithm in ("original", "optimized"):
        parts = []
        for key, value in system.summary(algorithm).items():
            reference = PAPER[algorithm].get(key)
            if reference is None:
                parts.append(f"{key}={value:.2f}")
            else:
                error = 100 * (value - reference) / reference
                parts.append(f"{key}={value:.2f} (paper {reference:g}, {error:+.1f}%)")
        log(f"  {algorithm}: " + ", ".join(parts))


def stage_breakdown(name: str, tracer) -> None:
    """Print the traced software stage shares next to the modelled platforms (Fig. 5)."""
    from repro.baselines.desktop import DesktopGpu
    from repro.baselines.jetson import JetsonOrinNX
    from repro.datasets.nerf360 import iter_scenes
    from repro.profiling.profiler import StageBreakdown, profile_scenes
    from repro.profiling.workload import WorkloadStatistics

    frames = tracer.calls.get("projection", 0)
    if not frames:
        return
    measured = StageBreakdown(
        scene_name=name,
        preprocess_s=tracer.busy["projection"] / frames,
        sort_s=tracer.busy["sorting"] / frames,
        rasterize_s=tracer.busy["rasterize"] / frames,
    )
    rows = [(f"{name} (measured, this host)", measured.fractions, measured.total_s)]
    workloads = [WorkloadStatistics.from_descriptor(d) for d in iter_scenes()]
    for platform_model in (JetsonOrinNX(), DesktopGpu()):
        breakdowns = profile_scenes(platform_model, workloads)
        fractions = {
            stage: statistics.mean(b.fractions[stage] for b in breakdowns)
            for stage in ("preprocess", "sort", "rasterize")
        }
        total = statistics.mean(b.total_s for b in breakdowns)
        label = f"{type(platform_model).__name__} (modelled, NeRF-360 mean)"
        rows.append((label, fractions, total))
    log("Fig. 5 stage shares (preprocess / sort / rasterize, frame time):")
    for label, fractions, total in rows:
        shares = " / ".join(
            f"{100 * fractions[stage]:.1f}%" for stage in ("preprocess", "sort", "rasterize")
        )
        log(f"  {label}: {shares}, {1e3 * total:.2f} ms")


def per_layer(workload, phase, tracer, untraced) -> dict:
    """Per-layer metrics of a traced phase (time per op, counters per frame)."""
    ops = len(phase.latencies)
    busy = {layer: seconds / ops for layer, seconds in tracer.busy.items()}
    counts = tracer.counts
    counters = phase.counters

    def ratio(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    rounds = counts.get("sharded.rounds", 0)
    round_s = ratio(counts.get("sharded.round_s", 0.0), rounds)
    shard_busy_s = ratio(counts.get("sharded.shard_busy_s", 0.0), rounds)
    values = {
        "projection.busy_s": busy.get("projection", 0.0),
        "sorting.busy_s": busy.get("sorting", 0.0),
        "rasterize.busy_s": busy.get("rasterize", 0.0),
        "rasterize.ns_per_fragment": ratio(
            tracer.busy.get("rasterize", 0.0), counts.get("rasterize.fragments", 0), 1e9
        ),
        "pipeline.self_s": tracer.self_time.get("pipeline", 0.0) / ops,
        "store.busy_s": busy.get("store", 0.0),
        "frame_cache.hit_rate": 0.0,
        "frame_cache.evictions": 0.0,
        "cov_cache.hit_rate": 0.0,
        "service.busy_s": busy.get("service", 0.0),
        "service.batch_size": ratio(
            counts.get("pipeline.frames", 0), counts.get("pipeline.batches", 0)
        ) if tracer.calls.get("service") else 0.0,
        "sharded.round_s": round_s,
        "sharded.shard_busy_s": shard_busy_s,
        "sharded.ipc_s": round_s - shard_busy_s,
        "sharded.requeued": counts.get("sharded.requeued", 0),
        "gateway.wait_s": 0.0,
        "gateway.coalesced_frac": 0.0,
        "gateway.batch_size": 0.0,
        "multi.busy_s": busy.get("multi", 0.0),
        "rasterizer.busy_s": busy.get("rasterizer", 0.0),
        "pe_block.busy_s": busy.get("pe_block", 0.0),
        "pe_block.ns_per_fragment": ratio(
            tracer.busy.get("pe_block", 0.0), counts.get("pe_block.fragments", 0), 1e9
        ),
        "trace.overhead": untraced.ops_per_s / phase.ops_per_s - 1.0,
    }
    for name in (
        "projection.visible", "sorting.keys", "rasterize.fragments",
        "multi.load_imbalance", "rasterizer.compute_cycles",
        "rasterizer.control_cycles", "rasterizer.load_cycles_exposed",
        "rasterizer.traffic_bytes", "pe_block.fragments_evaluated",
        "pe_block.fragments_skipped", "pe_block.ops_add", "pe_block.ops_mul",
        "pe_block.ops_exp", "fp.quantize_calls",
    ):
        values[name] = counters.get(name, 0)
    values.update(workload.layer_metrics(phase, tracer))
    return values


def recorded_counters() -> dict:
    """Committed exact counters, ``{workload: {seed: {counter: value}}}``."""
    return json.loads(COUNTERS.read_text()) if COUNTERS.exists() else {}


def guard(name: str, seed: int, counters: dict) -> list:
    """Compare exact counters with the committed record; return mismatches."""
    recorded = recorded_counters().get(name, {}).get(str(seed))
    if recorded is None:
        log(f"no committed exact counters for {name} seed {seed}; "
            f"only the traced and untraced phases are compared")
        return []
    return sorted(
        f"{key}: {counters[key]!r} here, {recorded[key]!r} in counters.json"
        for key in counters.keys() & recorded.keys()
        if counters[key] != recorded[key]
    )


def timed_setup(workload) -> float:
    """Set the workload up; return the seconds it took."""
    began = time.perf_counter()
    workload.setup()
    return time.perf_counter() - began


#: Only a process's first set-up pays for the program's lazy first-use work,
#: so ``setup_s`` times first set-ups: this process's own, plus some in new
#: interpreters before and after the timed phase.  The host's speed drifts
#: over tens of seconds, and samples on both sides of the timed phase meet
#: two phases of that drift; ``setup_s`` is the median of all of them.
FRESH_SETUPS_BEFORE = 1
FRESH_SETUPS_AFTER = 2

_FRESH_SETUP = """
import sys
sys.path[:0] = {paths!r}
from run import timed_setup
from workloads import WORKLOADS
workload = WORKLOADS[{name!r}]({seed!r})
print(timed_setup(workload))
workload.close()
"""


def fresh_setups(name: str, seed: int, count: int) -> list:
    """Seconds of the first set-up in each of ``count`` new interpreters."""
    paths = [str(Path(__file__).resolve().parent), str(ROOT / "src")]
    code = _FRESH_SETUP.format(paths=paths, name=name, seed=seed)
    return [
        float(subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout.split()[-1])
        for _ in range(count)
    ]


def traced_phase(workload, seconds: float):
    """Set up afresh with every layer wrapped, run; return ``(phase, tracer)``.

    The tracer stays installed until the caller restores it.
    """
    from layers import Tracer, install

    workload.close()
    tracer = Tracer()
    install(tracer)
    try:
        workload.setup()
        tracer.clear()  # report the timed phase only, not the set-up
        return workload.run(seconds, tracer), tracer
    except BaseException:
        tracer.restore()
        raise


def measure(workload, seconds: float, trace: bool):
    """Run the workload; return ``(metrics, phases, mismatches, tracer)``."""
    import numpy as np

    name, seed = workload.name, workload.seed
    setups = [] if trace else fresh_setups(name, seed, FRESH_SETUPS_BEFORE)
    setups.append(timed_setup(workload))
    phase = workload.run(seconds / 2 if trace else seconds)
    phase.failed = workload.check(phase)
    if not trace:
        latencies_ms = 1e3 * np.asarray(phase.latencies)
        metrics = {
            "ops_per_s": phase.ops_per_s,
            "p50_ms": float(np.percentile(latencies_ms, 50)),
            "p95_ms": float(np.percentile(latencies_ms, 95)),
            "peak_rss_mb": peak_rss_mb(),
            "sim_cycles_per_frame": phase.counters["sim_cycles_per_frame"],
        }
        workload.close()
        setups += fresh_setups(name, seed, FRESH_SETUPS_AFTER)
        metrics = {"setup_s": statistics.median(setups), **metrics}
        return metrics, [phase], [], None

    untraced = phase
    phase, tracer = traced_phase(workload, seconds / 2)
    try:
        metrics = per_layer(workload, phase, tracer, untraced)
    finally:
        tracer.restore()
    phase.failed = workload.check(phase)
    mismatches = sorted(
        f"tracing changed {key}"
        for key in untraced.counters.keys() & phase.counters.keys()
        if untraced.counters[key] != phase.counters[key]
    )
    return metrics, [untraced, phase], mismatches, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="non-negative input seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    if not import_program() or not spec_path.exists():
        return 2
    spec = json.loads(spec_path.read_text())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    try:
        metrics, phases, mismatches, tracer = measure(
            workload, args.seconds, bool(args.trace)
        )
    finally:
        workload.close()

    counters = phases[-1].counters
    mismatches += guard(workload.name, args.seed, counters)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {metrics.keys() ^ units.keys()}")

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases) + len(mismatches)
    log(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    log(f"fingerprint: {fingerprint()}")
    for index, p in enumerate(phases):
        samples = len(p.latencies)
        log(
            f"phase {index}: {samples} ops in {p.elapsed:.2f} s, {p.failed} failed; "
            f"{samples - int(0.95 * samples)} samples at or beyond p95"
        )
    log("exact counters (per frame, fixed op set): " + json.dumps(counters, sort_keys=True))
    for mismatch in mismatches:
        log(f"EXACT-COUNTER MISMATCH: {mismatch}")
    for name, value in metrics.items():
        log(f"  {name} = {value:.6g} {units[name]}")
    if tracer is not None:
        stage_breakdown(workload.name, tracer)
    fidelity_record()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
