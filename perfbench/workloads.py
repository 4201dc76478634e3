"""The two benchmark workloads, each a closed loop over seeded inputs.

Every workload builds its inputs from the seed alone, measures a closed loop
(the next op starts when the previous one returns) for the given seconds,
and checks its outputs afterwards, outside the timed region.

What is hosted is fixed; the seed drives what is asked of it: the request
order, the traffic, the viewpoints, the cube poses.  A freshly seeded
300-Gaussian scene changes the work per frame by ~10% from seed to seed
(five seeds of an earlier version spread 20% in frames per second), which
would swamp any regression bound; a fixed scene seen from seeded viewpoints
spreads ~2%.

* ``serve_zipf`` — one client awaits frames five at a time through a
  ``RenderGateway`` in front of a two-worker ``ShardedRenderService``, on
  Zipf scene traffic; most requests are answered by the workers' frame
  caches over the pipe, and each window of five is one batched fleet round.
* ``replay_gauss`` — the cycle-level GauRast model renders a fixed
  100-Gaussian scene (``GauRastSystem.render_batch``, Gaussian mode).

The host's speed drifts by tens of percent over seconds, so a run is long
and holds many ops: the replay scene is small enough that a frame takes
about a second, and a ``serve_zipf`` run plays several traces.

Each run also records *exact counters*: work counts over a fixed,
seed-determined set of ops (the first ops of the loop, which every run
completes), so they repeat exactly for a seed however fast the host is.
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.core import GauRastSystem
from repro.gaussians.metrics import compare_images
from repro.gaussians.pipeline import render
from repro.gaussians.rasterize import rasterize_tiles
from repro.gaussians.scene import GaussianScene
from repro.gaussians.synthetic import (
    SyntheticConfig,
    make_gaussian_cloud,
    make_synthetic_scene,
    orbit_cameras,
)
from repro.hardware.validation import ValidationCase
from repro.profiling.workload import WorkloadStatistics
from repro.serving import (
    RenderGateway,
    RenderRequest,
    RenderService,
    SceneStore,
    ShardedRenderService,
    generate_requests,
    merge_cache_stats,
    scene_popularity,
)


@dataclass
class Phase:
    """Outcome of one timed closed loop.

    ``latencies`` hold one entry per completed op, in seconds; ``counters``
    are the exact counters over the workload's fixed op set; ``failed``
    counts ops whose output failed a check.
    """

    latencies: List[float]
    elapsed: float
    counters: Dict[str, float] = field(default_factory=dict)
    failed: int = 0

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.elapsed


def closed_loop(op, seconds: float, min_ops: int):
    """Call ``op(i)`` back to back until ``seconds`` pass and ``min_ops`` ran."""
    latencies: List[float] = []
    start = time.perf_counter()
    while len(latencies) < min_ops or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        op(len(latencies))
        latencies.append(time.perf_counter() - began)
    return latencies, time.perf_counter() - start


def meets_contract_4(reference: np.ndarray, image: np.ndarray) -> bool:
    """Hardware-vs-software agreement at the validation harness's thresholds."""
    return ValidationCase("check", "image", compare_images(reference, image)).passed


def software_counters(results) -> Dict[str, float]:
    """Per-frame work of the software pipeline over ``results``.

    ``sim_cycles_per_frame`` here is the closed-form GauRast estimate
    (``ScaledGauRast.estimate``) for the frames, which the software
    workloads report in place of a cycle-level replay.
    """
    model = GauRastSystem().rasterizer
    count = len(results)
    return {
        "projection.visible": sum(r.preprocess_stats.num_projected for r in results) / count,
        "sorting.keys": sum(r.num_sort_keys for r in results) / count,
        "rasterize.fragments": sum(r.fragments_evaluated for r in results) / count,
        "sim_cycles_per_frame": sum(
            model.estimate(WorkloadStatistics.from_render(r)).frame_cycles
            for r in results
        ) / count,
    }


def hardware_counters(frames) -> Dict[str, float]:
    """Per-frame cycle-model statistics over ``(frame_cycles, instance_reports)``."""
    count = len(frames)
    totals: Dict[str, float] = {"sim_cycles_per_frame": 0}
    fields = {
        "rasterizer.compute_cycles": "compute_cycles",
        "rasterizer.control_cycles": "control_cycles",
        "rasterizer.load_cycles_exposed": "load_cycles_exposed",
        "rasterizer.traffic_bytes": "traffic_bytes",
        "pe_block.fragments_evaluated": "fragments_evaluated",
        "pe_block.fragments_skipped": "fragments_skipped",
    }
    for name in list(fields) + ["pe_block.ops_add", "pe_block.ops_mul", "pe_block.ops_exp"]:
        totals[name] = 0
    for frame_cycles, reports in frames:
        totals["sim_cycles_per_frame"] += frame_cycles
        for report in reports:
            for name, attribute in fields.items():
                totals[name] += getattr(report, attribute)
            for kind in ("add", "mul", "exp"):
                totals[f"pe_block.ops_{kind}"] += report.operation_counts.get(kind, 0)
    return {name: value / count for name, value in totals.items()}


def traced_counters(counts, frames: int) -> Dict[str, float]:
    """Per-frame counters recorded by the tracer's observers."""
    names = ("projection.visible", "sorting.keys", "fp.quantize_calls")
    return {name: counts.get(name, 0) / frames for name in names}


def synthetic_catalog(scenes: int, cameras: int) -> SceneStore:
    """A memory-tier store of fixed 1000-Gaussian scenes at 120x90."""
    return SceneStore([
        make_synthetic_scene(
            SyntheticConfig(num_gaussians=1000, width=120, height=90, seed=index),
            name=f"scene-{index}",
            num_cameras=cameras,
        )
        for index in range(scenes)
    ])


class Workload:
    """One benchmark workload: set up, run a timed phase, check outputs."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Build the inputs and the system under test (timed as set-up)."""
        raise NotImplementedError

    def run(self, seconds: float, tracer=None) -> Phase:
        """Run the closed loop on freshly set-up state."""
        raise NotImplementedError

    def check(self, phase: Phase) -> int:
        """Check a phase's outputs; return the number of failed ops."""
        raise NotImplementedError

    def layer_metrics(self, phase: Phase, tracer) -> Dict[str, float]:
        """Per-layer metrics only this workload can observe (caches, hops)."""
        return {}

    def close(self) -> None:
        """Release processes the set-up started (idempotent)."""


class ServeZipf(Workload):
    """A viewer on Zipf traffic through gateway and sharded fleet.

    The load is a closed loop of viewer *sessions*: each plays a seeded
    400-request Zipf trace from cold worker caches and always runs to its
    end, so every run serves the same mix whatever its speed.  A session
    renders ~125 of the 144 frames and answers ~70% of requests from the
    frame cache.  Session ``k`` plays the trace of seed ``seed + 1000 * k``.

    The client submits the trace in windows of ``WINDOW`` concurrent
    requests and awaits the whole window before the next one.  Every window
    is admitted before the gateway's dispatcher wakes, so it becomes one
    ``serve`` call: duplicates within it coalesce, the fleet splits it
    between both shards, and the batches are the same on every run.  A
    request's latency is that of its window's fleet round; most windows
    hold a miss, so ``p50_ms`` is a round with renders and ``p95_ms`` one
    whose misses pile onto one shard.

    The window is five because a round's latency comes in steps of one
    render, by the misses on its busier shard, and ``p95_ms`` must not sit
    on the edge between two steps.  With four, the rounds with three or
    more misses on one shard made 2-10% of a session, so the seed decided
    whether ``p95_ms`` was two renders or three.  With five they make 6-16%
    and rounds with four 0-9%, so ``p95_ms`` is three renders on nearly
    every seed.

    Every session plays its own trace, and a run ends with the session
    that brings it closest to the given seconds.
    ``p50_ms``/``p95_ms`` are over every request of the run.  The tail of
    one trace is only ~4 windows; the ~6 traces of a run make it ~25, and
    the seed then moves ``p95_ms`` much less.

    One client, not two free-running ones: the gateway serves one fleet
    round at a time, and two closed loops drift between lockstep and
    alternation.  With two clients, three runs of one seed read 110, 149
    and 138 ms in ``p95_ms``, and five seeds spread 59% in ``p50_ms``.
    """

    name = "serve_zipf"
    SCENES = 6
    CAMERAS = 24
    WORKERS = 2
    SESSION = 400
    #: Requests in flight at once; a divisor of ``SESSION``.
    WINDOW = 5
    COUNTER_REQUESTS = 64
    CHECK_POSITIONS = (0, 9, 18, 27, 36, 45, 54, 63)

    fleet: Optional[ShardedRenderService] = None

    def setup(self) -> None:
        self.store = synthetic_catalog(self.SCENES, self.CAMERAS)
        self.trace = self.session_trace(0)
        self.fleet = ShardedRenderService(self.store, num_workers=self.WORKERS)
        # One round trip per worker: set-up ends once every worker is up
        # and holds its shard of the catalog.
        self.fleet.cache_stats()
        self.gateway = RenderGateway(self.fleet)

    def session_trace(self, index: int) -> List[RenderRequest]:
        """The Zipf trace of session ``index``, scenes ranked by popularity."""
        seed = self.seed + 1000 * index
        trace = generate_requests(self.store, self.SESSION, pattern="zipf", seed=seed)
        # The generator ranks scene popularity by seed, and which shard the
        # hot scenes land on moves throughput by up to ±15%.  Relabel so
        # scene r is the r-th most popular for every seed; the seed still
        # draws every request.  All catalog scenes share one camera rig, so
        # each request's camera is valid for its relabelled scene.
        popularity = scene_popularity(self.SCENES, "zipf", seed=seed)
        rank = {int(scene): r for r, scene in enumerate(np.argsort(-popularity, kind="stable"))}
        return [replace(r, scene_id=rank[r.scene_id]) for r in trace]

    def run(self, seconds: float, tracer=None) -> Phase:
        # Only the first session's counter set is kept: every served frame
        # is a fresh copy from the pipe, and holding all of them would make
        # the benchmark's own memory grow with throughput.
        self.responses = {}
        self.not_ok = 0
        self.coalesced = 0
        #: Per request: gateway latency minus the fleet round that served it.
        self.waits: List[float] = []
        latencies: List[float] = []

        async def session(index: int, trace: List[RenderRequest]) -> None:
            async with self.gateway:
                for start in range(0, self.SESSION, self.WINDOW):
                    await asyncio.gather(*(
                        request(index, position, trace[position])
                        for position in range(start, start + self.WINDOW)
                    ))

        async def request(session: int, position: int, asked: RenderRequest) -> None:
            began = time.perf_counter()
            response = await self.gateway.submit(asked)
            latencies.append(time.perf_counter() - began)
            self.not_ok += not response.ok
            self.coalesced += response.coalesced
            if tracer is not None and response.ok:
                round_s = tracer.round_of[id(response.response)]
                self.waits.append(response.latency_s - round_s)
            if session == 0 and position < self.COUNTER_REQUESTS:
                self.responses[position] = response

        #: Per-session ``(covariance, frame)`` cache counters of the fleet.
        self.session_stats = []
        #: Seconds of each session.
        sessions: List[float] = []
        for index in itertools.count():
            trace = self.trace if index == 0 else self.session_trace(index)
            began = time.perf_counter()
            asyncio.run(session(index, trace))
            sessions.append(time.perf_counter() - began)
            # Between sessions, off the clock: no request is in flight.
            self.session_stats.append(self.fleet.cache_stats())
            if tracer is not None:
                tracer.round_of.clear()
            # Stop where the run ends closest to ``seconds``.
            elapsed = sum(sessions)
            if elapsed + statistics.mean(sessions) / 2 >= seconds:
                break
            self.fleet.reset_caches()
        distinct = {}
        for position in range(self.COUNTER_REQUESTS):
            response = self.responses[position]
            if response.ok:
                distinct.setdefault(response.frame_key, response.result)
        return Phase(latencies, elapsed, software_counters(list(distinct.values())))

    def check(self, phase: Phase) -> int:
        failed = self.not_ok
        reference = RenderService(self.store)
        for position in self.CHECK_POSITIONS:
            served = self.responses[position]
            expected = reference.submit(self.trace[position])
            failed += not (
                served.ok
                and served.frame_key == expected.frame_key
                and np.array_equal(served.image, expected.image)
            )
        return failed

    def layer_metrics(self, phase: Phase, tracer) -> Dict[str, float]:
        covariance = merge_cache_stats([stats[0] for stats in self.session_stats])
        frame = merge_cache_stats([stats[1] for stats in self.session_stats])
        counts = tracer.counts
        return {
            "frame_cache.hit_rate": frame.hit_rate,
            "frame_cache.evictions": frame.evictions / len(phase.latencies),
            "cov_cache.hit_rate": covariance.hit_rate,
            "gateway.wait_s": sum(self.waits) / len(self.waits),
            "gateway.coalesced_frac": self.coalesced / len(phase.latencies),
            "gateway.batch_size": counts["sharded.requests"] / counts["sharded.rounds"],
        }

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None


class ReplayGauss(Workload):
    """The cycle-level model in Gaussian mode, frame after frame.

    The scene is fixed (100 Gaussians, 96x64, generator seed 13); the seed
    picks three equally spaced viewpoints on its orbit, and the loop renders
    them in turn.  A frame takes about a second, so a run holds ~50
    frames.
    """

    name = "replay_gauss"
    SCENE = SyntheticConfig(num_gaussians=100, width=96, height=64, seed=13)
    #: Orbit positions to choose from (one per degree) and viewpoints used.
    ORBIT = 359
    CAMERAS = 3

    def setup(self) -> None:
        orbit = orbit_cameras(self.SCENE, self.ORBIT)
        first = int(np.random.default_rng(self.seed).integers(len(orbit) // self.CAMERAS))
        step = (len(orbit) + 1) // self.CAMERAS
        self.scene = GaussianScene(
            cloud=make_gaussian_cloud(self.SCENE),
            cameras=[orbit[first + k * step] for k in range(self.CAMERAS)],
            name="replay-gauss",
        )
        self.system = GauRastSystem()

    def run(self, seconds: float, tracer=None) -> Phase:
        cameras = self.scene.cameras
        self.frames = []
        traced = {}

        def op(i: int) -> None:
            camera = cameras[i % len(cameras)]
            self.frames.append(self.system.render_batch(self.scene, cameras=[camera])[0])
            if tracer is not None and i == len(cameras) - 1:
                traced.update(traced_counters(tracer.counts, len(cameras)))

        latencies, elapsed = closed_loop(op, seconds, len(cameras))
        first_pass = [
            (report.frame_cycles, report.instance_reports)
            for _, report in self.frames[: len(cameras)]
        ]
        counters = hardware_counters(first_pass)
        counters["multi.load_imbalance"] = sum(
            report.load_imbalance for _, report in self.frames[: len(cameras)]
        ) / len(cameras)
        counters.update(traced)
        return Phase(latencies, elapsed, counters)

    def check(self, phase: Phase) -> int:
        cameras = self.scene.cameras
        goldens = []
        for camera in cameras:
            result = render(self.scene, camera=camera)
            goldens.append(rasterize_tiles(result.projected, result.binning)[0])
        return sum(
            not meets_contract_4(goldens[i % len(cameras)], image)
            for i, (image, _) in enumerate(self.frames)
        )


WORKLOADS = {cls.name: cls for cls in (ServeZipf, ReplayGauss)}
