"""Span and counter recording around the program's layer entry points.

The benchmark measures layers from the outside: :func:`install` replaces
each layer's public entry point (a module-level function wherever it is
bound, or a method on its defining class) with a wrapper that records a
span per call, and :meth:`Tracer.restore` puts the originals back.  Nothing
inside ``src/`` is edited, and with the tracer uninstalled the program runs
exactly as shipped.

A span is one call of a wrapped entry point: its layer, start, end and the
wrapped call it ran inside (its parent).  Spans are folded into per-layer
totals as they close, which keeps memory flat however long the run is:

* ``busy`` — wall time inside the layer, counting only the outermost call
  when a layer re-enters itself (``get_scene`` calls ``get_cloud``);
* ``self_time`` — span time not covered by child spans of other layers;
* ``counts`` — work counters recorded by per-layer observers, so ratios
  such as nanoseconds per fragment are measured where the work happens.

Worker processes of a sharded fleet inherit the wrappers when they are
forked after :func:`install`.  Each worker drains its totals into the
first response of every ``RenderService.serve`` reply, and the parent
merges them back, so worker-side stages are measured too.  Workers started
with ``spawn`` or ``forkserver`` import the program afresh and report no
worker-side spans.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import Counter, defaultdict

#: Attribute a worker uses to ship its drained totals on a reply.
_SHIPPED = "perfbench_layers"


class Tracer:
    """In-memory span totals and work counters, per layer."""

    def __init__(self):
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        #: ``id(response) -> seconds`` of the fleet serve round that produced
        #: each response.  Look a response up while it is alive: a freed
        #: response's id may be reused, but the next round overwrites it.
        self.round_of = {}
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        # A forked worker starts from the parent's totals; wipe them so a
        # worker ships only the spans it recorded itself.
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        """Drop every total and counter (in place: observers hold them)."""
        for table in (self.busy, self.self_time, self.calls, self.counts):
            table.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, func, observe=None):
        """Return ``func`` wrapped in a span of ``layer``.

        ``observe(result, seconds)`` runs after the span closes, to record
        counters from the call's result.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            reentered = any(frame[0] == layer for frame in stack)
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                seconds = time.perf_counter() - frame[1]
                with tracer._lock:
                    if not reentered:
                        tracer.busy[layer] += seconds
                        tracer.calls[layer] += 1
                    tracer.self_time[layer] += seconds - frame[2]
                if stack:
                    stack[-1][2] += seconds
            if observe is not None:
                observe(result, seconds)
            return result

        return traced

    def count(self, amounts: dict) -> None:
        """Add to named work counters."""
        with self._lock:
            for name, amount in amounts.items():
                self.counts[name] += amount

    # ------------------------------------------------------------------ #
    # Installing and removing wrappers
    # ------------------------------------------------------------------ #
    def _set(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def patch_method(self, cls, name: str, layer: str, observe=None) -> None:
        """Wrap a method on the class that defines it."""
        self._set(cls, name, self.wrap(layer, cls.__dict__[name], observe))

    def patch_function(self, func, wrapper) -> None:
        """Replace every module-level binding of ``func`` in the program."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attribute, wrapper)

    def restore(self) -> None:
        """Put every original entry point back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------ #
    # Cross-process shipping
    # ------------------------------------------------------------------ #
    def drain(self) -> dict:
        """Return the totals recorded so far and start afresh."""
        with self._lock:
            totals = {
                "busy": dict(self.busy),
                "self_time": dict(self.self_time),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }
        self.clear()
        return totals

    def merge(self, totals: dict) -> None:
        """Add totals drained in another process."""
        with self._lock:
            for name, table in (
                ("busy", self.busy), ("self_time", self.self_time),
                ("calls", self.calls), ("counts", self.counts),
            ):
                for layer, value in totals[name].items():
                    table[layer] += value


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark reports on."""
    from repro.gaussians import pipeline, projection, rasterize, sorting
    from repro.hardware import fp
    from repro.hardware.multi import ScaledGauRast
    from repro.hardware.pe_block import PEBlock
    from repro.hardware.rasterizer import GauRastInstance
    from repro.serving.service import RenderService
    from repro.serving.sharded import ShardedRenderService
    from repro.serving.store import SceneStore

    # gaussians.*: the three software stages and the pipeline around them.
    def on_preprocess(result, seconds):
        tracer.count({"projection.visible": result[1].num_projected})

    def on_sort(binning, seconds):
        tracer.count({"sorting.keys": binning.num_keys})

    def on_rasterize(result, seconds):
        tracer.count({"rasterize.fragments": result[1].fragments_evaluated})

    def on_batch(batch, seconds):
        tracer.count({"pipeline.batches": 1, "pipeline.frames": len(batch)})

    for func, layer, observe in (
        (projection.preprocess, "projection", on_preprocess),
        (sorting.bin_and_sort, "sorting", on_sort),
        (rasterize.rasterize_tiles, "rasterize", on_rasterize),
        (pipeline.render, "pipeline", None),
        (pipeline.render_batch, "pipeline", on_batch),
    ):
        tracer.patch_function(func, tracer.wrap(layer, func, observe))

    # serving.*: store reads, the per-process service, the sharded fleet.
    for name in ("get_scene", "get_cloud"):
        tracer.patch_method(SceneStore, name, "store")

    def on_serve(report, seconds):
        if os.getpid() != tracer.pid and report.responses:
            setattr(report.responses[0], _SHIPPED, tracer.drain())

    tracer.patch_method(RenderService, "serve", "service", on_serve)

    def on_fleet_round(report, seconds):
        for response in report.responses:
            shipped = response.__dict__.pop(_SHIPPED, None)
            if shipped is not None:
                tracer.merge(shipped)
            tracer.round_of[id(response)] = seconds
        busiest = max((shard.busy_seconds for shard in report.shards), default=0.0)
        tracer.count({
            "sharded.rounds": 1,
            "sharded.requests": len(report.responses),
            "sharded.round_s": seconds,
            "sharded.shard_busy_s": busiest,
            "sharded.requeued": report.requeued,
        })

    tracer.patch_method(ShardedRenderService, "serve", "sharded", on_fleet_round)

    # hardware.*: frame fan-out, one instance, the PE block, FP rounding.
    tracer.patch_method(ScaledGauRast, "simulate_frame", "multi")
    tracer.patch_method(GauRastInstance, "rasterize_gaussians", "rasterizer")

    def on_tile(result, seconds):
        tracer.count({
            "pe_block.fragments": sum(b.fragments_evaluated for b in result[-1])
        })

    tracer.patch_method(PEBlock, "process_gaussian_tile", "pe_block", on_tile)

    # quantize runs millions of times per frame: count calls, no span.  Only
    # the hardware model calls it, from one thread, so no lock is needed.
    quantize = fp.quantize
    counts = tracer.counts

    @functools.wraps(quantize)
    def counted_quantize(values, precision):
        counts["fp.quantize_calls"] += 1
        return quantize(values, precision)

    tracer.patch_function(quantize, counted_quantize)
