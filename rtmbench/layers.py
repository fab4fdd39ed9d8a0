"""Traced run: spans around each layer's public functions, per-layer metrics.

A module of the package is a layer.  ``Tracer.start`` replaces the module
and class attributes that a map job, the reducer and ``rtm simulate`` call
with timing wrappers, and ``Tracer.stop`` puts the originals back; spans
stay in memory until the run ends.  ``layer_metrics`` turns the spans of one
traced path into the per-layer metrics listed in BENCHMARK.json.  A time
ending in ``_s`` is the median over calls unless its name says otherwise
(``busy_s``, ``wait_s``).
"""

from __future__ import annotations

import functools
import math
import statistics
import threading
import time
import tracemalloc


PER_LAYER = (
    "orchestrator.build_survey_s",
    "orchestrator.build_survey_calls_per_shot",
    "orchestrator.migrate_shot_s",
    "orchestrator.first_job_start_s",
    "orchestrator.worker_idle_s",
    "wavekernel.forward_model_s",
    "wavekernel.forward_model_calls_per_shot",
    "wavekernel.rtm_shot_image_s",
    "wavekernel.forward_mcells_per_s",
    "wavekernel.rtm_shot_image_peak_mb",
    "blobstore.put_s",
    "blobstore.get_s",
    "blobstore.put_mb_per_s",
    "blobstore.get_mb_per_s",
    "blobstore.bytes_written",
    "msgqueue.enqueue_s",
    "msgqueue.dequeue_s",
    "msgqueue.delete_s",
    "msgqueue.empty_dequeues",
    "reducer.invocations",
    "reducer.invocation_efficiency",
    "reducer.reduce_step_s",
    "reducer.busy_s",
    "reducer.wait_s",
    "reducer.tail_s",
    "batchsim.sample_runtimes_s",
    "batchsim.simulate_fixed_cluster_s",
    "batchsim.simulate_batch_pool_s",
    "batchsim.placements_per_s",
    "cli.simulate_overhead_s",
)


class Tracer:
    """Spans around the package functions that make up each layer.

    ``compare`` asks the traced path to run once untraced first, so the
    difference of the two wall times gives the tracing overhead.
    """

    def __init__(self, compare: bool):
        self.compare = compare
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._peak_taken: set[str] = set()

    def wrap(self, owner, attr: str, name: str, info=None, peak_once: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``info(args, kwargs, result)`` adds fields to the span (bytes, cells,
        batch size).  With ``peak_once`` the first call also records its
        tracemalloc peak, in MB.
        """
        func = getattr(owner, attr)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            peak = peak_once and name not in self._peak_taken
            if peak:
                self._peak_taken.add(name)
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                span = {
                    "name": name,
                    "start_ns": start,
                    "dur_ns": end - start,
                    "thread": threading.get_ident(),
                }
                if peak:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
            if info is not None:
                span.update(info(args, kwargs, result))
            with self._lock:
                self.spans.append(span)
            return result

        self._saved.append((owner, attr, func))
        setattr(owner, attr, traced)

    def start(self) -> None:
        from rtmcloud import batchsim, orchestrator, reducer
        from rtmcloud.blobstore import BlobStore
        from rtmcloud.msgqueue import FileQueue
        from rtmcloud.wavekernel import solver

        pad = solver.SPONGE_CELLS + solver.HALO

        def cells(args, kwargs, result):
            model, nt = args[0], args[5]
            return {"cells": (model.nz + 2 * pad) * (model.nx + 2 * pad) * nt}

        # migrate_shot reaches the kernel and build_survey through names
        # bound in the orchestrator module, so those are the attributes wrapped.
        self.wrap(orchestrator, "migrate_shot", "orchestrator.migrate_shot")
        self.wrap(orchestrator, "build_survey", "orchestrator.build_survey")
        self.wrap(orchestrator, "forward_model", "wavekernel.forward_model", info=cells)
        self.wrap(orchestrator, "rtm_shot_image", "wavekernel.rtm_shot_image", peak_once=True)
        self.wrap(BlobStore, "put", "blobstore.put", info=lambda a, k, r: {"bytes": len(a[1])})
        self.wrap(BlobStore, "get", "blobstore.get", info=lambda a, k, r: {"bytes": len(r)})
        self.wrap(FileQueue, "enqueue", "msgqueue.enqueue")
        self.wrap(FileQueue, "dequeue", "msgqueue.dequeue", info=lambda a, k, r: {"n": len(r)})
        self.wrap(FileQueue, "delete", "msgqueue.delete")
        self.wrap(reducer, "reduce_step", "reducer.reduce_step")
        self.wrap(batchsim, "sample_runtimes", "batchsim.sample_runtimes")
        self.wrap(batchsim, "idle_cost_curve", "batchsim.idle_cost_curve")
        jobs = lambda a, k, r: {"jobs": len(a[0])}  # noqa: E731
        self.wrap(batchsim, "simulate_fixed_cluster", "batchsim.simulate_fixed_cluster", info=jobs)
        self.wrap(batchsim, "simulate_batch_pool", "batchsim.simulate_batch_pool", info=jobs)

    def stop(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def secs(self, name: str) -> list[float]:
        return [s["dur_ns"] / 1e9 for s in self.named(name)]

    def median_s(self, name: str) -> float | None:
        d = self.secs(name)
        return statistics.median(d) if d else None

    def rate(self, names: tuple[str, ...], field: str, scale: float = 1.0) -> float | None:
        spans = [s for n in names for s in self.named(n)]
        busy = sum(s["dur_ns"] for s in spans) / 1e9
        return sum(s[field] for s in spans) / busy / scale if spans and busy > 0 else None


def _per(count: int, n: int | None) -> float | None:
    return count / n if n and count else None


def layer_metrics(tr: Tracer, ctx: dict) -> dict:
    """Per-layer metrics of one traced path; None where the path has no data."""
    m = dict.fromkeys(PER_LAYER)
    shots = ctx.get("shots")
    m["orchestrator.build_survey_s"] = tr.median_s("orchestrator.build_survey")
    m["orchestrator.build_survey_calls_per_shot"] = _per(len(tr.named("orchestrator.build_survey")), shots)
    m["orchestrator.migrate_shot_s"] = tr.median_s("orchestrator.migrate_shot")
    m.update(ctx.get("real", {}))
    m["wavekernel.forward_model_s"] = tr.median_s("wavekernel.forward_model")
    m["wavekernel.forward_model_calls_per_shot"] = _per(len(tr.named("wavekernel.forward_model")), shots)
    m["wavekernel.rtm_shot_image_s"] = tr.median_s("wavekernel.rtm_shot_image")
    m["wavekernel.forward_mcells_per_s"] = tr.rate(("wavekernel.forward_model",), "cells", 1e6)
    peaks = [s["peak_mb"] for s in tr.named("wavekernel.rtm_shot_image") if "peak_mb" in s]
    m["wavekernel.rtm_shot_image_peak_mb"] = peaks[0] if peaks else None

    m["blobstore.put_s"] = tr.median_s("blobstore.put")
    m["blobstore.get_s"] = tr.median_s("blobstore.get")
    m["blobstore.put_mb_per_s"] = tr.rate(("blobstore.put",), "bytes", 1e6)
    m["blobstore.get_mb_per_s"] = tr.rate(("blobstore.get",), "bytes", 1e6)
    puts = tr.named("blobstore.put")
    m["blobstore.bytes_written"] = sum(s["bytes"] for s in puts) if puts else None

    m["msgqueue.enqueue_s"] = tr.median_s("msgqueue.enqueue")
    m["msgqueue.dequeue_s"] = tr.median_s("msgqueue.dequeue")
    m["msgqueue.delete_s"] = tr.median_s("msgqueue.delete")
    dequeues = tr.named("msgqueue.dequeue")
    m["msgqueue.empty_dequeues"] = sum(s["n"] == 0 for s in dequeues) if dequeues else None

    steps = tr.secs("reducer.reduce_step")
    if steps:
        least = math.ceil((ctx["leaves"] - 1) / (ctx["fan_in"] - 1))
        busy = sum(steps)
        m["reducer.invocations"] = len(steps)
        m["reducer.invocation_efficiency"] = least / len(steps)
        m["reducer.reduce_step_s"] = statistics.median(steps)
        m["reducer.busy_s"] = busy
        m["reducer.wait_s"] = ctx["parallel"] * ctx["service_wall"] - busy

    m["batchsim.sample_runtimes_s"] = tr.median_s("batchsim.sample_runtimes")
    m["batchsim.simulate_fixed_cluster_s"] = tr.median_s("batchsim.simulate_fixed_cluster")
    m["batchsim.simulate_batch_pool_s"] = tr.median_s("batchsim.simulate_batch_pool")
    m["batchsim.placements_per_s"] = tr.rate(
        ("batchsim.simulate_fixed_cluster", "batchsim.simulate_batch_pool"), "jobs"
    )
    if "sim_wall" in ctx:
        inside = sum(tr.secs("batchsim.sample_runtimes")) + sum(tr.secs("batchsim.idle_cost_curve"))
        m["cli.simulate_overhead_s"] = ctx["sim_wall"] - inside
    return m


def traced_run(workload: str, paths: dict, probes: list[str]) -> dict:
    """Trace ``workload`` at full size, then fill the metrics of layers it
    never calls from small probe runs of the other workloads."""
    tracer = Tracer(compare=True)
    ctx = paths[workload](tracer, True)
    metrics = layer_metrics(tracer, ctx)
    spans = [{"path": workload, **s} for s in tracer.spans]
    attempted = ctx["attempted"]
    for probe in probes:
        ptr = Tracer(compare=False)
        pctx = paths[probe](ptr, False)
        attempted += pctx["attempted"]
        spans += [{"path": f"probe:{probe}", **s} for s in ptr.spans]
        for k, v in layer_metrics(ptr, pctx).items():
            if metrics[k] is None:
                metrics[k] = v
    missing = sorted(k for k, v in metrics.items() if v is None)
    if missing:
        raise RuntimeError(f"traced run measured no value for {missing}")
    plain, traced = ctx["overhead"]
    return {
        "per_layer": metrics,
        "traced_wall_s": traced,
        "untraced_wall_s": plain,
        "attempted": attempted,
        "failed": 0,
        "spans": spans,
    }
