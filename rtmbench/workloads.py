"""One repetition of one workload, run in a fresh process by run.py.

    python3 rtmbench/workloads.py --workload NAME --seed N --dir WORKDIR --trace 0|1

Prints one JSON line: the repetition's measurements, operation counts and
check outcome.  The map phase spawns worker processes that re-import this
file as ``__mp_main__``, so everything that acts lives under the
``__main__`` guard and the top level imports only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("pipeline_default", "reduce_backlog", "simulate_curve")

# reduce_backlog: N distinct leaves of the given size, each one of a few
# seeded base fields plus a seeded constant, so the inputs stay small in
# memory while every blob is unique.
BACKLOG_LEAVES = 400
BACKLOG_SIZE = 201
BACKLOG_BASES = 16
FAN_IN = 10
PARALLEL = 2

# simulate_curve: the reference cost study swept densely up to the job count.
SIM_JOBS = 1500
SIM_MEAN_MINUTES = 119.28
SIM_SPREAD = 0.16
SIM_RATE = 3.629
SIM_SWEEP = list(range(10, SIM_JOBS + 1, 10))

# Probes measure the layers a workload never calls, so every per-layer
# metric is a measurement on every workload.
PROBE_PIPELINE = {"model": {"nz": 61, "nx": 61}, "survey": {"n_receivers": 2},
                  "scatterer": {"z": 300.0, "x": 310.0}}
PROBE_SWEEP = list(range(150, SIM_JOBS + 1, 150))


def _import_package():
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401

    import rtmcloud
    from rtmcloud import batchsim, blobstore, cli, msgqueue, orchestrator, reducer, wavekernel  # noqa: F401

    if not Path(rtmcloud.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported rtmcloud from {rtmcloud.__file__}, not from {SRC}")
    return rtmcloud


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# pipeline_default


def pipeline_config(seed: int, out_dir: Path, overrides: dict | None = None):
    from rtmcloud.config import PipelineConfig, config_from_dict

    data = PipelineConfig(seed=seed, out_dir=str(out_dir)).to_dict()
    for section, values in (overrides or {}).items():
        data[section].update(values)
    return config_from_dict(data)


def scatterer_cell(cfg) -> tuple[int, int]:
    return int(round(cfg.scatterer.z / cfg.model.dz)), int(round(cfg.scatterer.x / cfg.model.dx))


def fresh_stores(cfg):
    from rtmcloud.blobstore import BlobStore
    from rtmcloud.msgqueue import FileQueue

    Path(cfg.out_dir).mkdir(parents=True)
    return BlobStore(cfg.store_root()), FileQueue(cfg.queue_root())


def check_pipeline_run(cfg) -> dict:
    """Check the files one run_pipeline call left in its out_dir."""
    import numpy as np

    import checks

    out = Path(cfg.out_dir)
    n = cfg.survey.n_receivers
    done = [json.loads(p.read_text()) for p in sorted((out / "tasks" / "done").glob("*.json"))]
    failed = [json.loads(p.read_text()) for p in sorted((out / "tasks" / "failed").glob("*.json"))]
    checks.check_shot_ids([t["shot_id"] for t in done], n)
    leaves = [checks.read_stored_blob(cfg.store_root(), t["blob_id"]) for t in done]
    for leaf in leaves:
        checks.check_leaf_count(leaf, 1)
    final = checks.parse_rtmb((out / "final_image.rtmb").read_bytes())
    checks.check_leaf_count(final, n)
    checks.check_sum(final["values"], np.sum([leaf["values"] for leaf in leaves], axis=0))
    checks.check_focus(final["values"], *scatterer_cell(cfg))
    report = json.loads((out / "report.json").read_text())
    return {"traces": done, "failed": failed, "report": report}


def pipeline_untraced(seed: int, work: Path, t0: float) -> dict:
    from rtmcloud import orchestrator

    cfg = pipeline_config(seed, work / "run")
    fresh_stores(cfg)
    setup = time.perf_counter() - t0
    start_epoch = time.time()
    t = time.perf_counter()
    orchestrator.run_pipeline(cfg)
    wall = time.perf_counter() - t
    run = check_pipeline_run(cfg)
    traces = run["traces"]
    attempts = sum(t["attempt"] for t in traces) + sum(f["attempt"] for f in run["failed"])
    shot_failures = attempts - len(traces)
    invocations = run["report"]["reduction"]["invocation_count"]
    return {
        "setup_s": setup,
        "wall_s": wall,
        "job_s": [t["wall_seconds"] for t in traces],
        "peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
        "publish_s": max(t["end"] for t in traces) - start_epoch,
        "attempted": attempts + invocations,
        "failed": shot_failures,
        "backend_fixed_batch_ratio": run["report"]["cost"]["ratio"],
    }


def real_run_layers(cfg, start_epoch: float, run: dict) -> dict:
    """Layer figures only a run with spawned workers shows, from its files."""
    traces = run["traces"]
    starts = [t["start"] for t in traces]
    ends = [t["end"] for t in traces]
    span = max(ends) - min(starts)
    sums = [inv["time"] for inv in run["report"]["reduction"]["invocations"]]
    return {
        "orchestrator.first_job_start_s": min(starts) - start_epoch,
        "orchestrator.worker_idle_s": cfg.map.workers * span - sum(t["wall_seconds"] for t in traces),
        "reducer.tail_s": max(sums) - max(ends),
    }


def inprocess_shots(cfg, store, queue) -> dict:
    """What a map worker does, shot by shot, then the reduction of the leaves."""
    import numpy as np

    import checks
    from rtmcloud import orchestrator, reducer
    from rtmcloud.msgqueue import QueueMessage

    n = cfg.survey.n_receivers
    total = np.zeros((cfg.model.nz, cfg.model.nx))
    t = time.perf_counter()
    for shot_id in range(n):
        image = orchestrator.migrate_shot(cfg, shot_id)
        blob_id = store.put_image(image.to_blob(leaf_count=1))
        queue.enqueue(QueueMessage(blob_id=blob_id, leaf_count=1))
        total += image.values
    service_t = time.perf_counter()
    report = reducer.run_reduction_service(reduction_config(n), queue, store)
    end = time.perf_counter()
    final = checks.read_stored_blob(store.root, report.final_blob_id)
    checks.check_leaf_count(final, n)
    checks.check_sum(final["values"], total)
    checks.check_focus(final["values"], *scatterer_cell(cfg))
    return {"wall": end - t, "service_wall": end - service_t, "shots": n, "leaves": n,
            "invocations": report.invocation_count}


def reduction_config(n_leaves: int):
    from rtmcloud.reducer import ReductionConfig

    return ReductionConfig(total_leaves=n_leaves, fan_in=FAN_IN, max_parallel_invocations=PARALLEL)


def pipeline_path(seed: int, work: Path, overrides: dict | None, tracer) -> dict:
    """Traced run of pipeline_default: one spawned run for the figures only
    its files hold, then the per-shot calls in this process, traced."""
    from rtmcloud import orchestrator

    cfg = pipeline_config(seed, work / "real", overrides)
    fresh_stores(cfg)
    start_epoch = time.time()
    orchestrator.run_pipeline(cfg)
    run = check_pipeline_run(cfg)
    ctx = {"real": real_run_layers(cfg, start_epoch, run)}
    attempted = sum(t["attempt"] for t in run["traces"]) + run["report"]["reduction"]["invocation_count"]

    cfg_plain = pipeline_config(seed, work / "plain", overrides)
    plain = inprocess_shots(cfg_plain, *fresh_stores(cfg_plain)) if tracer.compare else None
    cfg_traced = pipeline_config(seed, work / "traced", overrides)
    stores = fresh_stores(cfg_traced)
    tracer.start()
    try:
        traced = inprocess_shots(cfg_traced, *stores)
    finally:
        tracer.stop()
    ctx.update(traced)
    ctx["fan_in"], ctx["parallel"] = FAN_IN, PARALLEL
    ctx["overhead"] = (plain["wall"], traced["wall"]) if plain else None
    ctx["attempted"] = attempted + sum(r["shots"] + r["invocations"] for r in (plain, traced) if r)
    return ctx


# ---------------------------------------------------------------------------
# reduce_backlog


def backlog_inputs(seed: int, n_leaves: int = BACKLOG_LEAVES, size: int = BACKLOG_SIZE):
    """Seeded leaves: leaf i = bases[i % B] + offsets[i]; returns a generator
    factory and the benchmark's own running sum."""
    import numpy as np

    rng = np.random.default_rng(seed)
    bases = rng.standard_normal((BACKLOG_BASES, size, size))
    offsets = rng.standard_normal(n_leaves)
    total = np.zeros((size, size))
    for i in range(n_leaves):
        total += bases[i % BACKLOG_BASES] + offsets[i]
    return (lambda i: bases[i % BACKLOG_BASES] + offsets[i]), total


def backlog_once(seed: int, work: Path, t0: float | None = None) -> dict:
    import checks
    from rtmcloud import reducer
    from rtmcloud.blobstore import KIND_IMAGE, BlobStore, ImageBlob
    from rtmcloud.msgqueue import FileQueue, QueueMessage

    n_leaves, size = BACKLOG_LEAVES, BACKLOG_SIZE
    leaf_at, expected = backlog_inputs(seed)
    store = BlobStore(work / "store")
    queue = FileQueue(work / "queue")
    setup = time.perf_counter() - t0 if t0 is not None else None

    per_leaf = []
    for i in range(n_leaves):
        blob = ImageBlob(KIND_IMAGE, size, size, 10.0, 10.0, 0.0, 0.0, 1, leaf_at(i))
        t = time.perf_counter()
        blob_id = store.put_image(blob)
        queue.enqueue(QueueMessage(blob_id=blob_id, leaf_count=1))
        per_leaf.append(time.perf_counter() - t)
    t = time.perf_counter()
    report = reducer.run_reduction_service(reduction_config(n_leaves), queue, store)
    wall = time.perf_counter() - t

    final = checks.read_stored_blob(store.root, report.final_blob_id)
    checks.check_leaf_count(final, n_leaves)
    checks.check_sum(final["values"], expected)
    checks.check_invocations(report.invocation_count, n_leaves, FAN_IN)
    return {
        "setup_s": setup,
        "wall_s": wall,
        "job_s": per_leaf,
        "publish_s": sum(per_leaf),
        "invocations": report.invocation_count,
        "attempted": n_leaves + report.invocation_count,
    }


def backlog_untraced(seed: int, work: Path, t0: float) -> dict:
    out = backlog_once(seed, work, t0)
    out["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
    out["failed"] = 0
    del out["invocations"]
    return out


def backlog_path(seed: int, work: Path, tracer) -> dict:
    plain = backlog_once(seed, work / "plain") if tracer.compare else None
    tracer.start()
    try:
        traced = backlog_once(seed, work / "traced")
    finally:
        tracer.stop()
    return {
        "leaves": BACKLOG_LEAVES, "fan_in": FAN_IN, "parallel": PARALLEL,
        "service_wall": traced["wall_s"],
        "overhead": (plain["publish_s"] + plain["wall_s"], traced["publish_s"] + traced["wall_s"]) if plain else None,
        "attempted": traced["attempted"] + (plain["attempted"] if plain else 0),
    }


# ---------------------------------------------------------------------------
# simulate_curve


def simulate_argv(seed: int, sweep: list[int], out: Path) -> list[str]:
    return [
        "simulate", "--jobs", str(SIM_JOBS), "--mean-minutes", str(SIM_MEAN_MINUTES),
        "--spread", str(SIM_SPREAD), "--rate", str(SIM_RATE),
        "--vm-counts", ",".join(map(str, sweep)), "--seed", str(seed), "--out", str(out),
    ]


def simulate_once(seed: int, work: Path, sweep: list[int]) -> dict:
    import checks
    from rtmcloud import cli

    work.mkdir(parents=True, exist_ok=True)
    out = work / "curve.csv"
    argv = simulate_argv(seed, sweep, out)
    start_ns = time.time_ns()
    t = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    wall = time.perf_counter() - t
    if rc != 0:
        raise checks.CheckError(f"rtm simulate exited {rc}")
    published = (os.stat(out).st_mtime_ns - start_ns) / 1e9
    durations = checks.lognormal_runtimes_h(SIM_MEAN_MINUTES, SIM_SPREAD, seed, SIM_JOBS)
    checks.check_cost_curve(out.read_text(), durations, SIM_RATE, sweep)
    return {"wall_s": wall, "publish_s": published, "durations": durations}


def simulate_untraced(seed: int, work: Path, t0: float) -> dict:
    from rtmcloud import batchsim

    setup = time.perf_counter() - t0
    out = simulate_once(seed, work, SIM_SWEEP)
    # one sweep point = one cluster size priced both ways
    jobs = [batchsim.JobSpec(i, d) for i, d in enumerate(out.pop("durations").tolist())]
    pricing = batchsim.PricingModel(SIM_RATE)
    per_point = []
    for n in SIM_SWEEP:
        t = time.perf_counter()
        batchsim.idle_cost_curve(jobs, [n], pricing)
        per_point.append(time.perf_counter() - t)
    out.update(
        setup_s=setup,
        job_s=per_point,
        peak_rss_mb=_rss_mb(resource.RUSAGE_SELF),
        attempted=len(SIM_SWEEP),
        failed=0,
    )
    return out


def sweep_path(seed: int, work: Path, sweep: list[int], tracer) -> dict:
    plain = simulate_once(seed, work / "plain", sweep) if tracer.compare else None
    tracer.start()
    try:
        traced = simulate_once(seed, work / "traced", sweep)
    finally:
        tracer.stop()
    return {
        "sim_wall": traced["wall_s"],
        "overhead": (plain["wall_s"], traced["wall_s"]) if plain else None,
        "attempted": len(sweep) * (2 if plain else 1),
    }


# ---------------------------------------------------------------------------
# entry


UNTRACED = {
    "pipeline_default": pipeline_untraced,
    "reduce_backlog": backlog_untraced,
    "simulate_curve": simulate_untraced,
}


def traced(workload: str, seed: int, work: Path) -> dict:
    import layers

    paths = {
        "pipeline_default": lambda tr, main: pipeline_path(
            seed, work / "pipeline", None if main else PROBE_PIPELINE, tr),
        "reduce_backlog": lambda tr, main: backlog_path(seed, work / "backlog", tr),
        "simulate_curve": lambda tr, main: sweep_path(
            seed, work / "sweep", SIM_SWEEP if main else PROBE_SWEEP, tr),
    }
    probes = {
        "pipeline_default": ["simulate_curve"],
        "reduce_backlog": ["pipeline_default", "simulate_curve"],
        "simulate_curve": ["pipeline_default"],
    }
    return layers.traced_run(workload, paths, probes[workload])


def main(argv=None) -> int:
    t0 = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True, type=Path)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, help="with --trace 1: write the spans here as JSON lines")
    args = p.parse_args(argv)
    try:
        rtmcloud = _import_package()
        if args.trace:
            result = traced(args.workload, args.seed, args.dir)
            spans = result.pop("spans")
            if args.spans:
                args.spans.write_text("".join(json.dumps(s) + "\n" for s in spans))
        else:
            result = UNTRACED[args.workload](args.seed, args.dir, t0)
        result["correct"] = True
        result["backend"] = rtmcloud.wavekernel.backend_name()
        result["numpy"] = sys.modules["numpy"].__version__
    except Exception as exc:  # reported to run.py, which counts the round as failed
        traceback.print_exc(file=sys.stderr)
        result = {"correct": False, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0


def _stop_resource_tracker() -> None:
    """Spawned map workers start multiprocessing's resource tracker; end and
    reap it so this process leaves nothing running."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
