"""End-to-end pipeline driver: survey -> parallel per-shot RTM -> reduction.

The map phase emulates a batch service on one machine: the driver hands
each shot, in shot order, to a free worker OS process over that worker's
pipe; the worker writes its image to the blob store and announces it on the
queue.  The reduction service consumes the queue concurrently, in a process
of its own, so summation starts while shots are still being migrated.

Every process is started by ``fork`` from a parent that runs no thread of
this package: the reducer's threads live inside the reduction process.  A
worker therefore inherits the loaded numpy and kernel and starts its first
shot within milliseconds, and every child is joined, so its resource usage
reaches ``RUSAGE_CHILDREN``.  Before its first shot a worker builds one
``ShotSetup``, all that its shots share, so each map job runs little but
its three propagations.

No child outlives the driver.  Each child closes the driver's ends of the
pipes it inherited at fork, so only the driver holds them: a map worker
then reads EOF from its pipe when the driver dies, and the reduction
process, watching a lifeline pipe whose write end only the driver holds,
stops its service.  The driver stops it the same way on a map-phase error:
it closes its end of the lifeline.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import multiprocessing as mp
import os
import resource
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import batchsim
from .blobstore import BlobStore, encode_image
from .config import PipelineConfig
from .msgqueue import FileQueue, QueueMessage
from .reducer import ReductionConfig, ReductionReport, reduction_config, run_reduction_service
from .survey import (
    VelocityModel2D,
    apply_reciprocity,
    make_layered_model,
    make_random_obn_geometry,
)
from .wavekernel import (
    ImageGrid,
    backend_isa,
    backend_name,
    backend_reason,
    default_dt,
    forward_model,
    frame_layout,
    propagators,
    ricker,
    rtm_shot_image,
)

_FORK = mp.get_context("fork")


class MapPhaseError(RuntimeError):
    """A shot used up its attempts; carries the traces of the shots that did
    finish."""

    def __init__(self, msg: str, traces: list):
        super().__init__(msg)
        self.traces = traces


@dataclass(frozen=True)
class JobTrace:
    shot_id: int
    worker_id: int
    start: float
    end: float
    wall_seconds: float
    blob_id: str
    attempt: int = 1
    backend: str | None = None  # the worker's backend_name(), and why when "python"
    backend_reason: str | None = None
    peak_rss_mb: float | None = None  # the worker's own ru_maxrss when it finished the shot
    backend_isa: str | None = None  # the worker's backend_isa(): which copy of the C windows ran

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError("trace end precedes start")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class CostReport:
    n_jobs: int
    mean_runtime_minutes: float
    headline_n_vms: int
    fixed_cost: float
    batch_cost: float
    ratio: float
    low_priority_cost: float
    makespan_hours: float
    runtimes_csv: str
    curve_csv: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def build_survey(config: PipelineConfig):
    """Deterministic survey assembly shared by the orchestrator and workers.

    Returns (migration_model, true_model, plans, dt, nt).  The "true" model
    adds a velocity bump at the configured scatterer so synthetic data has a
    knowable focus point; observed data is data(true) - data(background).
    """
    m = config.model
    model = make_layered_model(m.nz, m.nx, m.dz, m.dx, list(m.layer_velocities))
    true_model = add_point_scatterer(
        model,
        config.scatterer.x,
        config.scatterer.z,
        config.scatterer.relative_amplitude,
        config.scatterer.half_cells,
    )
    dt = config.survey.dt_record
    if dt is None:
        dt = min(default_dt(model), default_dt(true_model))
    geometry = make_random_obn_geometry(
        model,
        config.survey.n_receivers,
        config.survey.n_sources,
        config.seed,
        config.survey.record_time,
        dt,
    )
    plans = apply_reciprocity(geometry)
    nt = int(round(config.survey.record_time / dt)) + 1
    return model, true_model, plans, dt, nt


def add_point_scatterer(
    model: VelocityModel2D,
    x: float,
    z: float,
    relative_amplitude: float = 0.10,
    half_cells: int = 1,
) -> VelocityModel2D:
    """Velocity bump over a (2*half_cells+1)^2 patch centered at (x, z)."""
    iz = int(round((z - model.oz) / model.dz))
    ix = int(round((x - model.ox) / model.dx))
    if not (0 <= iz < model.nz and 0 <= ix < model.nx):
        raise ValueError("scatterer position outside the model")
    v = model.v.copy()
    z0, z1 = max(0, iz - half_cells), min(model.nz, iz + half_cells + 1)
    x0, x1 = max(0, ix - half_cells), min(model.nx, ix + half_cells + 1)
    v[z0:z1, x0:x1] *= 1.0 + relative_amplitude
    return VelocityModel2D(model.nz, model.nx, model.dz, model.dx, model.oz, model.ox, v)


class ShotSetup:
    """What every shot of ``config`` shares, built once: the survey, the
    wavelet, ``frames``, an uninitialised float32 buffer for the source
    wavefield of any shot, and a propagator for each model, the two sharing
    one mask and one set of fields.  A map worker builds one before its
    first shot and passes it to each ``migrate_shot``; the shots run on it
    one at a time."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.model, self.true_model, self.plans, self.dt, self.nt = build_survey(config)
        self.wavelet = ricker(config.wavelet.peak_frequency, self.dt, self.nt)
        self.frames = np.empty(frame_layout(self.model, self.wavelet, self.nt)[1],
                               dtype=np.float32)
        self.background, self.true = propagators((self.model, self.true_model), self.dt)


def migrate_shot(config: PipelineConfig, shot_id: int, *,
                 setup: ShotSetup | None = None) -> ImageGrid:
    """Model synthetic data for one shot and migrate it (one map job).

    It runs on ``setup``, a ``ShotSetup(config)``, or on one built here.  A
    caller that runs many shots passes one setup to all of them; callers
    running at once need one each.
    """
    if setup is None:
        setup = ShotSetup(config)
    elif setup.config != config:
        raise ValueError("the shot setup was built for another config")
    s, plan = setup, setup.plans[shot_id]
    rec_true = forward_model(s.true_model, plan.source, s.wavelet, plan.receivers, s.dt, s.nt,
                             shot_id, propagator=s.true)
    # the background run stores the source wavefield
    rec_bg = forward_model(s.model, plan.source, s.wavelet, plan.receivers, s.dt, s.nt, shot_id,
                           frames=s.frames, propagator=s.background)
    observed = dataclasses.replace(rec_true, traces=rec_true.traces - rec_bg.traces)
    return rtm_shot_image(s.model, plan, observed, s.wavelet, frames=s.frames,
                          propagator=s.background)


# ---------------------------------------------------------------------------
# map phase: forked workers fed shots over pipes


def _atomic_write_json(path: Path, obj: dict) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(obj))
    os.replace(tmp, path)


def _map_worker(config: PipelineConfig, conn, done_dir: Path, inherited) -> None:
    """Worker process: migrate and publish each (shot_id, attempt) the driver
    sends, answer with the shot id, and return when it sends None or dies.

    ``inherited`` are the driver's connections that this fork copied; closing
    them leaves the driver the only holder of this worker's other pipe end.
    """
    for c in inherited:
        c.close()
    store = BlobStore(config.store_root())
    queue = FileQueue(config.queue_root())
    pid = os.getpid()
    setup = ShotSetup(config)  # what every shot shares, built before the first
    try:
        for shot_id, attempt in iter(conn.recv, None):
            try:
                start = time.time()
                image = migrate_shot(config, shot_id, setup=setup)
                blob_id = store.put_image(image.to_blob(leaf_count=1))
                queue.enqueue(QueueMessage(blob_id=blob_id, leaf_count=1))
                end = time.time()
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB
                trace = JobTrace(shot_id, pid, start, end, end - start, blob_id, attempt,
                                 backend_name(), backend_reason(), peak_mb, backend_isa())
                _atomic_write_json(done_dir / f"{shot_id:05d}.json", trace.to_dict())
            except Exception:
                traceback.print_exc(file=sys.stderr)
                os._exit(1)  # the driver reads EOF and retries or fails the shot
            conn.send(shot_id)
    except (EOFError, OSError):
        pass  # the driver died: nobody is left to hand out shots or read answers


def run_map_phase(config: PipelineConfig, driver_conns=()) -> list[JobTrace]:
    """Run every shot through at most ``map.workers`` forked worker
    processes; one trace per shot, in shot order.  Each worker closes its
    copies of ``driver_conns``, the caller's connections that only the
    caller may hold.

    The driver hands each free worker the next shot over its pipe.  When a
    worker dies, the shot it held counts as done if its trace was written;
    otherwise it is handed out next, as attempt + 1, and a replacement
    worker is started while shots remain.  A shot whose
    ``map.max_attempts``-th attempt dies fails the phase with the traces
    collected so far; a worker that crashes at start-up thus uses up the
    attempts of the shot it was handed like any other.
    """
    # imported here, as Pipe() imports it, so importing this module stays light
    from multiprocessing.connection import wait

    n_shots = config.survey.n_receivers
    done_dir = Path(config.out_dir) / "tasks" / "done"
    failed_dir = done_dir.with_name("failed")
    for d in (done_dir, failed_dir):
        d.mkdir(parents=True, exist_ok=True)
        for old in d.iterdir():
            old.unlink()
    BlobStore(config.store_root())
    FileQueue(config.queue_root())

    tasks = deque((shot_id, 1) for shot_id in range(n_shots))
    workers: dict = {}  # driver end of a live worker's pipe -> [process, task held or None]
    failed_msgs: list[str] = []

    def settle(conn) -> None:
        """Join the dead worker behind ``conn`` and requeue or fail its shot."""
        proc, task = workers.pop(conn)
        conn.close()
        proc.join()
        if task is None or (done_dir / f"{task[0]:05d}.json").exists():
            return
        shot_id, attempt = task
        if attempt < config.map.max_attempts:
            tasks.appendleft((shot_id, attempt + 1))
            return
        _atomic_write_json(failed_dir / f"{shot_id:05d}.json",
                           {"shot_id": shot_id, "attempt": attempt})
        failed_msgs.append(f"shot {shot_id} failed after {attempt} attempts; its last "
                           f"worker died with exit code {proc.exitcode}")

    try:
        while not failed_msgs:
            idle = [c for c, (_, task) in workers.items() if task is None]
            while tasks and (idle or len(workers) < config.map.workers):
                if idle:
                    conn = idle.pop()
                else:
                    conn, child = _FORK.Pipe()
                    inherited = (conn, *workers, *driver_conns)
                    proc = _FORK.Process(target=_map_worker,
                                         args=(config, child, done_dir, inherited), daemon=True)
                    proc.start()
                    child.close()  # so the worker's death reads as EOF here
                    workers[conn] = [proc, None]
                workers[conn][1] = tasks.popleft()
                with contextlib.suppress(OSError):  # a dead worker is settled below
                    conn.send(workers[conn][1])
            if not any(task for _, task in workers.values()):
                break
            for conn in wait(list(workers)):
                try:
                    conn.recv()
                    workers[conn][1] = None
                except (EOFError, OSError):
                    settle(conn)
    finally:
        for conn in workers:
            with contextlib.suppress(OSError):
                conn.send(None)
        for conn, (proc, _) in workers.items():
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join()
            conn.close()

    # done/<shot:05d>.json: name order is shot order
    traces = [JobTrace(**json.loads(f.read_text())) for f in sorted(done_dir.glob("*.json"))]
    if failed_msgs:
        raise MapPhaseError("; ".join(failed_msgs), traces)
    return traces


# ---------------------------------------------------------------------------
# full pipeline


def _reduction_process(red_cfg: ReductionConfig, queue: FileQueue, store: BlobStore,
                       sender, lifeline, inherited) -> None:
    """Reduction process: run the service, send ("report", ReductionReport) or
    ("error", exception) back to the pipeline driver.  ``inherited`` are the
    driver's connections this fork copied; ``lifeline`` reads EOF once the
    driver, its only writer, closes it or dies, and a thread then stops the
    service."""
    from multiprocessing.connection import wait

    for c in inherited:
        c.close()

    abort = threading.Event()

    def watch():
        wait([lifeline])
        abort.set()

    threading.Thread(target=watch, name="lifeline", daemon=True).start()
    try:
        result = ("report", run_reduction_service(red_cfg, queue, store, stop_event=abort))
    except BaseException as exc:
        result = ("error", exc)
    with contextlib.suppress(BrokenPipeError):  # the driver died: nobody reads the result
        sender.send(result)
    sender.close()


def _reduction_result(reducer, results) -> ReductionReport:
    """Receive the reduction process's result, join it, and return the
    report or raise the error it sent."""
    try:
        kind, value = results.recv()
    except EOFError:
        kind, value = None, None
    finally:
        results.close()
    reducer.join()
    if kind is None:
        raise RuntimeError(
            f"reduction service (pid {reducer.pid}) exited with code "
            f"{reducer.exitcode} before it sent a result"
        )
    if kind == "error":
        raise value
    return value


def pricing_model(config: PipelineConfig) -> batchsim.PricingModel:
    """The run's pricing; a value out of range raises ValueError naming its
    ``pricing.`` key."""
    values = dataclasses.asdict(config.pricing)
    for key, value in values.items():  # one at a time, to name the key at fault
        try:
            dataclasses.replace(batchsim.PricingModel(1.0), **{key: value})
        except ValueError as exc:
            raise ValueError(f"pricing.{key}: {exc}") from None
    return batchsim.PricingModel(**values)


def run_pipeline(config: PipelineConfig):
    """Map and reduce concurrently; returns (ImageGrid, ReductionReport, CostReport).
    A config value out of range raises ValueError before anything is written."""
    n_shots = config.survey.n_receivers
    vm_counts = batchsim.parse_vm_counts(config.report.vm_counts, n_shots, "report.vm_counts")
    pricing = pricing_model(config)
    reduction = reduction_config(config)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = BlobStore(config.store_root())
    queue = FileQueue(config.queue_root())
    if queue.approximate_count() != 0:
        raise RuntimeError(
            f"queue at {config.queue_root()} is not empty; refusing to mix runs"
        )

    results, sender = _FORK.Pipe(duplex=False)
    lifeline, held = _FORK.Pipe(duplex=False)  # the driver writes nothing; it only holds it
    reducer = _FORK.Process(
        target=_reduction_process,
        args=(reduction, queue, store, sender, lifeline, (results, held)),
        name="reduction-service",
        daemon=True,
    )
    reducer.start()
    sender.close()  # so a reducer that dies without a result reads as EOF here
    lifeline.close()
    try:
        try:
            traces = run_map_phase(config, driver_conns=(results, held))
        except BaseException:
            held.close()  # the lifeline's only write end: the reduction process stops
            try:
                _reduction_result(reducer, results)
            except Exception:
                pass  # the map phase's error is the one to report
            raise
        report_red = _reduction_result(reducer, results)
    finally:
        held.close()

    final_blob = store.get_image(report_red.final_blob_id)
    if final_blob.leaf_count != n_shots:
        raise RuntimeError(
            f"final image merges {final_blob.leaf_count} leaves, expected {n_shots}"
        )
    final_image = ImageGrid.from_blob(final_blob)

    cost = report(
        traces, pricing, out_dir=out_dir, vm_counts=vm_counts,
        headline_n_vms=config.map.workers,
    )

    (out_dir / "final_image.rtmb").write_bytes(encode_image(final_blob))
    reasons = sorted({t.backend_reason for t in traces if t.backend_reason})
    _atomic_write_json(
        out_dir / "report.json",
        {
            "reduction": report_red.to_dict(),
            "cost": cost.to_dict(),
            "final_image_blob": report_red.final_blob_id,
            "n_shots": n_shots,
            # the kernels the map workers ran, which made every image
            "backend": {
                "name": "+".join(sorted({t.backend for t in traces})),
                "reason": "; ".join(reasons) or None,
                "isa": "+".join(sorted({t.backend_isa for t in traces if t.backend_isa})) or None,
            },
            # the largest ru_maxrss any map worker reported
            "map": {"peak_rss_mb": max(t.peak_rss_mb for t in traces)},
        },
    )
    return final_image, report_red, cost


# ---------------------------------------------------------------------------
# reporting


def report(
    traces: list[JobTrace],
    pricing: batchsim.PricingModel,
    out_dir: str | Path = ".",
    vm_counts: list[int] | None = None,
    headline_n_vms: int | None = None,
) -> CostReport:
    """Write runtimes_sorted.csv and idle_cost_curve.csv; return the summary."""
    if not traces:
        raise ValueError("report needs at least one trace")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    durations = [t.wall_seconds for t in traces]
    mean_minutes = float(np.mean(durations)) / 60.0

    runtimes_csv = out_dir / "runtimes_sorted.csv"
    with open(runtimes_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["rank", "shot_id", "runtime_seconds"])
        ordered = sorted(traces, key=lambda t: t.wall_seconds)
        for rank, t in enumerate(ordered):
            w.writerow([rank, t.shot_id, f"{t.wall_seconds:.6f}"])

    jobs = [batchsim.JobSpec(t.shot_id, t.wall_seconds / 3600.0) for t in traces]
    if vm_counts is None:
        vm_counts = batchsim.parse_vm_counts(None, len(jobs))
    n_head = headline_n_vms or vm_counts[-1]
    n_head = max(1, min(n_head, len(jobs)))
    # one sweep: the headline row is the curve's, or one more size placed after it
    sizes = vm_counts if n_head in vm_counts else [*vm_counts, n_head]
    rows = batchsim.idle_cost_curve(jobs, sizes, pricing)
    head = rows[sizes.index(n_head)]
    curve_csv = out_dir / "idle_cost_curve.csv"
    batchsim.write_curve_csv(rows[:len(vm_counts)], curve_csv)
    return CostReport(
        n_jobs=len(jobs),
        mean_runtime_minutes=mean_minutes,
        headline_n_vms=n_head,
        fixed_cost=head.fixed_cost,
        batch_cost=head.batch_cost,
        ratio=head.ratio,
        low_priority_cost=head.low_priority_cost,
        makespan_hours=head.makespan_h,
        runtimes_csv=str(runtimes_csv),
        curve_csv=str(curve_csv),
    )


def synthetic_reference_traces(
    n_jobs: int = 1500, minutes_per_job: float = 119.28
) -> list[JobTrace]:
    """Uniform traces reproducing the reference case-study workload."""
    secs = minutes_per_job * 60.0
    return [JobTrace(i, 0, 0.0, secs, secs, "", 1) for i in range(n_jobs)]
