"""Deterministic cost simulator: fixed VM cluster vs autoscaling batch pool.

Jobs are placed FCFS in job-id order in both modes and run identical
schedules; the modes differ only in billing.  A fixed cluster bills every
VM from t=0 to the makespan (stragglers leave the rest idle), while the
batch pool bills each VM only while its job runs plus a scale-up latency
per allocation.  Each job is billed for its own runtime, so the batch cost
does not depend on the pool size: a sweep over cluster sizes prices the batch
pool once and places the fixed cluster once per size.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

_TRUNC_Z = 3.0  # lognormal draws restricted to |z| <= 3 sigma


@dataclass(frozen=True)
class JobSpec:
    job_id: int
    duration: float  # hours
    vms_per_job: int = 1

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("job duration must be positive")
        if self.vms_per_job < 1:
            raise ValueError("vms_per_job must be >= 1")


@dataclass(frozen=True)
class PricingModel:
    on_demand_rate: float  # $ per VM-hour
    low_priority_discount_factor: float = 3.0
    billing_granularity: float = 1.0  # seconds; 0 bills exact time

    def __post_init__(self):
        if self.on_demand_rate <= 0:
            raise ValueError("on_demand_rate must be positive")
        if self.billing_granularity < 0:
            raise ValueError("billing_granularity must be >= 0")

    def bill_hours(self, hours: float) -> float:
        """Round one rental interval up to the billing granularity."""
        if self.billing_granularity == 0:
            return hours
        gran_h = self.billing_granularity / 3600.0
        return math.ceil(hours / gran_h - 1e-12) * gran_h


@dataclass(frozen=True)
class ScheduleResult:
    mode: str
    n_vms: int
    makespan: float  # hours
    busy_vm_hours: float
    idle_vm_hours: float
    billed_vm_hours: float
    cost: float
    job_times: tuple = field(repr=False)  # (job_id, start_h, end_h)

    def __post_init__(self):
        if abs(self.billed_vm_hours - (self.busy_vm_hours + self.idle_vm_hours)) > 1e-6 * max(
            1.0, self.billed_vm_hours
        ):
            raise ValueError("billed hours must equal busy + idle")


@dataclass(frozen=True)
class RuntimeDistribution:
    """Truncated-lognormal job runtimes; spread=0 collapses to the mean."""

    mean_minutes: float
    spread: float = 0.16  # lognormal sigma; tuned so straggler idle cost on
    # a fixed cluster peaks near the published ~2x factor
    seed: int = 42

    def __post_init__(self):
        if self.mean_minutes <= 0:
            raise ValueError("mean_minutes must be positive")
        if self.spread < 0:
            raise ValueError("spread must be >= 0")


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _truncated_lognormal_mean(sigma: float) -> float:
    """E[exp(sigma*Z)] for Z standard normal truncated to |Z| <= _TRUNC_Z."""
    z = _TRUNC_Z
    num = _phi(z - sigma) - _phi(-z - sigma)
    den = _phi(z) - _phi(-z)
    return math.exp(0.5 * sigma**2) * num / den


def sample_runtimes(dist: RuntimeDistribution, n_jobs: int) -> list[float]:
    """Draw job durations in hours; deterministic for a fixed seed."""
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    mean_h = dist.mean_minutes / 60.0
    if dist.spread == 0.0:
        return [mean_h] * n_jobs
    rng = np.random.default_rng(dist.seed)
    z = rng.standard_normal(n_jobs)
    while True:
        bad = np.abs(z) > _TRUNC_Z
        if not bad.any():
            break
        z[bad] = rng.standard_normal(int(bad.sum()))
    scale = mean_h / _truncated_lognormal_mean(dist.spread)
    return [float(d) for d in scale * np.exp(dist.spread * z)]


def _fcfs_schedule(jobs: list[JobSpec], n_vms: int) -> list[tuple[int, float, float]]:
    """List scheduling in job-id order; a job takes the earliest-free VM group."""
    if not jobs:
        raise ValueError("need at least one job")
    widest = max(j.vms_per_job for j in jobs)
    if n_vms < widest:
        raise ValueError(f"{n_vms} VMs cannot run a job needing {widest}")
    free = [0.0] * n_vms
    heapq.heapify(free)
    times = []
    for job in sorted(jobs, key=lambda j: j.job_id):
        group = [heapq.heappop(free) for _ in range(job.vms_per_job)]
        start = group[-1]  # gang start: wait for the last VM of the group
        end = start + job.duration
        for _ in group:
            heapq.heappush(free, end)
        times.append((job.job_id, start, end))
    return times


def simulate_fixed_cluster(jobs: list[JobSpec], n_vms: int, pricing: PricingModel) -> ScheduleResult:
    """Fixed cluster of ``n_vms``: every VM is billed from t=0 to the makespan."""
    times = _fcfs_schedule(jobs, n_vms)
    makespan = max(end for _, _, end in times)
    busy = sum(j.duration * j.vms_per_job for j in jobs)
    billed, cost = fixed_cluster_bill(n_vms, makespan, pricing)
    return ScheduleResult("fixed", n_vms, makespan, busy, billed - busy, billed, cost, tuple(times))


def fixed_cluster_bill(
    n_vms: int, makespan: float, pricing: PricingModel, extra_master_vm: bool = False
) -> tuple[float, float]:
    """Billed VM-hours and cost of a fixed cluster that runs ``makespan`` hours.

    Every VM is billed from t=0 to the makespan, and with ``extra_master_vm``
    one more collector VM is billed for the same interval.
    """
    billed = (n_vms + (1 if extra_master_vm else 0)) * pricing.bill_hours(makespan)
    return billed, billed * pricing.on_demand_rate


def simulate_batch_pool(
    jobs: list[JobSpec],
    max_pool_vms: int,
    pricing: PricingModel,
    scale_latency: float = 0.0,
) -> ScheduleResult:
    """Autoscaling pool capped at ``max_pool_vms``: same placement, but VMs
    are billed per job for its duration plus ``scale_latency`` seconds of
    allocation overhead."""
    if scale_latency < 0:
        raise ValueError("scale_latency must be >= 0")
    times = _fcfs_schedule(jobs, max_pool_vms)
    makespan = max(end for _, _, end in times)
    busy = sum(j.duration * j.vms_per_job for j in jobs)
    latency_h = scale_latency / 3600.0
    billed = sum(
        pricing.bill_hours(j.duration + latency_h) * j.vms_per_job for j in jobs
    )
    return ScheduleResult(
        "batch", max_pool_vms, makespan, busy, billed - busy, billed,
        billed * pricing.on_demand_rate, tuple(times),
    )


def apply_low_priority(result: ScheduleResult, pricing: PricingModel) -> ScheduleResult:
    """Discounted (preemptible) billing: cost divided by the 2-3x factor."""
    factor = pricing.low_priority_discount_factor
    if not 2.0 <= factor <= 3.0:
        raise ValueError(f"low-priority discount factor {factor} outside [2, 3]")
    return replace(result, mode=result.mode + "+low-priority", cost=result.cost / factor)


@dataclass(frozen=True)
class CurveRow:
    n_vms: int
    makespan_h: float
    busy_vmh: float
    idle_vmh: float
    fixed_cost: float
    batch_cost: float
    ratio: float
    low_priority_cost: float


def parse_vm_counts(spec: str | None, n_jobs: int, source: str = "vm_counts") -> list[int]:
    """Cluster sizes from a comma list such as "25,50,100"; with no list, the
    doubling sweep 1, 2, 4, ... ending at ``n_jobs``.

    A malformed list (an empty item, a non-integer, a size below 1) raises a
    ``ValueError`` naming ``source``, the flag or config key it came from.
    """
    if spec is None:
        counts, n = [], 1
        while n < n_jobs:
            counts.append(n)
            n *= 2
        return counts + [n_jobs]
    counts = []
    for item in spec.split(","):
        if not item.strip():
            raise ValueError(f"{source} {spec!r}: empty item")
        try:
            n = int(item)
        except ValueError:
            raise ValueError(f"{source} {spec!r}: {item.strip()!r} is not an integer") from None
        if n < 1:
            raise ValueError(f"{source} {spec!r}: {n} is below 1")
        counts.append(n)
    return counts


def idle_cost_curve(
    jobs: list[JobSpec],
    vm_counts: list[int],
    pricing: PricingModel,
    scale_latency: float = 0.0,
) -> list[CurveRow]:
    """Fixed-vs-batch cost table over a sweep of cluster sizes.

    The batch pool is priced once, at ``vm_counts[0]``: its bill does not
    depend on the pool size, and placing it there raises the same
    ``ValueError`` as the fixed cluster for a size below the widest job.
    """
    if not vm_counts:
        return []
    batch = simulate_batch_pool(jobs, vm_counts[0], pricing, scale_latency)
    low_priority_cost = apply_low_priority(batch, pricing).cost
    rows = []
    for n in vm_counts:
        fixed = simulate_fixed_cluster(jobs, n, pricing)
        rows.append(
            CurveRow(
                n_vms=n,
                makespan_h=fixed.makespan,
                busy_vmh=fixed.busy_vm_hours,
                idle_vmh=fixed.idle_vm_hours,
                fixed_cost=fixed.cost,
                batch_cost=batch.cost,
                ratio=fixed.cost / batch.cost,
                low_priority_cost=low_priority_cost,
            )
        )
    return rows


def write_curve_csv(rows: list[CurveRow], path) -> None:
    """Write an idle-cost table as CSV, one line per cluster size."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            ["n_vms", "makespan_h", "busy_vmh", "idle_vmh", "fixed_cost",
             "batch_cost", "ratio", "low_priority_cost"]
        )
        for r in rows:
            w.writerow(
                [r.n_vms, f"{r.makespan_h:.6f}", f"{r.busy_vmh:.6f}", f"{r.idle_vmh:.6f}",
                 f"{r.fixed_cost:.2f}", f"{r.batch_cost:.2f}", f"{r.ratio:.4f}",
                 f"{r.low_priority_cost:.2f}"]
            )
