"""FCFS oracles for the heap scheduler in ``batchsim``.

``fcfs_oracle`` is a step-wise event list, independent of the heap scheduler:
it advances simulated time completion by completion, assigning head-of-line
jobs to idle VMs; used to cross-check simulate_fixed_cluster.

``reference_placement`` is the plain heap placement, in which every job pops
its whole VM group and pushes it back at its end; the scheduler must return
exactly its rows, float for float.
"""

import heapq


def fcfs_oracle(durations, n_vms):
    """Returns (makespan, busy, idle) for single-VM jobs in list order."""
    if n_vms < 1 or not durations:
        raise ValueError("need at least one VM and one job")
    pending = list(range(len(durations)))
    running: list = []
    idle_vms = n_vms
    now = 0.0
    makespan = 0.0
    while pending or running:
        while pending and idle_vms > 0:
            job = pending.pop(0)
            heapq.heappush(running, (now + durations[job], job))
            idle_vms -= 1
        now, _ = heapq.heappop(running)
        idle_vms += 1
        makespan = now
    busy = float(sum(durations))
    return makespan, busy, n_vms * makespan - busy


def reference_placement(jobs, n_vms):
    """(job_id, start, end) per job in job-id order; a job of width k starts
    when the k-th earliest-free VM is free."""
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
