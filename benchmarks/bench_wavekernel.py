#!/usr/bin/env python3
"""Benchmark the compiled window kernels against the pure-NumPy fallback.

Runs one forward and one adjoint window of ``--steps`` steps on an n x n
padded grid, with a source and 48 receivers, and reports steps/second per
backend plus the speedup.  The forward window injects the source and
records the traces; the adjoint window injects the data and records the
source-cell series.  Frame storage and the imaging correlation are left
out: both windows get no frames (and ``first_frame`` 0).  A frame per step
of 300 steps of a 301^2 grid would take 300 * 301^2 * 8 bytes = 0.22 GB;
the solver stores only the interior frames of the steps the image reads,
``(nt - first_frame) * nz * nx * 8`` bytes per shot.  It also reports
each backend's fixed cost per window call: the median time of a zero-step
window over ``ZERO_STEP_CALLS`` calls, which is argument checking and the call
itself, paid once per window however few steps it runs.  The C kernels come
from the same loader every run uses (compiled on first use, see
rtmcloud.wavekernel._backend).  The two backends implement the same
contract (see rtmcloud.wavekernel._stencil_py) term for term, so this is
also a check that both produce bitwise-equal fields and outputs; the
script exits non-zero when they differ.  ``--json`` appends the result,
with the commit, src tree, backend and nproc, to BENCH_kernel.json at the repository
root.

Usage: python benchmarks/bench_wavekernel.py [--n 301] [--steps 300] [--json]
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np
from trajectory import ROOT, append_entry, commit

from rtmcloud.wavekernel import _backend, _stencil_py, backend_isa, backend_name

# Zero-step window calls timed per backend and kind; their median is the fixed cost.
ZERO_STEP_CALLS = 2000


def load_backends():
    backends = {"python": _stencil_py}
    module, reason = _backend.load_stencil()
    if module is None:
        print(f"C kernels unavailable ({reason}); benchmarking the fallback only")
    else:
        backends["c"] = module
    return backends


def window_args(kind, n, steps, seed=0):
    """Arguments of one ``kind`` window over [0, steps), in contract order."""
    rng = np.random.default_rng(seed)
    fields = [np.zeros((n, n)) for _ in range(4 if kind == "adjoint" else 3)]
    fields[1][2:-2, 2:-2] = rng.standard_normal((n - 4, n - 4)) * 1e-3
    vdt2 = np.full((n, n), (1500.0 * 0.0015) ** 2)
    mask = np.ones((n, n))
    mask[:2] = mask[-2:] = mask[:, :2] = mask[:, -2:] = 0.0
    inv_h2 = 1.0 / 10.0**2
    c = (n // 2) * n + n // 2
    src_idx = np.array([[c, c + 1, c + n, c + n + 1]], dtype=np.intp)
    src_w = np.full((1, 4), 0.25) * vdt2[n // 2, n // 2]
    cols = np.linspace(4, n - 6, 48).astype(np.intp)
    rec_idx = (4 * n + cols)[:, None] + np.array([0, 1, n, n + 1], dtype=np.intp)
    rec_w = np.tile([0.4, 0.1, 0.4, 0.1], (len(cols), 1))
    head = [0, steps, *fields, vdt2, mask, inv_h2, inv_h2]
    if kind == "forward":
        traces = np.zeros((steps, len(cols)))
        return head + [src_idx, src_w, rng.standard_normal(steps), rec_idx, rec_w, traces,
                       None, 0, 0, 0], traces
    q_star = np.zeros(steps)
    data = rng.standard_normal((steps, len(cols)))
    return head + [rec_idx, rec_w, data, src_idx, src_w, q_star, None, None, 0, 0, 0], q_star


def run(impl, kind, n, steps):
    args, output = window_args(kind, n, steps)
    window = getattr(impl, f"{kind}_window")
    t0 = time.perf_counter()
    fields = window(*args)
    elapsed = time.perf_counter() - t0
    return steps / elapsed, (*fields, output)


def zero_step_seconds(impl, kind, n):
    """Median seconds of one zero-step ``kind`` window over ZERO_STEP_CALLS calls."""
    args, _ = window_args(kind, n, 0)
    window = getattr(impl, f"{kind}_window")
    times = []
    for _ in range(ZERO_STEP_CALLS):
        t0 = time.perf_counter()
        window(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=301, help="padded grid size (n x n)")
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--json", action="store_true", help="append the result to BENCH_kernel.json")
    args = ap.parse_args()

    backends = load_backends()
    results, zero_step = {}, {}
    mismatch = False
    for kind in ("forward", "adjoint"):
        print(f"\n{kind} window, {args.n}x{args.n} grid, {args.steps} steps")
        fields = {}
        for name, impl in backends.items():
            rate, final = run(impl, kind, args.n, args.steps)
            fields[name] = final
            results[(kind, name)] = rate
            zero_step[f"{kind}.{name}"] = zero_step_seconds(impl, kind, args.n) * 1e6
            print(f"  {name:>7}: {rate:8.1f} steps/s, "
                  f"zero-step window {zero_step[f'{kind}.{name}']:6.1f} us")
        if len(fields) == 2:
            equal = all(map(np.array_equal, fields["c"], fields["python"]))
            mismatch |= not equal
            print(f"  bitwise equal: {'yes' if equal else 'no'}")
            speedup = results[(kind, "c")] / results[(kind, "python")]
            print(f"  speedup: {speedup:.1f}x")
    if args.json:
        append_entry("BENCH_kernel.json", {
            **commit(ROOT),
            "backend": backend_name(),
            "isa": backend_isa(),
            "nproc": len(os.sched_getaffinity(0)),
            "n": args.n,
            "steps": args.steps,
            "steps_per_s": {f"{kind}.{name}": rate for (kind, name), rate in results.items()},
            "zero_step_calls": ZERO_STEP_CALLS,
            "zero_step_window_us": zero_step,
            "bitwise_equal": not mismatch if len(backends) == 2 else None,
        })
    if mismatch:
        sys.exit("the C and NumPy kernels produced different fields or outputs")


if __name__ == "__main__":
    main()
