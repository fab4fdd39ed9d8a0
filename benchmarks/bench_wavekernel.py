#!/usr/bin/env python3
"""Benchmark the compiled window kernels against the pure-NumPy fallback.

Runs one forward and one adjoint window of ``--steps`` steps on an n x n
padded grid, with a source and 48 receivers, and reports steps/second per
backend plus the speedup.  The grid's arrays are laid out as the solver lays
them out, by ``aligned_grid``: rows n rounded up to 8 doubles apart, column
2 of each on a 64-byte boundary.  The forward window injects the source and
records the traces; the adjoint window injects the data and records the
source-cell series.  With ``--frames`` each window also does what a
migrated shot adds: the forward stores the model interior (the grid less
its ``PAD`` cells of sponge and halo each side) of every step from
``first_frame = steps // 8`` on, rounded to float32, as the solver stores
the frames the image reads, and the adjoint correlates the same frames into
an image.  Without it both windows get no frames, and ``first_frame`` 0.
``--repeat N`` runs each backend's windows N times, the backends taking
turns inside one process, and reports the median with its quartiles, so two
backends, or two runs of one, are compared under the same conditions rather
than across processes.

It also reports each backend's fixed cost per window call: the median
time of a zero-step window on a built plan over ``ZERO_STEP_CALLS`` calls,
which is the window's bounds check and the call itself, paid once per
window however few steps it runs.  The arguments are checked once per
propagation instead, when its plan is built: ``plan_us`` is the median time
of one plan build per direction over ``PLAN_BUILDS`` builds, the same for
either backend.  The C kernels come from the same loader every run uses
(compiled on first use, see rtmcloud.wavekernel._backend).  The two
backends implement the same contract (see rtmcloud.wavekernel._stencil_py)
term for term, so this is also a check that both produce bitwise-equal
fields and outputs; the script exits non-zero when they differ.
``--json`` appends the result, with the commit, src tree, backend and
nproc, to BENCH_kernel.json at the repository root.

Usage: python benchmarks/bench_wavekernel.py [--n 301] [--steps 300] [--frames]
                                             [--repeat N] [--json]
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np
from trajectory import ROOT, append_entry, commit

from rtmcloud.wavekernel import _backend, _stencil_py, backend_isa, backend_name, solver
from rtmcloud.wavekernel._stencil_py import Plan, aligned_grid, row_stride

# Zero-step window calls timed per backend and kind; their median is the fixed cost.
ZERO_STEP_CALLS = 2000
# Plan builds timed per kind; their median is the per-propagation cost.
PLAN_BUILDS = 2000
# The cells of sponge and halo the solver pads the model with on each side.
PAD = solver.SPONGE_CELLS + solver.HALO


def load_backends():
    backends = {"python": _stencil_py}
    module, reason = _backend.load_stencil()
    if module is None:
        print(f"C kernels unavailable ({reason}); benchmarking the fallback only")
    else:
        backends["c"] = module
    return backends


def window_args(kind, n, steps, frames=False, seed=0):
    """Plan arguments of one ``kind`` propagation of ``steps`` steps, as
    ``(positional, keywords)``, and its outputs besides the fields."""
    rng = np.random.default_rng(seed)
    fields = [aligned_grid(n, n) for _ in range(3)]
    fields[1][2:-2, 2:-2] = rng.standard_normal((n - 4, n - 4)) * 1e-3
    vdt2, mask = aligned_grid(n, n), aligned_grid(n, n)
    vdt2[:] = (1500.0 * 0.0015) ** 2
    mask[2:-2, 2:-2] = 1.0
    inv_h2 = 1.0 / 10.0**2
    ld = row_stride(n)  # a flat cell index is row * ld + column
    c = (n // 2) * ld + n // 2
    src_idx = np.array([[c, c + 1, c + ld, c + ld + 1]], dtype=np.intp)
    src_w = np.full((1, 4), 0.25) * vdt2[n // 2, n // 2]
    cols = np.linspace(4, n - 6, 48).astype(np.intp)
    rec_idx = (4 * ld + cols)[:, None] + np.array([0, 1, ld, ld + 1], dtype=np.intp)
    rec_w = np.tile([0.4, 0.1, 0.4, 0.1], (len(cols), 1))
    head = [steps, fields, (vdt2, mask, inv_h2, inv_h2), (src_idx, src_w), (rec_idx, rec_w)]
    first, side = (steps // 8, max(n - 2 * PAD, 1)) if frames else (0, 0)
    where = dict(first_frame=first, pad=(n - side) // 2)
    if kind == "forward":
        traces = np.zeros((steps, len(cols)))
        # written through once before timing, as a map worker's reused buffer is
        fr = np.full((steps - first, side, side), 0.0, dtype=np.float32) if frames else None
        return (head, dict(q=rng.standard_normal(steps), traces=traces, frames=fr, **where),
                (traces,) + ((fr,) if frames else ()))
    q_star = np.zeros(steps)
    data = rng.standard_normal((steps, len(cols)))
    fr = (rng.standard_normal((steps - first, side, side), dtype=np.float32) * 1e-3
          if frames else None)
    image = np.zeros((side, side)) if frames else None
    return (head, dict(data=data, q_star=q_star, frames=fr, image=image, **where),
            (q_star,) + ((image,) if frames else ()))


def run(impl, kind, n, steps, frames):
    args, kwargs, outputs = window_args(kind, n, steps, frames)
    plan = Plan(*args, **kwargs)
    window = getattr(impl, f"{kind}_window")
    t0 = time.perf_counter()
    window(plan, 0, steps)
    elapsed = time.perf_counter() - t0
    return steps / elapsed, (*plan.fields, *outputs)


def median_seconds(fn, calls):
    """Median seconds of one call of ``fn()`` over ``calls`` calls."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def zero_step_seconds(impl, kind, n):
    """Median seconds of one zero-step ``kind`` window on a built plan."""
    args, kwargs, _ = window_args(kind, n, 0)
    plan, window = Plan(*args, **kwargs), getattr(impl, f"{kind}_window")
    return median_seconds(lambda: window(plan, 0, 0), ZERO_STEP_CALLS)


def plan_seconds(kind, n, steps, frames):
    """Median seconds of building one ``kind`` plan of ``steps`` steps."""
    args, kwargs, _ = window_args(kind, n, steps, frames)
    return median_seconds(lambda: Plan(*args, **kwargs), PLAN_BUILDS)


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return median, q1, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=301, help="padded grid size (n x n)")
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--frames", action="store_true",
                    help="the forward stores frames and the adjoint correlates them, as a shot does")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per backend, the backends taking turns in this process")
    ap.add_argument("--json", action="store_true", help="append the result to BENCH_kernel.json")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")

    backends = load_backends()
    rates, zero_step, stats, plan_us = {}, {}, {}, {}
    mismatch = False
    for kind in ("forward", "adjoint"):
        print(f"\n{kind} window, {args.n}x{args.n} grid, {args.steps} steps"
              f"{', frames' if args.frames else ''}, {args.repeat} run(s) per backend")
        names = list(backends)
        finals = {}
        for i in range(args.repeat):
            for name in names if i % 2 == 0 else names[::-1]:
                rate, finals[name] = run(backends[name], kind, args.n, args.steps, args.frames)
                rates.setdefault(f"{kind}.{name}", []).append(rate)
        for name, impl in backends.items():
            key = f"{kind}.{name}"
            stats[key] = quartiles(rates[key])
            zero_step[key] = zero_step_seconds(impl, kind, args.n) * 1e6
            print(f"  {name:>7}: {stats[key][0]:8.1f} steps/s [{stats[key][1]:.1f}, "
                  f"{stats[key][2]:.1f}], zero-step window {zero_step[key]:6.1f} us")
        plan_us[kind] = plan_seconds(kind, args.n, args.steps, args.frames) * 1e6
        print(f"  plan build: {plan_us[kind]:6.1f} us, once per propagation")
        if len(finals) == 2:
            equal = all(map(np.array_equal, finals["c"], finals["python"]))
            mismatch |= not equal
            print(f"  bitwise equal: {'yes' if equal else 'no'}")
            speedup = stats[f"{kind}.c"][0] / stats[f"{kind}.python"][0]
            print(f"  speedup: {speedup:.1f}x")
    if args.json:
        append_entry("BENCH_kernel.json", {
            **commit(ROOT),
            "backend": backend_name(),
            "isa": backend_isa(),
            "nproc": len(os.sched_getaffinity(0)),
            "n": args.n,
            "steps": args.steps,
            "frames": args.frames,
            "repeat": args.repeat,
            "steps_per_s": {k: v[0] for k, v in stats.items()},
            "steps_per_s_quartiles": {k: v[1:] for k, v in stats.items()},
            "zero_step_calls": ZERO_STEP_CALLS,
            "zero_step_window_us": zero_step,
            "plan_builds": PLAN_BUILDS,
            "plan_us": plan_us,
            "bitwise_equal": not mismatch if len(backends) == 2 else None,
        })
    if mismatch:
        sys.exit("the C and NumPy kernels produced different fields or outputs")


if __name__ == "__main__":
    main()
