#!/usr/bin/env python3
"""Benchmark the compiled stencil kernels against the pure-NumPy fallback.

Runs the forward and adjoint time-step kernels on a padded grid and reports
steps/second per backend plus the speedup.  The C kernels come from the same
loader every run uses (compiled on first use, see rtmcloud.wavekernel._backend).
The two backends implement the same contract (see
rtmcloud.wavekernel._stencil_py) term for term, so this is also a check that
both produce bitwise-equal fields; the script exits non-zero when they differ.
``--json`` appends the result, with the commit, backend and nproc, to
BENCH_kernel.json at the repository root.

Usage: python benchmarks/bench_wavekernel.py [--n 301] [--steps 300] [--json]
"""

import argparse
import os
import sys
import time

import numpy as np
from trajectory import ROOT, append_entry, commit

from rtmcloud.wavekernel import _backend, _stencil_py, backend_name


def load_backends():
    backends = {"python": _stencil_py}
    module, reason = _backend.load_stencil()
    if module is None:
        print(f"C kernels unavailable ({reason}); benchmarking the fallback only")
    else:
        backends["c"] = module
    return backends


def make_fields(n, seed=0):
    rng = np.random.default_rng(seed)
    prv = np.zeros((n, n))
    cur = np.zeros((n, n))
    cur[2:-2, 2:-2] = rng.standard_normal((n - 4, n - 4)) * 1e-3
    nxt = np.zeros((n, n))
    w = np.zeros((n, n))
    vdt2 = np.full((n, n), (1500.0 * 0.0015) ** 2)
    mask = np.ones((n, n))
    mask[:2] = mask[-2:] = mask[:, :2] = mask[:, -2:] = 0.0
    return prv, cur, nxt, w, vdt2, mask


def run(impl, kind, n, steps):
    prv, cur, nxt, w, vdt2, mask = make_fields(n)
    inv_h2 = 1.0 / 10.0**2
    t0 = time.perf_counter()
    for _ in range(steps):
        if kind == "forward":
            impl.forward_step(prv, cur, nxt, vdt2, mask, inv_h2, inv_h2)
        else:
            impl.adjoint_step(prv, cur, nxt, w, vdt2, mask, inv_h2, inv_h2)
        prv, cur, nxt = cur, nxt, prv
    elapsed = time.perf_counter() - t0
    return steps / elapsed, cur


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=301, help="padded grid size (n x n)")
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--json", action="store_true", help="append the result to BENCH_kernel.json")
    args = ap.parse_args()

    backends = load_backends()
    results = {}
    mismatch = False
    for kind in ("forward", "adjoint"):
        print(f"\n{kind} step, {args.n}x{args.n} grid, {args.steps} steps")
        fields = {}
        for name, impl in backends.items():
            rate, final = run(impl, kind, args.n, args.steps)
            fields[name] = final
            results[(kind, name)] = rate
            print(f"  {name:>7}: {rate:8.1f} steps/s")
        if len(fields) == 2:
            equal = np.array_equal(fields["c"], fields["python"])
            mismatch |= not equal
            print(f"  bitwise equal: {'yes' if equal else 'no'}")
            speedup = results[(kind, "c")] / results[(kind, "python")]
            print(f"  speedup: {speedup:.1f}x")
    if args.json:
        append_entry("BENCH_kernel.json", {
            "commit": commit(ROOT),
            "backend": backend_name(),
            "nproc": len(os.sched_getaffinity(0)),
            "n": args.n,
            "steps": args.steps,
            "steps_per_s": {f"{kind}.{name}": rate for (kind, name), rate in results.items()},
            "bitwise_equal": not mismatch if len(backends) == 2 else None,
        })
    if mismatch:
        sys.exit("the C and NumPy kernels produced different fields")


if __name__ == "__main__":
    main()
