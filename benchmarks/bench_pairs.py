#!/usr/bin/env python3
"""Alternating parent/change pairs of the rtmbench benchmark, summarised.

Runs ``rtmbench/run.py --workload W --seed S`` ten times in the checkout at
``--parent`` and ten times in this checkout (the change), each run as long as
BENCHMARK.json's run_seconds, alternating which side runs first, then
prints each end-to-end metric of BENCHMARK.json per side as median [q1, q3]
and the number of pairs the change won.  ``--json`` appends one entry per
side (commit, backend, nproc, repetitions, median and quartiles) to
BENCH_<workload>.json at the repository root.

Usage: python benchmarks/bench_pairs.py --parent DIR --workload pipeline_default
                                        [--seed 1] [--json]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from trajectory import ROOT, append_entry, commit

PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One rtmbench run in ``checkout``; the summary it wrote for the workload.

    The previous summary is removed first, and a run that writes none raises,
    so a crashed run is never recorded with the numbers of an earlier one.  A
    run whose checks fail exits 1 but writes its summary (``correct`` false).
    """
    path = checkout / ".rtmbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    path.unlink(missing_ok=True)
    cmd = [sys.executable, "rtmbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if not path.exists():
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode} "
                           f"without a summary:\n{proc.stderr[-2000:]}")
    return json.loads(path.read_text())


def entry(side: str, checkout: Path, runs: list[dict], spec: dict) -> dict:
    metrics = {}
    for m in spec["end_to_end"]:
        # None where a run failed before measuring, so pairs stay aligned
        values = [r["metrics"].get(m["name"], {}).get("value") for r in runs]
        measured = [v for v in values if v is not None]
        q1, median, q3 = statistics.quantiles(measured, n=4, method="inclusive")
        metrics[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                              "runs": values}
    return {
        "side": side,
        "commit": commit(checkout),
        "workload": runs[0]["workload"],
        "seed": runs[0]["seed"],
        "backend": sorted({r["env"]["backend"] for r in runs}),
        "nproc": runs[0]["env"]["nproc"],
        "runs": len(runs),
        "repetitions": sum(r["repetitions"] for r in runs),
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", action="store_true", help="append both entries to BENCH_<workload>.json")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(sides[side], args.workload, args.seed))
        print(f"pair {i + 1}/{PAIRS}: " + ", ".join(
            f"{s} {'ok' if runs[s][-1]['correct'] else 'FAILED'}" for s in runs), flush=True)

    entries = {side: entry(side, sides[side], runs[side], spec) for side in runs}
    for m in spec["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        pairs = zip(entries["parent"]["metrics"][name]["runs"], entries["change"]["metrics"][name]["runs"])
        wins = sum(sign * (p - c) > 0 for p, c in pairs if p is not None and c is not None)
        entries["change"]["metrics"][name]["wins"] = wins
        p, c = entries["parent"]["metrics"][name], entries["change"]["metrics"][name]
        print(f"{name:<12} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {m['unit']}  "
              f"change better in {wins}/{PAIRS}")
    for side, e in entries.items():
        print(f"{side}: {e['commit']}, backend {e['backend']}, nproc {e['nproc']}, "
              f"{e['repetitions']} repetitions, correct {e['correct']}, "
              f"failed {e['failed']}/{e['attempted']}")
    if args.json:
        for e in entries.values():
            path = append_entry(f"BENCH_{args.workload}.json", e)
        print(f"appended to {path}")


if __name__ == "__main__":
    main()
