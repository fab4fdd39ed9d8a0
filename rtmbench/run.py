#!/usr/bin/env python3
"""rtmcloud benchmark: the default pipeline, a reduction backlog, the cost curve.

    python3 rtmbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each repetition of a workload runs in a fresh Python process and a fresh
temporary directory under .rtmbench/work/, removed when the repetition ends.
Repetitions start while half of one more fits in ``--seconds``; the
end-to-end metrics are their medians.  ``--trace 1`` instead runs the traced per-layer pass once.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when any
output check failed.  Run it from anywhere; it uses the package in ../src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A benchmark run must end within 180 s; a repetition still going when the
# run is this old is killed and counted as failed.
RUN_LIMIT_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(rep: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "backend": rep.get("backend", "unknown"),
        "numpy": rep.get("numpy", "unknown"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def run_repetition(workload: str, seed: int, trace: int, budget_s: float, spans: Path | None) -> dict:
    """One repetition in a child process and a temp directory of its own."""
    work_root = ROOT / ".rtmbench" / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    rep_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(rep_dir), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # A session of its own, so a timeout can end the map workers too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(budget_s, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return {"correct": False, "error": f"repetition exceeded {budget_s:.0f} s"}
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    try:
        rep = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        rep = {"correct": False}
    if proc.returncode != 0 or not rep.get("correct"):
        rep["correct"] = False
        rep.setdefault("error", f"exit {proc.returncode}: {err.strip()[-2000:]}")
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    results = ROOT / ".rtmbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    spans = results / f"{tag}-spans.jsonl" if trace else None
    reps = []
    t0 = time.perf_counter()
    while True:
        started = time.perf_counter()
        rep = run_repetition(workload, seed, trace, RUN_LIMIT_S - (started - t0), spans)
        reps.append(rep)
        now = time.perf_counter()
        # start another repetition while at least half of one as long as the last fits
        if trace or not rep["correct"] or now - t0 + (now - started) / 2 > seconds:
            break

    good = [r for r in reps if r["correct"]]
    correct = len(good) == len(reps)
    # a repetition that failed before counting its operations counts as one failed operation
    attempted = sum(r.get("attempted", 1) for r in reps)
    failed = sum(r.get("failed", 0) if r["correct"] else r.get("attempted", 1) for r in reps)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    if good:
        for m in wanted:
            if trace:
                value = good[0]["per_layer"][m["name"]]
            elif m["name"] == "job_p50_s":  # over the jobs of every repetition
                value = statistics.median(t for r in good for t in r["job_s"])
            else:
                value = statistics.median(r[m["name"]] for r in good)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    summary = {
        "workload": workload, "seed": seed, "trace": trace, "correct": correct,
        "attempted": attempted, "failed": failed, "repetitions": len(reps),
        "metrics": metrics, "env": environment(good[0] if good else {}),
        "errors": [r["error"] for r in reps if not r["correct"]],
        "reps": [{k: v for k, v in r.items() if k not in ("per_layer", "job_s")} for r in reps],
    }
    if trace and good:
        summary["untraced_wall_s"] = good[0]["untraced_wall_s"]
        summary["traced_wall_s"] = good[0]["traced_wall_s"]
    (results / f"{tag}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def print_summary(s: dict) -> None:
    env = s["env"]
    print(f"{s['workload']}: seed {s['seed']}, {s['repetitions']} repetition(s), "
          f"attempted {s['attempted']}, failed {s['failed']}, correct {str(s['correct']).lower()}")
    print(f"  backend {env['backend']}, commit {env['commit']}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}")
    for name, m in s["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    if "traced_wall_s" in s:
        plain, traced = s["untraced_wall_s"], s["traced_wall_s"]
        print(f"  tracing overhead: traced path {traced:.4f} s vs untraced {plain:.4f} s "
              f"({(traced / plain - 1) * 100:+.2f}%)")
    for e in s["errors"]:
        print(f"  FAILED: {e}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "rtmcloud" / "__init__.py").is_file():
        print(f"error: no rtmcloud package under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = [run_workload(w, args.seed, seconds, args.trace, spec) for w in names]
    for s in summaries:
        print_summary(s)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    result = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
