"""Command line entry point: ``rtm`` with generate/run/map/reduce/simulate/report.

Exit code 0 only on full success.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import batchsim
from .blobstore import BlobStore, encode_image
from .config import add_config_flags, config_from_args
from .msgqueue import FileQueue
from .reducer import run_reduction_service

# orchestrator, and with it the compiled wave kernel, is imported inside the
# commands that use it, so `rtm simulate` never loads or compiles the kernel.

# Reference case study this tool models: 1,500 jobs averaging 119.28 min on
# $3.629/h VMs.  The headline figure quoted for that workload is $10,750,
# about 0.7% below the direct rate x duration arithmetic ($10,821.68); see
# README for the breakdown.
_REFERENCE = {"jobs": 1500, "mean_minutes": 119.28, "rate": 3.629, "quoted_cost": 10750.0}


def _cmd_generate(args) -> int:
    from . import orchestrator

    config = config_from_args(args)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model, true_model, plans, dt, nt = orchestrator.build_survey(config)
    (out_dir / "model.rtmb").write_bytes(encode_image(model.to_blob()))
    (out_dir / "true_model.rtmb").write_bytes(encode_image(true_model.to_blob()))
    survey_doc = {
        "dt": dt,
        "nt": nt,
        "record_time": config.survey.record_time,
        "n_shots": len(plans),
        "shots": [
            {"shot_id": p.shot_id, "source": list(p.source), "n_receivers": len(p.receivers)}
            for p in plans
        ],
        "receivers_per_shot": [list(r) for r in plans[0].receivers],
    }
    (out_dir / "survey.json").write_text(json.dumps(survey_doc, indent=2))
    print(f"wrote {out_dir}/model.rtmb, true_model.rtmb, survey.json ({len(plans)} shots)")
    return 0


def _fmt_minutes(minutes: float) -> str:
    return f"{minutes * 60:.2f} s" if minutes < 1.0 else f"{minutes:.2f} min"


def _fmt_dollars(cost: float) -> str:
    return f"${cost:.4f}" if 0 < cost < 1.0 else f"${cost:.2f}"


def _cmd_run(args) -> int:
    from . import orchestrator

    config = config_from_args(args)
    image, red, cost = orchestrator.run_pipeline(config)
    peak = float(abs(image.values).max())
    print(f"final image: {image.nz}x{image.nx}, peak |amplitude| {peak:.3e}")
    print(
        f"reduction: {red.invocation_count} summing invocations, "
        f"final blob {red.final_blob_id[:12]}..., wall {red.wall_time:.2f}s"
    )
    print(
        f"cost model ({cost.n_jobs} jobs, mean {_fmt_minutes(cost.mean_runtime_minutes)}, "
        f"{cost.headline_n_vms} VMs): fixed {_fmt_dollars(cost.fixed_cost)}, "
        f"batch {_fmt_dollars(cost.batch_cost)} (ratio {cost.ratio:.2f}), "
        f"low-priority {_fmt_dollars(cost.low_priority_cost)}"
    )
    print(f"artifacts in {config.out_dir}/")
    return 0


def _cmd_map(args) -> int:
    from . import orchestrator

    config = config_from_args(args)
    traces = orchestrator.run_map_phase(config)
    for t in traces:
        print(
            f"shot {t.shot_id}: worker {t.worker_id}, {t.wall_seconds:.2f}s, "
            f"blob {t.blob_id[:12]}..."
        )
    print(f"{len(traces)} shots migrated")
    return 0


def _cmd_reduce(args) -> int:
    from . import orchestrator

    config = config_from_args(args)
    report = run_reduction_service(
        orchestrator.reduction_config(config),
        FileQueue(config.queue_root()),
        BlobStore(config.store_root()),
    )
    json.dump(report.to_dict(), sys.stdout, indent=2)
    print()
    return 0


def _cmd_simulate(args) -> int:
    try:
        vm_counts = batchsim.parse_vm_counts(args.vm_counts, args.jobs, "--vm-counts")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dist = batchsim.RuntimeDistribution(args.mean_minutes, spread=args.spread, seed=args.seed)
    durations = batchsim.sample_runtimes(dist, args.jobs)
    jobs = [batchsim.JobSpec(i, d, vms_per_job=args.vms_per_job) for i, d in enumerate(durations)]
    pricing = batchsim.PricingModel(
        args.rate, args.discount_factor, billing_granularity=args.granularity
    )
    rows = batchsim.idle_cost_curve(jobs, vm_counts, pricing, scale_latency=args.scale_latency)
    batchsim.write_curve_csv(rows, args.out)
    for r in rows:
        extra = ""
        if args.with_master:
            _, master = batchsim.fixed_cluster_bill(
                r.n_vms, r.makespan_h, pricing, extra_master_vm=True
            )
            extra = f", fixed+master ${master:.2f}"
        print(
            f"n_vms={r.n_vms}: makespan {r.makespan_h:.2f} h, fixed ${r.fixed_cost:.2f}, "
            f"batch ${r.batch_cost:.2f}, ratio {r.ratio:.3f}, "
            f"low-priority ${r.low_priority_cost:.2f}{extra}"
        )
    if (
        args.jobs == _REFERENCE["jobs"]
        and abs(args.mean_minutes - _REFERENCE["mean_minutes"]) < 1e-9
        and abs(args.rate - _REFERENCE["rate"]) < 1e-9
    ):
        arithmetic = args.jobs * args.mean_minutes / 60.0 * args.rate
        print(
            f"note: reference workload; direct arithmetic gives "
            f"${arithmetic:,.2f} while the commonly quoted figure is "
            f"${_REFERENCE['quoted_cost']:,.0f} "
            f"({(arithmetic / _REFERENCE['quoted_cost'] - 1) * 100:.1f}% apart; "
            "the quoted number is not reproducible from the quoted mean runtime "
            "and rate alone)"
        )
    print(f"curve written to {args.out}")
    return 0


def _cmd_report(args) -> int:
    from . import orchestrator

    pricing = batchsim.PricingModel(args.rate, args.discount_factor)
    if args.paper_numbers:
        traces = orchestrator.synthetic_reference_traces()
        headline = 100
        if not args.vm_counts:
            args.vm_counts = "25,50,100,200,400,800,1500"
    else:
        if not args.traces:
            print("error: --traces DIR required unless --paper-numbers", file=sys.stderr)
            return 2
        trace_dir = Path(args.traces)
        traces = [
            orchestrator.JobTrace(**json.loads(p.read_text()))
            for p in sorted(trace_dir.glob("*.json"))
        ]
        headline = args.n_vms
    try:
        vm_counts = batchsim.parse_vm_counts(args.vm_counts, len(traces), "--vm-counts")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cost = orchestrator.report(
        traces, pricing, out_dir=args.out_dir, vm_counts=vm_counts, headline_n_vms=headline
    )
    print(
        f"{cost.n_jobs} jobs, mean runtime {cost.mean_runtime_minutes:.2f} min; "
        f"at {cost.headline_n_vms} VMs: makespan {cost.makespan_hours:.2f} h, "
        f"fixed ${cost.fixed_cost:.2f}, batch ${cost.batch_cost:.2f} "
        f"(ratio {cost.ratio:.2f}), low-priority ${cost.low_priority_cost:.2f}"
    )
    print(f"wrote {cost.runtimes_csv} and {cost.curve_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtm", description="desk-scale serverless RTM pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, doc in [
        ("generate", _cmd_generate, "write model and survey files"),
        ("run", _cmd_run, "run the full map+reduce pipeline"),
        ("map", _cmd_map, "run only the map phase"),
        ("reduce", _cmd_reduce, "run only the reduction service"),
    ]:
        p = sub.add_parser(name, help=doc)
        add_config_flags(p)
        # short aliases for the storage roots
        p.add_argument("--store", dest="store.root", help="blob store root (alias)")
        p.add_argument("--queue", dest="queue.root", help="queue root (alias)")
        p.set_defaults(fn=fn)

    p = sub.add_parser("simulate", help="fixed cluster vs batch pool cost curves")
    p.add_argument("--jobs", type=int, default=1500)
    p.add_argument("--mean-minutes", type=float, default=119.28)
    p.add_argument("--spread", type=float, default=batchsim.RuntimeDistribution(1.0).spread)
    p.add_argument("--rate", type=float, default=3.629)
    p.add_argument("--discount-factor", type=float, default=3.0)
    p.add_argument("--vm-counts", default="25,50,100,200,400,800,1500")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--scale-latency", type=float, default=0.0, help="seconds per allocation")
    p.add_argument("--vms-per-job", type=int, default=1)
    p.add_argument("--granularity", type=float, default=1.0, help="billing granularity, seconds")
    p.add_argument("--with-master", action="store_true",
                   help="bill one extra master VM for the fixed-cluster makespan")
    p.add_argument("--out", default="curve.csv")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("report", help="CSV artifacts and cost summary from job traces")
    p.add_argument("--traces", help="directory of JobTrace JSON files (tasks/done)")
    p.add_argument("--rate", type=float, default=3.629)
    p.add_argument("--discount-factor", type=float, default=3.0)
    p.add_argument("--n-vms", type=int, default=None, help="headline cluster size")
    p.add_argument("--vm-counts", default=None)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--paper-numbers", action="store_true",
                   help="use the synthetic reference workload (1500 x 119.28 min)")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
