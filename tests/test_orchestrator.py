import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rtmcloud import batchsim, orchestrator
from rtmcloud.batchsim import PricingModel
from rtmcloud.blobstore import BlobStore, decode_image
from rtmcloud.cli import build_parser, main
from rtmcloud.config import PipelineConfig, config_from_args, config_from_dict, load_config
from rtmcloud.msgqueue import FileQueue, QueueMessage
from rtmcloud.reducer import IncompleteReductionError
from rtmcloud.wavekernel import (
    backend_name,
    backend_reason,
    forward_model,
    ricker,
    rtm_shot_image,
    solver,
)

from conftest import rel_diff

SRC = Path(__file__).resolve().parents[1] / "src"


def tiny_config(tmp_path, n_shots=2, workers=1, **reduce_kw):
    data = PipelineConfig().to_dict()
    data["out_dir"] = str(tmp_path / "out")
    data["model"].update(nz=61, nx=61)
    data["survey"].update(n_receivers=n_shots, n_sources=16, record_time=0.8)
    data["scatterer"].update(z=300.0, x=310.0)
    data["map"]["workers"] = workers
    data["reduce"].update(
        {"poll_interval": 0.02, "deadline": 120.0}
    )
    data["reduce"].update(reduce_kw)
    return config_from_dict(data)


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg.wavelet.peak_frequency == 15.0
        assert cfg.reduce.fan_in == 10

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = tiny_config(tmp_path)
        path.write_text(json.dumps(cfg.to_dict()))
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"not_a_key": 1}))
        with pytest.raises(ValueError):
            load_config(path)

    def test_dotted_flags_override(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--model.nz", "51", "--map.workers", "3", "--survey.record_time", "0.7"]
        )
        cfg = config_from_args(args)
        assert cfg.model.nz == 51
        assert cfg.map.workers == 3
        assert cfg.survey.record_time == 0.7

    def test_flag_overrides_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        base = PipelineConfig().to_dict()
        base["model"]["nz"] = 77
        path.write_text(json.dumps(base))
        args = build_parser().parse_args(["run", "--config", str(path), "--model.nz", "88"])
        assert config_from_args(args).model.nz == 88

    def test_flag_types_follow_annotations(self):
        # both fields default to None; the flag type comes from the annotation
        args = build_parser().parse_args(
            ["run", "--survey.dt_record", "0.001", "--report.vm_counts", "1,2"]
        )
        assert getattr(args, "survey.dt_record") == 0.001
        assert getattr(args, "report.vm_counts") == "1,2"
        cfg = config_from_args(args)
        assert type(cfg.survey.dt_record) is float
        assert type(cfg.report.vm_counts) is str

    def test_store_queue_roots_default_under_out_dir(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert str(cfg.store_root()).endswith("out/store")
        assert str(cfg.queue_root()).endswith("out/queue")


class TestMapPhase:
    def test_single_shot_single_worker(self, tmp_path):
        cfg = tiny_config(tmp_path, n_shots=1, workers=1)
        traces = orchestrator.run_map_phase(cfg)
        assert len(traces) == 1
        assert traces[0].shot_id == 0
        assert traces[0].end >= traces[0].start
        queue = FileQueue(cfg.queue_root())
        got = queue.dequeue(10, visibility_timeout=5)
        assert len(got) == 1
        assert got[0][0].leaf_count == 1
        store = BlobStore(cfg.store_root())
        blob = store.get_image(got[0][0].blob_id)
        assert blob.kind == "image" and blob.nz == 61

    def test_pool_bounds_concurrency(self, tmp_path):
        cfg = tiny_config(tmp_path, n_shots=8, workers=4)
        traces = orchestrator.run_map_phase(cfg)
        assert len(traces) == 8
        assert {t.shot_id for t in traces} == set(range(8))
        events = sorted(
            [(t.start, 1) for t in traces] + [(t.end, -1) for t in traces]
        )
        live = peak = 0
        for _, step in events:
            live += step
            peak = max(peak, live)
        assert peak <= 4

    def test_worker_kill_requeues_job(self, tmp_path, monkeypatch):
        # forked workers inherit the patch: the first attempt at shot 3
        # SIGKILLs its worker while the worker holds the claim
        cfg = tiny_config(tmp_path, n_shots=8, workers=2)
        migrate = orchestrator.migrate_shot
        marker = tmp_path / "killed"

        def dies_once(config, shot_id):
            if shot_id == 3 and not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return migrate(config, shot_id)

        monkeypatch.setattr(orchestrator, "migrate_shot", dies_once)
        traces = orchestrator.run_map_phase(cfg)
        assert marker.exists()
        assert len(traces) == 8
        assert FileQueue(cfg.queue_root()).approximate_count() == 8
        assert [t.attempt for t in traces] == [1, 1, 1, 2, 1, 1, 1, 1]  # shot 3 reran
        assert multiprocessing.active_children() == []

    def test_worker_killed_after_its_trace_is_not_rerun(self, tmp_path, monkeypatch):
        # the worker that writes shot 2's trace SIGKILLs itself before it
        # answers the driver; the written trace makes the shot count as done
        cfg = tiny_config(tmp_path, n_shots=8, workers=2)
        write = orchestrator._atomic_write_json

        def dies_after_trace(path, obj):
            write(path, obj)
            if path.name == "00002.json" and path.parent.name == "done":
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(orchestrator, "_atomic_write_json", dies_after_trace)
        traces = orchestrator.run_map_phase(cfg)
        assert [t.shot_id for t in traces] == list(range(8))
        assert [t.attempt for t in traces] == [1] * 8
        assert len({t.worker_id for t in traces}) == 3  # the first two and a replacement
        assert FileQueue(cfg.queue_root()).approximate_count() == 8
        assert multiprocessing.active_children() == []

    def test_two_failures_fail_the_phase(self, tmp_path):
        cfg = tiny_config(tmp_path, n_shots=2, workers=1)
        # a scatterer outside the model makes every attempt of shot setup fail
        data = cfg.to_dict()
        data["scatterer"]["z"] = 1e9
        cfg = config_from_dict(data)
        with pytest.raises(orchestrator.MapPhaseError):
            orchestrator.run_map_phase(cfg)

    def test_worker_peak_rss_in_trace(self, tmp_path, monkeypatch):
        # one worker; during shot 1 it also holds 60 MiB it has written to
        cfg = tiny_config(tmp_path, n_shots=2, workers=1)
        migrate = orchestrator.migrate_shot

        def heavy(config, shot_id):
            ballast = np.ones(60 * 2**20 // 8) if shot_id == 1 else None
            image = migrate(config, shot_id)
            del ballast
            return image

        monkeypatch.setattr(orchestrator, "migrate_shot", heavy)
        first, second = orchestrator.run_map_phase(cfg)
        assert first.worker_id == second.worker_id
        assert first.peak_rss_mb > 0
        assert second.peak_rss_mb - first.peak_rss_mb >= 50


class TestStartupCrashLoop:
    def test_pipeline_fails_fast_and_joins_every_child(self, tmp_path, monkeypatch):
        # every forked worker inherits the patch and dies on its first shot;
        # one worker makes shot 0 the one that uses up its attempts first
        def broken(config, shot_id):
            os._exit(3)

        monkeypatch.setattr(orchestrator, "migrate_shot", broken)
        cfg = tiny_config(tmp_path, n_shots=4, workers=1)
        t0 = time.monotonic()
        with pytest.raises(orchestrator.MapPhaseError, match=r"shot 0 .*exit code 3") as err:
            orchestrator.run_pipeline(cfg)
        assert time.monotonic() - t0 < 10
        assert err.value.traces == []
        failed = json.loads((tmp_path / "out" / "tasks" / "failed" / "00000.json").read_text())
        assert failed == {"shot_id": 0, "attempt": cfg.map.max_attempts}
        assert multiprocessing.active_children() == []


class TestPipeline:
    def test_four_shots_match_in_process_oracle(self, tmp_path):
        cfg = tiny_config(tmp_path, n_shots=4, workers=2, fan_in=3)
        data = cfg.to_dict()
        data["model"].update(nz=101, nx=101)
        data["survey"].update(record_time=1.2)
        data["scatterer"].update(z=500.0, x=510.0)
        cfg = config_from_dict(data)
        image, red, cost = orchestrator.run_pipeline(cfg)
        oracle = np.zeros_like(image.values)
        for shot in range(4):
            oracle += orchestrator.migrate_shot(cfg, shot).values
        assert rel_diff(image.values, oracle) < 1e-12
        assert cost.n_jobs == 4
        assert (tmp_path / "out" / "final_image.rtmb").exists()
        final_blob = decode_image((tmp_path / "out" / "final_image.rtmb").read_bytes())
        assert final_blob.leaf_count == 4
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["backend"] == {"name": backend_name(), "reason": backend_reason()}
        done = [json.loads(p.read_text()) for p in (tmp_path / "out" / "tasks" / "done").iterdir()]
        assert report["map"]["peak_rss_mb"] == max(t["peak_rss_mb"] for t in done) > 0

    def test_single_shot_identity(self, tmp_path):
        cfg = tiny_config(tmp_path, n_shots=1, workers=1)
        image, red, _ = orchestrator.run_pipeline(cfg)
        assert red.invocation_count == 0
        direct = orchestrator.migrate_shot(cfg, 0)
        np.testing.assert_array_equal(image.values, direct.values)

    def test_reduction_overlaps_map_phase(self, tmp_path):
        cfg = tiny_config(tmp_path, n_shots=8, workers=2, fan_in=2)
        image, red, _ = orchestrator.run_pipeline(cfg)
        done_dir = tmp_path / "out" / "tasks" / "done"
        ends = [json.loads(p.read_text())["end"] for p in done_dir.iterdir()]
        assert red.invocations, "expected summing invocations"
        first_sum = min(e["time"] for e in red.invocations)
        assert first_sum < max(ends)

    def test_fallback_end_to_end(self, tmp_path):
        # The backend is chosen when rtmcloud.wavekernel is first imported,
        # and forked map workers inherit this process's choice, so the run
        # needs a fresh interpreter started with the variable set.
        cfg = tiny_config(tmp_path, n_shots=2, workers=2)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(cfg.to_dict()))
        env = dict(os.environ, RTMCLOUD_PURE_PYTHON="1", PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from rtmcloud.cli import main; sys.exit(main())",
             "run", "--config", str(config_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        image = decode_image((tmp_path / "out" / "final_image.rtmb").read_bytes()).values
        iz, ix = np.unravel_index(np.argmax(np.abs(image)), image.shape)
        assert abs(iz - 30) <= 3 and abs(ix - 31) <= 3  # the scatterer at z=300, x=310
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["backend"] == {"name": "python", "reason": "RTMCLOUD_PURE_PYTHON=1"}

    def test_reduction_deadline_reaches_caller(self, tmp_path):
        cfg = tiny_config(tmp_path, n_shots=2, workers=1, deadline=0.001)
        with pytest.raises(IncompleteReductionError, match="0 of 2 leaves") as err:
            orchestrator.run_pipeline(cfg)
        assert err.value.leaf_tally == 0
        assert multiprocessing.active_children() == []

    def test_killed_reducer_fails_the_run(self, tmp_path, monkeypatch):
        # the reduction process inherits the patch and is SIGKILLed at once
        monkeypatch.setattr(
            orchestrator, "run_reduction_service",
            lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL),
        )
        cfg = tiny_config(tmp_path, n_shots=2, workers=1)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=r"reduction service .* exited with code -9"):
            orchestrator.run_pipeline(cfg)
        assert time.monotonic() - t0 < 30
        assert multiprocessing.active_children() == []

    def test_malformed_vm_counts_fail_before_any_fork(self, tmp_path):
        data = tiny_config(tmp_path).to_dict()
        data["report"]["vm_counts"] = "1,,2"
        with pytest.raises(ValueError, match="^report.vm_counts '1,,2': empty item$"):
            orchestrator.run_pipeline(config_from_dict(data))
        assert not (tmp_path / "out" / "tasks").exists()
        assert multiprocessing.active_children() == []

    def test_dirty_queue_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path, n_shots=1)
        FileQueue(cfg.queue_root()).enqueue(QueueMessage("0" * 64, 1))
        with pytest.raises(RuntimeError):
            orchestrator.run_pipeline(cfg)


def _counting(impl, calls):
    """Kernels that step like ``impl`` and count each window's steps, by
    direction, in ``calls["forward_step"]`` and ``calls["adjoint_step"]``."""

    def counted(kind):
        window = getattr(impl, f"{kind}_window")

        def call(n0, n1, *args):
            calls[f"{kind}_step"] += n1 - n0
            return window(n0, n1, *args)

        return call

    return SimpleNamespace(forward_window=counted("forward"), adjoint_window=counted("adjoint"))


@pytest.fixture(scope="class")
def shot_runs(tmp_path_factory):
    """Shot 1 migrated by ``migrate_shot`` and by the explicit composition of
    four propagations, with the image and kernel calls of each."""
    cfg = tiny_config(tmp_path_factory.mktemp("shot"))
    model, true_model, plans, dt, nt = orchestrator.build_survey(cfg)
    plan = plans[1]
    wavelet = ricker(cfg.wavelet.peak_frequency, dt, nt)

    def four_propagations():
        records = [
            forward_model(m, plan.source, wavelet, plan.receivers, dt, nt, shot_id=1,
                          store_wavefield=False)[0]
            for m in (true_model, model)
        ]
        observed = dataclasses.replace(records[0], traces=records[0].traces - records[1].traces)
        return rtm_shot_image(model, plan, observed, wavelet)

    runs = {}
    for name, run in (("migrate_shot", lambda: orchestrator.migrate_shot(cfg, 1)),
                      ("composed", four_propagations)):
        calls = Counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "impl", _counting(solver.impl, calls))
            runs[name] = (run().values, calls)
    return nt, runs


class TestMigrateShot:
    def test_background_propagated_once(self, shot_runs):
        nt, runs = shot_runs
        assert runs["composed"][1]["forward_step"] == 3 * nt
        assert runs["migrate_shot"][1]["forward_step"] == 2 * nt
        assert runs["migrate_shot"][1]["adjoint_step"] == runs["composed"][1]["adjoint_step"] > 0

    def test_image_equals_four_propagations(self, shot_runs):
        _, runs = shot_runs
        image, composed = runs["migrate_shot"][0], runs["composed"][0]
        assert np.abs(image).max() > 0
        np.testing.assert_array_equal(image, composed)


class TestStackLinearity:
    def test_wavelet_scaling_scales_stacked_image(self, tmp_path):
        # fixed observed data, doubled migration wavelet: image doubles
        cfg = tiny_config(tmp_path, n_shots=2)
        model, _, plans, dt, nt = orchestrator.build_survey(cfg)
        wavelet = ricker(cfg.wavelet.peak_frequency, dt, nt)
        stack1 = np.zeros((model.nz, model.nx))
        stack2 = np.zeros((model.nz, model.nx))
        for plan in plans:
            rec, _ = forward_model(
                model, plan.source, wavelet, plan.receivers, dt, nt, store_wavefield=False
            )
            stack1 += rtm_shot_image(model, plan, rec, wavelet).values
            stack2 += rtm_shot_image(model, plan, rec, wavelet.scaled(2.0)).values
        assert rel_diff(stack2, 2.0 * stack1) < 1e-10


class TestReport:
    def traces(self, durations):
        return [
            orchestrator.JobTrace(i, 0, 0.0, d, d, "", 1) for i, d in enumerate(durations)
        ]

    def test_sorted_runtimes_csv(self, tmp_path):
        traces = self.traces([120.0, 60.0, 180.0])
        cost = orchestrator.report(traces, PricingModel(1.0), out_dir=tmp_path)
        assert cost.mean_runtime_minutes == pytest.approx(2.0)
        rows = (tmp_path / "runtimes_sorted.csv").read_text().splitlines()
        assert rows[0] == "rank,shot_id,runtime_seconds"
        runtimes = [float(r.split(",")[2]) for r in rows[1:]]
        assert runtimes == sorted(runtimes)

    def test_curve_csv_columns(self, tmp_path):
        traces = self.traces([3600.0] * 4)
        orchestrator.report(traces, PricingModel(2.0), out_dir=tmp_path, vm_counts=[1, 2, 4])
        header = (tmp_path / "idle_cost_curve.csv").read_text().splitlines()[0]
        assert header == (
            "n_vms,makespan_h,busy_vmh,idle_vmh,fixed_cost,batch_cost,ratio,low_priority_cost"
        )

    def test_headline_read_from_curve(self, tmp_path):
        # size 3 lies outside the sweep, so the headline is its own curve row
        traces = self.traces([400.0, 130.5, 3600.0, 61.2, 900.0, 45.0, 2200.0])
        pricing = PricingModel(3.629, 2.5, billing_granularity=60.0)
        cost = orchestrator.report(
            traces, pricing, out_dir=tmp_path, vm_counts=[1, 2, 4], headline_n_vms=3
        )
        jobs = [batchsim.JobSpec(t.shot_id, t.wall_seconds / 3600.0) for t in traces]
        head = batchsim.idle_cost_curve(jobs, [3], pricing)[0]
        assert cost.headline_n_vms == 3
        assert (
            cost.fixed_cost, cost.batch_cost, cost.ratio, cost.low_priority_cost,
            cost.makespan_hours,
        ) == (
            head.fixed_cost, head.batch_cost, head.ratio, head.low_priority_cost,
            head.makespan_h,
        )
        sizes = [r.split(",")[0] for r in (tmp_path / "idle_cost_curve.csv").read_text().split()]
        assert sizes == ["n_vms", "1", "2", "4"]

    def test_empty_traces_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            orchestrator.report([], PricingModel(1.0), out_dir=tmp_path)


class TestCli:
    def test_generate_writes_artifacts(self, tmp_path):
        rc = main(
            ["generate", "--out_dir", str(tmp_path / "g"), "--model.nz", "61",
             "--model.nx", "61", "--survey.n_receivers", "3", "--survey.n_sources", "10"]
        )
        assert rc == 0
        blob = decode_image((tmp_path / "g" / "model.rtmb").read_bytes())
        assert blob.kind == "velocity"
        survey = json.loads((tmp_path / "g" / "survey.json").read_text())
        assert survey["n_shots"] == 3
        assert len(survey["shots"]) == 3

    def test_simulate_reference_note(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = main(
            ["simulate", "--jobs", "1500", "--mean-minutes", "119.28", "--spread", "0",
             "--rate", "3.629", "--vm-counts", "100", "--out", str(out)]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "10,750" in captured  # the documented discrepancy is surfaced
        header, row = out.read_text().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["batch_cost"]) == pytest.approx(10_821.678, rel=0.01)
        assert float(vals["makespan_h"]) == pytest.approx(29.82, rel=0.02)

    def test_simulate_billing_flags(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = main(
            ["simulate", "--jobs", "40", "--mean-minutes", "30", "--spread", "0.3",
             "--seed", "11", "--rate", "2.0", "--vm-counts", "2,5,16",
             "--scale-latency", "45", "--vms-per-job", "2", "--granularity", "60",
             "--discount-factor", "2.5", "--with-master", "--out", str(out)]
        )
        assert rc == 0
        durations = batchsim.sample_runtimes(batchsim.RuntimeDistribution(30.0, 0.3, 11), 40)
        jobs = [batchsim.JobSpec(i, d, vms_per_job=2) for i, d in enumerate(durations)]
        pricing = PricingModel(2.0, 2.5, billing_granularity=60.0)
        batch = batchsim.simulate_batch_pool(jobs, 2, pricing, scale_latency=45.0)
        low = batchsim.apply_low_priority(batch, pricing)
        csv_rows, printed = [], []
        for n in (2, 5, 16):
            fixed = batchsim.simulate_fixed_cluster(jobs, n, pricing)
            master = (n + 1) * pricing.bill_hours(fixed.makespan) * pricing.on_demand_rate
            ratio = fixed.cost / batch.cost
            csv_rows.append(
                f"{n},{fixed.makespan:.6f},{fixed.busy_vm_hours:.6f},"
                f"{fixed.idle_vm_hours:.6f},{fixed.cost:.2f},{batch.cost:.2f},"
                f"{ratio:.4f},{low.cost:.2f}"
            )
            printed.append(
                f"n_vms={n}: makespan {fixed.makespan:.2f} h, fixed ${fixed.cost:.2f}, "
                f"batch ${batch.cost:.2f}, ratio {ratio:.3f}, "
                f"low-priority ${low.cost:.2f}, fixed+master ${master:.2f}"
            )
        assert out.read_text().splitlines()[1:] == csv_rows
        assert capsys.readouterr().out.splitlines() == printed + [f"curve written to {out}"]

    def test_simulate_with_master_places_once_per_size(self, tmp_path, monkeypatch):
        calls = []
        place = batchsim._fcfs_schedule

        def counting(jobs, n_vms):
            calls.append(n_vms)
            return place(jobs, n_vms)

        monkeypatch.setattr(batchsim, "_fcfs_schedule", counting)
        sweep = [3, 8, 20, 40]
        rc = main(
            ["simulate", "--jobs", "40", "--mean-minutes", "30", "--seed", "5",
             "--vm-counts", ",".join(map(str, sweep)), "--with-master",
             "--out", str(tmp_path / "curve.csv")]
        )
        assert rc == 0
        assert len(calls) == len(sweep) + 1

    @pytest.mark.parametrize("command", ["simulate", "report --paper-numbers"])
    @pytest.mark.parametrize("spec", ["25,,50", "25,x", "0,25"])
    def test_malformed_vm_counts_named(self, tmp_path, capsys, command, spec):
        argv = command.split() + ["--vm-counts", spec]
        argv += ["--out", str(tmp_path / "c.csv")] if command == "simulate" else \
            ["--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: --vm-counts '{spec}': ")
        assert list(tmp_path.iterdir()) == []

    def test_report_paper_numbers(self, tmp_path, capsys):
        rc = main(["report", "--paper-numbers", "--out-dir", str(tmp_path / "rep")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1500 jobs" in out and "119.28 min" in out and "100 VMs" in out
        assert "$10821.98" in out  # matches the batch-pool acceptance number
        assert (tmp_path / "rep" / "idle_cost_curve.csv").exists()
        assert (tmp_path / "rep" / "runtimes_sorted.csv").exists()

    def test_reduce_cli(self, tmp_path, capsys):
        from rtmcloud.blobstore import ImageBlob, encode_image

        store = BlobStore(tmp_path / "s")
        queue = FileQueue(tmp_path / "q")
        for i in range(4):
            blob = ImageBlob("image", 2, 2, 1.0, 1.0, 0.0, 0.0, 1, np.full((2, 2), float(i)))
            queue.enqueue(QueueMessage(store.put(encode_image(blob)), 1))
        rc = main(
            ["reduce", "--queue", str(tmp_path / "q"), "--store", str(tmp_path / "s"),
             "--survey.n_receivers", "4", "--reduce.fan_in", "4", "--reduce.parallel", "1",
             "--reduce.deadline", "30"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["invocation_count"] == 1
        final = store.get_image(report["final_blob_id"])
        np.testing.assert_array_equal(final.values, np.full((2, 2), 6.0))
