"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion asserts its stated tolerance and runtime budget.
"""

import itertools
import math
import multiprocessing as mp
import time

import numpy as np
import pytest

from rtmcloud import batchsim, orchestrator
from rtmcloud.blobstore import BlobStore, ImageBlob, encode_image
from rtmcloud.cli import main
from rtmcloud.config import PipelineConfig, config_from_dict
from rtmcloud.msgqueue import FileQueue, QueueMessage
from rtmcloud.reducer import ReductionConfig, run_reduction_service
from rtmcloud.survey import ShotGatherPlan, make_layered_model
from rtmcloud.wavekernel import adjoint_dot_test, solver

from conftest import rel_diff
from test_msgqueue import _consumer, _producer


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_cost_arithmetic(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    t0 = time.perf_counter()
    rc = main(
        ["simulate", "--jobs", "1500", "--mean-minutes", "119.28", "--spread", "0",
         "--rate", "3.629", "--vm-counts", "100", "--out", str(out)]
    )
    elapsed = time.perf_counter() - t0
    stdout = capsys.readouterr().out
    header, row = out.read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    batch_cost = float(vals["batch_cost"])
    makespan = float(vals["makespan_h"])
    expected_cost = 1500 * 119.28 / 60.0 * 3.629  # 10,821.68
    ok = (
        rc == 0
        and abs(batch_cost - expected_cost) / expected_cost < 0.01
        and abs(makespan - 29.82) / 29.82 < 0.02
        and abs(batch_cost - 10_750.0) / 10_750.0 < 0.015
        and "10,750" in stdout
        and elapsed < 1.0
    )
    _report(
        1, ok,
        f"batch ${batch_cost:.2f} (arith ${expected_cost:.2f}, quoted $10,750), "
        f"makespan {makespan:.2f} h, discrepancy noted, {elapsed:.2f}s",
    )


_SWEEP = [100, 200, 400, 800, 1200, 1400, 1500]


def _default_curve():
    dist = batchsim.RuntimeDistribution(119.28, seed=42)
    jobs = [batchsim.JobSpec(i, d) for i, d in enumerate(batchsim.sample_runtimes(dist, 1500))]
    return jobs, batchsim.idle_cost_curve(jobs, _SWEEP, batchsim.PricingModel(3.629))


def test_criterion_2_idle_cost_ratio_band():
    t0 = time.perf_counter()
    _, rows = _default_curve()
    elapsed = time.perf_counter() - t0
    best = max(rows, key=lambda r: r.ratio)
    ok = 1.5 <= best.ratio <= 2.2 and elapsed < 10.0
    _report(
        2, ok,
        f"fixed/batch ratio peaks at {best.ratio:.3f} with {best.n_vms} VMs "
        f"(band [1.5, 2.2]), {elapsed:.2f}s",
    )


def test_criterion_3_sixfold_savings():
    t0 = time.perf_counter()
    jobs, rows = _default_curve()
    best = max(rows, key=lambda r: r.ratio)
    pricing = batchsim.PricingModel(3.629, low_priority_discount_factor=3.0)
    batch = batchsim.simulate_batch_pool(jobs, best.n_vms, pricing)
    low = batchsim.apply_low_priority(batch, pricing)
    elapsed = time.perf_counter() - t0
    ok = low.cost <= best.fixed_cost / 6.0 and elapsed < 10.0
    _report(
        3, ok,
        f"low-priority batch ${low.cost:.2f} vs fixed ${best.fixed_cost:.2f} at "
        f"{best.n_vms} VMs (x{best.fixed_cost / low.cost:.2f} savings), {elapsed:.2f}s",
    )


def test_criterion_4_reduction_correctness(tmp_path):
    t0 = time.perf_counter()
    detail = []
    for n_leaves in (1, 10, 37, 100):
        rng = np.random.default_rng(1000 + n_leaves)
        images = [rng.uniform(0.1, 1.0, (64, 64)) for _ in range(n_leaves)]
        oracle = np.sum(images, axis=0)

        def fill(tag):
            store = BlobStore(tmp_path / f"s{tag}{n_leaves}")
            queue = FileQueue(tmp_path / f"q{tag}{n_leaves}")
            for img in images:
                blob = ImageBlob("image", 64, 64, 1.0, 1.0, 0.0, 0.0, 1, img)
                queue.enqueue(QueueMessage(store.put(encode_image(blob)), 1))
            return store, queue

        # parallel correctness
        store, queue = fill("p")
        cfg = ReductionConfig(
            total_leaves=n_leaves, fan_in=10, poll_interval=0.01,
            max_parallel_invocations=4, visibility_seconds=60.0,
            deadline_seconds=120.0,
        )
        rep = run_reduction_service(cfg, queue, store)
        final = store.get_image(rep.final_blob_id)
        assert final.leaf_count == n_leaves
        np.testing.assert_allclose(final.values, oracle, rtol=1e-12)

        # sequential invocation count
        store, queue = fill("s")
        cfg_seq = ReductionConfig(
            total_leaves=n_leaves, fan_in=10, poll_interval=0.01,
            max_parallel_invocations=1, visibility_seconds=60.0,
            deadline_seconds=120.0,
        )
        rep_seq = run_reduction_service(cfg_seq, queue, store)
        expected = math.ceil((n_leaves - 1) / 9)
        assert rep_seq.invocation_count == expected, (n_leaves, rep_seq.invocation_count)
        detail.append(f"N={n_leaves}:{rep_seq.invocation_count}inv")
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _report(4, ok, f"sum==oracle@1e-12, counts {' '.join(detail)}, {elapsed:.2f}s")


def test_criterion_5_queue_semantics(tmp_path):
    t0 = time.perf_counter()
    # redelivery after visibility timeout
    q1 = FileQueue(tmp_path / "q1")
    q1.enqueue(QueueMessage("a" * 64, 1))
    ((m, r),) = q1.dequeue(1, visibility_timeout=0.2)
    assert q1.dequeue(1, visibility_timeout=0.2) == []
    time.sleep(0.3)
    redelivered = q1.dequeue(1, visibility_timeout=5)
    assert len(redelivered) == 1 and redelivered[0][0].blob_id == m.blob_id

    # no double-claim within the visibility window
    q2 = FileQueue(tmp_path / "q2")
    for i in range(10):
        q2.enqueue(QueueMessage(f"{i:064x}", 1))
    got_a = q2.dequeue(10, visibility_timeout=30)
    got_b = q2.dequeue(10, visibility_timeout=30)
    ids_a = {x[0].blob_id for x in got_a}
    ids_b = {x[0].blob_id for x in got_b}
    assert ids_a & ids_b == set()
    assert len(ids_a | ids_b) == 10

    # zero loss: 4 producers x 100 and 4 consumers, all messages delivered
    root = str(tmp_path / "q3")
    FileQueue(root)
    ctx = mp.get_context("spawn")
    out = ctx.Queue()
    producers = [ctx.Process(target=_producer, args=(root, w, 100)) for w in range(4)]
    consumers = [ctx.Process(target=_consumer, args=(root, out)) for _ in range(4)]
    for p in producers + consumers:
        p.start()
    consumed = [blob_id for _ in consumers for blob_id in out.get(timeout=120)]
    for p in producers + consumers:
        p.join()
    expected = {f"{w:032x}{i:032x}" for w in range(4) for i in range(100)}
    elapsed = time.perf_counter() - t0
    ok = set(consumed) == expected and FileQueue(root).approximate_count() == 0 and elapsed < 60.0
    _report(
        5, ok,
        f"redelivery+exclusive-claim verified; {len(consumed)}/400 messages "
        f"delivered, none lost, {elapsed:.2f}s",
    )


def test_criterion_6_adjoint_dot_test():
    t0 = time.perf_counter()
    model = make_layered_model(201, 201, 10.0, 10.0, [1500.0])
    receivers = tuple((100.0 + 180.0 * i, 20.0) for i in range(10))
    plan = ShotGatherPlan(0, (1000.0, 1960.0), receivers)
    errors = [adjoint_dot_test(model, plan, wavelet_length=600, seed=s) for s in range(10)]
    elapsed = time.perf_counter() - t0
    worst = max(errors)
    ok = worst < 1e-10 and elapsed < 60.0
    _report(6, ok, f"10 seeds on 201x201, worst relative error {worst:.2e}, {elapsed:.1f}s")


def _e2e_config(tmp_path, tag):
    data = PipelineConfig().to_dict()
    data["out_dir"] = str(tmp_path / f"e2e_{tag}")
    data["model"].update(nz=101, nx=101)
    data["survey"].update(n_receivers=8, n_sources=48, record_time=1.4)
    data["scatterer"].update(z=500.0, x=510.0)
    data["map"]["workers"] = 2
    data["reduce"].update(
        {"fan_in": 4, "parallel": 2, "poll_interval": 0.02, "deadline": 240.0}
    )
    return config_from_dict(data)


def test_criterion_7_end_to_end_physics(tmp_path):
    t0 = time.perf_counter()
    cfg = _e2e_config(tmp_path, "a")
    image, red, cost = orchestrator.run_pipeline(cfg)
    ci = int(round(cfg.scatterer.z / cfg.model.dz))
    cj = int(round(cfg.scatterer.x / cfg.model.dx))
    iz, ix = np.unravel_index(np.argmax(np.abs(image.values)), image.values.shape)
    dist = max(abs(int(iz) - ci), abs(int(ix) - cj))

    image2, _, _ = orchestrator.run_pipeline(_e2e_config(tmp_path, "b"))
    rerun_diff = rel_diff(image.values, image2.values)
    elapsed = time.perf_counter() - t0
    ok = dist <= 3 and rerun_diff < 1e-12 and elapsed < 300.0
    _report(
        7, ok,
        f"argmax ({iz},{ix}) is {dist} cells from scatterer ({ci},{cj}); "
        f"rerun relative diff {rerun_diff:.1e}, {elapsed:.1f}s",
    )


def test_default_image_matches_far_rim_reference(monkeypatch):
    # The reference pads the model with 150 cells at a strong coefficient:
    # its rim is 1.5 km out, too far to answer within the record.
    cfg = PipelineConfig()
    image = orchestrator.migrate_shot(cfg, 0).values
    monkeypatch.setattr(solver, "SPONGE_CELLS", 150)
    monkeypatch.setattr(solver, "SPONGE_COEFF", 0.2)
    reference = orchestrator.migrate_shot(cfg, 0).values
    err = np.linalg.norm(image - reference) / np.linalg.norm(reference)
    assert err < 0.02, f"shot 0 image differs from the far-rim reference by {err:.3f} (L2)"


def test_criterion_8_fcfs_oracle_equivalence():
    from fcfs_oracle import fcfs_oracle

    t0 = time.perf_counter()
    pricing = batchsim.PricingModel(1.0, billing_granularity=0)
    cases = 0
    for k in range(1, 6):
        for durations in itertools.product((1.0, 2.0, 3.0), repeat=k):
            jobs = [batchsim.JobSpec(i, d) for i, d in enumerate(durations)]
            for n_vms in (1, 2, 3):
                fixed = batchsim.simulate_fixed_cluster(jobs, n_vms, pricing)
                makespan, busy, idle = fcfs_oracle(list(durations), n_vms)
                assert fixed.makespan == makespan
                assert fixed.busy_vm_hours == busy
                assert fixed.idle_vm_hours == idle
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _report(8, ok, f"{cases} schedules match the event oracle exactly, {elapsed:.2f}s")
