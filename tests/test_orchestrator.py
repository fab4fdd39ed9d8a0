import dataclasses
import hashlib
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
from rtmcloud.blobstore import BlobStore, decode_image, encode_image
from rtmcloud.cli import build_parser, main
from rtmcloud.config import PipelineConfig, config_from_args, config_from_dict, load_config
from rtmcloud.msgqueue import FileQueue, QueueMessage
from rtmcloud.reducer import IncompleteReductionError
from rtmcloud.wavekernel import (
    backend_isa,
    backend_name,
    backend_reason,
    forward_model,
    ricker,
    rtm_shot_image,
    solver,
)
from rtmcloud.wavekernel import _backend, _stencil_py

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

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"model": {"dz": True}}, "model.dz"),
            ({"map": {"workers": False}}, "map.workers"),
            ({"map": {"workers": 2.0}}, "map.workers"),
            ({"out_dir": 1}, "out_dir"),
            ({"model": {"layer_velocities": 1500.0}}, "model.layer_velocities"),
            ({"model": {"layer_velocities": [1500.0, "2000"]}}, "model.layer_velocities"),
            ({"survey": []}, "section survey"),
        ],
    )
    def test_leaf_of_wrong_type_names_its_key(self, data, key):
        with pytest.raises(ValueError, match=key):
            config_from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("map.workers", 0),
        ("queue.visibility_seconds", 0.0),
        ("reduce.deadline", 0.0),
        ("reduce.poll_interval", 0.0),
        ("reduce.poll_interval", -0.05),
    ])
    def test_value_out_of_range_refused_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                        key, value):
        section, leaf = key.split(".")
        with pytest.raises(ValueError, match=rf"^config key {key} must be > 0"):
            config_from_dict({section: {leaf: value}})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a process was forked"))
        out = tmp_path / "out"
        assert main(["run", f"--{key}", str(value), "--out_dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config key {key} must be > 0")
        assert not out.exists()
        cfg = PipelineConfig()  # a config built in code never reaches run_pipeline either
        with pytest.raises(ValueError, match=rf"^config key {key} must be > 0"):
            dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section),
                                                                    **{leaf: value})})

    def test_json_values_of_leaf_types_accepted(self):
        cfg = config_from_dict({"model": {"dz": 5, "layer_velocities": [1500, 2000.0]},
                                "survey": {"dt_record": None}})
        assert cfg.model.dz == 5 and cfg.model.layer_velocities == (1500, 2000.0)
        assert cfg.survey.dt_record is None

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

        def dies_once(config, shot_id, **kw):
            if shot_id == 3 and not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return migrate(config, shot_id, **kw)

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

        def heavy(config, shot_id, **kw):
            ballast = np.ones(60 * 2**20 // 8) if shot_id == 1 else None
            image = migrate(config, shot_id, **kw)
            del ballast
            return image

        monkeypatch.setattr(orchestrator, "migrate_shot", heavy)
        first, second = orchestrator.run_map_phase(cfg)
        assert first.worker_id == second.worker_id
        assert first.peak_rss_mb > 0
        assert second.peak_rss_mb - first.peak_rss_mb >= 50


# A pipeline driver for a subprocess: it records the pid of every process it
# starts in argv[1] and makes each shot sleep 0.2 s first, so the run is
# still going when the test kills it.
DRIVER = """
import json, sys, time
import multiprocessing.process as mpp
from rtmcloud import orchestrator
from rtmcloud.config import config_from_dict

start, migrate = mpp.BaseProcess.start, orchestrator.migrate_shot

def recording(self):
    start(self)
    with open(sys.argv[1], "a") as f:
        f.write(f"{self.pid}\\n")

def slow(config, shot_id, **kw):
    time.sleep(0.2)
    return migrate(config, shot_id, **kw)

mpp.BaseProcess.start, orchestrator.migrate_shot = recording, slow
with open(sys.argv[2]) as f:
    orchestrator.run_pipeline(config_from_dict(json.load(f)))
"""


def _alive(pids):
    """The pids in ``pids`` that are still running (not gone, not a zombie)."""
    alive = []
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            continue
        if stat.rpartition(")")[2].split()[0] not in ("Z", "X"):
            alive.append(pid)
    return alive


class TestDriverDeath:
    @pytest.mark.skipif(sys.platform != "linux", reason="reads process states from /proc")
    def test_sigkilled_driver_leaves_no_child(self, tmp_path):
        cfg = tiny_config(tmp_path, n_shots=64, workers=2)
        config_path, pids_path = tmp_path / "cfg.json", tmp_path / "pids"
        config_path.write_text(json.dumps(cfg.to_dict()))
        done = tmp_path / "out" / "tasks" / "done"
        children = []
        with open(tmp_path / "stderr", "w") as err:
            driver = subprocess.Popen(
                [sys.executable, "-c", DRIVER, str(pids_path), str(config_path)],
                env=dict(os.environ, PYTHONPATH=str(SRC)), stderr=err,
            )
        try:
            # wait for the reduction process, both workers and one published shot
            deadline = time.monotonic() + 60
            while len(children) < 3 or not any(done.glob("*.json")):
                assert driver.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
                if pids_path.exists():
                    children = [int(p) for p in pids_path.read_text().split("\n")[:-1]]
            driver.kill()
            driver.wait(timeout=10)
            gone_by = time.monotonic() + 2
            while _alive(children) and time.monotonic() < gone_by:
                time.sleep(0.02)
            assert _alive(children) == []
        finally:
            for pid in _alive(children):
                os.kill(pid, signal.SIGKILL)
            if driver.poll() is None:
                driver.kill()
                driver.wait()
        assert len(children) == 3
        assert "Traceback" not in (tmp_path / "stderr").read_text()


class TestStartupCrashLoop:
    def test_pipeline_fails_fast_and_joins_every_child(self, tmp_path, monkeypatch):
        # every forked worker inherits the patch and dies on its first shot;
        # one worker makes shot 0 the one that uses up its attempts first
        def broken(config, shot_id, **kw):
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
        assert report["backend"] == {"name": backend_name(), "reason": backend_reason(),
                                     "isa": backend_isa()}
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
        assert report["backend"] == {"name": "python", "reason": "RTMCLOUD_PURE_PYTHON=1",
                                     "isa": None}

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

        def call(plan, n0, n1):
            calls[f"{kind}_step"] += n1 - n0
            return window(plan, n0, n1)

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
        records = [forward_model(m, plan.source, wavelet, plan.receivers, dt, nt, shot_id=1)
                   for m in (true_model, model)]
        observed = dataclasses.replace(records[0], traces=records[0].traces - records[1].traces)
        # the background again, this time storing the source wavefield
        frames = orchestrator.ShotSetup(cfg).frames
        forward_model(model, plan.source, wavelet, plan.receivers, dt, nt, frames=frames)
        return rtm_shot_image(model, plan, observed, wavelet, frames=frames)

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

    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_reused_buffer_gives_the_same_images(self, tmp_path, monkeypatch, backend):
        # as a map worker runs its shots: one ShotSetup, whose survey, frames
        # buffer and propagators are built once, for any shots in any order
        if backend == "c":
            impl, reason = _backend.load_stencil()
            if reason == _backend.NO_COMPILER:
                pytest.skip(reason)
            assert impl is not None, reason
        else:
            impl = _stencil_py
        monkeypatch.setattr(solver, "impl", impl)
        data = tiny_config(tmp_path, n_shots=8).to_dict()
        data["model"].update(nz=41, nx=41)  # small, for the NumPy fallback's sake
        data["survey"].update(record_time=0.6)
        cfg = config_from_dict(data)
        fresh = {shot: orchestrator.migrate_shot(cfg, shot).values for shot in range(8)}

        builds = Counter()
        for owner, attr, name in ((orchestrator, "build_survey", "survey"),
                                  (solver._Propagator, "__init__", "propagator")):
            def counted(*args, _f=getattr(owner, attr), _name=name, **kw):
                builds[_name] += 1
                return _f(*args, **kw)
            monkeypatch.setattr(owner, attr, counted)
        setup = orchestrator.ShotSetup(cfg)
        assert builds == {"survey": 1, "propagator": 2}  # one propagator per model
        # NaN where a shot could read what the last one left: a frame row the
        # forward window misses, or a field cell it reads before writing
        setup.frames.fill(np.nan)
        for f in setup.background.fields():
            f.base.fill(np.nan)
        for shot in [*range(8), 3, 0]:
            image = orchestrator.migrate_shot(cfg, shot, setup=setup).values
            assert np.abs(image).max() > 0
            np.testing.assert_array_equal(image, fresh[shot], err_msg=f"shot {shot}")
        assert builds == {"survey": 1, "propagator": 2}  # and none for any shot

    def test_setup_of_another_config_refused(self, tmp_path):
        setup = orchestrator.ShotSetup(tiny_config(tmp_path))
        other = tiny_config(tmp_path, n_shots=3)
        with pytest.raises(ValueError, match="another config"):
            orchestrator.migrate_shot(other, 0, setup=setup)


def test_default_frames_buffer_is_float32():
    # the largest array of a map worker: 16.4 MB at the default config (32.7 MB as float64)
    cfg = PipelineConfig()
    model, _, _, dt, nt = orchestrator.build_survey(cfg)
    first, _ = solver.frame_layout(model, ricker(cfg.wavelet.peak_frequency, dt, nt), nt)
    buf = orchestrator.ShotSetup(cfg).frames
    assert buf.dtype == np.float32
    assert buf.nbytes == (nt - first) * model.nz * model.nx * 4 == 16_362_404


# sha256 of the default config's leaf blobs, migrate_shot(PipelineConfig(), shot)
# stored with leaf_count=1, by shot.  Both backends give these bits.  They pin
# the images of the 20-cell sponge at coefficient 0.1 (solver.SPONGE_CELLS,
# SPONGE_COEFF), correlated against float32 frames; a change to the boundary
# or to the frames' precision changes every image, so it changes these
# digests on purpose.
DEFAULT_LEAF_SHA256 = (
    "6796a14f77a8f75285f05b495b2533dd96d1df761ab0d449fe7ec35a85c4f16a",
    "daa8f6992b1a8b00033496a3e1c40925c9150da946451bc57e88153989629385",
    "e25ba7894b1ade49d12b54f78dc9ef437184833c602f605161dd9d92e36cac22",
    "4ca619751d205f9d6b40c634c64823db48ae7da76c94b9d12c3e5203b6c497e5",
    "14a98999ddb9d441cbf1d6d751f1ecee66dbc94503e5abfedbb9de35fd6cc568",
    "c4dd0d685d7a4d88b0a4824d51e66fac074e2c2ad2d043f03c508e806ba9921f",
    "fd674fd9e4801384dc04d3b46b5e99ff2ac4b5a4488c353d480ca8e1761285cd",
    "e875b498a8a2167c52e417d248b7eb163ea1ece1207eb08f369525c41bb89d71",
)


@pytest.mark.parametrize("backend", ["c", "python"])
def test_default_leaf_images_pinned(monkeypatch, backend):
    """Every default shot on the compiled kernels, shot 0 on the NumPy fallback."""
    if backend == "c":
        impl, reason = _backend.load_stencil()
        if reason == _backend.NO_COMPILER:
            pytest.skip(reason)
        assert impl is not None, reason
    else:
        impl = _stencil_py
    monkeypatch.setattr(solver, "impl", impl)
    cfg = PipelineConfig()
    shots = range(cfg.survey.n_receivers) if backend == "c" else [0]
    digests = [hashlib.sha256(encode_image(orchestrator.migrate_shot(cfg, shot).to_blob(
        leaf_count=1))).hexdigest() for shot in shots]
    assert digests == [DEFAULT_LEAF_SHA256[shot] for shot in shots]


class TestStackLinearity:
    def test_wavelet_scaling_scales_stacked_image(self, tmp_path):
        # fixed observed data, doubled migration wavelet: image doubles
        cfg = tiny_config(tmp_path, n_shots=2)
        model, _, plans, dt, nt = orchestrator.build_survey(cfg)
        wavelet = ricker(cfg.wavelet.peak_frequency, dt, nt)
        stack1 = np.zeros((model.nz, model.nx))
        stack2 = np.zeros((model.nz, model.nx))
        frames, frames2 = orchestrator.ShotSetup(cfg).frames, orchestrator.ShotSetup(cfg).frames
        for plan in plans:
            rec = forward_model(model, plan.source, wavelet, plan.receivers, dt, nt, frames=frames)
            forward_model(model, plan.source, wavelet.scaled(2.0), plan.receivers, dt, nt,
                          frames=frames2)
            stack1 += rtm_shot_image(model, plan, rec, wavelet, frames=frames).values
            stack2 += rtm_shot_image(model, plan, rec, wavelet.scaled(2.0), frames=frames2).values
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
        place = batchsim._place

        def counting(jobs, n_vms):
            calls.append(n_vms)
            return place(jobs, n_vms)

        monkeypatch.setattr(batchsim, "_place", counting)
        sweep = [3, 8, 20, 40]
        rc = main(
            ["simulate", "--jobs", "40", "--mean-minutes", "30", "--seed", "5",
             "--vm-counts", ",".join(map(str, sweep)), "--with-master",
             "--out", str(tmp_path / "curve.csv")]
        )
        assert rc == 0
        assert len(calls) == len(sweep) + 1

    # sha256 of (stdout, curve.csv) of the reference sweep, 150 sizes at seed 1,
    # without and with gang jobs, latency, per-minute billing and a master VM
    REFERENCE_SWEEP = ("simulate --jobs 1500 --mean-minutes 119.28 --spread 0.16 --rate 3.629 "
                       "--seed 1 --out curve.csv --vm-counts " + ",".join(map(str, range(10, 1501, 10))))

    @pytest.mark.parametrize(
        "flags, stdout_sha, csv_sha",
        [
            ("", "1e8ebbb842bc8f0e0daa25a8ff902abf737cb928180b6c080e81c99a3e998096",
             "64da9c4c2e95456fe1c21da63664ec65194db12be7f6dd9fdae92374adc0f0f6"),
            ("--vms-per-job 3 --scale-latency 45 --granularity 60 --with-master",
             "4366d4f6bb2ca72256a26073c4ee07ebf2d84d23a8a2021334504ed8189419e3",
             "3579cbaf690b88aef67d9b8538be83170dd38431d23ef360314f4ff61d8e31e3"),
        ],
    )
    def test_simulate_outputs_pinned(self, tmp_path, capsys, monkeypatch, flags, stdout_sha,
                                     csv_sha):
        monkeypatch.chdir(tmp_path)
        assert main((self.REFERENCE_SWEEP + " " + flags).split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
        assert hashlib.sha256((tmp_path / "curve.csv").read_bytes()).hexdigest() == csv_sha

    @pytest.mark.parametrize("command", ["simulate", "report --paper-numbers"])
    @pytest.mark.parametrize("spec", ["25,,50", "25,x", "0,25"])
    def test_malformed_vm_counts_named(self, tmp_path, capsys, command, spec):
        argv = command.split() + ["--vm-counts", spec]
        argv += ["--out", str(tmp_path / "c.csv")] if command == "simulate" else \
            ["--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: --vm-counts '{spec}': ")
        assert list(tmp_path.iterdir()) == []

    def test_report_without_traces_named(self, tmp_path, capsys):
        traces = tmp_path / "done"
        traces.mkdir()
        (traces / "notes.txt").write_text("not a trace")
        out = tmp_path / "rep"
        assert main(["report", "--traces", str(traces), "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --traces {traces}: no *.json trace files\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("text, why", [("{bad", "Expecting property name"),
                                           ('{"shot_id": 1}', "missing 5 required")],
                             ids=["not_json", "missing_fields"])
    def test_report_malformed_trace_named(self, tmp_path, capsys, text, why):
        traces = tmp_path / "done"
        traces.mkdir()
        trace = orchestrator.JobTrace(0, 0, 0.0, 1.0, 1.0, "0" * 64)
        (traces / "shot_0.json").write_text(json.dumps(trace.to_dict()))
        (traces / "shot_1.json").write_text(text)
        out = tmp_path / "rep"
        assert main(["report", "--traces", str(traces), "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        prefix = f"error: --traces {traces / 'shot_1.json'}: not a job trace: "
        assert captured.err.startswith(prefix) and why in captured.err
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("simulate --jobs 0", "n_jobs must be >= 1"),
            ("simulate --spread -0.1", "spread must be >= 0"),
            ("simulate --discount-factor 4", "low-priority discount factor 4.0 outside [2, 3]"),
            ("simulate --vms-per-job 0", "vms_per_job must be >= 1"),
            ("simulate --granularity -1", "billing_granularity must be >= 0"),
            ("simulate --vm-counts 5 --vms-per-job 8", "5 VMs cannot run a job needing 8"),
            ("report --paper-numbers --discount-factor 4",
             "low-priority discount factor 4.0 outside [2, 3]"),
            ("report --paper-numbers --rate 0", "on_demand_rate must be positive"),
        ],
    )
    def test_bad_cost_argument_is_one_error_line(self, tmp_path, capsys, argv, message):
        argv = argv.split()
        argv += ["--out", str(tmp_path / "c.csv")] if argv[0] == "simulate" else \
            ["--out-dir", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_report_paper_numbers(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["report", "--paper-numbers", "--out-dir", "rep"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1500 jobs" in out and "119.28 min" in out and "100 VMs" in out
        assert "$10821.98" in out  # matches the batch-pool acceptance number
        digests = {name: hashlib.sha256((tmp_path / "rep" / name).read_bytes()).hexdigest()
                   for name in ("idle_cost_curve.csv", "runtimes_sorted.csv")}
        digests["stdout"] = hashlib.sha256(out.encode()).hexdigest()
        assert digests == {
            "idle_cost_curve.csv":
                "f3a79cfe33f670f8d375f0be2405bfc456f63216f66c5d040c9a313bcdd49e48",
            "runtimes_sorted.csv":
                "4cf611cd32263f6ecc741d749d11f96d650bb1971f977fd340d2c674eba9b9a0",
            "stdout": "c8342642272e0de84a1e8baa404268a0f5cecffd9cd026721c9b13d9bc050e38",
        }

    def test_report_paper_numbers_headline_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--paper-numbers", "--n-vms", "400", "--out-dir", "rep"]) == 0
        out = capsys.readouterr().out
        curve = (tmp_path / "rep" / "idle_cost_curve.csv").read_text().splitlines()
        row = dict(zip(curve[0].split(","), next(r for r in curve[1:] if r.startswith("400,"))
                       .split(",")))
        assert f"at 400 VMs: makespan {float(row['makespan_h']):.2f} h, " \
               f"fixed ${float(row['fixed_cost']):.2f}," in out

    @pytest.mark.parametrize(
        "argv, config, key",
        [
            ("run --report.vm_counts 1,,2", None, "report.vm_counts"),
            ("generate --report.vm_counts 0,2", None, "report.vm_counts"),
            ("run --config CFG", {"reduce": {"fan_in": 1}}, "reduce.fan_in"),
            ("reduce --reduce.fan_in 1", None, "reduce.fan_in"),
            ("map --config CFG", {"reduce": {"fanin": 2}}, "reduce.fanin"),
            ("run --survey.n_receivers 0", None, "survey.n_receivers"),
            ("run --config CFG", {"reduce": {"fan_in": "x"}}, "reduce.fan_in"),
            ("run --config CFG", {"reduce": 3}, "section reduce"),
            ("run --config CFG", {"model": {"nz": 50.5}}, "model.nz"),
            ("run --pricing.low_priority_discount_factor 4", None,
             "pricing.low_priority_discount_factor"),
            ("run --pricing.on_demand_rate 0", None, "pricing.on_demand_rate"),
            ("run --pricing.billing_granularity -1", None, "pricing.billing_granularity"),
        ],
    )
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, monkeypatch, argv,
                                                 config, key):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a process was forked"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv.replace("CFG", str(cfg)).split() + ["--out_dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_bad_pricing_refused_before_the_map_phase(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a process was forked"))
        data = tiny_config(tmp_path).to_dict()
        data["pricing"]["billing_granularity"] = -1.0
        with pytest.raises(ValueError, match=r"^pricing\.billing_granularity: "):
            orchestrator.run_pipeline(config_from_dict(data))
        assert not list((tmp_path / "out").glob("tasks/done/*"))

    @pytest.mark.parametrize("section, key, value", [
        ("reduce", "fan_in", 1), ("reduce", "parallel", 0),
        ("pricing", "on_demand_rate", 0.0), ("pricing", "low_priority_discount_factor", 4.0),
    ])
    def test_bad_value_leaves_no_out_dir(self, tmp_path, monkeypatch, section, key, value):
        # refused before the queue and store directories are made
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a process was forked"))
        data = tiny_config(tmp_path).to_dict()
        data[section][key] = value
        with pytest.raises(ValueError, match=rf"^{section}\.{key}\b"):
            orchestrator.run_pipeline(config_from_dict(data))
        assert not (tmp_path / "out").exists()

    def test_reduce_cli(self, tmp_path):
        from rtmcloud.blobstore import ImageBlob

        store = BlobStore(tmp_path / "s")
        queue = FileQueue(tmp_path / "q")
        for i in range(4):
            blob = ImageBlob("image", 2, 2, 1.0, 1.0, 0.0, 0.0, 1, np.full((2, 2), float(i)))
            queue.enqueue(QueueMessage(store.put(encode_image(blob)), 1))
        argv = ["reduce", "--queue", str(tmp_path / "q"), "--store", str(tmp_path / "s"),
                "--survey.n_receivers", "4", "--reduce.fan_in", "4", "--reduce.parallel", "1",
                "--reduce.deadline", "30"]
        # in a fresh interpreter, which shows that reducing never loads the wave kernel
        code = (f"import sys; from rtmcloud import cli; rc = cli.main({argv!r}); "
                "print('rtmcloud.wavekernel' in sys.modules, file=sys.stderr); sys.exit(rc)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "False"
        report = json.loads(proc.stdout)
        assert report["invocation_count"] == 1
        final = store.get_image(report["final_blob_id"])
        np.testing.assert_array_equal(final.values, np.full((2, 2), 6.0))
