"""Tests of the benchmark itself: each output check rejects a wrong output,
and the entry point runs a workload to completion.

    python3 -m pytest -q rtmbench
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from rtmcloud import batchsim, cli  # noqa: E402


def test_sum_with_one_leaf_left_out_fails():
    rng = np.random.default_rng(0)
    leaves = rng.standard_normal((12, 21, 21))
    final = leaves[::-1].sum(axis=0)  # another summation order
    checks.check_sum(final, leaves.sum(axis=0))
    with pytest.raises(checks.CheckError):
        checks.check_sum(final, leaves[1:].sum(axis=0))


def test_focus_moved_by_five_cells_fails():
    image = np.zeros((101, 101))
    image[50, 51] = -3.0
    image[20, 20] = 1.0
    checks.check_focus(image, 50, 51)
    with pytest.raises(checks.CheckError):
        checks.check_focus(np.roll(image, 5, axis=1), 50, 51)


def test_shot_id_twice_fails():
    checks.check_shot_ids([2, 0, 3, 1], 4)
    with pytest.raises(checks.CheckError):
        checks.check_shot_ids([0, 1, 2, 3, 3], 4)


def _rtmb(values: np.ndarray, leaf_count: int) -> bytes:
    nz, nx = values.shape
    header = checks._RTMB_HEADER.pack(b"RTMB", 1, 0, b"image", nz, nx, 10.0, 10.0, 0.0, 0.0, leaf_count)
    return header + values.astype("<f8").tobytes()


def test_blob_hash_and_leaf_count_checks(tmp_path):
    data = _rtmb(np.arange(12.0).reshape(3, 4), 3)
    blob_id = hashlib.sha256(data).hexdigest()
    (tmp_path / blob_id[:2]).mkdir()
    path = tmp_path / blob_id[:2] / blob_id
    path.write_bytes(data)
    blob = checks.read_stored_blob(tmp_path, blob_id)
    checks.check_leaf_count(blob, 3)
    with pytest.raises(checks.CheckError):
        checks.check_leaf_count(blob, 4)
    path.write_bytes(data[:-1] + b"\x01")
    with pytest.raises(checks.CheckError):
        checks.read_stored_blob(tmp_path, blob_id)


def test_too_few_invocations_fails():
    checks.check_invocations(56, 500, 10)
    with pytest.raises(checks.CheckError):
        checks.check_invocations(55, 500, 10)


def test_runtime_draws_match_the_simulator():
    dist = batchsim.RuntimeDistribution(119.28, spread=0.16, seed=7)
    ours = checks.lognormal_runtimes_h(119.28, 0.16, 7, 1500)
    assert ours.tolist() == batchsim.sample_runtimes(dist, 1500)


def test_event_list_matches_hand_traced_schedule():
    # 2 VMs: jobs 3,1,1,2 -> VM b runs 1,1 then 2 (ends 4); VM a runs 3
    assert checks.event_list_makespan([3.0, 1.0, 1.0, 2.0], 2) == 4.0
    assert checks.event_list_makespan([1.0, 1.0, 1.0], 5) == 1.0


def _curve(tmp_path, sweep):
    out = tmp_path / "curve.csv"
    argv = ["simulate", "--jobs", "1500", "--seed", "3", "--vm-counts", ",".join(map(str, sweep)),
            "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return out.read_text(), checks.lognormal_runtimes_h(119.28, 0.16, 3, 1500)


def test_cost_curve_cost_altered_in_last_digit_fails(tmp_path):
    sweep = [300, 900, 1350, 1500]
    text, durations = _curve(tmp_path, sweep)
    assert 1.5 <= checks.check_cost_curve(text, durations, 3.629, sweep)["peak_ratio"] <= 2.2
    lines = text.splitlines()
    for column in (4, 5):  # fixed_cost, batch_cost
        cells = lines[2].split(",")
        cells[column] = cells[column][:-1] + str((int(cells[column][-1]) + 1) % 10)
        bad = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
        with pytest.raises(checks.CheckError):
            checks.check_cost_curve(bad, durations, 3.629, sweep)


def test_cost_curve_wrong_makespan_fails(tmp_path):
    sweep = [300, 1350]
    text, durations = _curve(tmp_path, sweep)
    with pytest.raises(checks.CheckError):
        checks.check_cost_curve(text, durations * 1.01, 3.629, sweep)


def test_failed_repetition_fails_the_run(monkeypatch):
    monkeypatch.setattr(run, "run_repetition", lambda *a: {"correct": False, "error": "injected"})
    summary = run.run_workload("simulate_curve", 1, 0.0, 0, run.load_spec())
    assert not summary["correct"] and summary["failed"] == summary["attempted"] == 1
    assert summary["metrics"] == {}


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def test_pipeline_default_through_the_entry_point():
    """Map workers re-import the spawning script; this runs the real run.py,
    so a missing __main__ guard or a leftover work directory shows here."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pipeline_default", "--seed", "3",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    names = {m["name"] for m in run.load_spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not any((ROOT / ".rtmbench" / "work").glob("pipeline_default-*"))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "rtmbench/run.py", "--workload", "simulate_curve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert _last_json(proc.stdout) is None
