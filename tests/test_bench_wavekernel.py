import os
import subprocess
import sys
from pathlib import Path

import pytest

from rtmcloud.wavekernel import _backend

ROOT = Path(__file__).resolve().parents[1]


def test_bench_wavekernel_runs_and_backends_agree():
    """The kernel benchmark builds its plans as the solver does; a tiny grid
    with frames exercises every plan argument on both backends."""
    module, reason = _backend.load_stencil()
    if reason == _backend.NO_COMPILER:
        pytest.skip(reason)
    assert module is not None, reason
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_wavekernel.py"), "--n", "41",
         "--steps", "16", "--frames"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("bitwise equal: yes") == 2, run.stdout
