"""The kernel loader: compile on first use, cache by key, fall back with a reason.

Each import runs in a fresh interpreter with its own XDG_CACHE_HOME, because
the loader decides once, when ``rtmcloud.wavekernel`` is first imported.
Tests about compiling start from an empty cache; the others find the
session's one build in theirs (``seed``), since a compile takes about a
second.
"""

import ctypes
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from rtmcloud.wavekernel import _backend, _stencil_py

SRC = Path(__file__).resolve().parents[1] / "src"
SUFFIX = _backend.SUFFIX
PROBE = (
    "import json; from rtmcloud.wavekernel import _backend as b; "
    "print(json.dumps([b.backend_name(), b.backend_reason(), getattr(b.impl, '__file__', None)]))"
)


def probe(tmp_path, *, path=None, src=SRC, **env):
    """(backend name, reason, kernel file) as a fresh ``import rtmcloud`` sees them."""
    full = {k: v for k, v in os.environ.items() if k != "RTMCLOUD_PURE_PYTHON"}
    full.update(XDG_CACHE_HOME=str(tmp_path / "cache"), PYTHONPATH=str(src))
    full.update(env)
    if path is not None:
        full["PATH"] = str(path)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=full, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def no_compiler_path(tmp_path):
    """A PATH on which neither gcc nor cc can be found."""
    bare = tmp_path / "bare-bin"
    bare.mkdir(exist_ok=True)
    return bare


@pytest.fixture(scope="session")
def built_kernel(tmp_path_factory):
    """The kernel compiled once for the session, named as the loader names it."""
    key = _backend.cache_key(Path(_backend.SOURCE).read_bytes())
    path = tmp_path_factory.mktemp("kernel") / f"_stencil-{key}{SUFFIX}"
    assert _backend._compile(str(path)) is None
    return path


@pytest.fixture
def seed(tmp_path, built_kernel):
    """Put the session's build in this test's private cache, as a first
    import would have left it."""
    cache = tmp_path / "cache" / "rtmcloud"
    cache.mkdir(parents=True)
    cache.chmod(0o700)
    shutil.copy(built_kernel, cache)


def cached_files(tmp_path):
    return sorted(p.name for p in (tmp_path / "cache" / "rtmcloud").iterdir())


def test_first_import_compiles_into_cache(tmp_path):
    name, reason, kernel = probe(tmp_path)
    assert (name, reason) == ("c", None)
    (only,) = cached_files(tmp_path)  # the kernel, and no temp file
    assert only.startswith("_stencil-") and only.endswith(SUFFIX)
    assert kernel == str(tmp_path / "cache" / "rtmcloud" / only)


def test_cache_hit_needs_no_compiler(tmp_path, seed):
    _, _, kernel = probe(tmp_path)
    built = os.stat(kernel).st_mtime_ns
    assert probe(tmp_path, path=no_compiler_path(tmp_path)) == ["c", None, kernel]
    assert os.stat(kernel).st_mtime_ns == built


def test_no_compiler_falls_back_with_reason(tmp_path):
    name, reason, _ = probe(tmp_path, path=no_compiler_path(tmp_path))
    assert (name, reason) == ("python", _backend.NO_COMPILER)
    assert cached_files(tmp_path) == []


def test_failed_compile_falls_back_with_stderr(tmp_path):
    fake = tmp_path / "fake-bin"
    fake.mkdir()
    (fake / "gcc").write_text("#!/bin/sh\necho 'fatal: fake compiler' >&2\nexit 3\n")
    (fake / "gcc").chmod(0o755)
    name, reason, _ = probe(tmp_path, path=fake)
    assert name == "python"
    assert reason.startswith("gcc exited 3") and "fatal: fake compiler" in reason
    assert cached_files(tmp_path) == []  # the temp output was removed


def test_failed_load_falls_back_with_reason(tmp_path):
    cache = tmp_path / "cache" / "rtmcloud"
    cache.mkdir(parents=True, mode=0o700)
    key = _backend.cache_key(Path(_backend.SOURCE).read_bytes())
    (cache / f"_stencil-{key}{SUFFIX}").write_bytes(b"not a shared object")
    name, reason, _ = probe(tmp_path)
    assert name == "python" and reason.startswith("OSError")


def test_pure_python_forced(tmp_path):
    name, reason, _ = probe(tmp_path, RTMCLOUD_PURE_PYTHON="1")
    assert (name, reason) == ("python", "RTMCLOUD_PURE_PYTHON=1")
    assert not (tmp_path / "cache").exists()  # no compile was tried


def test_concurrent_first_imports_leave_one_kernel(tmp_path):
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(lambda _: probe(tmp_path), range(2)))
    assert [r[0] for r in results] == ["c", "c"]
    assert len(cached_files(tmp_path)) == 1


def test_unwritable_home_cache_uses_private_temp_dir(tmp_path):
    (tmp_path / "not-a-dir").write_text("")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    name, _, kernel = probe(tmp_path, XDG_CACHE_HOME=str(tmp_path / "not-a-dir"), TMPDIR=str(tmp))
    private = tmp / f"rtmcloud-{os.getuid()}"
    assert name == "c" and Path(kernel).parent == private
    assert private.stat().st_mode & 0o777 == 0o700


def test_cache_key_covers_source_flags_and_machine():
    source = Path(_backend.SOURCE).read_bytes()
    key = _backend.cache_key(source)
    assert key == _backend.cache_key(source, _backend.CFLAGS, _backend.MACHINE)
    assert _backend.cache_key(source + b"\n") != key
    assert _backend.cache_key(source, _backend.CFLAGS.replace("-O3", "-O2")) != key
    assert _backend.cache_key(source, machine="linux-riscv64") != key


def test_kernel_compiles_without_python_headers(tmp_path):
    """The cached library is plain C, built with no include path."""
    assert "Python.h" not in Path(_backend.SOURCE).read_text()
    fake = tmp_path / "fake-bin"
    fake.mkdir()
    log = tmp_path / "argv"
    (fake / "gcc").write_text(f'#!/bin/sh\necho "$@" > {log}\nexec {shutil.which("gcc")} "$@"\n')
    (fake / "gcc").chmod(0o755)
    name, _, _ = probe(tmp_path, path=f"{fake}{os.pathsep}{os.environ['PATH']}")
    assert name == "c" and not any(a.startswith("-I") for a in log.read_text().split())


def test_kernel_builds_without_warnings(tmp_path):
    """A slip in the intrinsics, or an unused parameter, fails the suite."""
    strict = _backend.CFLAGS + " -Wall -Wextra -Werror"
    reason = _backend._compile(str(tmp_path / "strict.so"), strict)
    if reason == _backend.NO_COMPILER:
        pytest.skip(reason)
    assert reason is None


def test_plan_struct_mirrors_the_library(built_kernel):
    """The C windows read a plan through ``CPlan``: both sides give one size."""
    _backend.Kernel(str(built_kernel))
    lib = ctypes.CDLL(str(built_kernel))
    lib.plan_size.restype = ctypes.c_size_t
    assert lib.plan_size() == ctypes.sizeof(_stencil_py.CPlan)


def test_plan_size_mismatch_falls_back_with_reason(tmp_path):
    """A library whose Plan has a field the mirror lacks is refused at load."""
    tree = tmp_path / "src"
    shutil.copytree(SRC / "rtmcloud", tree / "rtmcloud",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    source = tree / "rtmcloud" / "wavekernel" / "_stencil.c"
    text = source.read_text()
    assert text.count("double *ring;") == 1
    source.write_text(text.replace("double *ring;", "double *ring, *spare;"))
    name, reason, _ = probe(tmp_path, src=tree)
    size = ctypes.sizeof(_stencil_py.CPlan)
    assert name == "python"
    assert reason == (f"ValueError: the library's Plan is {size + ctypes.sizeof(ctypes.c_void_p)}"
                      f" bytes, _stencil_py.CPlan {size}")


@pytest.mark.parametrize("mode", [0o770, 0o707])
def test_shared_cache_dir_refused(tmp_path, seed, mode):
    probe(tmp_path)
    cache = tmp_path / "cache" / "rtmcloud"
    cache.chmod(mode)
    name, reason, _ = probe(tmp_path)
    assert name == "python"
    assert reason.startswith("refusing cache directory") and "writable by group or others" in reason


def test_shared_kernel_file_refused(tmp_path, seed):
    _, _, kernel = probe(tmp_path)
    os.chmod(kernel, 0o775)
    name, reason, _ = probe(tmp_path)
    assert name == "python" and reason.startswith("refusing cached kernel")


def test_foreign_owner_refused(tmp_path, monkeypatch):
    tmp_path.chmod(0o700)
    assert _backend.untrusted(str(tmp_path)) is None
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    assert f"owned by uid {uid}" in _backend.untrusted(str(tmp_path))


def test_stale_in_tree_build_ignored(tmp_path, seed):
    """A stale extension built in place next to _stencil.c is never imported."""
    _, _, kernel = probe(tmp_path)
    tree = tmp_path / "src"
    shutil.copytree(SRC / "rtmcloud", tree / "rtmcloud",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    stale = tree / "rtmcloud" / "wavekernel" / f"_stencil{SUFFIX}"
    shutil.copy(kernel, stale)
    name, _, loaded = probe(tmp_path, src=tree)
    assert name == "c" and loaded == kernel


def fake_builds(cache, n, *, start=1_000_000_000):
    """``n`` fake kernel builds in ``cache``, oldest first, one second apart."""
    cache.mkdir(parents=True, exist_ok=True, mode=0o700)
    paths = []
    for i in range(n):
        path = cache / f"_stencil-{i:064x}{SUFFIX}"
        path.write_bytes(b"old build")
        path.chmod(0o755)
        os.utime(path, ns=(start + i * 10**9,) * 2)
        paths.append(path)
    return paths


def test_eviction_keeps_newest_builds_and_spares_the_rest(tmp_path):
    cache = tmp_path / "cache"
    builds = fake_builds(cache, 5)
    shared = cache / f"_stencil-shared{SUFFIX}"
    shared.write_bytes(b"oldest build")
    shared.chmod(0o775)  # writable by group: refused, so never removed
    os.utime(shared, ns=(0, 0))
    (cache / "notes.txt").write_text("not a build")
    (cache / "_stencil-abc.tmp").write_text("a build in progress")
    # a CPython-extension build, which an older checkout sharing the cache loads
    extension = cache / f"_stencil-{0:064x}.cpython-311-x86_64-linux-gnu.so"
    extension.write_bytes(b"oldest build")
    extension.chmod(0o755)
    os.utime(extension, ns=(0, 0))
    _backend.evict_old_builds(str(cache))
    left = sorted(p.name for p in cache.iterdir())
    kept = sorted(p.name for p in builds[-_backend.KEEP_BUILDS:])
    spared = [shared.name, extension.name, "notes.txt", "_stencil-abc.tmp"]
    assert left == sorted(kept + spared)


def test_compile_miss_evicts_older_builds(tmp_path):
    old = fake_builds(tmp_path / "cache" / "rtmcloud", 4)
    name, _, kernel = probe(tmp_path)
    assert name == "c"
    newest = [p.name for p in old[-(_backend.KEEP_BUILDS - 1):]]
    assert cached_files(tmp_path) == sorted(newest + [Path(kernel).name])


def test_cache_hit_evicts_nothing(tmp_path, seed):
    probe(tmp_path)
    fake_builds(tmp_path / "cache" / "rtmcloud", 4)
    before = cached_files(tmp_path)
    probe(tmp_path)
    assert cached_files(tmp_path) == before
