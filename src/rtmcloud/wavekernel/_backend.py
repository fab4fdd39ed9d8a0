"""Kernel backend selection: ``_stencil.c`` compiled on first use, NumPy otherwise.

The first import compiles ``_stencil.c`` with the system C compiler into a
per-user cache, ``$XDG_CACHE_HOME/rtmcloud`` (default ``~/.cache/rtmcloud``),
under a name keyed by the sha256 of the source, the compiler flags and the
extension ABI; later imports in fresh interpreters load that file, and
forked map workers inherit the module already loaded.  An edited
``_stencil.c`` gets a new key, so a stale build is never loaded, and each
compile removes this user's builds beyond the newest ``KEEP_BUILDS``.  If
the home cache cannot be written, the cache is ``<tmp>/rtmcloud-<uid>``.  A
cache directory or file owned by another user, or writable by group or
others, is refused and never removed.

With no compiler, a failed compile or a failed load, the NumPy kernels in
``_stencil_py`` run instead and ``backend_reason()`` says why.  Set
RTMCLOUD_PURE_PYTHON=1 to use them without trying the compiler.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os

from . import _stencil_py

# No fused multiply-add: fields stay bitwise equal to the NumPy fallback.
CFLAGS = "-O3 -ffp-contract=off -shared -fPIC"
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_stencil.c")
NO_COMPILER = "no C compiler (gcc or cc) on PATH"
KEEP_BUILDS = 3
_EXT_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def cache_key(source: bytes, flags: str = CFLAGS, abi: str = _EXT_SUFFIX) -> str:
    """sha256 over the kernel source, the compiler flags and the ABI suffix."""
    h = hashlib.sha256(source)
    for part in (flags, abi):
        h.update(b"\0" + part.encode())
    return h.hexdigest()


def _cache_dir() -> str:
    """The home cache if it can be written, else a per-user temp directory."""
    home = os.path.join(
        os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "rtmcloud"
    )
    try:
        os.makedirs(home, mode=0o700, exist_ok=True)
        if os.access(home, os.W_OK | os.X_OK):
            return home
    except OSError:
        pass
    import tempfile

    tmp = os.path.join(tempfile.gettempdir(), f"rtmcloud-{os.getuid()}")
    os.makedirs(tmp, mode=0o700, exist_ok=True)
    return tmp


def untrusted(path: str) -> str | None:
    """Why another user could have written ``path``, or None if only we can."""
    st = os.stat(path)
    if st.st_uid != os.getuid():
        return f"{path} is owned by uid {st.st_uid}, not {os.getuid()}"
    if st.st_mode & 0o022:
        return f"{path} is writable by group or others (mode {st.st_mode & 0o777:o})"
    return None


def _compile(target: str) -> str | None:
    """Build SOURCE into ``target``; the reason it failed, or None."""
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        return NO_COMPILER
    # A private temp name, moved into place whole: concurrent builds are harmless.
    fd, tmp = tempfile.mkstemp(prefix="_stencil-", suffix=".tmp", dir=os.path.dirname(target))
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *CFLAGS.split(), "-I", sysconfig.get_paths()["include"], SOURCE, "-o", tmp],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            return f"{os.path.basename(cc)} exited {proc.returncode}: {tail}"
        os.chmod(tmp, 0o755)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return None


def evict_old_builds(cache: str) -> None:
    """Remove our kernel builds in ``cache`` beyond the newest KEEP_BUILDS;
    files ``untrusted`` refuses are left alone.  Never raises."""
    builds = []
    try:
        for name in os.listdir(cache):
            path = os.path.join(cache, name)
            if name.startswith("_stencil-") and name.endswith(_EXT_SUFFIX) and not untrusted(path):
                builds.append((os.stat(path).st_mtime_ns, path))
        for _, path in sorted(builds, reverse=True)[KEEP_BUILDS:]:
            os.unlink(path)
    except OSError:
        pass  # a build removed under us, or one we may not remove: keep it


def load_stencil():
    """(compiled module, None), or (None, the reason it is unavailable); never raises."""
    try:
        with open(SOURCE, "rb") as f:
            key = cache_key(f.read())
        cache = _cache_dir()
        reason = untrusted(cache)
        if reason:
            return None, f"refusing cache directory: {reason}"
        path = os.path.join(cache, f"_stencil-{key}{_EXT_SUFFIX}")
        if not os.path.exists(path):
            reason = _compile(path)
            if reason:
                return None, reason
            evict_old_builds(cache)
        reason = untrusted(path)
        if reason:
            return None, f"refusing cached kernel: {reason}"
        spec = importlib.util.spec_from_file_location(f"{__package__}._stencil", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module, None
    except Exception as exc:  # import must succeed: any failure selects the fallback
        return None, f"{type(exc).__name__}: {exc}"


if os.environ.get("RTMCLOUD_PURE_PYTHON") == "1":
    impl, REASON = _stencil_py, "RTMCLOUD_PURE_PYTHON=1"
else:
    impl, REASON = load_stencil()
    if impl is None:
        impl = _stencil_py
BACKEND = "python" if impl is _stencil_py else "c"


def backend_name() -> str:
    return BACKEND


def backend_reason() -> str | None:
    """Why the NumPy fallback runs, or None when the compiled kernels do."""
    return REASON
