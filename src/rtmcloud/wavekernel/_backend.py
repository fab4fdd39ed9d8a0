"""Kernel backend selection: ``_stencil.c`` compiled on first use, NumPy otherwise.

The first import compiles ``_stencil.c``, plain C with no Python headers,
with the system C compiler into ``_stencil-<key>.so`` in a per-user cache,
``$XDG_CACHE_HOME/rtmcloud`` (default ``~/.cache/rtmcloud``), keyed by the
sha256 of the source, the compiler flags and the machine, and loads it with
``ctypes``; later imports load the cached file, and forked map workers
inherit it loaded.  An edited ``_stencil.c`` gets a new key, so a stale
build is never loaded, and each compile removes this user's builds beyond
the newest ``KEEP_BUILDS``.  If the home cache cannot be written, the cache
is ``<tmp>/rtmcloud-<uid>``.  A cache directory or file owned by another
user, or writable by group or others, is refused and never removed.

The compile takes about 0.9 s, once per cache: on x86-64 Linux with GCC 12
or later, ``_stencil.c`` builds each window three times, for x86-64-v4,
x86-64-v3 and baseline x86-64 (``target_clones``), and the dynamic loader's
ifunc resolver binds the best copy for the host CPU when ``ctypes`` loads
the library; ``Kernel.isa`` and ``backend_isa()`` name it.  There is no
``-march=native`` and no CPU identity in the key, on purpose: a native
build cached on an AVX-512 host would be loaded by an AVX2 host sharing the
cache, and every map worker would die of SIGILL, while the clone build runs
on any x86-64 CPU.  ``-ffp-contract=off`` keeps even the FMA-capable copies
from fusing a multiply-add, so every copy's fields are bitwise equal to the
others' and to the NumPy fallback's.

With no compiler, a failed compile or a failed load, the NumPy kernels in
``_stencil_py`` run instead and ``backend_reason()`` says why.  Set
RTMCLOUD_PURE_PYTHON=1 to use them without trying the compiler.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import sys

from . import _stencil_py
from ._stencil_py import CPlan

# No fused multiply-add, in any clone: fields stay bitwise equal to the NumPy fallback.
CFLAGS = "-O3 -ffp-contract=off -shared -fPIC"
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_stencil.c")
NO_COMPILER = "no C compiler (gcc or cc) on PATH"
KEEP_BUILDS = 3
SUFFIX = ".so"
MACHINE = f"{sys.platform}-{os.uname().machine}"


def cache_key(source: bytes, flags: str = CFLAGS, machine: str = MACHINE) -> str:
    """sha256 over the kernel source, the compiler flags and the machine."""
    h = hashlib.sha256(source)
    for part in (flags, machine):
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


def _compile(target: str, flags: str = CFLAGS) -> str | None:
    """Build SOURCE into ``target``; the reason it failed, or None."""
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        return NO_COMPILER
    # A private temp name, moved into place whole: concurrent builds are harmless.
    fd, tmp = tempfile.mkstemp(prefix="_stencil-", suffix=".tmp", dir=os.path.dirname(target))
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *flags.split(), SOURCE, "-o", tmp],
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
    files ``untrusted`` refuses are left alone.  Never raises.

    Only ``_stencil-<key>.so`` names count: the ABI-tagged names of the
    CPython-extension builds that older checkouts load from the same cache
    (``_stencil-<key>.cpython-311-x86_64-linux-gnu.so``) are theirs to evict.
    """
    builds = []
    try:
        for name in os.listdir(cache):
            path = os.path.join(cache, name)
            ours = name.startswith("_stencil-") and name.endswith(SUFFIX) and name.count(".") == 1
            if ours and not untrusted(path):
                builds.append((os.stat(path).st_mtime_ns, path))
        for _, path in sorted(builds, reverse=True)[KEEP_BUILDS:]:
            os.unlink(path)
    except OSError:
        pass  # a build removed under us, or one we may not remove: keep it


def _window(fn):
    """The window ``window(plan, n0, n1)`` that steps in the C function ``fn``."""
    fn.argtypes, fn.restype = [ctypes.POINTER(CPlan), ctypes.c_ssize_t, ctypes.c_ssize_t], None

    def window(plan, n0, n1):
        steps = plan.window(n0, n1)
        fn(plan.c, steps.start, steps.stop)
        plan.rotate(len(steps))

    return window


class Kernel:
    """The library's windows, called as ``_stencil_py``'s are, on a plan; a
    library whose ``Plan`` is not the size of ``CPlan`` is refused."""

    def __init__(self, path: str):
        self.__file__ = path
        lib = ctypes.CDLL(path)
        lib.plan_size.restype = ctypes.c_size_t
        if lib.plan_size() != ctypes.sizeof(CPlan):
            raise ValueError(f"the library's Plan is {lib.plan_size()} bytes, "
                             f"_stencil_py.CPlan {ctypes.sizeof(CPlan)}")
        self.forward_window = _window(lib.forward_window)
        self.adjoint_window = _window(lib.adjoint_window)
        lib.kernel_isa.restype = ctypes.c_char_p
        # the copy of the windows the loader bound, e.g. "x86-64-v3"
        self.isa = lib.kernel_isa().decode()


def load_stencil():
    """(compiled ``Kernel``, None), or (None, the reason it is unavailable); never raises."""
    try:
        with open(SOURCE, "rb") as f:
            key = cache_key(f.read())
        cache = _cache_dir()
        reason = untrusted(cache)
        if reason:
            return None, f"refusing cache directory: {reason}"
        path = os.path.join(cache, f"_stencil-{key}{SUFFIX}")
        if not os.path.exists(path):
            reason = _compile(path)
            if reason:
                return None, reason
            evict_old_builds(cache)
        reason = untrusted(path)
        if reason:
            return None, f"refusing cached kernel: {reason}"
        return Kernel(path), None
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


def backend_isa() -> str | None:
    """The instruction-set level of the compiled windows that run ("x86-64-v4",
    "x86-64-v3" or "default"), or None when the NumPy fallback runs."""
    return getattr(impl, "isa", None)
