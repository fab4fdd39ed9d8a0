"""Kernel backend selection: the C extension when built, NumPy otherwise.

Set RTMCLOUD_PURE_PYTHON=1 to use the NumPy kernels even when the C
extension is built.
"""

import os

if os.environ.get("RTMCLOUD_PURE_PYTHON") == "1":
    from . import _stencil_py as impl

    BACKEND = "python"
else:
    try:
        from . import _stencil as impl  # type: ignore[attr-defined]

        BACKEND = "c"
    except ImportError:
        from . import _stencil_py as impl

        BACKEND = "python"


def backend_name() -> str:
    return BACKEND
