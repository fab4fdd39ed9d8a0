"""Acoustic wave kernel: forward modeling, adjoint propagation, RTM imaging.

The time loop lives in ``_stencil.c``, plain C whose window calls advance
a propagation over many steps at once, and which ``_backend`` compiles on
first use into a per-user cache and calls through ``ctypes``, with a NumPy
fallback (``_stencil_py``) selected at import when it cannot be compiled or
loaded.  Both backends' windows step one ``Plan`` per propagation, whose
arguments are checked once, when it is built.
``backend_name()`` and ``backend_reason()`` say which runs and why, and
``backend_isa()`` which CPU level's copy of the C windows the loader bound.
Everything else is set-up and orchestration in ``solver``.
"""

from ._backend import backend_isa, backend_name, backend_reason
from .solver import (
    CFLViolationError,
    ImageGrid,
    NumericalBlowupError,
    ShotRecord,
    Wavelet,
    adjoint_dot_test,
    default_dt,
    forward_model,
    frame_layout,
    propagators,
    ricker,
    rtm_shot_image,
    stable_dt,
)

__all__ = [
    "CFLViolationError",
    "ImageGrid",
    "NumericalBlowupError",
    "ShotRecord",
    "Wavelet",
    "adjoint_dot_test",
    "backend_isa",
    "backend_name",
    "backend_reason",
    "default_dt",
    "forward_model",
    "frame_layout",
    "propagators",
    "ricker",
    "rtm_shot_image",
    "stable_dt",
]
