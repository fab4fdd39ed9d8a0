"""Acoustic wave kernel: forward modeling, adjoint propagation, RTM imaging.

The hot stencil loops live in ``_stencil``, a C extension that setup.py
builds, with a NumPy fallback (``_stencil_py``) selected at import when it
is not built; everything else is orchestration in ``solver``.
"""

from ._backend import backend_name
from .solver import (
    CFLViolationError,
    ImageGrid,
    NumericalBlowupError,
    ShotRecord,
    Wavelet,
    adjoint_dot_test,
    default_dt,
    forward_model,
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
    "backend_name",
    "default_dt",
    "forward_model",
    "ricker",
    "rtm_shot_image",
    "stable_dt",
]
