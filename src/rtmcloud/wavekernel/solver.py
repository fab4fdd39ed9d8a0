"""Single-shot acoustic modeling, migration, and the operator adjoint test.

Constant-density 2D acoustic wave equation, fourth-order centered stencil in
space, second-order leapfrog in time, sponge absorbing layers.  The adjoint
propagator is the exact discrete transpose of the forward one, which is what
makes the dot test pass at machine precision and the migration operator a
true adjoint of modeling.

The model is padded on every side with ``SPONGE_CELLS`` = 20 sponge cells,
which damp the field by ``exp(-SPONGE_COEFF * (depth / SPONGE_CELLS)**2)``
per step with ``SPONGE_COEFF`` = 0.1, and a ``HALO`` of 2 cells, a Dirichlet
rim that never updates: the default 101² model runs on a 145² grid.  Against
a reference whose rim is too far out to answer within the 1.4 s record, one
default shot's traces differ by 3.8% of the reference's peak
(``test_boundary_reflection_below_5_percent`` holds it under 5%), and default
shot 0's image by 0.75% in relative L2
(``test_default_image_matches_far_rim_reference`` holds it under 2%).

Here each propagation is set up as one checked ``Plan``; its time loop runs
in the kernels' windows on that plan, one call per ``_FINITE_CHECK_EVERY``
steps, with a finiteness check between.  The padded grid's arrays, the three
fields, ``vdt2`` and ``mask``, come from ``aligned_grid``: nz x nx views of
rows ``ld`` values apart, ``ld`` = nx rounded up to 8 doubles (145 → 152 at
the default config), with column ``HALO`` of every row on a 64-byte
boundary, and the cell indices ``interp_cells`` makes are ``row * ld +
column``.  Only the kernels' speed sees the layout: the columns past nx are
never read or written, and the frames and images are plain (nz, nx) arrays.

The stored source wavefield lives in the caller's buffer, which
``forward_model`` fills and ``rtm_shot_image`` reads: the interior frames of
steps ``first_frame .. nt-1``, frame ``n`` in row ``n - first_frame``, a
float32 array shaped ``(nt - first_frame, nz, nx)``.
``first_frame`` is the step after the source dies out (``frame_layout``);
the imaging correlation skips the earlier steps, so their frames are never
stored.  The frames are the one array stored in single precision, as the
source paper's kernels store every wavefield: the imaging correlation only
reads them, so rounding them halves the largest array of a shot and moves
the default images by about 1e-8 in relative L2
(``test_float32_frames_image_matches_float64_reference`` bounds it at
1e-6).  The fields, the traces and the image stay float64, so the adjoint
stays the exact transpose of the forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..blobstore import KIND_IMAGE, KIND_SHOTREC, ImageBlob
from ..survey import ShotGatherPlan, VelocityModel2D
from ._backend import backend_name, impl
from ._stencil_py import _C0, _C1, _C2, Plan, aligned_grid, row_stride

SPONGE_CELLS = 20
SPONGE_COEFF = 0.1
HALO = 2
# stable_dt's share of the scheme's limit.  Below 1 any share is stable; at
# 0.95, a model 10% faster than the one its default dt was chosen for still
# runs (a Courant number of 0.560 against a bound of 0.582).
CFL_SAFETY = 0.95
_FINITE_CHECK_EVERY = 128


class CFLViolationError(ValueError):
    """Requested dt exceeds the stable step for this model/grid."""

    def __init__(self, dt: float, stable_dt: float):
        super().__init__(
            f"dt={dt:g} s violates the CFL bound; largest stable dt is {stable_dt:g} s"
        )
        self.stable_dt = stable_dt


class NumericalBlowupError(FloatingPointError):
    """Non-finite values appeared during time stepping."""


@dataclass(frozen=True)
class Wavelet:
    samples: np.ndarray = field(repr=False)
    dt: float
    peak_frequency: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1 or s.size < 2:
            raise ValueError("wavelet needs at least 2 samples")
        if self.dt <= 0:
            raise ValueError("wavelet dt must be positive")
        object.__setattr__(self, "samples", s)

    def scaled(self, factor: float) -> "Wavelet":
        return Wavelet(self.samples * factor, self.dt, self.peak_frequency)


@dataclass(frozen=True)
class ShotRecord:
    shot_id: int
    receivers: tuple
    dt: float
    nt: int
    traces: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.traces, dtype=np.float64)
        if t.shape != (self.nt, len(self.receivers)):
            raise ValueError(
                f"traces shape {t.shape} != (nt={self.nt}, n_receivers={len(self.receivers)})"
            )
        if not np.isfinite(t).all():
            raise ValueError("shot record contains non-finite samples")
        object.__setattr__(self, "traces", t)
        object.__setattr__(self, "receivers", tuple(tuple(p) for p in self.receivers))

    def scaled(self, factor: float) -> "ShotRecord":
        return ShotRecord(self.shot_id, self.receivers, self.dt, self.nt, self.traces * factor)

    def to_blob(self) -> ImageBlob:
        # Trace panel rides in the grid payload: rows = time, cols = receivers.
        # Row n holds the field at (n + 1) * dt: the step injects q[n], then
        # samples the field it made, so the time origin is dt.
        return ImageBlob(
            KIND_SHOTREC, self.nt, len(self.receivers), self.dt, 0.0, self.dt, 0.0, 1, self.traces
        )


@dataclass(frozen=True)
class ImageGrid:
    nz: int
    nx: int
    dz: float
    dx: float
    oz: float
    ox: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.nz, self.nx):
            raise ValueError(f"image shape {v.shape} != ({self.nz}, {self.nx})")
        if not np.isfinite(v).all():
            raise ValueError("image contains non-finite values")
        object.__setattr__(self, "values", v)

    def to_blob(self, leaf_count: int = 1) -> ImageBlob:
        return ImageBlob(
            KIND_IMAGE, self.nz, self.nx, self.dz, self.dx, self.oz, self.ox, leaf_count, self.values
        )

    @classmethod
    def from_blob(cls, blob: ImageBlob) -> "ImageGrid":
        return cls(blob.nz, blob.nx, blob.dz, blob.dx, blob.oz, blob.ox, blob.values)


def stable_dt(model: VelocityModel2D) -> float:
    """Largest accepted dt: ``CFL_SAFETY`` times the scheme's stability limit.

    The leapfrog stays bounded while dt² v_max² λ ≤ 4, where λ, the largest
    eigenvalue of minus the stencil's Laplacian, is (|C0| + 2|C1| + 2|C2|) ·
    (1/dz² + 1/dx²), the coefficients taken from the kernels' own table and
    summing to 16/3: a Courant number v·dt/h of 2/√(2·16/3) = 0.612 when
    dz == dx, and 0.582 with the safety factor.
    """
    taps = abs(_C0) + 2 * (abs(_C1) + abs(_C2))
    lam = taps * (1.0 / model.dz**2 + 1.0 / model.dx**2)
    return CFL_SAFETY * 2.0 / (float(model.v.max()) * math.sqrt(lam))


def default_dt(model: VelocityModel2D) -> float:
    """The default step: a Courant number v·dt/min(dz, dx) of 0.72/√2 =
    0.509, 83% of the scheme's limit when dz == dx.  Written out, not
    derived from ``stable_dt``, so that every default image keeps its bits."""
    return 0.8 * (0.9 * min(model.dz, model.dx) / (math.sqrt(2.0) * float(model.v.max())))


def ricker(peak_frequency: float, dt: float, nt: int) -> Wavelet:
    """Ricker wavelet, peak amplitude 1 at t = 1.5/peak_frequency."""
    if peak_frequency <= 0:
        raise ValueError("peak_frequency must be positive")
    if nt * dt < 2.0 / peak_frequency:
        raise ValueError(
            f"wavelet span {nt * dt:g} s too short; need at least {2.0 / peak_frequency:g} s"
        )
    t = np.arange(nt) * dt
    tau = t - 1.5 / peak_frequency
    a = (math.pi * peak_frequency) ** 2
    w = (1.0 - 2.0 * a * tau**2) * np.exp(-a * tau**2)
    w /= np.abs(w).max()
    return Wavelet(w, dt, peak_frequency)


class _Propagator:
    """Padded grid, damping profile, and interpolation helpers for one model.

    Every grid array is an ``aligned_grid``: rows ``ld`` values apart."""

    def __init__(self, model: VelocityModel2D, dt: float):
        limit = stable_dt(model)
        if dt > limit:
            raise CFLViolationError(dt, limit)
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.model = model
        self.dt = dt
        self.pad = SPONGE_CELLS + HALO
        self.nz_pad = model.nz + 2 * self.pad
        self.nx_pad = model.nx + 2 * self.pad
        self.ld = row_stride(self.nx_pad)

        self.vdt2, self.mask = self.grid(), self.grid()
        self.vdt2[:] = (np.pad(model.v, self.pad, mode="edge") * dt) ** 2
        self.mask[:] = np.outer(self._sponge_taper(self.nz_pad), self._sponge_taper(self.nx_pad))
        self.inv_dz2 = 1.0 / model.dz**2
        self.inv_dx2 = 1.0 / model.dx**2
        self.coefficients = (self.vdt2, self.mask, self.inv_dz2, self.inv_dx2)

    @staticmethod
    def _sponge_taper(n: int) -> np.ndarray:
        """Damping along one axis of ``n`` cells: 0 on the halo, a Dirichlet
        rim that never updates, then the sponge, deepest cell first."""
        depth = np.arange(1, SPONGE_CELLS + 1)
        edge = np.concatenate([np.zeros(HALO),
                               np.exp(-SPONGE_COEFF * (depth / SPONGE_CELLS) ** 2)[::-1]])
        return np.concatenate([edge, np.ones(n - 2 * edge.size), edge[::-1]])

    def interp_cells(self, positions) -> tuple[np.ndarray, np.ndarray]:
        """Bilinear cells as flat indices ``row * ld + column`` into the padded
        grid, and their weights, both shaped (n_positions, 4)."""
        m = self.model
        x, z = np.asarray(positions, dtype=np.float64).reshape(-1, 2).T
        (x0, x1), (z0, z1) = m.extent_x, m.extent_z
        outside = ~((x0 <= x) & (x <= x1) & (z0 <= z) & (z <= z1))  # as m.contains tests
        if outside.any():
            k = int(outside.argmax())
            raise ValueError(f"position (x={x[k]:g}, z={z[k]:g}) outside the model extent")
        gz = (z - m.oz) / m.dz + self.pad
        gx = (x - m.ox) / m.dx + self.pad
        i0 = np.minimum(np.floor(gz), self.nz_pad - 2)
        j0 = np.minimum(np.floor(gx), self.nx_pad - 2)
        fz, fx = gz - i0, gx - j0
        c = i0.astype(np.intp) * self.ld + j0.astype(np.intp)
        idx = c[:, None] + np.array([0, 1, self.ld, self.ld + 1], dtype=np.intp)
        wt = np.stack(((1 - fz) * (1 - fx), (1 - fz) * fx, fz * (1 - fx), fz * fx), axis=1)
        return idx, wt

    def source_cells(self, position) -> tuple[np.ndarray, np.ndarray]:
        """The source's cells, weighted by mask*vdt2 as the update scales them."""
        idx, wt = self.interp_cells([position])
        cell = np.divmod(idx, self.ld)
        return idx, self.mask[cell] * self.vdt2[cell] * wt

    def grid(self) -> np.ndarray:  # a zero array of the padded grid, rows ld apart
        return aligned_grid(self.nz_pad, self.nx_pad)

    def fields(self) -> tuple:  # a propagation's (prv, cur, nxt), all zero
        return tuple(self.grid() for _ in range(3))


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NumericalBlowupError(
            "wavefield went non-finite during stepping (unstable dt or bad inputs)"
        )


def _windows(lo: int, hi: int, phase: int) -> list[tuple[int, int]]:
    """Windows [n0, n1) tiling [lo, hi), cut at each n = phase (mod _FINITE_CHECK_EVERY)."""
    first = lo + 1 + (phase - lo - 1) % _FINITE_CHECK_EVERY
    cuts = [lo, *range(first, hi, _FINITE_CHECK_EVERY), hi]
    return list(zip(cuts, cuts[1:]))


def _run_forward(prop, source, samples, receivers, nt, frames=None, first_frame=0):
    """Forward propagation; returns the traces.  When ``frames`` is given,
    the window writes the frames of steps ``first_frame .. nt-1`` into it."""
    src = prop.source_cells(source)
    rec = prop.interp_cells(receivers)
    q = np.zeros(nt)
    q[: len(samples)] = samples[:nt]
    traces = np.empty((nt, len(receivers)))  # the windows write every row
    plan = Plan(nt, prop.fields(), prop.coefficients, src, rec, q=q, traces=traces,
                frames=frames, first_frame=first_frame, pad=prop.pad)
    for n0, n1 in _windows(0, nt, 1):
        impl.forward_window(plan, n0, n1)
        if (n1 - 1) % _FINITE_CHECK_EVERY == 0:
            _check_finite(plan.fields[1])
    _check_finite(traces)
    return traces


def _run_adjoint(prop, receivers, data, source=None, frames=None, first_frame=0):
    """Time-reversed transpose propagation.

    Injects the data with plain bilinear weights (transpose of extraction),
    optionally extracts the adjoint source series at ``source`` and/or
    accumulates the zero-lag correlation image against the stored ``frames``
    of the steps from ``first_frame`` on.
    Returns (adjoint_source or None, image or None).
    """
    data = np.ascontiguousarray(data)
    nt = data.shape[0]
    rec = prop.interp_cells(receivers)
    src = prop.source_cells(source) if source is not None else (None, None)
    q_star = np.zeros(nt) if source is not None else None
    image = np.zeros((prop.model.nz, prop.model.nx)) if frames is not None else None
    # Without q_star, the steps before first_frame would only add skipped image terms.
    stop = 0 if q_star is not None or image is None else min(nt, first_frame)

    plan = Plan(nt, prop.fields(), prop.coefficients, src, rec, data=data, q_star=q_star,
                frames=frames, image=image, first_frame=first_frame, pad=prop.pad)
    for n0, n1 in reversed(_windows(stop, nt, -1)):
        impl.adjoint_window(plan, n0, n1)
        if (n0 + 1) % _FINITE_CHECK_EVERY == 0:
            _check_finite(plan.fields[1])
    if image is not None:
        _check_finite(image)
    return q_star, image


def _source_active_until(samples: np.ndarray, nt: int) -> int:
    """Last time index where the source still injects significant amplitude."""
    q = np.abs(samples[:nt])
    if q.size == 0 or q.max() == 0.0:
        return -1
    hot = np.nonzero(q > 1e-3 * q.max())[0]
    return int(hot.max()) if hot.size else -1


def frame_layout(model: VelocityModel2D, wavelet: Wavelet, nt: int) -> tuple[int, tuple]:
    """(first_frame, shape) of the stored source wavefield, as the module
    docstring lays it out, for ``model``, ``wavelet`` and ``nt`` steps."""
    first = _source_active_until(wavelet.samples, nt) + 1
    return first, (nt - first, model.nz, model.nx)


def _first_frame(model: VelocityModel2D, wavelet: Wavelet, nt: int, frames) -> int:
    """``frame_layout``'s first frame; ValueError unless ``frames`` has its shape."""
    first, shape = frame_layout(model, wavelet, nt)
    if np.shape(frames) != shape:
        raise ValueError(f"frames shape {np.shape(frames)} != {shape} (nt - first_frame, nz, nx)")
    return first


def forward_model(
    model: VelocityModel2D,
    source: tuple,
    wavelet: Wavelet,
    receivers,
    dt: float,
    nt: int,
    shot_id: int = 0,
    *,
    frames: np.ndarray | None = None,
) -> ShotRecord:
    """Model one shot; returns its receiver traces.  Given ``frames``, the
    caller's buffer shaped ``frame_layout(model, wavelet, nt)[1]``, it also
    writes there the stored source wavefield that ``rtm_shot_image`` reads."""
    if abs(wavelet.dt - dt) > 1e-15:
        raise ValueError(f"wavelet dt {wavelet.dt:g} != simulation dt {dt:g}")
    first = 0 if frames is None else _first_frame(model, wavelet, nt, frames)
    prop = _Propagator(model, dt)
    traces = _run_forward(prop, source, wavelet.samples, receivers, nt, frames, first)
    return ShotRecord(shot_id, tuple(receivers), dt, nt, traces)


def rtm_shot_image(
    model: VelocityModel2D,
    plan: ShotGatherPlan,
    observed: ShotRecord,
    wavelet: Wavelet,
    *,
    frames: np.ndarray,
) -> ImageGrid:
    """Migrate one shot: zero-lag cross-correlation of source and adjoint fields.

    Correlation starts once the source signature has died out, which keeps
    the sharp injection footprint at the shot location out of the image.

    ``frames`` is the caller's buffer that ``forward_model`` filled for this
    model, plan and wavelet, read as it is, never copied.  When the wavelet
    is active up to the last step, it has no row and the image is zero.
    """
    if tuple(observed.receivers) != tuple(plan.receivers):
        raise ValueError("observed record receivers do not match the shot plan")
    if abs(wavelet.dt - observed.dt) > 1e-15:
        raise ValueError("wavelet dt does not match the observed record dt")
    first = _first_frame(model, wavelet, observed.nt, frames)
    prop = _Propagator(model, observed.dt)
    _, image = _run_adjoint(prop, plan.receivers, observed.traces, frames=frames,
                            first_frame=first)
    return ImageGrid(model.nz, model.nx, model.dz, model.dx, model.oz, model.ox, image)


def adjoint_dot_test(
    model: VelocityModel2D, plan: ShotGatherPlan, wavelet_length: int, seed: int
) -> float:
    """Relative error of <F q, d> vs <q, F* d> for random q, d.

    F maps a source time series to receiver data; F* is the time-reversed
    transpose propagation.  Should be << 1e-10 in 64-bit arithmetic.
    """
    if model.nz > 201 or model.nx > 201:
        raise ValueError("adjoint test is limited to grids of at most 201x201")
    prop = _Propagator(model, default_dt(model))
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(wavelet_length)
    d = rng.standard_normal((wavelet_length, len(plan.receivers)))

    traces = _run_forward(prop, plan.source, q, plan.receivers, wavelet_length)
    q_star, _ = _run_adjoint(prop, plan.receivers, d, source=plan.source)

    forward_side = float(np.vdot(traces, d))
    adjoint_side = float(np.vdot(q, q_star))
    return abs(forward_side - adjoint_side) / abs(forward_side)


__all__ = [
    "CFLViolationError",
    "NumericalBlowupError",
    "Wavelet",
    "ShotRecord",
    "ImageGrid",
    "stable_dt",
    "default_dt",
    "ricker",
    "forward_model",
    "frame_layout",
    "rtm_shot_image",
    "adjoint_dot_test",
    "backend_name",
]
