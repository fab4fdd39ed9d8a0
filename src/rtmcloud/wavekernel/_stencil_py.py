"""Pure-NumPy time-window kernels, the reference for the compiled ones.

Same contract as the C kernels in ``_stencil.c``: fourth-order Laplacian in
space, leapfrog in time, sponge damping folded into the update.  The
Laplacian's coefficients are ``COEFFICIENTS``, the one table: ``_backend``
refuses a library whose own differ.  Kernels only step the interior
(two-cell halo excluded), so halo cells act as a zero Dirichlet rim and
stay zero for the whole run.

A propagation is one ``Plan``, checked once, when it is built, so a bad
argument raises ValueError with nothing stepped, whichever backend runs.
A window ``window(plan, n0, n1)`` checks only its bounds and advances the
plan's fields ``(prv, cur, nxt)`` over the steps ``[n0, n1)``, with each
step's injection and extraction.  The previous field is held undamped: each
step applies the sponge mask as it reads it.  The roles rotate left by one
per step in both directions, and ``plan.fields`` holds them in their roles
after a window, so a propagation split into any windows steps exactly as
one window over the whole range.

The stored frames are float32, the only array that is not float64: the
forward rounds each frame as it writes it, and the adjoint widens each
value back to float64 as it multiplies it into the image.  The C forward
advances two steps per pass over the rows, the second ``lag`` rows behind
the first, where ``lag`` is the source cells' row span plus 3, and writes
the stored frames with non-temporal stores, past the caches; neither
changes any value, so this module steps one at a time.

The grid arrays, the three fields, ``vdt2`` and ``mask``, are nz x nx
arrays whose rows may start further apart than nx values: ``ld``, the row
stride in values, is the same for all five, and a flat cell index is
``row * ld + column``.  The C windows sweep each row in whole blocks of 8
doubles from column 2, on past the interior into the right halo, which
each row puts back, and into the dead columns past nx, where the mask and
``vdt2`` are zero; no dead column is read into an interior cell.  So ``ld``
is at least ``row_stride(nx)``, 8 * ceil((nx + 4) / 8) (145 → 152), and
each grid array views an array that holds its last row's ``ld`` values
whole; a plan refuses any other.  ``aligned_grid`` makes them as the solver
uses them: a view ``[:, :nx]`` of ``(nz, row_stride(nx))`` rows, column 2
of each on a 64-byte boundary, so every block is one cache line, which the
compiled rows' vector loads and stores never split.  The NumPy windows step
these views and index cells by (row, column), never touching the dead
columns, so any ``ld`` gives the same bits.

The step kernels make no temporaries: every ufunc writes through ``out=``
into the plan's scratch planes, and the result goes into the interior of
``nxt`` with one final write.  Every operation follows the C kernel's
order term for term, and injection adds in ``np.add.at`` order, so the
fields are bitwise equal to ``_stencil.c``'s.
"""

import ctypes
import functools
import numbers

import numpy as np

_C0 = -2.5
_C1 = 4.0 / 3.0
_C2 = -1.0 / 12.0
# The one table: _backend refuses a library whose stencil_coefficients() differ.
COEFFICIENTS = (_C0, _C1, _C2)
_FLOAT64, _FLOAT32, _INTP = np.dtype(np.float64), np.dtype(np.float32), np.dtype(np.intp)
_N, _P = ctypes.c_ssize_t, ctypes.c_void_p
# Doubles in a 64-byte cache line, the width of one AVX-512 vector.
_LANE = 8


def row_stride(nx):
    """The row stride, in values, of ``aligned_grid``'s rows: nx + 4 rounded up
    to 8, room for the C rows' last block of 8 and the two columns it reads on."""
    return -(-(nx + 4) // _LANE) * _LANE


def _rows(nz, ld):
    """Zeroed float64 (nz, ld) rows whose first row's column 2 starts on a
    64-byte boundary, as every row's does when ``ld`` is a multiple of 8."""
    buf = np.zeros(nz * ld + _LANE)
    skip = (-buf.ctypes.data // 8 - 2) % _LANE
    return buf[skip : skip + nz * ld].reshape(nz, ld)


def aligned_grid(nz, nx):
    """A zeroed float64 nz x nx grid in the windows' layout: the view
    ``[:, :nx]`` of rows ``row_stride(nx)`` values apart, column 2 of each
    on a 64-byte boundary."""
    return _rows(nz, row_stride(nx))[:, :nx]


def _whole_rows(a):
    """Whether the 2-D ``a`` is rows of contiguous values at least
    ``row_stride`` apart, viewing an array that holds its last row whole, ld
    values: the C rows sweep whole blocks of 8 on past column nx - 1."""
    (row, item), base = a.strides, a.base
    if not (item == a.itemsize and row % item == 0 and row // item >= row_stride(a.shape[1])
            and isinstance(base, np.ndarray)):
        return False
    offset = a.ctypes.data - base.ctypes.data
    return 0 <= offset and offset + len(a) * row <= base.nbytes


def _span(a):
    """Bytes from the first value of ``a`` to the end of its last."""
    return a.itemsize + sum((n - 1) * s for n, s in zip(a.shape, a.strides)) if a.size else 0


class CPlan(ctypes.Structure):
    """A plan as the C windows read it: ``Plan`` in ``_stencil.c``, field for field."""

    _fields_ = ([(name, _N) for name in "nt nz nx ld nr first fz fx pad".split()]
                + [("inv_dz2", ctypes.c_double), ("inv_dx2", ctypes.c_double), ("f", _P * 3)]
                + [(name, _P) for name in "vdt2 mask si sw ri rw qs tr fr img ring".split()])


class Plan:
    """One propagation's window arguments, checked once, when it is built.

    ``fields`` are the ``(prv, cur, nxt)`` the windows step, ``coefficients``
    are ``(vdt2, mask, inv_dz2, inv_dx2)``, and ``src`` and ``rec`` are the
    bilinear cells ``(indices, weights)``, flat indices ``row * ld +
    column`` into the padded grid and weights, both shaped
    ``(n_positions, 4)``.  The fields, ``vdt2`` and ``mask`` are grid arrays,
    all shaped and strided alike: rows of contiguous values, ``ld`` apart
    (see the module docstring).  A forward plan takes
    ``q``, an adjoint one ``data``; the rest are its optional series.  The
    frames hold the steps the image reads, step ``n`` in row
    ``n - first_frame`` for ``n >= first_frame``, each the fz x fx interior
    at (pad, pad) rounded to float32, ``(fz, fx) = frames.shape[1:]``; every
    other array is float64, the cell indices intp, and all but the grid
    arrays C-contiguous.  Building raises ValueError
    unless the arguments keep the contract for ``nt`` steps: every series
    has ``nt`` rows and the frames one for each step from ``first_frame`` on,
    which is clamped to ``nt``.  The plan keeps a reference to every array,
    so the addresses in ``c``, the struct the C windows read, stay valid.
    """

    def __init__(self, nt, fields, coefficients, src, rec, *, q=None, traces=None, data=None,
                 q_star=None, frames=None, image=None, first_frame=0, pad=0):
        if not all(isinstance(v, numbers.Integral) for v in (nt, pad, first_frame)):
            raise ValueError("nt, pad and first_frame must be integers")
        vdt2, mask, inv_dz2, inv_dx2 = coefficients
        if not all(isinstance(v, numbers.Real) for v in (inv_dz2, inv_dx2)):
            raise ValueError("inv_dz2 and inv_dx2 must be real numbers")
        if first_frame < 0:
            raise ValueError(f"first_frame={first_frame} must be >= 0")
        first_frame = min(first_frame, nt)
        forward = q is not None
        taken = []  # (array, data address, span in bytes, written by the windows)

        def take(a, name, ndim, written=False, dtype=_FLOAT64, grid=False):
            if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == ndim
                    and (_whole_rows(a) if grid else a.flags.c_contiguous)):
                kind = f"{ndim}-D {dtype} array"
                raise ValueError(f"{name} must be a {kind} of whole rows row_stride apart" if grid
                                 else f"{name} must be a C-contiguous {kind}")
            if written and not a.flags.writeable:
                raise ValueError(f"{name} must be writable")
            taken.append((a, a.ctypes.data, _span(a), written))  # .ctypes costs the most: read once
            return a

        def cells(pair, name):
            idx, w = take(pair[0], name, 2, dtype=_INTP), take(pair[1], name, 2)
            if idx.shape[1] != 4 or w.shape != idx.shape:
                raise ValueError(f"{name}: indices and weights must both be (n, 4)")
            if idx.size and (idx.min() < 0 or idx.max() >= nz * ld or (idx % ld).max() >= nx):
                raise ValueError(f"{name}: a cell index lies outside the {nz} x {nx} grid")
            return len(idx)

        def series(a, name, ndim, written=False, cols=None, rows=nt, dtype=_FLOAT64):
            a = take(a, name, ndim, written, dtype)
            if a.shape[0] < rows or (ndim == 2 and a.shape[1] != cols):
                raise ValueError(f"{name} must have at least {rows} rows"
                                 + (" and one column per receiver" if ndim == 2 else ""))

        for k, f in enumerate((*fields, vdt2, mask)):
            f = take(f, f"field {k}", 2, k < len(fields), grid=True)
            if (f.shape, f.strides) != (fields[0].shape, fields[0].strides):
                raise ValueError(f"field {k} must be shaped and strided like field 0")
        nz, nx = fields[0].shape
        ld = fields[0].strides[0] // fields[0].itemsize
        if nz < 5 or nx < 5:
            raise ValueError(f"{nz} x {nx} fields leave no interior inside the two-cell halo")
        nr = cells(rec, "receiver cells")
        # An adjoint plan needs source cells only for q_star.
        if forward or q_star is not None or src[0] is not None or src[1] is not None:
            if cells(src, "source cells") != 1:
                raise ValueError("source cells must hold one position")
        if forward:
            series(q, "q", 1)
            if traces is not None:
                series(traces, "traces", 2, True, nr)
        else:
            series(data, "data", 2, False, nr)
            if q_star is not None:
                series(q_star, "q_star", 1, True)
            if (frames is None) != (image is None):
                raise ValueError("frames and image go together")
        fz = fx = 0
        if frames is not None:
            series(frames, "frames", 3, forward, rows=nt - first_frame, dtype=_FLOAT32)
            fz, fx = frames.shape[1:]
            if image is not None and take(image, "image", 2, True).shape != (fz, fx):
                raise ValueError("image must be shaped like one frame")
            if pad < 0 or pad + fz > nz or pad + fx > nx:
                raise ValueError(f"a {fz} x {fx} interior at ({pad}, {pad}) leaves the "
                                 f"{nz} x {nx} grid")
        for i, (_, start, size, written) in enumerate(taken):
            for _, b_start, b_size, b_written in taken[i + 1:]:
                if (written or b_written) and start < b_start + b_size and b_start < start + size:
                    raise ValueError("an array the window writes overlaps another argument")

        self.nt, self.fields, self.first_frame = nt, tuple(fields), first_frame
        self.interior = np.s_[pad : pad + fz, pad : pad + fx]  # where a frame lies
        self.vdt2, self.mask, self.inv_dz2, self.inv_dx2 = coefficients
        (self.src_idx, self.src_w), (self.rec_idx, self.rec_w) = src, rec
        self.q, self.traces, self.data, self.q_star = q, traces, data, q_star
        self.frames, self.image = frames, image
        # The C adjoint's ring of w rows, ld apart, which persists unzeroed across its steps.
        self.ring = None if forward else _rows(7, ld)
        at = {id(a): start for a, start, _, _ in taken}
        ptr = [at.get(id(a)) for a in (*fields, vdt2, mask, *src, *rec, q if forward else q_star,
                                       traces if forward else data, frames, image)]
        self.c = CPlan(nt, nz, nx, ld, nr, first_frame, fz, fx, pad, inv_dz2, inv_dx2,
                       (_P * 3)(*ptr[:3]), *ptr[3:], None if forward else self.ring.ctypes.data)

    def window(self, n0, n1):
        """The steps ``range(n0, n1)``; ValueError unless ``0 <= n0 <= n1 <= nt``."""
        try:
            steps = range(n0, n1)
        except TypeError:
            raise ValueError("n0 and n1 must be integers") from None
        if not 0 <= steps.start <= steps.stop <= self.nt:
            raise ValueError(f"window [{n0}, {n1}) must have 0 <= n0 <= n1 <= nt={self.nt}")
        return steps

    def rotate(self, steps):
        """Rotate the fields' roles left by one per step, in either direction."""
        k, f = steps % 3, self.c.f
        self.fields, f[:] = self.fields[k:] + self.fields[:k], f[k:] + f[:k]

    @functools.cached_property
    def scratch(self):
        """The NumPy windows' scratch, made on first use: ``w``, then three planes."""
        nz, nx = self.fields[0].shape
        return np.zeros((nz, nx)), *np.empty((3, nz - 4, nx - 4))

    @functools.cached_property
    def cells(self):
        """The NumPy windows' source and receiver cells, made on first use, as
        (row, column) index pairs; the source's is None without source cells."""
        ld = self.c.ld
        return (None if self.src_idx is None else np.divmod(self.src_idx, ld),
                np.divmod(self.rec_idx, ld))


def _axis_term(out, tmp, far, near, mid):
    """out = C2*(far[0]+far[1]) + C1*(near[0]+near[1]) + C0*mid, using tmp."""
    np.add(far[0], far[1], out=out)
    out *= _C2
    np.add(near[0], near[1], out=tmp)
    tmp *= _C1
    out += tmp
    np.multiply(mid, _C0, out=tmp)
    out += tmp


def _laplacian(u, out, tmp_a, tmp_b, inv_dz2, inv_dx2):
    """out = uzz*inv_dz2 + uxx*inv_dx2 on the interior of ``u``."""
    mid = u[2:-2, 2:-2]
    _axis_term(tmp_a, tmp_b, (u[:-4, 2:-2], u[4:, 2:-2]), (u[1:-3, 2:-2], u[3:-1, 2:-2]), mid)
    tmp_a *= inv_dz2
    _axis_term(out, tmp_b, (u[2:-2, :-4], u[2:-2, 4:]), (u[2:-2, 1:-3], u[2:-2, 3:-1]), mid)
    out *= inv_dx2
    out += tmp_a


def _corners(p):
    """Sums of the four bilinear corner terms in the last axis, left to right."""
    return ((p[..., 0] + p[..., 1]) + p[..., 2]) + p[..., 3]


def _forward_step(p, prv, cur, nxt):
    """One damped leapfrog step of the plan ``p``:
    nxt = mask*(2*cur - mask*prv + vdt2*lap(cur)).

    ``prv`` is held undamped: the step applies the sponge as it reads it.
    """
    _, lap, a, b = p.scratch
    m = p.mask[2:-2, 2:-2]
    _laplacian(cur, lap, a, b, p.inv_dz2, p.inv_dx2)
    lap *= p.vdt2[2:-2, 2:-2]
    np.multiply(m, prv[2:-2, 2:-2], out=b)
    np.multiply(cur[2:-2, 2:-2], 2.0, out=a)
    a -= b
    lap += a
    np.multiply(lap, m, out=nxt[2:-2, 2:-2])


def _adjoint_step(p, prv, cur, nxt):
    """Exact transpose of ``_forward_step`` run in reverse time.

    Computes nxt = 2*(mask*cur) - mask*(mask*prv) + lap(w), where
    w = vdt2*mask*cur, with ``prv`` held undamped.
    """
    w, lap, a, b = p.scratch
    m, wi = p.mask[2:-2, 2:-2], w[2:-2, 2:-2]
    np.multiply(p.vdt2[2:-2, 2:-2], m, out=wi)
    wi *= cur[2:-2, 2:-2]
    _laplacian(w, lap, a, b, p.inv_dz2, p.inv_dx2)
    np.multiply(m, prv[2:-2, 2:-2], out=a)
    a *= m
    np.multiply(m, cur[2:-2, 2:-2], out=b)
    b *= 2.0
    b -= a
    np.add(lap, b, out=nxt[2:-2, 2:-2])


def forward_window(p, n0, n1):
    """Forward steps ``n0 .. n1-1`` of the plan ``p``.

    Step n injects ``src_w * q[n]`` at the source cells, then writes the
    receiver traces to ``traces[n]`` and, when ``n >= first_frame``, the
    ``fz x fx`` interior at ``(pad, pad)``, rounded to float32 by the
    assignment, to ``frames[n - first_frame]``; either output may be None.
    """
    steps, (src, rec) = p.window(n0, n1), p.cells
    for n in steps:
        prv, cur, nxt = p.fields
        _forward_step(p, prv, cur, nxt)
        np.add.at(nxt, src, p.src_w * p.q[n])
        if p.traces is not None:
            p.traces[n] = _corners(nxt[rec] * p.rec_w)
        if p.frames is not None and n >= p.first_frame:
            p.frames[n - p.first_frame] = nxt[p.interior]
        p.rotate(1)


def adjoint_window(p, n0, n1):
    """Adjoint steps ``n1-1`` down to ``n0`` of the plan ``p``.

    Step n injects ``rec_w * data[n]`` at the receiver cells, then writes
    the source-cell sum to ``q_star[n]`` and, when ``n >= first_frame``,
    adds ``frames[n - first_frame]``, widened to float64 by the multiply,
    times the interior at ``(pad, pad)`` to ``image``.  ``q_star`` (with
    the source cells) and ``frames`` with ``image`` may be None.
    """
    steps, (src, rec) = p.window(n0, n1), p.cells
    for n in reversed(steps):
        prv, cur, nxt = p.fields
        _adjoint_step(p, prv, cur, nxt)
        np.add.at(nxt, rec, p.rec_w * p.data[n][:, None])
        if p.q_star is not None:
            p.q_star[n] = _corners(nxt[src] * p.src_w)[0]
        if p.image is not None and n >= p.first_frame:
            p.image += p.frames[n - p.first_frame] * nxt[p.interior]
        p.rotate(1)
