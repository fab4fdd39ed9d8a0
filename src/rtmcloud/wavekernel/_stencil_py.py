"""Pure-NumPy time-window kernels, the reference for the compiled ones.

Same contract as the C kernels in ``_stencil.c``: fourth-order Laplacian in
space, leapfrog in time, sponge damping folded into the update.  Kernels
only touch the interior (two-cell halo excluded), so halo cells act as a
zero Dirichlet rim and stay zero for the whole run.

A call advances the fields ``(prv, cur, nxt)`` over a window of steps
``[n0, n1)`` and does each step's injection and extraction at bilinear
cells, given as flat indices into the padded grid and weights, both shaped
``(n_positions, 4)``.  The previous field is held undamped: each step
applies the sponge mask as it reads it.  The roles rotate left by one per
step in both directions, and a window returns the fields in their roles
after it, so a propagation split into any windows steps exactly as one
window over the whole range.  The adjoint's scaled field
``vdt2*mask*cur`` is scratch private to the window: there is no ``w``
argument.  Both backends' windows pass their arguments through
``check_window`` before the first step, so a bad argument raises
ValueError with nothing stepped, whichever backend runs.

The C forward advances two steps per pass over the rows, the second
``lag`` rows behind the first, where ``lag`` is the source cells' row span
plus 3, and writes the stored frames with non-temporal stores, past the
caches; neither changes any value, so this module steps one at a time.

Both windows take ``first_frame``, the first step whose frame the imaging
correlation reads.  The stored source wavefield holds the frame of step
``n`` in row ``n - first_frame``, for ``n >= first_frame`` only: the
forward window stores those steps and the adjoint window correlates only
them, so the frames of the steps where the source is still active are
never stored.

The step kernels make no full-grid temporaries beyond the adjoint's one
scaled-field plane per window: every ufunc writes through ``out=`` into
three interior-sized scratch planes, and the result goes into the interior
of ``nxt`` with one final write.  Every operation follows the
C kernel's order term for term, and injection adds in ``np.add.at`` order,
so the fields are bitwise equal to ``_stencil.c``'s.
"""

import numbers
import operator

import numpy as np

_C0 = -2.5
_C1 = 4.0 / 3.0
_C2 = -1.0 / 12.0
_FLOAT64, _INTP = np.dtype(np.float64), np.dtype(np.intp)


def check_window(n0, n1, state, coefficients, inv_d2, src, rec, *, q=None, traces=None,
                 data=None, q_star=None, frames=None, image=None, first_frame=0, top=0,
                 left=0):
    """Raise ValueError unless a window's arguments keep the contract; return
    a function that gives each argument array's data address (None for None).

    ``state`` holds the fields the window writes, ``coefficients`` the
    ``(vdt2, mask)`` it reads, ``inv_d2`` is ``(inv_dz2, inv_dx2)``, and
    ``src`` and ``rec`` are ``(indices, weights)``.  A forward window passes
    ``q``, an adjoint one ``data``; the rest are its optional series.  The C
    kernels trust all of this.
    """
    try:
        n0, n1, top, left, first_frame = map(operator.index, (n0, n1, top, left, first_frame))
    except TypeError:
        raise ValueError("n0, n1, top, left and first_frame must be integers") from None
    if not all(isinstance(v, numbers.Real) for v in inv_d2):
        raise ValueError("inv_dz2 and inv_dx2 must be real numbers")
    if not 0 <= n0 <= n1:
        raise ValueError(f"window [{n0}, {n1}) must have 0 <= n0 <= n1")
    if first_frame < 0:
        raise ValueError(f"first_frame={first_frame} must be >= 0")
    forward = q is not None
    taken = []  # (array, data address, size in bytes, written by the window)

    def take(a, name, ndim, written=False, dtype=_FLOAT64):
        if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == ndim
                and a.flags.c_contiguous):
            raise ValueError(f"{name} must be a C-contiguous {ndim}-D {dtype} array")
        if written and not a.flags.writeable:
            raise ValueError(f"{name} must be writable")
        taken.append((a, a.ctypes.data, a.nbytes, written))  # .ctypes costs the most: read once
        return a

    def cells(pair, name):
        idx, w = take(pair[0], name, 2, dtype=_INTP), take(pair[1], name, 2)
        if idx.shape[1] != 4 or w.shape != idx.shape:
            raise ValueError(f"{name}: indices and weights must both be (n, 4)")
        if idx.size and (idx.min() < 0 or idx.max() >= ncells):
            raise ValueError(f"{name}: a cell index lies outside the {ncells}-cell grid")
        return len(idx)

    def series(a, name, ndim, written=False, cols=None, rows=n1):
        if take(a, name, ndim, written).shape[0] < rows or (ndim == 2 and a.shape[1] != cols):
            raise ValueError(f"{name} must have at least {rows} rows"
                             + (" and one column per receiver" if ndim == 2 else ""))

    for k, f in enumerate((*state, *coefficients)):
        if take(f, f"field {k}", 2, k < len(state)).shape != state[0].shape:
            raise ValueError(f"field {k} must be shaped like field 0")
    nz, nx = state[0].shape
    if nz < 5 or nx < 5:
        raise ValueError(f"{nz} x {nx} fields leave no interior inside the two-cell halo")
    ncells = nz * nx
    nr = cells(rec, "receiver cells")
    # An adjoint window needs source cells only for q_star.
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
    if frames is not None:
        series(frames, "frames", 3, forward, rows=max(n1 - first_frame, 0))
        fz, fx = frames.shape[1:]
        if image is not None and take(image, "image", 2, True).shape != (fz, fx):
            raise ValueError("image must be shaped like one frame")
        if top < 0 or left < 0 or top + fz > nz or left + fx > nx:
            raise ValueError(f"a {fz} x {fx} interior at ({top}, {left}) leaves the "
                             f"{nz} x {nx} grid")
    for i, (_, start, size, written) in enumerate(taken):
        for _, b_start, b_size, b_written in taken[i + 1:]:
            if (written or b_written) and start < b_start + b_size and b_start < start + size:
                raise ValueError("an array the window writes overlaps another argument")
    addresses = {id(a): start for a, start, _, _ in taken}
    return lambda a: None if a is None else addresses[id(a)]


def _scratch(a):
    # One block, not three arrays: after the first call malloc serves it
    # from the heap instead of mapping and faulting in fresh pages.
    return np.empty((3, a.shape[0] - 4, a.shape[1] - 4))


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


def _forward_step(prv, cur, nxt, vdt2, mask, inv_dz2, inv_dx2):
    """One damped leapfrog step: nxt = mask*(2*cur - mask*prv + vdt2*lap(cur)).

    ``prv`` is held undamped: the step applies the sponge as it reads it.
    """
    lap, a, b = _scratch(cur)
    m = mask[2:-2, 2:-2]
    _laplacian(cur, lap, a, b, inv_dz2, inv_dx2)
    lap *= vdt2[2:-2, 2:-2]
    np.multiply(m, prv[2:-2, 2:-2], out=b)
    np.multiply(cur[2:-2, 2:-2], 2.0, out=a)
    a -= b
    lap += a
    np.multiply(lap, m, out=nxt[2:-2, 2:-2])


def _adjoint_step(prv, cur, nxt, w, vdt2, mask, inv_dz2, inv_dx2):
    """Exact transpose of ``_forward_step`` run in reverse time.

    Computes nxt = 2*(mask*cur) - mask*(mask*prv) + lap(vdt2*mask*cur), with
    ``prv`` held undamped; ``w`` is scratch whose halo stays zero.
    """
    lap, a, b = _scratch(cur)
    m, wi = mask[2:-2, 2:-2], w[2:-2, 2:-2]
    np.multiply(vdt2[2:-2, 2:-2], m, out=wi)
    wi *= cur[2:-2, 2:-2]
    _laplacian(w, lap, a, b, inv_dz2, inv_dx2)
    np.multiply(m, prv[2:-2, 2:-2], out=a)
    a *= m
    np.multiply(m, cur[2:-2, 2:-2], out=b)
    b *= 2.0
    b -= a
    np.add(lap, b, out=nxt[2:-2, 2:-2])


def forward_window(n0, n1, prv, cur, nxt, vdt2, mask, inv_dz2, inv_dx2,
                   src_idx, src_w, q, rec_idx, rec_w, traces, frames, first_frame, top, left):
    """Forward steps ``n0 .. n1-1``; returns ``(prv, cur, nxt)`` after them.

    Step n injects ``src_w * q[n]`` at the source cells, then writes the
    receiver traces to ``traces[n]`` and, when ``n >= first_frame``, the
    ``frames.shape[1:]`` interior at row ``top``, column ``left`` to
    ``frames[n - first_frame]``; either output may be None.
    """
    check_window(n0, n1, (prv, cur, nxt), (vdt2, mask), (inv_dz2, inv_dx2), (src_idx, src_w),
                 (rec_idx, rec_w), q=q, traces=traces, frames=frames, first_frame=first_frame,
                 top=top, left=left)
    for n in range(n0, n1):
        _forward_step(prv, cur, nxt, vdt2, mask, inv_dz2, inv_dx2)
        flat = nxt.reshape(-1)
        np.add.at(flat, src_idx, src_w * q[n])
        if traces is not None:
            traces[n] = _corners(flat[rec_idx] * rec_w)
        if frames is not None and n >= first_frame:
            frames[n - first_frame] = nxt[top : top + frames.shape[1],
                                          left : left + frames.shape[2]]
        prv, cur, nxt = cur, nxt, prv
    return prv, cur, nxt


def adjoint_window(n0, n1, prv, cur, nxt, vdt2, mask, inv_dz2, inv_dx2, rec_idx, rec_w,
                   data, src_idx, src_w, q_star, frames, image, first_frame, top, left):
    """Adjoint steps ``n1-1`` down to ``n0``; returns ``(prv, cur, nxt)`` after them.

    Step n injects ``rec_w * data[n]`` at the receiver cells, then writes
    the source-cell sum to ``q_star[n]`` and, when ``n >= first_frame``,
    adds ``frames[n - first_frame]`` times the interior at (``top``,
    ``left``) to ``image``.  ``q_star`` (with the source cells) and
    ``frames`` with ``image`` may be None.
    """
    check_window(n0, n1, (prv, cur, nxt), (vdt2, mask), (inv_dz2, inv_dx2), (src_idx, src_w),
                 (rec_idx, rec_w), data=data, q_star=q_star, frames=frames, image=image,
                 first_frame=first_frame, top=top, left=left)
    w = np.zeros_like(cur)  # the scaled field, private to this window
    for n in range(n1 - 1, n0 - 1, -1):
        _adjoint_step(prv, cur, nxt, w, vdt2, mask, inv_dz2, inv_dx2)
        flat = nxt.reshape(-1)
        np.add.at(flat, rec_idx, rec_w * data[n][:, None])
        if q_star is not None:
            q_star[n] = _corners(flat[src_idx] * src_w)[0]
        if image is not None and n >= first_frame:
            image += frames[n - first_frame] * nxt[top : top + image.shape[0],
                                                   left : left + image.shape[1]]
        prv, cur, nxt = cur, nxt, prv
    return prv, cur, nxt
