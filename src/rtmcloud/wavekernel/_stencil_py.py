"""Pure-NumPy time-window kernels (fallback when the compiled extension is absent).

Same contract as the C extension ``_stencil``: fourth-order Laplacian in
space, leapfrog in time, sponge damping folded into the update.  Kernels
only touch the interior (two-cell halo excluded), so halo cells act as a
zero Dirichlet rim and stay zero for the whole run.

A call advances the fields over a window of steps ``[n0, n1)`` and does
each step's injection and extraction at bilinear cells, given as flat
indices into the padded grid and weights, both shaped ``(n_positions, 4)``.
It returns the fields in their roles after the window, so a propagation
split into any windows steps exactly as one window over the whole range.

The step kernels make no full-grid temporaries: every ufunc writes through
``out=`` into three interior-sized scratch planes, and the result goes into
the interior of ``nxt`` with one final write.  Every operation follows the
C kernel's order term for term, and injection adds in ``np.add.at`` order,
so the fields are bitwise equal to ``_stencil``'s.
"""

import numpy as np

_C0 = -2.5
_C1 = 4.0 / 3.0
_C2 = -1.0 / 12.0


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
    """One damped leapfrog step: nxt = mask*(2*cur - prv + vdt2*lap(cur)).

    Also damps ``cur`` in place (it becomes the previous field of the next
    step, which carries one factor of the sponge mask).
    """
    lap, a, b = _scratch(cur)
    _laplacian(cur, lap, a, b, inv_dz2, inv_dx2)
    lap *= vdt2[2:-2, 2:-2]
    np.multiply(cur[2:-2, 2:-2], 2.0, out=a)
    a -= prv[2:-2, 2:-2]
    lap += a
    np.multiply(lap, mask[2:-2, 2:-2], out=nxt[2:-2, 2:-2])
    cur[2:-2, 2:-2] *= mask[2:-2, 2:-2]


def _adjoint_step(prv, cur, nxt, w, vdt2, mask, inv_dz2, inv_dx2):
    """Exact transpose of ``_forward_step`` run in reverse time.

    Computes nxt = 2*mask*cur - mask*prv + lap(vdt2*mask*cur) and replaces
    ``prv`` with mask*cur in place; ``w`` is caller-provided scratch.
    """
    lap, a, b = _scratch(cur)
    m, p, wi = mask[2:-2, 2:-2], prv[2:-2, 2:-2], w[2:-2, 2:-2]
    np.multiply(vdt2[2:-2, 2:-2], m, out=wi)
    wi *= cur[2:-2, 2:-2]
    _laplacian(w, lap, a, b, inv_dz2, inv_dx2)
    np.multiply(m, p, out=a)
    np.multiply(m, cur[2:-2, 2:-2], out=p)
    np.multiply(p, 2.0, out=b)
    b -= a
    np.add(lap, b, out=nxt[2:-2, 2:-2])


def forward_window(n0, n1, prv, cur, nxt, vdt2, mask, inv_dz2, inv_dx2,
                   src_idx, src_w, q, rec_idx, rec_w, traces, frames, top, left):
    """Forward steps ``n0 .. n1-1``; returns ``(prv, cur, nxt)`` after them.

    Step n injects ``src_w * q[n]`` at the source cells, then writes the
    receiver traces to ``traces[n]`` and the ``frames.shape[1:]`` interior
    at row ``top``, column ``left`` to ``frames[n]``; either output may be
    None.
    """
    for n in range(n0, n1):
        _forward_step(prv, cur, nxt, vdt2, mask, inv_dz2, inv_dx2)
        flat = nxt.reshape(-1)
        np.add.at(flat, src_idx, src_w * q[n])
        if traces is not None:
            traces[n] = _corners(flat[rec_idx] * rec_w)
        if frames is not None:
            frames[n] = nxt[top : top + frames.shape[1], left : left + frames.shape[2]]
        prv, cur, nxt = cur, nxt, prv
    return prv, cur, nxt


def adjoint_window(n0, n1, prv, cur, nxt, w, vdt2, mask, inv_dz2, inv_dx2, rec_idx, rec_w,
                   data, src_idx, src_w, q_star, frames, image, image_skip_until, top, left):
    """Adjoint steps ``n1-1`` down to ``n0``; returns ``(prv, cur, nxt)`` after them.

    Step n injects ``rec_w * data[n]`` at the receiver cells, then writes
    the source-cell sum to ``q_star[n]`` and, when ``n > image_skip_until``,
    adds ``frames[n]`` times the interior at (``top``, ``left``) to
    ``image``.  ``q_star`` (with the source cells) and ``frames`` with
    ``image`` may be None; ``w`` is scratch.
    """
    for n in range(n1 - 1, n0 - 1, -1):
        _adjoint_step(prv, cur, nxt, w, vdt2, mask, inv_dz2, inv_dx2)
        flat = nxt.reshape(-1)
        np.add.at(flat, rec_idx, rec_w * data[n][:, None])
        if q_star is not None:
            q_star[n] = _corners(flat[src_idx] * src_w)[0]
        if image is not None and n > image_skip_until:
            image += frames[n] * nxt[top : top + image.shape[0], left : left + image.shape[1]]
        cur, nxt = nxt, cur
    return prv, cur, nxt
