"""Pure-NumPy time-step kernels (fallback when the compiled extension is absent).

Same contract as the C extension ``_stencil``: fourth-order Laplacian in
space, leapfrog in time, sponge damping folded into the update.  Kernels
only touch the interior (two-cell halo excluded), so halo cells act as a
zero Dirichlet rim and stay zero for the whole run.
"""

import numpy as np

_C0 = -2.5
_C1 = 4.0 / 3.0
_C2 = -1.0 / 12.0


def _laplacian(u: np.ndarray, inv_dz2: float, inv_dx2: float) -> np.ndarray:
    uzz = (
        _C2 * (u[:-4, 2:-2] + u[4:, 2:-2])
        + _C1 * (u[1:-3, 2:-2] + u[3:-1, 2:-2])
        + _C0 * u[2:-2, 2:-2]
    )
    uxx = (
        _C2 * (u[2:-2, :-4] + u[2:-2, 4:])
        + _C1 * (u[2:-2, 1:-3] + u[2:-2, 3:-1])
        + _C0 * u[2:-2, 2:-2]
    )
    return uzz * inv_dz2 + uxx * inv_dx2


def forward_step(prv, cur, nxt, vdt2, mask, inv_dz2, inv_dx2):
    """One damped leapfrog step: nxt = mask*(2*cur - prv + vdt2*lap(cur)).

    Also damps ``cur`` in place (it becomes the previous field of the next
    step, which carries one factor of the sponge mask).
    """
    lap = _laplacian(cur, inv_dz2, inv_dx2)
    nxt[2:-2, 2:-2] = mask[2:-2, 2:-2] * (
        2.0 * cur[2:-2, 2:-2] - prv[2:-2, 2:-2] + vdt2[2:-2, 2:-2] * lap
    )
    cur[2:-2, 2:-2] *= mask[2:-2, 2:-2]


def adjoint_step(prv, cur, nxt, w, vdt2, mask, inv_dz2, inv_dx2):
    """Exact transpose of ``forward_step`` run in reverse time.

    Computes nxt = 2*mask*cur - mask*prv + lap(vdt2*mask*cur) and replaces
    ``prv`` with mask*cur in place; ``w`` is caller-provided scratch.
    """
    w[2:-2, 2:-2] = vdt2[2:-2, 2:-2] * mask[2:-2, 2:-2] * cur[2:-2, 2:-2]
    lap = _laplacian(w, inv_dz2, inv_dx2)
    damped_cur = mask[2:-2, 2:-2] * cur[2:-2, 2:-2]
    nxt[2:-2, 2:-2] = 2.0 * damped_cur - mask[2:-2, 2:-2] * prv[2:-2, 2:-2] + lap
    prv[2:-2, 2:-2] = damped_cur
