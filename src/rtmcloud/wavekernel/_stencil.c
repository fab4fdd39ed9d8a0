/* Compiled time-window kernels for the 2D acoustic leapfrog scheme.
 *
 * Mirrors _stencil_py term for term; see that module for the contract.
 * One call advances the fields over a window of steps and does each step's
 * injection, extraction, frame storage and imaging correlation as well, so
 * a propagation crosses from Python into C once per window, not once per
 * step.  Each step's stencil work is one pass over the rows: the per-row
 * helpers take restrict pointers, so gcc vectorizes them.
 *
 * Both windows take first, the first step whose frame the image reads (the
 * one after the source has died out): the stored wavefield holds frame n in
 * row n - first, for n >= first only, and the adjoint correlates only those
 * steps, so the frames of the source's active steps are never stored.
 *
 * Plain C over raw pointers and sizes, called through ctypes, that checks
 * nothing: _stencil_py.check_window has checked every argument first, so
 * the arrays are C-contiguous of the sizes passed, cell indices and the
 * frame interior lie inside the grid, every series has a row for each
 * step, the frames one for each step from first on, 0 <= first <= n1, and
 * no array a window writes overlaps another argument.
 *
 * On x86-64 ELF with glibc and GCC 12 or later, the two windows are built
 * three times, for x86-64-v4 (AVX-512), x86-64-v3 (AVX2) and baseline
 * x86-64 (SSE2), by target_clones, and the dynamic loader's ifunc resolver
 * binds the best copy the CPU supports when the library is loaded.
 * Every helper is always_inline, so each copy vectorizes the whole step
 * for its own level; kernel_isa() names the copy that runs.  One file thus
 * runs on any x86-64 CPU, so a cache shared by hosts of different CPU
 * generations never hands one a build it cannot run, as a -march=native
 * build would (every worker killed by SIGILL).  Elsewhere, or built with
 * -DDISPATCH=, there are no clones and the baseline copy runs.
 *
 * _backend.py builds this file with -ffp-contract=off, so no multiply-add
 * is fused, not even by the x86-64-v3 and v4 copies that have FMA: every
 * copy does the same IEEE operations in the same order, and the fields
 * come out bitwise the same on every CPU and platform, and equal to the
 * NumPy fallback's.
 */
#include <stddef.h>
#include <string.h>

/* The one switch for the clones: GCC 12 or later (which knows the x86-64-v*
 * levels) on x86-64 ELF with glibc (whose loader runs ifunc resolvers).
 * -DDISPATCH= builds the source without them. */
#if !defined(DISPATCH) && defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) \
    && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#define DISPATCH __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#define INLINE static inline __attribute__((always_inline))
#define CLONED 1
#else
#ifndef DISPATCH
#define DISPATCH
#endif
#define INLINE static inline
#define CLONED 0
#endif

#define C0 (-2.5)
#define C1 (4.0 / 3.0)
#define C2 (-1.0 / 12.0)

/* Fourth-order Laplacian of u at flat index k of a row-major grid nx wide. */
INLINE double laplacian(const double *u, ptrdiff_t k, ptrdiff_t nx, double inv_dz2, double inv_dx2)
{
    return (C2 * (u[k - 2 * nx] + u[k + 2 * nx]) + C1 * (u[k - nx] + u[k + nx]) + C0 * u[k]) * inv_dz2
         + (C2 * (u[k - 2] + u[k + 2]) + C1 * (u[k - 1] + u[k + 1]) + C0 * u[k]) * inv_dx2;
}

/* Row helpers: each pointer is the start of one row of its field; the
 * stencil reads two rows either side of it. */

INLINE void forward_row(double *restrict nxt, const double *restrict cur, const double *restrict prv,
                        const double *restrict vdt2, const double *restrict mask,
                        ptrdiff_t nx, double inv_dz2, double inv_dx2)
{
    for (ptrdiff_t k = 2; k < nx - 2; k++)
        nxt[k] = mask[k] * (2.0 * cur[k] - prv[k] + vdt2[k] * laplacian(cur, k, nx, inv_dz2, inv_dx2));
}

INLINE void damp_row(double *restrict u, const double *restrict mask, ptrdiff_t nx)
{
    for (ptrdiff_t k = 2; k < nx - 2; k++)
        u[k] = u[k] * mask[k];
}

INLINE void scale_row(double *restrict w, const double *restrict vdt2, const double *restrict mask,
                      const double *restrict cur, ptrdiff_t nx)
{
    for (ptrdiff_t k = 2; k < nx - 2; k++)
        w[k] = vdt2[k] * mask[k] * cur[k];
}

INLINE void adjoint_row(double *restrict nxt, double *restrict prv, const double *restrict cur,
                        const double *restrict w, const double *restrict mask,
                        ptrdiff_t nx, double inv_dz2, double inv_dx2)
{
    for (ptrdiff_t k = 2; k < nx - 2; k++) {
        nxt[k] = 2.0 * (mask[k] * cur[k]) - mask[k] * prv[k] + laplacian(w, k, nx, inv_dz2, inv_dx2);
        prv[k] = mask[k] * cur[k];
    }
}

INLINE void correlate_row(double *restrict image, const double *restrict frame,
                          const double *restrict u, ptrdiff_t n)
{
    for (ptrdiff_t k = 0; k < n; k++)
        image[k] += frame[k] * u[k];
}

/* One damped leapfrog step, nxt = mask*(2*cur - prv + vdt2*lap(cur)), then
 * cur *= mask.  Row i-2 of cur is damped as soon as row i of nxt, its last
 * reader, is done. */
INLINE void forward_pass(const double *prv, double *cur, double *nxt, const double *vdt2,
                         const double *mask, ptrdiff_t nz, ptrdiff_t nx,
                         double inv_dz2, double inv_dx2)
{
    for (ptrdiff_t i = 2; i < nz - 2; i++) {
        ptrdiff_t r = i * nx;
        forward_row(nxt + r, cur + r, prv + r, vdt2 + r, mask + r, nx, inv_dz2, inv_dx2);
        if (i >= 4)
            damp_row(cur + r - 2 * nx, mask + r - 2 * nx, nx);
    }
    for (ptrdiff_t i = nz - 4 > 2 ? nz - 4 : 2; i < nz - 2; i++)
        damp_row(cur + i * nx, mask + i * nx, nx);
}

/* Transpose of forward_pass: w = vdt2*mask*cur, nxt = 2*mask*cur -
 * mask*prv + lap(w), prv = mask*cur.  Row i+2 of w, the last one row i of
 * nxt reads, is filled just ahead of it. */
INLINE void adjoint_pass(double *prv, const double *cur, double *nxt, double *w,
                         const double *vdt2, const double *mask, ptrdiff_t nz, ptrdiff_t nx,
                         double inv_dz2, double inv_dx2)
{
    for (ptrdiff_t i = 2; i < 4 && i < nz - 2; i++)
        scale_row(w + i * nx, vdt2 + i * nx, mask + i * nx, cur + i * nx, nx);
    for (ptrdiff_t i = 2; i < nz - 2; i++) {
        ptrdiff_t r = i * nx;
        if (i + 2 < nz - 2)
            scale_row(w + r + 2 * nx, vdt2 + r + 2 * nx, mask + r + 2 * nx, cur + r + 2 * nx, nx);
        adjoint_row(nxt + r, prv + r, cur + r, w + r, mask + r, nx, inv_dz2, inv_dx2);
    }
}

/* Sum of u*w over one position's four bilinear corners, left to right. */
INLINE double corners(const double *u, const ptrdiff_t *idx, const double *w)
{
    return ((u[idx[0]] * w[0] + u[idx[1]] * w[1]) + u[idx[2]] * w[2]) + u[idx[3]] * w[3];
}

/* ---- the windows ---- */

/* Forward steps n0..n1-1 over nz x nx fields.  Step n injects sw * qs[n] at
 * the source cells si, then writes the traces of the nr receivers (cells ri,
 * weights rw) to row n of tr and, when n >= first, the fz x fx interior at
 * (top, left) to row n - first of fr; tr and fr may be NULL.  The fields'
 * roles rotate left by one per step. */
DISPATCH
void forward_window(ptrdiff_t n0, ptrdiff_t n1, ptrdiff_t nz, ptrdiff_t nx,
                    double *prv, double *cur, double *nxt, const double *vdt2, const double *mask,
                    double inv_dz2, double inv_dx2, const ptrdiff_t *si, const double *sw,
                    const double *qs, ptrdiff_t nr, const ptrdiff_t *ri, const double *rw,
                    double *tr, double *fr, ptrdiff_t first, ptrdiff_t fz, ptrdiff_t fx,
                    ptrdiff_t top, ptrdiff_t left)
{
    for (ptrdiff_t n = n0; n < n1; n++) {
        forward_pass(prv, cur, nxt, vdt2, mask, nz, nx, inv_dz2, inv_dx2);
        for (int c = 0; c < 4; c++)
            nxt[si[c]] += sw[c] * qs[n];
        for (ptrdiff_t r = 0; tr && r < nr; r++)
            tr[n * nr + r] = corners(nxt, ri + 4 * r, rw + 4 * r);
        for (ptrdiff_t i = 0; fr && n >= first && i < fz; i++)
            memcpy(fr + ((n - first) * fz + i) * fx, nxt + (top + i) * nx + left,
                   fx * sizeof(double));
        double *t = prv;
        prv = cur;
        cur = nxt;
        nxt = t;
    }
}

/* Adjoint steps n1-1 down to n0.  Step n injects rw * d[n] at the cells ri
 * of the nr receivers, then writes the sum over the source cells si,
 * weights sw, to qs[n] and, when n >= first, adds row n - first of fr times
 * the fz x fx interior at (top, left) to img; qs (with si and sw) and fr
 * with img may be NULL.  w is scratch.  cur and nxt swap roles every step. */
DISPATCH
void adjoint_window(ptrdiff_t n0, ptrdiff_t n1, ptrdiff_t nz, ptrdiff_t nx,
                    double *prv, double *cur, double *nxt, double *w, const double *vdt2,
                    const double *mask, double inv_dz2, double inv_dx2, ptrdiff_t nr,
                    const ptrdiff_t *ri, const double *rw, const double *d, const ptrdiff_t *si,
                    const double *sw, double *qs, const double *fr, double *img, ptrdiff_t first,
                    ptrdiff_t fz, ptrdiff_t fx, ptrdiff_t top, ptrdiff_t left)
{
    for (ptrdiff_t n = n1 - 1; n >= n0; n--) {
        adjoint_pass(prv, cur, nxt, w, vdt2, mask, nz, nx, inv_dz2, inv_dx2);
        for (ptrdiff_t j = 0; j < 4 * nr; j++)
            nxt[ri[j]] += rw[j] * d[n * nr + j / 4];
        if (qs)
            qs[n] = corners(nxt, si, sw);
        for (ptrdiff_t i = 0; img && n >= first && i < fz; i++)
            correlate_row(img + i * fx, fr + ((n - first) * fz + i) * fx,
                          nxt + (top + i) * nx + left, fx);
        double *t = cur;
        cur = nxt;
        nxt = t;
    }
}

/* The copy of the windows the loader bound: the resolver's own test, the
 * first of its levels the CPU supports, or "default" with no clones. */
const char *kernel_isa(void)
{
#if CLONED
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4"))
        return "x86-64-v4";
    if (__builtin_cpu_supports("x86-64-v3"))
        return "x86-64-v3";
#endif
    return "default";
}
