/* Compiled time-window kernels for the 2D acoustic leapfrog scheme.
 *
 * Mirrors _stencil_py term for term; see that module for the contract.
 * One call advances the fields over a window of steps and does each step's
 * injection, extraction, frame storage and imaging correlation as well, so
 * a propagation crosses from Python into C once per window, not once per
 * step.  The per-row helpers take restrict pointers, so gcc vectorizes them.
 *
 * The sponge is applied on read: the previous field is stored undamped, and
 * each step multiplies it by the mask as it reads it.  That is the product
 * a separate damping pass used to store, so the bits are the same and no
 * pass over the grid does damping alone.  The adjoint's scaled field
 * w = vdt2*mask*cur lives in a ring of five rows that the plan holds, row
 * i+2 of w computed in the same loop as row i of the result, so no
 * grid-sized scratch plane is written.
 *
 * The forward advances two steps per sweep: one pass over the rows computes
 * steps n and n+1, step n+1 running lag rows behind step n, where lag =
 * (last row - first row of the source cells) + 3.  Step n injects as soon
 * as the last row of its source cells is computed, so every row step n+1
 * reads is final, injection included; source cells that span every row
 * make the lag cover the whole grid, and the two steps run one after the
 * other.  Step n+1 writes the buffer step n read as its previous field,
 * never the one holding step n's result, so both steps' traces and frames
 * are taken after the sweep.  An odd remainder runs one step through the
 * same row function.  The cur and mask rows of a sweep are read from the
 * caches once for two steps instead of once per step.  The adjoint
 * advances one step per sweep: with its five-row ring for each step, two
 * interleaved steps measured slower than one at the default grid.
 *
 * The stored wavefield holds the frames of the steps from first on (see
 * _stencil_py.Plan), each rounded to float: the adjoint only reads them,
 * widening each value back to double as it multiplies, and the fields, the
 * traces and the image stay double.  On x86-64 the forward writes them with
 * non-temporal stores, past the caches, which they would otherwise fill
 * with lines read back only by the adjoint, long after.
 *
 * Every grid array (the three fields, vdt2, mask and the adjoint's ring) is
 * rows of nx values that start ld values apart, ld >= nx: row i, column k
 * is a[i * ld + k], and a flat cell index is i * ld + k.  The columns from
 * nx to ld - 1 are dead: no step reads or writes them.  The solver pads ld
 * to a multiple of 8 doubles and places each array so that column 2, the
 * first a step writes, of every row starts on a 64-byte boundary; a row's
 * vector loads and stores then never split a cache line, which took a
 * quarter of the forward's time at the 145-wide default grid.  Any ld >= nx
 * gives the same values, only slower.
 *
 * Plain C over raw pointers and sizes, called through ctypes.  Both windows
 * take one Plan, a propagation's arguments, which _stencil_py.Plan builds
 * once and mirrors field for field; _backend refuses a library whose
 * plan_size() differs from the mirror's.  The windows check nothing: the
 * plan was checked when it was built, so the grid arrays are nz rows of ld,
 * at least 5 x 5, the other arrays C-contiguous of the sizes it gives, cell
 * indices and the frame interior lie inside the nz x nx grid, every series
 * has nt rows, the frames one for each step from first on, 0 <= first <=
 * nt, and no array the windows write overlaps another; and each window has
 * 0 <= n0 <= n1 <= nt.
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
#include <stdint.h>
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

/* Fourth-order Laplacian at column k of row u, given the values at k two
 * and one rows above (a2, a1) and one and two rows below (b1, b2). */
INLINE double laplacian(double a2, double a1, const double *u, double b1, double b2, ptrdiff_t k,
                        double inv_dz2, double inv_dx2)
{
    return (C2 * (a2 + b2) + C1 * (a1 + b1) + C0 * u[k]) * inv_dz2
         + (C2 * (u[k - 2] + u[k + 2]) + C1 * (u[k - 1] + u[k + 1]) + C0 * u[k]) * inv_dx2;
}

/* Row helpers: each pointer is the start of one row of its field. */

/* nxt = mask*(2*cur - mask*prv + vdt2*lap(cur)); cur is a row of a whole
 * field, whose rows two either side the stencil reads. */
INLINE void forward_row(double *restrict nxt, const double *restrict cur, const double *restrict prv,
                        const double *restrict vdt2, const double *restrict mask,
                        ptrdiff_t nx, ptrdiff_t ld, double inv_dz2, double inv_dx2)
{
    for (ptrdiff_t k = 2; k < nx - 2; k++)
        nxt[k] = mask[k] * (2.0 * cur[k] - mask[k] * prv[k]
                            + vdt2[k] * laplacian(cur[k - 2 * ld], cur[k - ld], cur, cur[k + ld],
                                                  cur[k + 2 * ld], k, inv_dz2, inv_dx2));
}

INLINE void scale_row(double *restrict w, const double *restrict vdt2, const double *restrict mask,
                      const double *restrict cur, ptrdiff_t nx)
{
    for (ptrdiff_t k = 2; k < nx - 2; k++)
        w[k] = vdt2[k] * mask[k] * cur[k];
}

/* nxt = 2*(mask*cur) - mask*(mask*prv) + lap(w), where w[0..3] are the rows
 * of w two above to one below this one; the row two below, w2 =
 * vdt2_2*mask_2*cur_2, is computed here and stored. */
INLINE void adjoint_row(double *restrict nxt, const double *restrict prv, const double *restrict cur,
                        const double *restrict mask, const double *const w[4],
                        double *restrict w2, const double *restrict vdt2_2,
                        const double *restrict mask_2, const double *restrict cur_2,
                        ptrdiff_t nx, double inv_dz2, double inv_dx2)
{
    const double *restrict a2 = w[0], *restrict a1 = w[1], *restrict u = w[2], *restrict b1 = w[3];
    for (ptrdiff_t k = 2; k < nx - 2; k++) {
        double b2 = vdt2_2[k] * mask_2[k] * cur_2[k];
        w2[k] = b2;
        nxt[k] = 2.0 * (mask[k] * cur[k]) - mask[k] * (mask[k] * prv[k])
               + laplacian(a2[k], a1[k], u, b1[k], b2, k, inv_dz2, inv_dx2);
    }
}

INLINE void correlate_row(double *restrict image, const float *restrict frame,
                          const double *restrict u, ptrdiff_t n)
{
    for (ptrdiff_t k = 0; k < n; k++)
        image[k] += (double)frame[k] * u[k];
}

#if defined(__SSE2__) && defined(__x86_64__)
#include <emmintrin.h>

INLINE void stream_one(float *dst, double src)
{
    float f = (float)src;
    int bits;
    memcpy(&bits, &f, sizeof bits);
    _mm_stream_si32((int *)dst, bits);
}

/* Round n doubles to float and store them with non-temporal stores: 16-byte
 * groups of four, with 4-byte stores ahead of them until dst is 16-byte
 * aligned and after them for the rest. */
INLINE void store_row(float *dst, const double *src, ptrdiff_t n)
{
    ptrdiff_t k = 0;
    for (; k < n && (uintptr_t)(dst + k) % 16; k++)
        stream_one(dst + k, src[k]);
    for (; k + 4 <= n; k += 4)
        _mm_stream_ps(dst + k, _mm_movelh_ps(_mm_cvtpd_ps(_mm_loadu_pd(src + k)),
                                             _mm_cvtpd_ps(_mm_loadu_pd(src + k + 2))));
    for (; k < n; k++)
        stream_one(dst + k, src[k]);
}
/* Orders the non-temporal stores before the window returns. */
#define STORE_FENCE() _mm_sfence()
#else
INLINE void store_row(float *dst, const double *src, ptrdiff_t n)
{
    for (ptrdiff_t k = 0; k < n; k++)
        dst[k] = (float)src[k];
}
#define STORE_FENCE() ((void)0)
#endif

/* Sum of u*w over one position's four bilinear corners, left to right. */
INLINE double corners(const double *u, const ptrdiff_t *idx, const double *w)
{
    return ((u[idx[0]] * w[0] + u[idx[1]] * w[1]) + u[idx[2]] * w[2]) + u[idx[3]] * w[3];
}

/* One propagation: the fields, in their roles when the window starts, and
 * what its steps read and write.  The source cells si, sw are NULL in an
 * adjoint plan without a source series; any output may be NULL. */
typedef struct {
    ptrdiff_t nt, nz, nx, ld;           /* ld: the row stride of every grid array, >= nx */
    ptrdiff_t nr;                       /* receivers, four cells and weights each */
    ptrdiff_t first, fz, fx, pad;       /* frames from step first, fz x fx at (pad, pad) */
    double inv_dz2, inv_dx2;
    double *f[3];                       /* prv (held undamped), cur, nxt */
    const double *vdt2, *mask;
    const ptrdiff_t *si;                /* one position's four cells, and their weights */
    const double *sw;
    const ptrdiff_t *ri;
    const double *rw;
    double *qs;                         /* source series: q, or the adjoint's q_star */
    double *tr;                         /* nt x nr: the forward's traces, or the adjoint's data */
    float *fr;                          /* the frames, rounded to float */
    double *img;                        /* the image */
    double *ring;                       /* seven rows of ld, zero when the plan is built */
} Plan;

size_t plan_size(void)
{
    return sizeof(Plan);
}

/* ---- the forward window ---- */

/* Row i of forward step n: nxt from cur and prv, then the injection once
 * row at is done. */
INLINE void forward_step_row(const Plan *p, ptrdiff_t at, ptrdiff_t n, ptrdiff_t i, double *nxt,
                             const double *cur, const double *prv)
{
    ptrdiff_t r = i * p->ld;
    forward_row(nxt + r, cur + r, prv + r, p->vdt2 + r, p->mask + r, p->nx, p->ld, p->inv_dz2,
                p->inv_dx2);
    for (int c = 0; i == at && c < 4; c++)
        nxt[p->si[c]] += p->sw[c] * p->qs[n];
}

/* Forward steps n0..n1-1.  Step n injects sw * qs[n] at the source cells,
 * then writes the receivers' traces to row n of tr and, when n >= first,
 * the frame interior to row n - first of fr. */
DISPATCH
void forward_window(const Plan *p, ptrdiff_t n0, ptrdiff_t n1)
{
    /* A step injects once the last row of the source cells, clamped to the
     * interior, is done; the second step of a sweep runs lag rows behind. */
    ptrdiff_t nz = p->nz, ld = p->ld, lo = nz, hi = 0;
    for (int c = 0; c < 4; c++) {
        lo = p->si[c] / ld < lo ? p->si[c] / ld : lo;
        hi = p->si[c] / ld > hi ? p->si[c] / ld : hi;
    }
    ptrdiff_t lag = hi - lo + 3, at = hi < 2 ? 2 : hi > nz - 3 ? nz - 3 : hi;
    for (ptrdiff_t n = n0; n < n1;) {
        ptrdiff_t k = n - n0;  /* steps done: the roles rotate left by one per step */
        double *prv = p->f[k % 3], *cur = p->f[(k + 1) % 3], *nxt = p->f[(k + 2) % 3];
        int two = n + 1 < n1;
        for (ptrdiff_t i = 2; i < nz - 2 + (two ? lag : 0); i++) {
            if (i < nz - 2)
                forward_step_row(p, at, n, i, nxt, cur, prv);
            if (two && i - lag >= 2)  /* step n+1 writes prv from nxt and cur */
                forward_step_row(p, at, n + 1, i - lag, prv, nxt, cur);
        }
        for (int s = 0; s <= two; s++, n++) {
            const double *u = s ? prv : nxt;
            for (ptrdiff_t r = 0; p->tr && r < p->nr; r++)
                p->tr[n * p->nr + r] = corners(u, p->ri + 4 * r, p->rw + 4 * r);
            for (ptrdiff_t i = 0; p->fr && n >= p->first && i < p->fz; i++)
                store_row(p->fr + ((n - p->first) * p->fz + i) * p->fx,
                          u + (p->pad + i) * ld + p->pad, p->fx);
        }
    }
    if (p->fr)
        STORE_FENCE();
}

/* ---- the adjoint window ---- */

/* Adjoint steps n1-1 down to n0.  Step n injects rw * tr[n] at the
 * receivers' cells, then writes the sum over the source cells to qs[n] and,
 * when n >= first, adds row n - first of fr times the frame interior to
 * img. */
DISPATCH
void adjoint_window(const Plan *p, ptrdiff_t n0, ptrdiff_t n1)
{
    /* five rows of w = vdt2*mask*cur, row r in ring row r % 5, then a zero
     * row that stands for w's halo rows and a sink row that takes the rows
     * past them; the halo columns of every row stay zero */
    ptrdiff_t nz = p->nz, nx = p->nx, ld = p->ld;
    const double *vdt2 = p->vdt2, *mask = p->mask, *zero = p->ring + 5 * ld;
    double *ring = p->ring, *sink = ring + 6 * ld;
    for (ptrdiff_t n = n1 - 1; n >= n0; n--) {
        ptrdiff_t k = n1 - 1 - n;  /* steps done: the roles rotate left by one per step */
        double *prv = p->f[k % 3], *cur = p->f[(k + 1) % 3], *nxt = p->f[(k + 2) % 3];
        for (ptrdiff_t r = 2; r < 4 && r < nz - 2; r++)
            scale_row(ring + r * ld, vdt2 + r * ld, mask + r * ld, cur + r * ld, nx);
        for (ptrdiff_t i = 2; i < nz - 2; i++) {
            const double *w[4];
            for (int j = 0; j < 4; j++) {
                ptrdiff_t r = i - 2 + j;
                w[j] = r < 2 || r >= nz - 2 ? zero : ring + r % 5 * ld;
            }
            ptrdiff_t a = i * ld, b = (i + 2) * ld;
            int in = i + 2 < nz - 2;
            adjoint_row(nxt + a, prv + a, cur + a, mask + a, w,
                        in ? ring + (i + 2) % 5 * ld : sink, in ? vdt2 + b : zero,
                        in ? mask + b : zero, in ? cur + b : zero, nx, p->inv_dz2, p->inv_dx2);
        }
        for (ptrdiff_t j = 0; j < 4 * p->nr; j++)
            nxt[p->ri[j]] += p->rw[j] * p->tr[n * p->nr + j / 4];
        if (p->qs)
            p->qs[n] = corners(nxt, p->si, p->sw);
        for (ptrdiff_t i = 0; p->img && n >= p->first && i < p->fz; i++)
            correlate_row(p->img + i * p->fx, p->fr + ((n - p->first) * p->fz + i) * p->fx,
                          nxt + (p->pad + i) * ld + p->pad, p->fx);
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
