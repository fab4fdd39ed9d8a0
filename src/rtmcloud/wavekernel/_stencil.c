/* Compiled time-window kernels for the 2D acoustic leapfrog scheme.
 *
 * Mirrors _stencil_py term for term; see that module for the contract.
 * One call advances the fields over a window of steps and does each step's
 * injection, extraction, frame storage and imaging correlation as well, so
 * a propagation crosses from Python into C once per window, not once per
 * step.  Each step's stencil work is one pass over the rows: the per-row
 * helpers take restrict pointers, so gcc vectorizes them.
 *
 * Every argument is checked before the first step.  Arrays arrive through
 * the buffer protocol and must be C-contiguous float64 (cell indices:
 * intp) of the documented shapes; fields are 2-D and shaped like the
 * first; cell indices lie inside the padded grid; the series and outputs
 * have a row for every step of the window; no array the call writes
 * overlaps another argument.  On any failure a ValueError is raised, no
 * field has changed and no buffer is held.
 *
 * _backend.py builds this file with -ffp-contract=off, so no multiply-add
 * is fused and the fields come out the same on every platform.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#define C0 (-2.5)
#define C1 (4.0 / 3.0)
#define C2 (-1.0 / 12.0)

/* Fourth-order Laplacian of u at flat index k of a row-major grid nx wide. */
static inline double laplacian(const double *u, Py_ssize_t k, Py_ssize_t nx,
                               double inv_dz2, double inv_dx2)
{
    return (C2 * (u[k - 2 * nx] + u[k + 2 * nx]) + C1 * (u[k - nx] + u[k + nx]) + C0 * u[k]) * inv_dz2
         + (C2 * (u[k - 2] + u[k + 2]) + C1 * (u[k - 1] + u[k + 1]) + C0 * u[k]) * inv_dx2;
}

/* Row helpers: each pointer is the start of one row of its field; the
 * stencil reads two rows either side of it. */

static void forward_row(double *restrict nxt, const double *restrict cur, const double *restrict prv,
                        const double *restrict vdt2, const double *restrict mask,
                        Py_ssize_t nx, double inv_dz2, double inv_dx2)
{
    for (Py_ssize_t k = 2; k < nx - 2; k++)
        nxt[k] = mask[k] * (2.0 * cur[k] - prv[k] + vdt2[k] * laplacian(cur, k, nx, inv_dz2, inv_dx2));
}

static void damp_row(double *restrict u, const double *restrict mask, Py_ssize_t nx)
{
    for (Py_ssize_t k = 2; k < nx - 2; k++)
        u[k] = u[k] * mask[k];
}

static void scale_row(double *restrict w, const double *restrict vdt2, const double *restrict mask,
                      const double *restrict cur, Py_ssize_t nx)
{
    for (Py_ssize_t k = 2; k < nx - 2; k++)
        w[k] = vdt2[k] * mask[k] * cur[k];
}

static void adjoint_row(double *restrict nxt, double *restrict prv, const double *restrict cur,
                        const double *restrict w, const double *restrict mask,
                        Py_ssize_t nx, double inv_dz2, double inv_dx2)
{
    for (Py_ssize_t k = 2; k < nx - 2; k++) {
        nxt[k] = 2.0 * (mask[k] * cur[k]) - mask[k] * prv[k] + laplacian(w, k, nx, inv_dz2, inv_dx2);
        prv[k] = mask[k] * cur[k];
    }
}

static void correlate_row(double *restrict image, const double *restrict frame,
                          const double *restrict u, Py_ssize_t n)
{
    for (Py_ssize_t k = 0; k < n; k++)
        image[k] += frame[k] * u[k];
}

/* One damped leapfrog step, nxt = mask*(2*cur - prv + vdt2*lap(cur)), then
 * cur *= mask.  Row i-2 of cur is damped as soon as row i of nxt, its last
 * reader, is done. */
static void forward_pass(const double *prv, double *cur, double *nxt, const double *vdt2,
                         const double *mask, Py_ssize_t nz, Py_ssize_t nx,
                         double inv_dz2, double inv_dx2)
{
    for (Py_ssize_t i = 2; i < nz - 2; i++) {
        Py_ssize_t r = i * nx;
        forward_row(nxt + r, cur + r, prv + r, vdt2 + r, mask + r, nx, inv_dz2, inv_dx2);
        if (i >= 4)
            damp_row(cur + r - 2 * nx, mask + r - 2 * nx, nx);
    }
    for (Py_ssize_t i = nz - 4 > 2 ? nz - 4 : 2; i < nz - 2; i++)
        damp_row(cur + i * nx, mask + i * nx, nx);
}

/* Transpose of forward_pass: w = vdt2*mask*cur, nxt = 2*mask*cur -
 * mask*prv + lap(w), prv = mask*cur.  Row i+2 of w, the last one row i of
 * nxt reads, is filled just ahead of it. */
static void adjoint_pass(double *prv, const double *cur, double *nxt, double *w,
                         const double *vdt2, const double *mask, Py_ssize_t nz, Py_ssize_t nx,
                         double inv_dz2, double inv_dx2)
{
    for (Py_ssize_t i = 2; i < 4 && i < nz - 2; i++)
        scale_row(w + i * nx, vdt2 + i * nx, mask + i * nx, cur + i * nx, nx);
    for (Py_ssize_t i = 2; i < nz - 2; i++) {
        Py_ssize_t r = i * nx;
        if (i + 2 < nz - 2)
            scale_row(w + r + 2 * nx, vdt2 + r + 2 * nx, mask + r + 2 * nx, cur + r + 2 * nx, nx);
        adjoint_row(nxt + r, prv + r, cur + r, w + r, mask + r, nx, inv_dz2, inv_dx2);
    }
}

/* Sum of u*w over one position's four bilinear corners, left to right. */
static inline double corners(const double *u, const Py_ssize_t *idx, const double *w)
{
    return ((u[idx[0]] * w[0] + u[idx[1]] * w[1]) + u[idx[2]] * w[2]) + u[idx[3]] * w[3];
}

/* ---- argument checking ---- */

#define MAX_VIEWS 16

/* The buffers one call holds, released together. */
typedef struct {
    Py_buffer view[MAX_VIEWS];
    int written[MAX_VIEWS];
    int n;
} Views;

static void release(Views *vs)
{
    while (vs->n > 0)
        PyBuffer_Release(&vs->view[--vs->n]);
}

enum { FLOAT64, INTP };

/* Acquires obj as a C-contiguous array of ndim dimensions and the given
 * element type into vs; NULL for None when optional, else NULL with an
 * exception set.  The caller releases vs on every path. */
static Py_buffer *take(Views *vs, PyObject *obj, const char *name, int ndim, int type,
                       int writable, int optional, int *err)
{
    if (obj == Py_None && optional)
        return NULL;
    Py_buffer *v = &vs->view[vs->n];
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, v, flags) < 0) {
        *err = 1;
        return NULL;
    }
    vs->written[vs->n++] = writable;
    const char *f = v->format;
    int ok = type == FLOAT64 ? strcmp(f, "d") == 0
                             : (f[0] == 'n' || f[0] == 'l' || f[0] == 'q') && f[1] == '\0'
                                   && v->itemsize == sizeof(Py_ssize_t);
    if (!ok || v->ndim != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must be a C-contiguous %d-D %s array", name, ndim,
                     type == FLOAT64 ? "float64" : "intp");
        *err = 1;
        return NULL;
    }
    return v;
}

#define CHECK(cond, ...)                                      \
    do {                                                      \
        if (!(cond)) {                                        \
            PyErr_Format(PyExc_ValueError, __VA_ARGS__);      \
            goto fail;                                        \
        }                                                     \
    } while (0)

/* Takes args[0..n) as the state fields followed by vdt2 and mask: 2-D
 * float64, all shaped like the first; the state fields are written. */
static int take_fields(Views *vs, PyObject *const *args, int n, Py_buffer **out)
{
    int err = 0;
    for (int k = 0; k < n + 2; k++) {
        out[k] = take(vs, args[k], "each field", 2, FLOAT64, k < n, 0, &err);
        if (err)
            return -1;
        if (out[k]->shape[0] != out[0]->shape[0] || out[k]->shape[1] != out[0]->shape[1]) {
            PyErr_Format(PyExc_ValueError, "field %d must be a 2-D float64 array shaped like field 0", k);
            return -1;
        }
    }
    return 0;
}

/* Takes bilinear cells: intp indices and float64 weights, both (npos, 4),
 * every index inside a grid of ncells cells. */
static int take_cells(Views *vs, PyObject *idx_obj, PyObject *w_obj, const char *name,
                      Py_ssize_t ncells, int optional, Py_buffer **idx, Py_buffer **w)
{
    int err = 0;
    *idx = take(vs, idx_obj, name, 2, INTP, 0, optional, &err);
    if (err)
        return -1;
    *w = take(vs, w_obj, name, 2, FLOAT64, 0, optional, &err);
    if (err)
        return -1;
    if (!*idx && !*w)
        return 0;
    if (!*idx || !*w || (*idx)->shape[1] != 4 || (*w)->shape[0] != (*idx)->shape[0]
        || (*w)->shape[1] != 4) {
        PyErr_Format(PyExc_ValueError, "%s: indices and weights must both be (n, 4)", name);
        return -1;
    }
    const Py_ssize_t *p = (*idx)->buf;
    for (Py_ssize_t k = 0; k < (*idx)->shape[0] * 4; k++)
        if (p[k] < 0 || p[k] >= ncells) {
            PyErr_Format(PyExc_ValueError, "%s: cell index %zd outside the %zd-cell grid", name,
                         p[k], ncells);
            return -1;
        }
    return 0;
}

/* Takes a per-step series: rows >= n1 and, for 2-D, cols columns. */
static int take_series(Views *vs, PyObject *obj, const char *name, int ndim, Py_ssize_t cols,
                       Py_ssize_t n1, int writable, int optional, Py_buffer **out)
{
    int err = 0;
    *out = take(vs, obj, name, ndim, FLOAT64, writable, optional, &err);
    if (err)
        return -1;
    if (*out && ((*out)->shape[0] < n1 || (ndim == 2 && (*out)->shape[1] != cols))) {
        PyErr_Format(PyExc_ValueError, "%s must have at least n1=%zd rows%s", name, n1,
                     ndim == 2 ? " and one column per receiver" : "");
        return -1;
    }
    return 0;
}

static int take_index(PyObject *obj, Py_ssize_t *out)
{
    *out = PyNumber_AsSsize_t(obj, PyExc_OverflowError);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static int take_double(PyObject *obj, double *out)
{
    *out = PyFloat_AsDouble(obj);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* Reads n0, n1 from args[0..2) and checks 0 <= n0 <= n1. */
static int take_window(PyObject *const *args, Py_ssize_t *n0, Py_ssize_t *n1)
{
    if (take_index(args[0], n0) < 0 || take_index(args[1], n1) < 0)
        return -1;
    if (*n0 < 0 || *n1 < *n0) {
        PyErr_Format(PyExc_ValueError, "window [%zd, %zd) must have 0 <= n0 <= n1", *n0, *n1);
        return -1;
    }
    return 0;
}

/* Checks that the (fz, fx) interior at (top, left) lies inside an nz x nx grid. */
static int check_interior(Py_ssize_t fz, Py_ssize_t fx, Py_ssize_t top, Py_ssize_t left,
                          Py_ssize_t nz, Py_ssize_t nx)
{
    if (top < 0 || left < 0 || top + fz > nz || left + fx > nx) {
        PyErr_Format(PyExc_ValueError, "a %zd x %zd interior at (%zd, %zd) leaves the %zd x %zd grid",
                     fz, fx, top, left, nz, nx);
        return -1;
    }
    return 0;
}

/* Checks that no buffer the call writes shares memory with another. */
static int check_disjoint(const Views *vs)
{
    for (int a = 0; a < vs->n; a++) {
        const char *lo = vs->view[a].buf, *hi = lo + vs->view[a].len;
        for (int b = 0; b < vs->n; b++) {
            const char *lo2 = vs->view[b].buf, *hi2 = lo2 + vs->view[b].len;
            if (b != a && vs->written[a] && lo < hi2 && lo2 < hi) {
                PyErr_SetString(PyExc_ValueError, "an array the window writes overlaps another argument");
                return -1;
            }
        }
    }
    return 0;
}

/* The field objects in their roles after a window: the first `fixed` keep
 * theirs and the others rotate left by shift. */
static PyObject *roles(PyObject *const *fields, int fixed, Py_ssize_t shift)
{
    PyObject *out = PyTuple_New(3);
    if (out == NULL)
        return NULL;
    for (int j = 0; j < 3; j++) {
        PyObject *f = fields[j < fixed ? j : fixed + (j - fixed + shift) % (3 - fixed)];
        Py_INCREF(f);
        PyTuple_SET_ITEM(out, j, f);
    }
    return out;
}

/* ---- the windows ---- */

static PyObject *forward_window(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Views vs = {.n = 0};
    Py_buffer *f[5], *src_idx, *src_w, *q, *rec_idx, *rec_w, *traces, *frames;
    Py_ssize_t n0, n1, top, left;
    double inv_dz2, inv_dx2;

    if (nargs != 18) {
        PyErr_Format(PyExc_TypeError, "forward_window expects 18 arguments, got %zd", nargs);
        return NULL;
    }
    if (take_window(args, &n0, &n1) < 0 || take_double(args[7], &inv_dz2) < 0
        || take_double(args[8], &inv_dx2) < 0 || take_index(args[16], &top) < 0
        || take_index(args[17], &left) < 0 || take_fields(&vs, args + 2, 3, f) < 0)
        goto fail;
    Py_ssize_t nz = f[0]->shape[0], nx = f[0]->shape[1];
    if (take_cells(&vs, args[9], args[10], "source cells", nz * nx, 0, &src_idx, &src_w) < 0
        || take_series(&vs, args[11], "q", 1, 0, n1, 0, 0, &q) < 0
        || take_cells(&vs, args[12], args[13], "receiver cells", nz * nx, 0, &rec_idx, &rec_w) < 0)
        goto fail;
    Py_ssize_t nr = rec_idx->shape[0];
    CHECK(src_idx->shape[0] == 1, "source cells must hold one position");
    if (take_series(&vs, args[14], "traces", 2, nr, n1, 1, 1, &traces) < 0
        || take_series(&vs, args[15], "frames", 3, 0, n1, 1, 1, &frames) < 0)
        goto fail;
    Py_ssize_t fz = frames ? frames->shape[1] : 0, fx = frames ? frames->shape[2] : 0;
    if ((frames && check_interior(fz, fx, top, left, nz, nx) < 0) || check_disjoint(&vs) < 0)
        goto fail;

    double *prv = f[0]->buf, *cur = f[1]->buf, *nxt = f[2]->buf;
    const double *vdt2 = f[3]->buf, *mask = f[4]->buf, *qs = q->buf;
    const double *sw = src_w->buf, *rw = rec_w->buf;
    const Py_ssize_t *si = src_idx->buf, *ri = rec_idx->buf;
    double *tr = traces ? traces->buf : NULL, *fr = frames ? frames->buf : NULL;
    for (Py_ssize_t n = n0; n < n1; n++) {
        forward_pass(prv, cur, nxt, vdt2, mask, nz, nx, inv_dz2, inv_dx2);
        for (int c = 0; c < 4; c++)
            nxt[si[c]] += sw[c] * qs[n];
        for (Py_ssize_t r = 0; tr && r < nr; r++)
            tr[n * nr + r] = corners(nxt, ri + 4 * r, rw + 4 * r);
        for (Py_ssize_t i = 0; fr && i < fz; i++)
            memcpy(fr + (n * fz + i) * fx, nxt + (top + i) * nx + left, fx * sizeof(double));
        double *t = prv;
        prv = cur;
        cur = nxt;
        nxt = t;
    }
    release(&vs);
    return roles(args + 2, 0, n1 - n0);
fail:
    release(&vs);
    return NULL;
}

static PyObject *adjoint_window(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Views vs = {.n = 0};
    Py_buffer *f[6], *rec_idx, *rec_w, *data, *src_idx, *src_w, *q_star, *frames, *image;
    Py_ssize_t n0, n1, skip, top, left;
    double inv_dz2, inv_dx2;

    if (nargs != 21) {
        PyErr_Format(PyExc_TypeError, "adjoint_window expects 21 arguments, got %zd", nargs);
        return NULL;
    }
    if (take_window(args, &n0, &n1) < 0 || take_double(args[8], &inv_dz2) < 0
        || take_double(args[9], &inv_dx2) < 0 || take_index(args[18], &skip) < 0
        || take_index(args[19], &top) < 0 || take_index(args[20], &left) < 0
        || take_fields(&vs, args + 2, 4, f) < 0)
        goto fail;
    Py_ssize_t nz = f[0]->shape[0], nx = f[0]->shape[1];
    if (take_cells(&vs, args[10], args[11], "receiver cells", nz * nx, 0, &rec_idx, &rec_w) < 0)
        goto fail;
    Py_ssize_t nr = rec_idx->shape[0];
    if (take_series(&vs, args[12], "data", 2, nr, n1, 0, 0, &data) < 0
        || take_cells(&vs, args[13], args[14], "source cells", nz * nx, 1, &src_idx, &src_w) < 0
        || take_series(&vs, args[15], "q_star", 1, 0, n1, 1, 1, &q_star) < 0
        || take_series(&vs, args[16], "frames", 3, 0, n1, 0, 1, &frames) < 0)
        goto fail;
    int err = 0;
    image = take(&vs, args[17], "image", 2, FLOAT64, 1, 1, &err);
    if (err)
        goto fail;
    CHECK(!q_star || (src_idx && src_idx->shape[0] == 1), "q_star needs source cells of one position");
    CHECK(!frames == !image, "frames and image go together");
    Py_ssize_t fz = frames ? frames->shape[1] : 0, fx = frames ? frames->shape[2] : 0;
    CHECK(!image || (image->shape[0] == fz && image->shape[1] == fx),
          "image must be shaped like one frame");
    if ((frames && check_interior(fz, fx, top, left, nz, nx) < 0) || check_disjoint(&vs) < 0)
        goto fail;

    double *prv = f[0]->buf, *cur = f[1]->buf, *nxt = f[2]->buf, *w = f[3]->buf;
    const double *vdt2 = f[4]->buf, *mask = f[5]->buf, *d = data->buf, *rw = rec_w->buf;
    const Py_ssize_t *ri = rec_idx->buf, *si = src_idx ? src_idx->buf : NULL;
    const double *sw = src_w ? src_w->buf : NULL, *fr = frames ? frames->buf : NULL;
    double *qs = q_star ? q_star->buf : NULL, *img = image ? image->buf : NULL;
    for (Py_ssize_t n = n1 - 1; n >= n0; n--) {
        adjoint_pass(prv, cur, nxt, w, vdt2, mask, nz, nx, inv_dz2, inv_dx2);
        for (Py_ssize_t j = 0; j < 4 * nr; j++)
            nxt[ri[j]] += rw[j] * d[n * nr + j / 4];
        if (qs)
            qs[n] = corners(nxt, si, sw);
        for (Py_ssize_t i = 0; img && n > skip && i < fz; i++)
            correlate_row(img + i * fx, fr + (n * fz + i) * fx, nxt + (top + i) * nx + left, fx);
        double *t = cur;
        cur = nxt;
        nxt = t;
    }
    release(&vs);
    return roles(args + 2, 1, n1 - n0);
fail:
    release(&vs);
    return NULL;
}

static PyMethodDef methods[] = {
    {"forward_window", (PyCFunction)(void (*)(void))forward_window, METH_FASTCALL,
     "forward_window(n0, n1, prv, cur, nxt, vdt2, mask, inv_dz2, inv_dx2, src_idx, src_w, q,\n"
     "               rec_idx, rec_w, traces, frames, top, left)\n--\n\n"
     "Forward steps n0..n1-1; returns (prv, cur, nxt) in their roles after the window."},
    {"adjoint_window", (PyCFunction)(void (*)(void))adjoint_window, METH_FASTCALL,
     "adjoint_window(n0, n1, prv, cur, nxt, w, vdt2, mask, inv_dz2, inv_dx2, rec_idx, rec_w,\n"
     "               data, src_idx, src_w, q_star, frames, image, image_skip_until, top, left)\n"
     "--\n\n"
     "Adjoint steps n1-1 down to n0; returns (prv, cur, nxt) in their roles after the window."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_stencil", "Compiled stencil kernels (see _stencil_py).", -1, methods,
};

PyMODINIT_FUNC PyInit__stencil(void)
{
    return PyModule_Create(&module);
}
