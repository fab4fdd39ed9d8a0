/* Compiled time-step kernels for the 2D acoustic leapfrog scheme.
 *
 * Mirrors _stencil_py term for term; see that module for the contract.
 * Every field arrives through the buffer protocol and must be a writable,
 * C-contiguous, 2-D float64 array of the first field's shape.  _backend.py
 * builds this file with -ffp-contract=off, so no multiply-add is fused and
 * the fields come out the same on every platform.
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

static void release(Py_buffer *views, int n)
{
    while (n-- > 0)
        PyBuffer_Release(&views[n]);
}

/* Checks the argument count, reads the trailing inv_dz2 and inv_dx2 into
 * inv, and acquires the n leading fields into views.  On failure an
 * exception is set, no buffer is held, and -1 is returned. */
static int unpack(PyObject *const *args, Py_ssize_t nargs, int n, Py_buffer *views, double *inv)
{
    if (nargs != n + 2) {
        PyErr_Format(PyExc_TypeError, "expected %d arguments, got %zd", n + 2, nargs);
        return -1;
    }
    for (int k = 0; k < 2; k++) {
        inv[k] = PyFloat_AsDouble(args[n + k]);
        if (inv[k] == -1.0 && PyErr_Occurred())
            return -1;
    }
    for (int k = 0; k < n; k++) {
        Py_buffer *v = &views[k];
        if (PyObject_GetBuffer(args[k], v, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | PyBUF_WRITABLE) < 0) {
            release(views, k);
            return -1;
        }
        if (v->ndim != 2 || strcmp(v->format, "d") != 0
            || v->shape[0] != views[0].shape[0] || v->shape[1] != views[0].shape[1]) {
            release(views, k + 1);
            PyErr_Format(PyExc_ValueError,
                         "field %d must be a 2-D float64 array shaped like field 0", k);
            return -1;
        }
    }
    return 0;
}

static PyObject *forward_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer v[5];
    double inv[2];
    if (unpack(args, nargs, 5, v, inv) < 0)
        return NULL;
    double *prv = v[0].buf, *cur = v[1].buf, *nxt = v[2].buf;
    const double *vdt2 = v[3].buf, *mask = v[4].buf;
    Py_ssize_t nz = v[0].shape[0], nx = v[0].shape[1];

    for (Py_ssize_t i = 2; i < nz - 2; i++)
        for (Py_ssize_t k = i * nx + 2; k < (i + 1) * nx - 2; k++)
            nxt[k] = mask[k] * (2.0 * cur[k] - prv[k] + vdt2[k] * laplacian(cur, k, nx, inv[0], inv[1]));
    /* Damp cur after the sweep; it feeds the next step as the previous field. */
    for (Py_ssize_t i = 2; i < nz - 2; i++)
        for (Py_ssize_t k = i * nx + 2; k < (i + 1) * nx - 2; k++)
            cur[k] = cur[k] * mask[k];
    release(v, 5);
    Py_RETURN_NONE;
}

static PyObject *adjoint_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer v[6];
    double inv[2];
    if (unpack(args, nargs, 6, v, inv) < 0)
        return NULL;
    double *prv = v[0].buf, *cur = v[1].buf, *nxt = v[2].buf, *w = v[3].buf;
    const double *vdt2 = v[4].buf, *mask = v[5].buf;
    Py_ssize_t nz = v[0].shape[0], nx = v[0].shape[1];

    for (Py_ssize_t i = 2; i < nz - 2; i++)
        for (Py_ssize_t k = i * nx + 2; k < (i + 1) * nx - 2; k++)
            w[k] = vdt2[k] * mask[k] * cur[k];
    /* Two sweeps: a loop that stores to both nxt and prv is not vectorized. */
    for (Py_ssize_t i = 2; i < nz - 2; i++)
        for (Py_ssize_t k = i * nx + 2; k < (i + 1) * nx - 2; k++)
            nxt[k] = 2.0 * (mask[k] * cur[k]) - mask[k] * prv[k] + laplacian(w, k, nx, inv[0], inv[1]);
    for (Py_ssize_t i = 2; i < nz - 2; i++)
        for (Py_ssize_t k = i * nx + 2; k < (i + 1) * nx - 2; k++)
            prv[k] = mask[k] * cur[k];
    release(v, 6);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"forward_step", (PyCFunction)(void (*)(void))forward_step, METH_FASTCALL,
     "forward_step(prv, cur, nxt, vdt2, mask, inv_dz2, inv_dx2)\n--\n\n"
     "One damped leapfrog step; damps cur in place."},
    {"adjoint_step", (PyCFunction)(void (*)(void))adjoint_step, METH_FASTCALL,
     "adjoint_step(prv, cur, nxt, w, vdt2, mask, inv_dz2, inv_dx2)\n--\n\n"
     "Transpose of forward_step in reverse time; w is scratch, prv becomes mask*cur."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_stencil", "Compiled stencil kernels (see _stencil_py).", -1, methods,
};

PyMODINIT_FUNC PyInit__stencil(void)
{
    return PyModule_Create(&module);
}
