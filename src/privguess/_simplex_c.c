/* Compiled simplex pivot kernel.
 *
 * Mirrors _simplex_py.run_simplex exactly (same Bland choices, same float
 * operations in the same order; build with -ffp-contract=off so no FMA is
 * formed); see that module for the layout contract. Buffers come in through
 * the buffer protocol and are checked here, so a malformed argument raises
 * ValueError instead of reading out of bounds.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

enum { STATUS_OPTIMAL = 0, STATUS_UNBOUNDED = 1, STATUS_BUDGET = 2 };

static int is_int64(const char *fmt)
{
    return strcmp(fmt, "q") == 0 || (sizeof(long) == 8 && strcmp(fmt, "l") == 0);
}

/* Kept out of line: inlined into run_simplex, gcc 12 spilled the inner loop's
 * bound to the stack and the kernel ran about 20 % slower. */
__attribute__((noinline)) static long long pivot_loop(double *t,long long *basis, Py_ssize_t m, Py_ssize_t ncols,
                            Py_ssize_t n_enter, double pivot_tol, long long max_iter, int *status)
{
    const Py_ssize_t rhs = ncols - 1;
    double *obj = t + m * ncols;
    long long it = 0;

    for (;;) {
        Py_ssize_t j = -1, r = -1, i, c;
        double best = 0.0;
        for (c = 0; c < n_enter; c++) {
            if (obj[c] > pivot_tol) {
                j = c;
                break;
            }
        }
        if (j < 0) {
            *status = STATUS_OPTIMAL;
            return it;
        }

        for (i = 0; i < m; i++) {
            const double *row = t + i * ncols;
            if (row[j] > pivot_tol) {
                double ratio = row[rhs] / row[j];
                if (r < 0 || ratio < best || (ratio == best && basis[i] < basis[r])) {
                    r = i;
                    best = ratio;
                }
            }
        }
        if (r < 0) {
            *status = STATUS_UNBOUNDED;
            return it;
        }

        double *prow = t + r * ncols;
        double piv = prow[j];
        for (c = 0; c < ncols; c++)
            prow[c] /= piv;
        prow[j] = 1.0;
        for (i = 0; i <= m; i++) {
            if (i == r)
                continue;
            double *row = t + i * ncols;
            double f = row[j];
            if (f != 0.0) {
                for (c = 0; c < ncols; c++)
                    row[c] -= f * prow[c];
            }
            row[j] = 0.0;
        }
        basis[r] = j;

        it++;
        if (it >= max_iter) {
            *status = STATUS_BUDGET;
            return it;
        }
    }
}

static PyObject *run_simplex(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"tableau", "basis", "n_enter", "pivot_tol", "max_iter", NULL};
    PyObject *tab_obj, *basis_obj, *result = NULL;
    Py_ssize_t n_enter;
    double pivot_tol;
    long long max_iter, it;
    int status;
    Py_buffer tab, bas;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOndL", kwlist, &tab_obj, &basis_obj,
                                     &n_enter, &pivot_tol, &max_iter))
        return NULL;
    if (PyObject_GetBuffer(tab_obj, &tab, PyBUF_RECORDS_RO) < 0)
        return NULL;
    if (PyObject_GetBuffer(basis_obj, &bas, PyBUF_RECORDS_RO) < 0) {
        PyBuffer_Release(&tab);
        return NULL;
    }

    if (tab.ndim != 2 || tab.readonly || strcmp(tab.format, "d") != 0 ||
        !PyBuffer_IsContiguous(&tab, 'C') || tab.shape[0] < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "tableau must be a writable C-contiguous 2-D float64 array with a row");
    } else if (bas.ndim != 1 || bas.readonly || !is_int64(bas.format) ||
               !PyBuffer_IsContiguous(&bas, 'C')) {
        PyErr_SetString(PyExc_ValueError, "basis must be a writable contiguous 1-D int64 array");
    } else if (bas.shape[0] < tab.shape[0] - 1) {
        PyErr_Format(PyExc_ValueError, "basis has %zd entries for %zd constraint rows",
                     bas.shape[0], tab.shape[0] - 1);
    } else if (n_enter < 0 || n_enter > tab.shape[1]) {
        PyErr_Format(PyExc_ValueError, "n_enter %zd outside [0, %zd]", n_enter, tab.shape[1]);
    } else {
        it = pivot_loop(tab.buf, bas.buf, tab.shape[0] - 1, tab.shape[1], n_enter, pivot_tol,
                        max_iter, &status);
        result = Py_BuildValue("(iL)", status, it);
    }
    PyBuffer_Release(&bas);
    PyBuffer_Release(&tab);
    return result;
}

static PyMethodDef methods[] = {
    {"run_simplex", (PyCFunction)(void (*)(void))run_simplex, METH_VARARGS | METH_KEYWORDS,
     "run_simplex(tableau, basis, n_enter, pivot_tol, max_iter)\n--\n\n"
     "Pivot ``tableau`` in place; returns ``(status, iterations)``."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_simplex_c",
    .m_doc = "Compiled simplex pivot kernel.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__simplex_c(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod && PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0)
        Py_CLEAR(mod);
    return mod;
}
