/* Compiled search kernel for dominated k-colorings of graphs with at most
 * 64 vertices.  It must stay behaviorally identical to _kernel_py.py: same
 * vertex order, same class order, same first solution.  Edit the two
 * together; the differential test in tests/test_solver.py guards them.
 * k may be any Python int: no class opens at k <= 0 and at most n <= 64
 * open, so k is clamped to 0..64 without changing the search; then
 * n_open <= i < n bounds every index, and a graph with no vertices gives
 * [] for every k. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAX_N 64

typedef struct {
    int n, k;
    uint64_t adj[MAX_N];
    uint64_t class_mask[MAX_N]; /* members of each open class */
    uint64_t cand[MAX_N];       /* surviving candidate dominators per class */
    int colors[MAX_N];
} Search;

/* Assign vertex i, given n_open classes already open; 1 on success. */
static int search(Search *s, int i, int n_open)
{
    if (i == s->n)
        return 1;
    uint64_t av = s->adj[i];
    uint64_t bit = (uint64_t)1 << i;
    for (int c = 0; c < n_open; c++) {
        if (s->class_mask[c] & av)
            continue;
        uint64_t narrowed = s->cand[c] & av;
        if (!narrowed)
            continue;
        uint64_t saved = s->cand[c];
        s->class_mask[c] |= bit;
        s->cand[c] = narrowed;
        s->colors[i] = c;
        if (search(s, i + 1, n_open))
            return 1;
        s->class_mask[c] ^= bit;
        s->cand[c] = saved;
    }
    if (n_open < s->k) {
        s->class_mask[n_open] = bit;
        s->cand[n_open] = av;
        s->colors[i] = n_open;
        if (search(s, i + 1, n_open + 1))
            return 1;
    }
    return 0;
}

static PyObject *find_coloring(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"adj", "k", NULL};
    PyObject *adj, *k_obj;
    int overflow;
    Search s;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:find_coloring", keywords,
                                     &adj, &k_obj))
        return NULL;
    long long k = PyLong_AsLongLongAndOverflow(k_obj, &overflow);
    if (k == -1 && !overflow && PyErr_Occurred())
        return NULL;
    if (overflow)
        k = overflow > 0 ? MAX_N : 0;
    Py_ssize_t n = PyObject_Length(adj);
    if (n < 0)
        return NULL;
    if (n > MAX_N) {
        PyErr_SetString(PyExc_ValueError, "compiled kernel is limited to 64 vertices");
        return NULL;
    }
    s.n = (int)n;
    s.k = k < 0 ? 0 : k > MAX_N ? MAX_N : (int)k;
    for (int i = 0; i < s.n; i++) {
        PyObject *item = PySequence_GetItem(adj, i);
        if (item == NULL)
            return NULL;
        s.adj[i] = PyLong_AsUnsignedLongLong(item);
        Py_DECREF(item);
        if (s.adj[i] == (uint64_t)-1 && PyErr_Occurred())
            return NULL;
    }
    if (!search(&s, 0, 0))
        Py_RETURN_NONE;

    PyObject *out = PyList_New(n);
    for (int i = 0; out != NULL && i < s.n; i++) {
        PyObject *color = PyLong_FromLong(s.colors[i]);
        if (color == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, color);
    }
    return out;
}

static PyMethodDef methods[] = {
    {"find_coloring", (PyCFunction)(void (*)(void))find_coloring,
     METH_VARARGS | METH_KEYWORDS,
     "See ``_kernel_py.find_coloring``; same contract, same output."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled search kernel for dominated k-colorings (graphs up to 64 vertices).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModule_Create(&module);
}
