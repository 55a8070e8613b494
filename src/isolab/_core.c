/* Compiled compute kernels: canonical labeling and set-cover decisions.
 *
 * Mirrors isolab._pykernels exactly (same refined partitions, same orbit
 * pruning, same 96-automorphism cap, same tie-breaks), so the two backends
 * are interchangeable. Graphs arrive as a sequence of per-vertex adjacency
 * bitmasks, one 64-bit word per vertex, order <= 64.
 *
 * Contract relied on by canonical augmentation in isolab.lab: canon_form
 * labels a vertex of maximum degree last, and that vertex lies in the last
 * cell of the refined root partition. The search starts from cells in
 * ascending degree (members ascending) and refinement and individualization
 * only split cells in place, never reorder them, so canonical positions are
 * in nondecreasing degree and every cell of the refined root partition keeps
 * its range of positions. canon_form(adj, n, last) with 0 <= last < n returns
 * None when vertex last is outside that last cell, after the root refinement
 * alone, and otherwise searches on from the refined cells.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef unsigned long long u64;

#if defined(_MSC_VER)
#include <intrin.h>
static inline int ctz64(u64 x) { unsigned long i; _BitScanForward64(&i, x); return (int)i; }
static inline int pop64(u64 x) { return (int)__popcnt64(x); }
#else
static inline int ctz64(u64 x) { return __builtin_ctzll(x); }
static inline int pop64(u64 x) { return __builtin_popcountll(x); }
#endif

#define MAXN 64
#define AUT_CAP 96
#define MAX_BODY 340 /* (64 * 63 / 2 + 5) / 6 graph6 body bytes */

/* Search state of one canon_form call. */
typedef struct {
    u64 adj[MAXN];
    int n, body_len, have_best, naut, plen;
    unsigned char best_body[MAX_BODY];  /* greatest leaf body so far */
    int best_pos[MAXN], best_inv[MAXN]; /* its labeling and the inverse */
    int uf[MAXN];                       /* orbits merged so far */
    signed char auts[AUT_CAP][MAXN];    /* the first AUT_CAP automorphisms */
    int prefix[MAXN];                   /* vertices individualized on the path */
} CS;

static int uf_find(CS *s, int x) {
    int root = x;
    while (s->uf[root] != root)
        root = s->uf[root];
    while (s->uf[x] != root) {
        int tmp = s->uf[x];
        s->uf[x] = root;
        x = tmp;
    }
    return root;
}

/* The smaller root wins, so every root is the least vertex of its set. */
static void uf_union(CS *s, int a, int b) {
    int ra = uf_find(s, a), rb = uf_find(s, b);
    if (ra < rb)
        s->uf[rb] = ra;
    else if (rb < ra)
        s->uf[ra] = rb;
}

/* graph6 body of the graph relabeled so that position i holds vertex vx[i]:
 * upper triangle column by column, 6-bit groups, each group + 63, last group
 * zero-padded. */
static void pack_body(const CS *s, const int *vx, unsigned char *out) {
    int i, j, nb = 0, pos = 0;
    unsigned int group = 0;
    for (j = 1; j < s->n; j++) {
        u64 aj = s->adj[vx[j]];
        for (i = 0; i < j; i++) {
            group = (group << 1) | (unsigned int)((aj >> vx[i]) & 1);
            if (++nb == 6) {
                out[pos++] = (unsigned char)(group + 63);
                group = 0;
                nb = 0;
            }
        }
    }
    if (nb)
        out[pos] = (unsigned char)((group << (6 - nb)) + 63);
}

/* Stable neighborhood refinement: split every cell by its members' neighbor
 * counts against each current cell until nothing splits. Subcells come in
 * ascending signature order, members ascending. The Python fallback counts
 * only against the cells that just split and gets the same subcells.
 * Rewrites vx and cstart in place and returns the new cell count. */
static int refine(const CS *s, int *vx, int *cstart, int ncells) {
    u64 cellmask[MAXN];
    unsigned char sig[MAXN][MAXN];
    int idx[MAXN], nvx[MAXN], ncs[MAXN + 1];
    int c, a, size, t, d, i, j, key, pos, newn, changed;
    for (;;) {
        for (c = 0; c < ncells; c++) {
            cellmask[c] = 0;
            for (t = cstart[c]; t < cstart[c + 1]; t++)
                cellmask[c] |= (u64)1 << vx[t];
        }
        changed = newn = pos = 0;
        for (c = 0; c < ncells; c++) {
            a = cstart[c];
            size = cstart[c + 1] - a;
            ncs[newn] = pos;
            if (size == 1) {
                nvx[pos++] = vx[a];
                newn++;
                continue;
            }
            for (t = 0; t < size; t++) {
                u64 av = s->adj[vx[a + t]];
                for (d = 0; d < ncells; d++)
                    sig[t][d] = (unsigned char)pop64(av & cellmask[d]);
                idx[t] = t;
            }
            /* insertion sort by (signature, vertex) */
            for (i = 1; i < size; i++) {
                key = idx[i];
                for (j = i - 1; j >= 0; j--) {
                    d = memcmp(sig[idx[j]], sig[key], (size_t)ncells);
                    if (d > 0 || (d == 0 && vx[a + idx[j]] > vx[a + key]))
                        idx[j + 1] = idx[j];
                    else
                        break;
                }
                idx[j + 1] = key;
            }
            for (t = 0; t < size; t++) {
                if (t > 0 && memcmp(sig[idx[t]], sig[idx[t - 1]], (size_t)ncells) != 0) {
                    ncs[++newn] = pos;
                    changed = 1;
                }
                nvx[pos++] = vx[a + idx[t]];
            }
            newn++;
        }
        ncs[newn] = pos;
        memcpy(vx, nvx, (size_t)pos * sizeof(int));
        memcpy(cstart, ncs, (size_t)(newn + 1) * sizeof(int));
        ncells = newn;
        if (!changed)
            return ncells;
    }
}

/* On a refined partition, either record a leaf (keeping the greatest body,
 * collecting automorphisms from equal ones) or individualize each member of
 * the first non-singleton cell in turn, refine, and recurse, skipping members
 * that a known automorphism maps onto one already tried. */
static void search(CS *s, int *vx, int *cstart, int ncells) {
    unsigned char body[MAX_BODY];
    int pos[MAXN], members[MAXN], tried[MAXN], cvx[MAXN], ccs[MAXN + 1];
    int t = -1, c, i, j, mi, v, skip, ntried, cmp, cellsz, w;
    signed char *gamma;

    for (c = 0; c < ncells && t < 0; c++)
        if (cstart[c + 1] - cstart[c] > 1)
            t = c;
    if (t < 0) {
        for (i = 0; i < s->n; i++)
            pos[vx[i]] = i;
        pack_body(s, vx, body);
        cmp = s->have_best ? memcmp(body, s->best_body, (size_t)s->body_len) : 1;
        if (cmp > 0) {
            memcpy(s->best_body, body, (size_t)s->body_len);
            memcpy(s->best_pos, pos, (size_t)s->n * sizeof(int));
            memcpy(s->best_inv, vx, (size_t)s->n * sizeof(int));
            s->have_best = 1;
        } else if (cmp == 0) {
            /* best_inv[i] -> vx[i] is an automorphism */
            for (i = 0; i < s->n; i++)
                uf_union(s, s->best_inv[i], vx[i]);
            if (s->naut < AUT_CAP) {
                gamma = s->auts[s->naut++];
                for (i = 0; i < s->n; i++)
                    gamma[s->best_inv[i]] = (signed char)vx[i];
            }
        }
        return;
    }
    cellsz = cstart[t + 1] - cstart[t];
    memcpy(members, vx + cstart[t], (size_t)cellsz * sizeof(int));
    ntried = 0;
    for (mi = 0; mi < cellsz; mi++) {
        v = members[mi];
        skip = 0;
        if (s->plen == 0) {
            for (j = 0; j < ntried && !skip; j++)
                skip = uf_find(s, v) == uf_find(s, tried[j]);
        } else {
            for (c = 0; c < s->naut && !skip; c++) {
                gamma = s->auts[c];
                for (j = 0; j < ntried && !skip; j++)
                    skip = tried[j] == gamma[v];
                for (j = 0; j < s->plen && skip; j++)
                    skip = gamma[s->prefix[j]] == s->prefix[j];
            }
        }
        if (!skip) {
            /* child partition: cells before t, [v], rest of cell t, cells after */
            memcpy(cvx, vx, (size_t)s->n * sizeof(int));
            cvx[cstart[t]] = v;
            for (i = 0, w = cstart[t] + 1; i < cellsz; i++)
                if (members[i] != v)
                    cvx[w++] = members[i];
            memcpy(ccs, cstart, (size_t)(t + 1) * sizeof(int));
            ccs[t + 1] = cstart[t] + 1;
            memcpy(ccs + t + 2, cstart + t + 1, (size_t)(ncells - t) * sizeof(int));
            s->prefix[s->plen++] = v;
            search(s, cvx, ccs, refine(s, cvx, ccs, ncells + 1));
            s->plen--;
        }
        tried[ntried++] = v;
    }
}

/* Parse args[0] (adj) and args[1] (n) into a[0..n-1]. n must lie in 0..64,
 * adj must hold at least n entries, and every entry must be a mask over
 * vertices 0..n-1. The caller checks the argument count. */
static int parse_graph(PyObject *const *args, u64 *a, int *n_out, u64 *full_out) {
    PyObject *seq;
    long n;
    int i;
    u64 full;
    n = PyLong_AsLong(args[1]);
    if (n == -1 && PyErr_Occurred())
        return -1;
    if (n < 0 || n > MAXN) {
        PyErr_Format(PyExc_ValueError, "order %ld outside 0..%d", n, MAXN);
        return -1;
    }
    full = n == MAXN ? ~(u64)0 : ((u64)1 << n) - 1;
    seq = PySequence_Fast(args[0], "adj must be a sequence of adjacency masks");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) < n) {
        PyErr_Format(PyExc_IndexError, "adj has %zd entries for order %ld",
                     PySequence_Fast_GET_SIZE(seq), n);
        goto fail;
    }
    for (i = 0; i < n; i++) {
        a[i] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (a[i] == (u64)-1 && PyErr_Occurred())
            goto fail;
        if (a[i] & ~full) {
            PyErr_Format(PyExc_ValueError, "adj[%d] names a vertex outside 0..%ld", i, n - 1);
            goto fail;
        }
    }
    Py_DECREF(seq);
    *n_out = (int)n;
    *full_out = full;
    return 0;
fail:
    Py_DECREF(seq);
    return -1;
}

static PyObject *canon_form(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    CS s;
    int vx[MAXN], cstart[MAXN + 1], degs[MAXN];
    int i, j, n, ncells, overflow;
    long last = -1;
    u64 full;
    PyObject *labels, *body, *orbits, *auts;
    (void)self;
    if (nargs != 2 && nargs != 3) {
        PyErr_Format(PyExc_TypeError, "canon_form() takes 2 or 3 arguments (%zd given)", nargs);
        return NULL;
    }
    if (parse_graph(args, s.adj, &n, &full) < 0)
        return NULL;
    if (nargs == 3) {
        last = PyLong_AsLongAndOverflow(args[2], &overflow);
        if (last == -1 && PyErr_Occurred())
            return NULL;
        if (overflow || last < -1 || last >= n) {
            PyErr_Format(PyExc_ValueError, "last %R outside -1..%d", args[2], n - 1);
            return NULL;
        }
    }
    s.n = n;
    s.body_len = (n * (n - 1) / 2 + 5) / 6;
    s.have_best = s.naut = s.plen = 0;
    /* initial partition by ascending degree, members ascending */
    for (i = 0; i < n; i++) {
        s.uf[i] = i;
        degs[i] = pop64(s.adj[i]);
        for (j = i - 1; j >= 0 && degs[vx[j]] > degs[i]; j--)
            vx[j + 1] = vx[j];
        vx[j + 1] = i;
    }
    ncells = 0;
    cstart[0] = 0;
    for (i = 1; i < n; i++)
        if (degs[vx[i]] != degs[vx[i - 1]])
            cstart[++ncells] = i;
    if (n > 0) {
        cstart[++ncells] = n;
        ncells = refine(&s, vx, cstart, ncells);
        if (last >= 0) {
            /* vertex last is outside the last root cell: not labeled last */
            for (i = cstart[ncells - 1]; i < n && vx[i] != last; i++)
                ;
            if (i == n)
                Py_RETURN_NONE;
        }
        search(&s, vx, cstart, ncells);
    }
    labels = PyList_New(n);
    orbits = PyList_New(n);
    auts = PyList_New(s.naut);
    body = PyBytes_FromStringAndSize((const char *)s.best_body, s.body_len);
    if (labels == NULL || orbits == NULL || auts == NULL || body == NULL)
        goto fail;
    for (i = 0; i < n; i++) {
        /* orbit representative = union-find root = least vertex of its class */
        PyObject *label = PyLong_FromLong(s.best_pos[i]), *orbit = PyLong_FromLong(uf_find(&s, i));
        if (label == NULL || orbit == NULL) {
            Py_XDECREF(label);
            Py_XDECREF(orbit);
            goto fail;
        }
        PyList_SET_ITEM(labels, i, label);
        PyList_SET_ITEM(orbits, i, orbit);
    }
    /* the automorphisms in the order found, gamma[v] = image of v */
    for (j = 0; j < s.naut; j++) {
        PyObject *gamma = PyList_New(n);
        if (gamma == NULL)
            goto fail;
        PyList_SET_ITEM(auts, j, gamma);
        for (i = 0; i < n; i++) {
            PyObject *image = PyLong_FromLong(s.auts[j][i]);
            if (image == NULL)
                goto fail;
            PyList_SET_ITEM(gamma, i, image);
        }
    }
    return Py_BuildValue("(NNNN)", labels, body, orbits, auts);
fail:
    Py_XDECREF(labels);
    Py_XDECREF(body);
    Py_XDECREF(orbits);
    Py_XDECREF(auts);
    return NULL;
}

/* Isolation: branch on the least edge not yet touched by a chosen closed
 * neighborhood; candidates are the closed neighborhoods of its endpoints.
 * Earlier siblings are forbidden below a branch. */
static int iso_rec(const u64 *adj, u64 full, u64 covered, u64 forbidden, long budget) {
    u64 rem = full & ~covered, m = rem, cand, tried = 0, x;
    int v = -1, u, w;
    while (m) {
        int i = ctz64(m);
        if (adj[i] & rem) {
            v = i;
            break;
        }
        m &= m - 1;
    }
    if (v < 0)
        return 1;
    if (budget == 0)
        return 0;
    u = ctz64(adj[v] & rem);
    cand = (adj[v] | adj[u] | ((u64)1 << v) | ((u64)1 << u)) & ~forbidden;
    while (cand) {
        x = cand & (0 - cand);
        cand ^= x;
        w = ctz64(x);
        if (iso_rec(adj, full, covered | adj[w] | x, forbidden | tried, budget - 1))
            return 1;
        tried |= x;
    }
    return 0;
}

/* Domination: branch on the least undominated vertex's closed neighborhood. */
static int dom_rec(const u64 *adj, u64 full, u64 covered, u64 forbidden, long budget) {
    u64 rem = full & ~covered, cand, tried = 0, x;
    int v, w;
    if (rem == 0)
        return 1;
    if (budget == 0)
        return 0;
    v = ctz64(rem);
    cand = (adj[v] | ((u64)1 << v)) & ~forbidden;
    while (cand) {
        x = cand & (0 - cand);
        cand ^= x;
        w = ctz64(x);
        if (dom_rec(adj, full, covered | adj[w] | x, forbidden | tried, budget - 1))
            return 1;
        tried |= x;
    }
    return 0;
}

typedef int (*decide_fn)(const u64 *, u64, u64, u64, long);

/* (adj, n, k[, covered, forbidden]): the search starts from the given state.
 * Only the low 64 bits of a mask are read, and bits at or above n never
 * matter, as in the Python fallback. */
static PyObject *decide(PyObject *const *args, Py_ssize_t nargs, const char *fname,
                        decide_fn rec) {
    u64 a[MAXN], full, state[2] = {0, 0};
    int n, i;
    long k;
    if (nargs != 3 && nargs != 5) {
        PyErr_Format(PyExc_TypeError, "%s() takes 3 or 5 arguments (%zd given)", fname, nargs);
        return NULL;
    }
    if (parse_graph(args, a, &n, &full) < 0)
        return NULL;
    k = PyLong_AsLong(args[2]);
    if (k == -1 && PyErr_Occurred())
        return NULL;
    for (i = 3; i < nargs; i++) {
        state[i - 3] = PyLong_AsUnsignedLongLongMask(args[i]);
        if (state[i - 3] == (u64)-1 && PyErr_Occurred())
            return NULL;
    }
    return PyBool_FromLong(k >= 0 && rec(a, full, state[0], state[1], k));
}

static PyObject *has_isolating_set(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    return decide(args, nargs, "has_isolating_set", iso_rec);
}

static PyObject *has_dominating_set(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    return decide(args, nargs, "has_dominating_set", dom_rec);
}

static PyMethodDef core_methods[] = {
    {"canon_form", (PyCFunction)(void (*)(void))canon_form, METH_FASTCALL,
     "canon_form(adj, n[, last]) -> (labels, body, orbits, auts), as in isolab._pykernels;\n"
     "auts lists the first 96 automorphisms found, each as gamma[v] = image of v,\n"
     "and a maximum-degree vertex of the last refined root cell is labeled last.\n"
     "With 0 <= last < n, None when vertex last is outside that cell (found\n"
     "without searching), else the same tuple; last outside -1..n-1 is a ValueError,\n"
     "and one that is not an integer a TypeError."},
    {"has_isolating_set", (PyCFunction)(void (*)(void))has_isolating_set, METH_FASTCALL,
     "has_isolating_set(adj, n, k[, covered, forbidden]) -> whether a set of <= k vertices\n"
     "isolates the graph; the search starts with covered vertices removed and never\n"
     "chooses a forbidden one (both default 0; bits at or above n are ignored)."},
    {"has_dominating_set", (PyCFunction)(void (*)(void))has_dominating_set, METH_FASTCALL,
     "has_dominating_set(adj, n, k[, covered, forbidden]) -> whether a set of <= k vertices\n"
     "dominates the graph; the search starts with covered vertices dominated and never\n"
     "chooses a forbidden one (both default 0; bits at or above n are ignored)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "_core",
    "Compiled compute kernels: canonical labeling and set-cover decisions.\n\n"
    "Semantically identical to isolab._pykernels.",
    -1, core_methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__core(void) {
    PyObject *m = PyModule_Create(&core_module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND_NAME", "c") < 0)
        Py_CLEAR(m);
    return m;
}
