/* Compiled compute kernels: canonical labeling and set-cover decisions.
 *
 * Interchangeable with isolab._pykernels, which gives the same answer to
 * every call. canon_form shares its algorithm with the Python canon_form:
 * the same refined partitions, orbit pruning, 96-automorphism cap and
 * tie-breaks, though the Python refinement counts only against the cells that
 * just split. The decisions share the search order, the packing bound and its
 * gate BOUND_MIN_BUDGET with the Python searches. Here one search, rec, and
 * one bound, outpack, serve both decisions, told apart by a target row; the
 * Python kernels share the bound but keep a search for each decision, which
 * tests its last choice in place. Graphs arrive as a sequence of per-vertex
 * adjacency bitmasks, one 64-bit word per vertex, order <= 64.
 *
 * Contract relied on by canonical augmentation in isolab.lab: canon_form
 * labels a vertex of maximum degree last, and that vertex lies in the last
 * cell of the refined root partition. The search starts from cells in
 * ascending degree (members ascending) and refinement and individualization
 * only split cells in place, never reorder them, so canonical positions are
 * in nondecreasing degree and every cell of the refined root partition keeps
 * its range of positions. canon_form(adj, n, last) with 0 <= last < n returns
 * None when vertex last is outside that last cell, after the root refinement
 * alone, and otherwise searches on from the refined cells. The automorphisms
 * of the parent that fix the new vertex's neighborhood come in as known:
 * canon_form(adj, n, last, known) merges them into the orbits and records
 * them before the search, so they prune it as found ones do, and the labels
 * and body are those of the call without known.
 *
 * The decisions has_isolating_set and has_dominating_set run rec from a start
 * state; first_isolating_set and first_dominating_set run first(), the walk
 * of _pykernels._first, over the same search, which reports the set it chose
 * for the walk to reuse. A start state with a forbidden vertex is first
 * scanned by dead_target, as in the Python kernels.
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

/* Merge gamma's cycles into the orbits and record gamma while under the cap. */
static void add_aut(CS *s, const signed char *gamma) {
    int i;
    for (i = 0; i < s->n; i++)
        uf_union(s, i, gamma[i]);
    if (s->naut < AUT_CAP)
        memcpy(s->auts[s->naut++], gamma, (size_t)s->n);
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
 * that a given or found automorphism maps onto one already tried. */
static void search(CS *s, int *vx, int *cstart, int ncells) {
    unsigned char body[MAX_BODY];
    int pos[MAXN], members[MAXN], tried[MAXN], cvx[MAXN], ccs[MAXN + 1];
    int t = -1, c, i, j, mi, v, skip, ntried, cmp, cellsz, w;
    signed char found[MAXN], *gamma;

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
                found[s->best_inv[i]] = (signed char)vx[i];
            add_aut(s, found);
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

/* Merge each entry of known, the automorphisms the caller already has, into
 * the orbits and record the first ones, as add_aut does for found ones. Every
 * entry must be a sequence of n integers that permutes 0..n-1, checked
 * before it is used; that it is an automorphism is the caller's contract.
 * bytes entries, as isolab.lab passes them, are read without conversion. */
static int load_known(CS *s, PyObject *known) {
    PyObject *seq, *e, *g;
    signed char gamma[MAXN];
    long img[MAXN];
    Py_ssize_t j, len;
    int i, overflow;
    u64 seen;
    seq = PySequence_Fast(known, "known must be a sequence of permutations");
    if (seq == NULL)
        return -1;
    for (j = 0; j < PySequence_Fast_GET_SIZE(seq); j++) {
        e = PySequence_Fast_GET_ITEM(seq, j);
        if (PyBytes_Check(e) && PyBytes_GET_SIZE(e) == s->n) {
            for (i = 0; i < s->n; i++)
                img[i] = (unsigned char)PyBytes_AS_STRING(e)[i];
        } else {
            g = PySequence_Fast(e, "a known entry must be a sequence");
            if (g == NULL)
                goto fail;
            len = PySequence_Fast_GET_SIZE(g);
            for (i = 0; i < s->n && len == s->n; i++) {
                img[i] = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(g, i), &overflow);
                if (overflow)
                    img[i] = -1;
                else if (img[i] == -1 && PyErr_Occurred())
                    break;
            }
            Py_DECREF(g);
            if (PyErr_Occurred())
                goto fail;
            if (len != s->n)
                goto not_perm;
        }
        for (i = 0, seen = 0; i < s->n; i++) {
            if (img[i] < 0 || img[i] >= s->n || (seen >> img[i] & 1))
                goto not_perm;
            seen |= (u64)1 << img[i];
            gamma[i] = (signed char)img[i];
        }
        add_aut(s, gamma);
    }
    Py_DECREF(seq);
    return 0;
not_perm:
    PyErr_Format(PyExc_ValueError, "a known entry is not a permutation of range(%d)", s->n);
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
    if (nargs < 2 || nargs > 4) {
        PyErr_Format(PyExc_TypeError, "canon_form() takes 2 to 4 arguments (%zd given)", nargs);
        return NULL;
    }
    if (parse_graph(args, s.adj, &n, &full) < 0)
        return NULL;
    if (nargs >= 3) {
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
    if (nargs == 4 && load_known(&s, args[3]) < 0)
        return NULL;
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
    /* the automorphisms given, then those found, gamma[v] = image of v */
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

/* Both decisions search for at most budget allowed vertices whose closed
 * neighborhoods hit every target inside rem, the vertices not yet covered.
 * The target row tgt, one mask per vertex, names the targets: vertex v is the
 * low end of a target still to hit when tgt[v] & rem is nonzero, and the
 * least bit of that mask is the other end. For isolation tgt is adj, and the
 * targets are the edges inside rem; for domination tgt is self_rows, and the
 * targets are the vertices of rem. Either way a target's choosers are the
 * closed neighborhoods of its ends less forbidden. */
#define B1(i) ((u64)1 << (i))
#define B8(i) B1(i), B1(i + 1), B1(i + 2), B1(i + 3), B1(i + 4), B1(i + 5), B1(i + 6), B1(i + 7)
static const u64 self_rows[MAXN] = {B8(0), B8(8), B8(16), B8(24), B8(32), B8(40), B8(48), B8(56)};

/* The closed neighborhoods of the ends of the target at a, whose other end is
 * the least bit of e: the target's choosers before forbidden is taken out. A
 * vertex target is its own other end (e is a alone), and skipping the second
 * load for it keeps domination as fast as a search of its own. */
static inline u64 choosers(const u64 *adj, int a, u64 e) {
    u64 c = adj[a] | ((u64)1 << a);
    if (e != ((u64)1 << a)) {
        e &= 0 - e;
        c |= adj[ctz64(e)] | e;
    }
    return c;
}

/* Packing bound, the same as _pykernels._outpack: nonzero when more than
 * budget targets have pairwise disjoint chooser sets, or one has none. Each
 * such target needs a chosen vertex of its own, so a nonzero answer refutes
 * the node, and a node that holds a solution never gets one: the bound changes
 * no answer. The greedy starts from the branching target at v, whose choosers
 * are cand. A target's choosers meet a kept chooser set C exactly when one of
 * its ends lies in N[C], so the next target is the least one inside left, rem
 * less the closed neighborhoods of every kept chooser. Both target rows are
 * symmetric, so a vertex that is the low end of no target inside left is an
 * end of none, and never becomes one, since left only shrinks: the scan drops
 * it from left for good, and left starts at v, as no vertex below v is the
 * low end of a target in rem. Each further target lies inside left, and
 * keeping it takes at least one of its ends out of left, so the greedy gives
 * up once left has fewer vertices than targets it still needs. Nodes run
 * it from budget BOUND_MIN_BUDGET up, the constant of the Python kernels: below
 * it the bound rarely refutes what the search would not refute at once, and
 * costs more than it saves there. */
#define BOUND_MIN_BUDGET 3

static int outpack(const u64 *adj, const u64 *tgt, u64 rem, u64 forbidden, int v, u64 cand,
                   long budget) {
    u64 left = rem >> v << v, near, e = 0;
    int a = 0;
    while (cand) {
        for (near = cand; cand; cand &= cand - 1)
            near |= adj[ctz64(cand)];
        left &= ~near;
        if (pop64(left) < budget)
            return 0;
        for (; left; left &= left - 1) {
            a = ctz64(left);
            if ((e = tgt[a] & left) != 0)
                break;
        }
        if (left == 0)
            return 0;
        if (--budget == 0)
            return 1;
        cand = choosers(adj, a, e) & ~forbidden;
    }
    return 1;
}

/* Whether at most budget vertices outside forbidden hit every target inside
 * rem; when they do, and only then, *chosen is set to the first such set the
 * search meets.
 * Branch on the least target still to hit, one branch per chooser in
 * ascending order. Earlier siblings are forbidden below a branch, so no
 * vertex set is explored twice. */
static int rec(const u64 *adj, const u64 *tgt, u64 rem, u64 forbidden, long budget,
               u64 *chosen) {
    u64 m, e = 0, cand, tried = 0, x;
    int v = 0, w;
    for (m = rem; m; m &= m - 1) {
        v = ctz64(m);
        if ((e = tgt[v] & rem) != 0)
            break;
    }
    if (m == 0) {
        *chosen = 0;
        return 1;
    }
    if (budget == 0)
        return 0;
    cand = choosers(adj, v, e) & ~forbidden;
    if (budget >= BOUND_MIN_BUDGET && outpack(adj, tgt, rem, forbidden, v, cand, budget))
        return 0;
    while (cand) {
        x = cand & (0 - cand);
        cand ^= x;
        w = ctz64(x);
        if (rec(adj, tgt, rem & ~(adj[w] | x), forbidden | tried, budget - 1, chosen)) {
            *chosen |= x;
            return 1;
        }
        tried |= x;
    }
    return 0;
}

/* Whether some target inside rem has every chooser forbidden, which refutes
 * the state at every budget, as _pykernels._dead_target. A vertex is blind
 * when its closed neighborhood is all forbidden; a target has no allowed
 * chooser exactly when both its ends are blind. */
static int dead_target(const u64 *adj, const u64 *tgt, u64 rem, u64 forbidden) {
    u64 m, blind = 0;
    for (m = rem & forbidden; m; m &= m - 1)
        if (!(adj[ctz64(m)] & ~forbidden))
            blind |= m & (0 - m);
    for (m = blind; m; m &= m - 1)
        if (tgt[ctz64(m)] & blind)
            return 1;
    return 0;
}

/* Parse (adj, n, k[, covered[, forbidden]]), all positional, as in the Python
 * fallback. Only the low 64 bits of a mask are read, and bits at or above n
 * never matter.
 * *overflow is set as by PyLong_AsLongAndOverflow when k does not fit. */
static int parse_query(PyObject *const *args, Py_ssize_t nargs, const char *fname, u64 *a,
                       int *n, u64 *full, long *k, int *overflow, u64 *state) {
    int i;
    if (nargs < 3 || nargs > 5) {
        PyErr_Format(PyExc_TypeError, "%s() takes 3 to 5 arguments (%zd given)", fname, nargs);
        return -1;
    }
    if (parse_graph(args, a, n, full) < 0)
        return -1;
    *k = PyLong_AsLongAndOverflow(args[2], overflow);
    if (*k == -1 && PyErr_Occurred())
        return -1;
    state[0] = state[1] = 0;
    for (i = 3; i < nargs; i++) {
        state[i - 3] = PyLong_AsUnsignedLongLongMask(args[i]);
        if (state[i - 3] == (u64)-1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* tgt is the target row of rec, or NULL for the adjacency rows (isolation),
 * as in first. A start state with a forbidden vertex is first scanned for a
 * target with no allowed chooser. */
static PyObject *decide(PyObject *const *args, Py_ssize_t nargs, const char *fname,
                        const u64 *tgt) {
    u64 a[MAXN], full, state[2], rem, chosen;
    int n, overflow;
    long k;
    if (parse_query(args, nargs, fname, a, &n, &full, &k, &overflow, state) < 0)
        return NULL;
    /* No set needs more than n vertices, so a k too large for a long is k = n,
     * and one too small is a refutation, as in the Python fallback. */
    if (overflow)
        k = overflow > 0 ? n : -1;
    if (tgt == NULL)
        tgt = a;
    rem = full & ~state[0];
    if (k > 0 && (state[1] & full) && dead_target(a, tgt, rem, state[1]))
        return PyBool_FromLong(0);
    return PyBool_FromLong(k >= 0 && rec(a, tgt, rem, state[1], k, &chosen));
}

/* The walk of _pykernels._first: the lex-least set of exactly k allowed
 * vertices that completes the start state, as a mask, or -1. Vertex v is taken
 * at the next position when rec finds a completion of at most one vertex
 * fewer with every vertex up to v forbidden, and enough allowed vertices lie
 * above v to pad it to exact size; a taken vertex always completes, so the
 * walk never backtracks and makes at most n decisions. The completion a
 * successful rec reports is kept in w, above the vertex just taken: at the
 * next position the least vertex of w is taken without a decision, since the
 * rest of w completes it, and only the candidates below it are decided; one
 * that succeeds is lex-smaller, and its completion replaces w. Both backends
 * run this one walk. Unlike decide, a k outside 0..n (too large for a long
 * included) has no answer. */
static PyObject *first(PyObject *const *args, Py_ssize_t nargs, const char *fname,
                       const u64 *tgt) {
    u64 a[MAXN], full, state[2], rem, forbidden, rest, found = 0, bit, r = 0, f = 0, w = 0;
    int n, overflow;
    long k;
    if (parse_query(args, nargs, fname, a, &n, &full, &k, &overflow, state) < 0)
        return NULL;
    if (overflow || k < 0 || k > n)
        return PyLong_FromLong(-1);
    if (tgt == NULL)
        tgt = a;
    rem = full & ~state[0];
    forbidden = state[1];
    if ((forbidden & full) && dead_target(a, tgt, rem, forbidden))
        return PyLong_FromLong(-1);
    if (k == 0)
        return PyLong_FromLong(rec(a, tgt, rem, forbidden, 0, &w) ? 0 : -1);
    rest = full & ~forbidden;
    while (k-- > 0) {
        for (;;) {
            if (pop64(rest) <= k)
                return PyLong_FromLong(-1);
            bit = rest & (0 - rest);
            rest ^= bit;
            r = rem & ~(a[ctz64(bit)] | bit);
            f = forbidden | bit | (bit - 1);
            if (w & bit) {
                w ^= bit;
                break;
            }
            if (rec(a, tgt, r, f, k, &w))
                break;
        }
        found |= bit;
        rem = r;
        forbidden = f;
    }
    return PyLong_FromUnsignedLongLong(found);
}

static PyObject *has_isolating_set(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    return decide(args, nargs, "has_isolating_set", NULL);
}

static PyObject *has_dominating_set(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    return decide(args, nargs, "has_dominating_set", self_rows);
}

static PyObject *first_isolating_set(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    return first(args, nargs, "first_isolating_set", NULL);
}

static PyObject *first_dominating_set(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    return first(args, nargs, "first_dominating_set", self_rows);
}

static PyMethodDef core_methods[] = {
    {"canon_form", (PyCFunction)(void (*)(void))canon_form, METH_FASTCALL,
     "canon_form(adj, n[, last[, known]]) -> (labels, body, orbits, auts), as in\n"
     "isolab._pykernels; auts lists the automorphisms given in known, then those\n"
     "found, the first 96 in all, each as gamma[v] = image of v, orbits are those\n"
     "they generate, and a maximum-degree vertex of the last refined root cell is\n"
     "labeled last. With 0 <= last < n, None when vertex last is outside that cell\n"
     "(found without searching), else the same tuple; last outside -1..n-1 is a\n"
     "ValueError, and one that is not an integer a TypeError. known, automorphisms\n"
     "the caller has, prune the search but change no label or body; an entry that\n"
     "is not a permutation of range(n) is a ValueError. Below the root only the 96\n"
     "recorded automorphisms prune the search, so its time grows exponentially on\n"
     "graphs with many more: K_n and the empty graph take 0.4 s at n = 20 and 7 s\n"
     "at n = 21."},
    {"has_isolating_set", (PyCFunction)(void (*)(void))has_isolating_set, METH_FASTCALL,
     "has_isolating_set(adj, n, k[, covered[, forbidden]]) -> whether a set of <= k vertices\n"
     "isolates the graph; the search starts with covered vertices removed and never\n"
     "chooses a forbidden one (both default 0; bits at or above n are ignored)."},
    {"has_dominating_set", (PyCFunction)(void (*)(void))has_dominating_set, METH_FASTCALL,
     "has_dominating_set(adj, n, k[, covered[, forbidden]]) -> whether a set of <= k vertices\n"
     "dominates the graph; the search starts with covered vertices dominated and never\n"
     "chooses a forbidden one (both default 0; bits at or above n are ignored)."},
    {"first_isolating_set", (PyCFunction)(void (*)(void))first_isolating_set, METH_FASTCALL,
     "first_isolating_set(adj, n, k[, covered[, forbidden]]) -> the lex-least isolating set of\n"
     "exactly k vertices from the start state of has_isolating_set, as a mask, or -1 when\n"
     "there is none (always for k < 0 or k > n); at most n decisions in one call."},
    {"first_dominating_set", (PyCFunction)(void (*)(void))first_dominating_set, METH_FASTCALL,
     "first_dominating_set(adj, n, k[, covered[, forbidden]]) -> the lex-least dominating set of\n"
     "exactly k vertices from the start state of has_dominating_set, as a mask, or -1 when\n"
     "there is none (always for k < 0 or k > n); at most n decisions in one call."},
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
