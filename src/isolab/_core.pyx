# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled compute kernels: canonical labeling and set-cover decisions.

Mirrors isolab._pykernels exactly (same refinement order, same pruning,
same tie-breaks) so the two backends are interchangeable.
"""

from libc.string cimport memcmp

ctypedef unsigned long long u64

BACKEND_NAME = "c"

cdef extern from *:
    """
    #if defined(_MSC_VER)
    #include <intrin.h>
    static inline int isolab_ctz(unsigned long long x){unsigned long i;_BitScanForward64(&i,x);return (int)i;}
    static inline int isolab_pop(unsigned long long x){return (int)__popcnt64(x);}
    #else
    static inline int isolab_ctz(unsigned long long x){return __builtin_ctzll(x);}
    static inline int isolab_pop(unsigned long long x){return __builtin_popcountll(x);}
    #endif
    """
    int isolab_ctz(u64 x) nogil
    int isolab_pop(u64 x) nogil

DEF MAXN = 64
DEF AUT_CAP = 96


cdef struct CS:
    u64 adj[MAXN]
    int n
    int body_len
    int have_best
    unsigned char best_body[340]
    int best_pos[MAXN]
    int best_inv[MAXN]
    int uf[MAXN]
    int naut
    signed char auts[AUT_CAP][MAXN]
    int prefix[MAXN]
    int plen


cdef int uf_find(CS* s, int x) nogil:
    cdef int root = x, tmp
    while s.uf[root] != root:
        root = s.uf[root]
    while s.uf[x] != root:
        tmp = s.uf[x]
        s.uf[x] = root
        x = tmp
    return root


cdef void uf_union(CS* s, int a, int b) nogil:
    cdef int ra = uf_find(s, a), rb = uf_find(s, b)
    if ra == rb:
        return
    if ra < rb:
        s.uf[rb] = ra
    else:
        s.uf[ra] = rb


cdef void pack_body(CS* s, int* vx, unsigned char* out) nogil:
    cdef int i, j, nb = 0, pos = 0
    cdef unsigned int group = 0
    cdef u64 aj
    for j in range(1, s.n):
        aj = s.adj[vx[j]]
        for i in range(j):
            group = (group << 1) | <unsigned int>((aj >> vx[i]) & 1)
            nb += 1
            if nb == 6:
                out[pos] = <unsigned char>(group + 63)
                pos += 1
                group = 0
                nb = 0
    if nb:
        out[pos] = <unsigned char>((group << (6 - nb)) + 63)


cdef int refine(CS* s, int* vx, int* cstart, int ncells) nogil:
    # Stable neighborhood refinement; identical splitting order to the
    # Python fallback (subcells ascending by signature, members ascending).
    cdef u64 cellmask[MAXN]
    cdef unsigned char sig[MAXN][MAXN]
    cdef int idx[MAXN]
    cdef int nvx[MAXN]
    cdef int ncs[MAXN + 1]
    cdef int c, a, b, size, t, d, i, j, key_i, pos, newn, changed
    cdef u64 av
    while True:
        for c in range(ncells):
            cellmask[c] = 0
            for t in range(cstart[c], cstart[c + 1]):
                cellmask[c] |= (<u64>1) << vx[t]
        changed = 0
        newn = 0
        pos = 0
        for c in range(ncells):
            a = cstart[c]
            b = cstart[c + 1]
            size = b - a
            ncs[newn] = pos
            if size == 1:
                nvx[pos] = vx[a]
                pos += 1
                newn += 1
                continue
            for t in range(size):
                av = s.adj[vx[a + t]]
                for d in range(ncells):
                    sig[t][d] = <unsigned char>isolab_pop(av & cellmask[d])
            for t in range(size):
                idx[t] = t
            # insertion sort by (signature, vertex)
            for i in range(1, size):
                key_i = idx[i]
                j = i - 1
                while j >= 0:
                    d = memcmp(sig[idx[j]], sig[key_i], ncells)
                    if d > 0 or (d == 0 and vx[a + idx[j]] > vx[a + key_i]):
                        idx[j + 1] = idx[j]
                        j -= 1
                    else:
                        break
                idx[j + 1] = key_i
            for t in range(size):
                if t > 0 and memcmp(sig[idx[t]], sig[idx[t - 1]], ncells) != 0:
                    newn += 1
                    ncs[newn] = pos
                    changed = 1
                nvx[pos] = vx[a + idx[t]]
                pos += 1
            newn += 1
        ncs[newn] = pos
        for t in range(pos):
            vx[t] = nvx[t]
        for c in range(newn + 1):
            cstart[c] = ncs[c]
        ncells = newn
        if not changed:
            return ncells


cdef void search(CS* s, int* vx, int* cstart, int ncells) nogil:
    cdef int t = -1, c, i, j, mi, v, gv, skip, ntried, cmp_res
    cdef unsigned char body[340]
    cdef int pos[MAXN]
    cdef int members[MAXN]
    cdef int tried[MAXN]
    cdef int cvx[MAXN]
    cdef int ccs[MAXN + 1]
    cdef int cellsz, w
    cdef signed char* gamma
    ncells = refine(s, vx, cstart, ncells)
    for c in range(ncells):
        if cstart[c + 1] - cstart[c] > 1:
            t = c
            break
    if t < 0:
        for i in range(s.n):
            pos[vx[i]] = i
        pack_body(s, vx, body)
        if not s.have_best:
            cmp_res = 1
        else:
            cmp_res = memcmp(body, s.best_body, s.body_len)
        if cmp_res > 0:
            for i in range(s.body_len):
                s.best_body[i] = body[i]
            for i in range(s.n):
                s.best_pos[i] = pos[i]
                s.best_inv[i] = vx[i]
            s.have_best = 1
        elif cmp_res == 0:
            if s.naut < AUT_CAP:
                gamma = s.auts[s.naut]
                for i in range(s.n):
                    gamma[s.best_inv[i]] = <signed char>vx[i]
                s.naut += 1
                for i in range(s.n):
                    uf_union(s, i, gamma[i])
            else:
                for i in range(s.n):
                    uf_union(s, s.best_inv[i], vx[i])
        return
    cellsz = cstart[t + 1] - cstart[t]
    for i in range(cellsz):
        members[i] = vx[cstart[t] + i]
    ntried = 0
    for mi in range(cellsz):
        v = members[mi]
        skip = 0
        if s.plen == 0:
            for j in range(ntried):
                if uf_find(s, v) == uf_find(s, tried[j]):
                    skip = 1
                    break
        else:
            for c in range(s.naut):
                gamma = s.auts[c]
                gv = gamma[v]
                for j in range(ntried):
                    if tried[j] == gv:
                        skip = 1
                        break
                if skip:
                    for j in range(s.plen):
                        if gamma[s.prefix[j]] != s.prefix[j]:
                            skip = 0
                            break
                if skip:
                    break
        if not skip:
            # child partition: cells before t, [v], rest of cell, cells after
            for i in range(cstart[t]):
                cvx[i] = vx[i]
            for c in range(t + 1):
                ccs[c] = cstart[c]
            cvx[cstart[t]] = v
            ccs[t + 1] = cstart[t] + 1
            w = cstart[t] + 1
            for i in range(cellsz):
                if members[i] != v:
                    cvx[w] = members[i]
                    w += 1
            ccs[t + 2] = cstart[t + 1]
            for i in range(cstart[t + 1], cstart[ncells]):
                cvx[i] = vx[i]
            for c in range(t + 1, ncells):
                ccs[c + 2] = cstart[c + 1]
            s.prefix[s.plen] = v
            s.plen += 1
            search(s, cvx, ccs, ncells + 1)
            s.plen -= 1
        tried[ntried] = v
        ntried += 1


def canon_form(adj, int n):
    """Canonical labeling, contract as in the fallback: a maximum-degree vertex is labeled last."""
    if n == 0:
        return [], b"", []
    cdef CS s
    cdef int i, j, r
    cdef int vx[MAXN]
    cdef int cstart[MAXN + 1]
    cdef int degs[MAXN]
    cdef int order_buf[MAXN]
    s.n = n
    s.body_len = (n * (n - 1) // 2 + 5) // 6
    s.have_best = 0
    s.naut = 0
    s.plen = 0
    for i in range(n):
        s.adj[i] = <u64>adj[i]
        s.uf[i] = i
    # initial partition by ascending degree, members ascending
    for i in range(n):
        degs[i] = isolab_pop(s.adj[i])
        order_buf[i] = i
    for i in range(1, n):
        j = i - 1
        r = order_buf[i]
        while j >= 0 and (degs[order_buf[j]] > degs[r] or (degs[order_buf[j]] == degs[r] and order_buf[j] > r)):
            order_buf[j + 1] = order_buf[j]
            j -= 1
        order_buf[j + 1] = r
    cdef int ncells = 0
    cstart[0] = 0
    for i in range(n):
        vx[i] = order_buf[i]
        if i > 0 and degs[order_buf[i]] != degs[order_buf[i - 1]]:
            ncells += 1
            cstart[ncells] = i
    ncells += 1
    cstart[ncells] = n

    search(&s, vx, cstart, ncells)

    labels = [0] * n
    for i in range(n):
        labels[i] = s.best_pos[i]
    body = bytes(s.best_body[: s.body_len]) if n > 1 else b""
    # orbit representative = least vertex of the union-find class
    cdef int mn[MAXN]
    for i in range(n):
        mn[i] = MAXN
    for i in range(n):
        r = uf_find(&s, i)
        if i < mn[r]:
            mn[r] = i
    orbits = [0] * n
    for i in range(n):
        orbits[i] = mn[uf_find(&s, i)]
    return labels, body, orbits


cdef bint iso_rec(u64* adj, u64 full, u64 covered, u64 forbidden, int budget) nogil:
    cdef u64 rem = full & ~covered
    cdef u64 m = rem, e, cand, tried, x
    cdef int v = -1, i, u, w
    while m:
        i = isolab_ctz(m)
        if adj[i] & rem:
            v = i
            break
        m &= m - 1
    if v < 0:
        return True
    if budget == 0:
        return False
    e = adj[v] & rem
    u = isolab_ctz(e)
    cand = (adj[v] | adj[u] | ((<u64>1) << v) | ((<u64>1) << u)) & ~forbidden
    tried = 0
    while cand:
        x = cand & (0 - cand)
        cand ^= x
        w = isolab_ctz(x)
        if iso_rec(adj, full, covered | adj[w] | x, forbidden | tried, budget - 1):
            return True
        tried |= x
    return False


cdef bint dom_rec(u64* adj, u64 full, u64 covered, u64 forbidden, int budget) nogil:
    cdef u64 rem = full & ~covered
    cdef u64 cand, tried, x
    cdef int v, w
    if rem == 0:
        return True
    if budget == 0:
        return False
    v = isolab_ctz(rem)
    cand = (adj[v] | ((<u64>1) << v)) & ~forbidden
    tried = 0
    while cand:
        x = cand & (0 - cand)
        cand ^= x
        w = isolab_ctz(x)
        if dom_rec(adj, full, covered | adj[w] | x, forbidden | tried, budget - 1):
            return True
        tried |= x
    return False


cdef u64 full_mask(int n) nogil:
    if n >= 64:
        return <u64>0xFFFFFFFFFFFFFFFF
    return ((<u64>1) << n) - 1


def has_isolating_set(adj, int n, int k):
    if k < 0:
        return False
    cdef u64 a[MAXN]
    cdef int i
    for i in range(n):
        a[i] = <u64>adj[i]
    return bool(iso_rec(a, full_mask(n), 0, 0, k))


def has_dominating_set(adj, int n, int k):
    if k < 0:
        return False
    cdef u64 a[MAXN]
    cdef int i
    for i in range(n):
        a[i] = <u64>adj[i]
    return bool(dom_rec(a, full_mask(n), 0, 0, k))
