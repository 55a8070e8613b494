"""Pure-Python compute kernels (fallback for the compiled core).

Semantically identical to ``isolab._core``; either module can back
``isolab._backend``. Graphs arrive as a sequence of per-vertex adjacency
bitmasks, one machine word per vertex, order <= 64.
"""

from __future__ import annotations

import operator

BACKEND_NAME = "python"

_AUT_CAP = 96


def _refine(adj, cells, fresh):
    """Stable neighborhood refinement of an ordered partition.

    Repeatedly splits cells by the vector of neighbor counts against every
    current cell, keeping subcells in ascending signature order, until no
    cell splits. Deterministic and invariant under vertex relabeling.

    Only the counts against the cells in ``fresh`` are taken. The caller
    passes the cells its input may be uneven against, less one whose counts
    follow from the others: ``canon_form`` passes the degree cells but the
    last at the root, and the search the individualized singleton below
    it. Each later round takes the subcells that the round before split
    off, less the last of each split cell. The result is the same as
    counting against every cell. Members of a cell have equal counts
    against each cell of the round before, and the counts against a split
    cell's parts add up to the count against the whole. So two members'
    full signatures agree at every cell that is not fresh, at a split
    cell's last part once they agree at its other parts, which come first,
    and first differ at a fresh cell.
    """
    while fresh:
        masks = []
        for cell in fresh:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        out = []
        fresh = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            sigs = {}
            for v in cell:
                a = adj[v]
                sig = tuple([(a & m).bit_count() for m in masks])
                sigs.setdefault(sig, []).append(v)
            if len(sigs) == 1:
                out.append(cell)
            else:
                parts = [sigs[key] for key in sorted(sigs)]
                out += parts
                fresh += parts[:-1]
        cells = out
    return cells


def _pack_body(adj, n, pos):
    # graph6 body of the relabeled graph: upper triangle column by column,
    # 6-bit groups, each group + 63, last group zero-padded.
    inv = [0] * n
    for v in range(n):
        inv[pos[v]] = v
    out = bytearray()
    group = 0
    nbits = 0
    for j in range(1, n):
        aj = adj[inv[j]]
        for i in range(j):
            group = (group << 1) | ((aj >> inv[i]) & 1)
            nbits += 1
            if nbits == 6:
                out.append(group + 63)
                group = 0
                nbits = 0
    if nbits:
        out.append((group << (6 - nbits)) + 63)
    return bytes(out)


def canon_form(adj, n, last=-1):
    """Canonical labeling by refinement plus backtracking.

    Returns ``(labels, body, orbits, auts)`` where ``labels[v]`` is the
    canonical position of vertex ``v``, ``body`` is the graph6 bit packing
    of the relabeled adjacency (equal bodies for equal order <=>
    isomorphic), ``auts`` lists the automorphisms discovered during the
    search, the first ``_AUT_CAP`` of them in the order found, each as a
    list with ``gamma[v]`` the image of ``v``, and ``orbits[v]`` is the
    least vertex in ``v``'s orbit under every discovered automorphism (a
    refinement of the true orbit partition, never coarser).

    The search starts from cells in ascending degree, refines them, and
    from then on refinement and individualization only split cells in
    place, never reorder them. So positions are in nondecreasing degree,
    and the vertex labeled last lies in the last cell of the refined root
    partition. Canonical augmentation in ``isolab.lab`` prunes on both.

    With ``0 <= last < n``, the result is ``None`` when vertex ``last``
    is not in that cell, found after the root refinement alone; otherwise
    it is the same as without ``last``. ``last`` outside ``-1..n-1``
    raises ``ValueError``, and one that is not an integer ``TypeError``.
    """
    if not -1 <= operator.index(last) < n:
        raise ValueError(f"last {last} outside -1..{n - 1}")
    if n == 0:
        return [], b"", [], []
    bydeg = {}
    for v in range(n):
        bydeg.setdefault(adj[v].bit_count(), []).append(v)
    cells0 = [bydeg[d] for d in sorted(bydeg)]
    cells0 = _refine(adj, cells0, cells0[:-1])
    if last >= 0 and last not in cells0[-1]:
        return None

    best = {"body": None, "pos": None, "inv": None}
    parent = list(range(n))
    auts = []

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        # The smaller root wins, so every root is the least vertex of its set.
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    def search(cells, prefix):
        # cells: a refined partition
        t = -1
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                t = idx
                break
        if t < 0:
            pos = [0] * n
            inv = [0] * n
            for i, cell in enumerate(cells):
                pos[cell[0]] = i
                inv[i] = cell[0]
            body = _pack_body(adj, n, pos)
            if best["body"] is None or body > best["body"]:
                best["body"] = body
                best["pos"] = pos
                best["inv"] = inv
            elif body == best["body"]:
                binv = best["inv"]
                gamma = [0] * n
                for i in range(n):
                    gamma[binv[i]] = inv[i]
                if len(auts) < _AUT_CAP:
                    auts.append(gamma)
                for v in range(n):
                    union(v, gamma[v])
            return
        cell = cells[t]
        head = cells[:t]
        tail = cells[t + 1 :]
        tried = set()
        for v in cell:
            if not prefix:
                if any(find(v) == find(u) for u in tried):
                    tried.add(v)
                    continue
            else:
                skip = False
                for gamma in auts:
                    if gamma[v] in tried and all(gamma[p] == p for p in prefix):
                        skip = True
                        break
                if skip:
                    tried.add(v)
                    continue
            rest = [u for u in cell if u != v]
            single = [v]
            search(_refine(adj, head + [single, rest] + tail, [single]), prefix + (v,))
            tried.add(v)

    search(cells0, ())

    return best["pos"], best["body"], [find(v) for v in range(n)], auts


def has_isolating_set(adj, n, k, covered=0, forbidden=0):
    """Decide whether some vertex set of size <= k isolates the graph.

    Branches on the least edge not yet touched by chosen closed
    neighborhoods; candidates are the closed neighborhoods of the edge's
    endpoints. Earlier siblings are forbidden below a branch, so no vertex
    set is explored twice. False for k < 0.

    The search may start from a state: ``covered`` vertices count as
    already removed (the closed neighborhood of a set chosen so far) and
    ``forbidden`` vertices may not be chosen. Mask bits at or above n are
    ignored.
    """
    if k < 0:
        return False
    full = (1 << n) - 1

    def rec(covered, forbidden, budget):
        rem = full & ~covered
        m = rem
        v = -1
        while m:
            x = m & -m
            i = x.bit_length() - 1
            if adj[i] & rem:
                v = i
                break
            m ^= x
        if v < 0:
            return True
        if budget == 0:
            return False
        e = adj[v] & rem
        u = (e & -e).bit_length() - 1
        cand = (adj[v] | adj[u] | (1 << v) | (1 << u)) & ~forbidden
        tried = 0
        while cand:
            x = cand & -cand
            cand ^= x
            w = x.bit_length() - 1
            if rec(covered | adj[w] | x, forbidden | tried, budget - 1):
                return True
            tried |= x
        return False

    return rec(covered, forbidden, k)


def has_dominating_set(adj, n, k, covered=0, forbidden=0):
    """Decide whether some vertex set of size <= k dominates every vertex
    (False for k < 0), starting from ``covered`` vertices already dominated
    and with ``forbidden`` vertices never chosen, as in has_isolating_set."""
    if k < 0:
        return False
    full = (1 << n) - 1

    def rec(covered, forbidden, budget):
        rem = full & ~covered
        if not rem:
            return True
        if budget == 0:
            return False
        x = rem & -rem
        v = x.bit_length() - 1
        cand = (adj[v] | x) & ~forbidden
        tried = 0
        while cand:
            y = cand & -cand
            cand ^= y
            w = y.bit_length() - 1
            if rec(covered | adj[w] | y, forbidden | tried, budget - 1):
                return True
            tried |= y
        return False

    return rec(covered, forbidden, k)
