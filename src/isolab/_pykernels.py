"""Pure-Python compute kernels (fallback for the compiled core).

Semantically identical to ``isolab._core``; either module can back
``isolab._backend``. Graphs arrive as a sequence of per-vertex adjacency
bitmasks, one machine word per vertex, order <= 64.

``canon_form`` holds each cell of a partition as one vertex mask, whose
bits in ascending order are the cell's members in order. It refines on
bit-sliced neighbor counts, all vertices at once, and compares leaves by
one integer in the order of their graph6 bodies, packing bytes only for
the best leaf. ``_body_key`` and ``_body_bytes`` are also the graph6
packer of ``isolab.graphs.write_graph6``.

The decisions are set-cover searches, the view of domination that Fomin,
Grandoni and Kratsch (J. ACM 2009) and van Rooij and Bodlaender (Discrete
Appl. Math. 2011) analyze: each branches on the least target still to hit,
an edge for isolation and a vertex for domination, and prunes with a greedy
packing bound, since targets whose allowed chooser sets are pairwise
disjoint each need a chosen vertex of their own. The bound, ``_outpack``,
is written once for both, told which targets to pack by a target row.
``_isolating_search`` and ``_dominating_search`` stay apart, each testing
its last choice in place, and each is built once per call. The ``has_*``
decisions run it from the start state, and the ``first_*`` kernels run
``_first``, the walk that builds the lex-least set of exactly k vertices
from at most n of its decisions.
"""

from __future__ import annotations

import operator

BACKEND_NAME = "python"

_AUT_CAP = 96


def _refine(adj, n, cells, fresh):
    """Stable neighborhood refinement of an ordered partition.

    Cells are vertex masks. Repeatedly splits cells by the vector of
    neighbor counts against every current cell, keeping subcells in
    ascending signature order, until no cell splits. Deterministic and
    invariant under vertex relabeling.

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

    The counts against a fresh cell ``f`` are held bit-sliced, for all
    vertices at once: bit ``v`` of plane ``k`` is bit ``k`` of
    ``|adj[v] & f|``. The planes are the sum of the adjacency masks of
    ``f``'s members by ripple-carry adds, and a singleton ``{w}`` has the
    one plane ``adj[w]``. A cell splits by each plane in turn, the part
    with the plane's bit clear first: the planes of ``fresh[0]`` from the
    most significant down, then those of ``fresh[1]``, and so on. That
    orders the parts by ascending signature, compared lexicographically,
    and each part's members stay in ascending order. A round that leaves
    all ``n`` cells singletons ends the refinement, since nothing can split.
    """
    while fresh and len(cells) < n:
        planes = []
        for f in fresh:
            if f & (f - 1):
                sums = [0] * f.bit_count().bit_length()
                while f:
                    x = f & -f
                    f ^= x
                    carry = adj[x.bit_length() - 1]
                    k = 0
                    while carry:
                        s = sums[k]
                        sums[k] = s ^ carry
                        carry &= s
                        k += 1
                planes += reversed(sums)
            else:
                planes.append(adj[f.bit_length() - 1])
        out = []
        fresh = []
        for cell in cells:
            if cell & (cell - 1):
                parts = [cell]
                for p in planes:
                    x = cell & p
                    if x and x != cell:
                        split = []
                        for q in parts:
                            y = q & p
                            if y and y != q:
                                split += (q ^ y, y)
                            else:
                                split.append(q)
                        parts = split
                if len(parts) > 1:
                    out += parts
                    fresh += parts[:-1]
                    continue
            out.append(cell)
        cells = out
    return cells


def _body_key(adj, order):
    """The graph6 body bits of the graph relabeled so that position ``i``
    holds vertex ``order[i]``, as one integer: the upper triangle column by
    column, the first bit highest. Keys of graphs of one order compare as
    their bodies do."""
    n = len(order)
    row = [0] * n  # row[order[i]] = 1 << (n - 1 - i)
    bit = 1 << n
    for v in order:
        bit >>= 1
        row[v] = bit
    key = 0
    seen = 0
    for j, v in enumerate(order):
        # Column j is the rows of v's neighbors at positions below j; the
        # shift leaves its j bits, row 0 highest.
        m = adj[v] & seen
        seen |= 1 << v
        col = 0
        while m:
            x = m & -m
            col |= row[x.bit_length() - 1]
            m ^= x
        key = key << j | col >> (n - j)
    return key


def _body_bytes(key, n):
    """graph6 body bytes of a ``_body_key``: 6-bit groups, each + 63, the
    last group zero-padded."""
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    key <<= pad
    return bytes([(key >> s & 63) + 63 for s in range(nbits + pad - 6, -1, -6)])


def canon_form(adj, n, last=-1, known=(), /):
    """Canonical labeling by refinement plus backtracking.

    Returns ``(labels, body, orbits, auts)`` where ``labels[v]`` is the
    canonical position of vertex ``v``, ``body`` is the graph6 bit packing
    of the relabeled adjacency (equal bodies for equal order <=>
    isomorphic), ``auts`` lists the automorphisms given in ``known`` and
    then those discovered during the search, the first ``_AUT_CAP`` of
    them, each as a list with ``gamma[v]`` the image of ``v``, and
    ``orbits[v]`` is the least vertex in ``v``'s orbit under the
    automorphisms given or found (a refinement of the true orbit
    partition, never coarser).

    ``known`` holds automorphisms the caller already has, each a sequence
    with ``gamma[v]`` the image of ``v``. They prune the search as found
    ones do, so labels and body do not depend on them, while ``orbits``
    and ``auts`` may. An entry that is not a permutation of ``range(n)``
    raises ``ValueError`` (``TypeError`` when it is not a sequence of
    integers); that it is an automorphism is the caller's to ensure.

    The search starts from cells in ascending degree, refines them, and
    from then on refinement and individualization only split cells in
    place, never reorder them. So positions are in nondecreasing degree,
    and the vertex labeled last lies in the last cell of the refined root
    partition. Canonical augmentation in ``isolab.lab`` prunes on both.

    With ``0 <= last < n``, the result is ``None`` when vertex ``last``
    is not in that cell, found after the root refinement alone; otherwise
    it is the same as without ``last``. ``last`` outside ``-1..n-1``
    raises ``ValueError``, and one that is not an integer ``TypeError``.

    Below the root, a branch is pruned only by the automorphisms recorded
    in ``auts``. So on a graph with many more than ``_AUT_CAP`` of them the
    search tree grows exponentially with the order: K_n and the empty graph
    take 0.05 s at n = 18, under 1 s at n = 19 and 11 to 16 s at n = 20.
    """
    if not -1 <= operator.index(last) < n:
        raise ValueError(f"last {last} outside -1..{n - 1}")
    known = [list(map(operator.index, g)) for g in known]
    if known:
        ident = list(range(n))
        if any(sorted(g) != ident for g in known):
            raise ValueError(f"a known entry is not a permutation of range({n})")
    if n == 0:
        return [], b"", [], known[:_AUT_CAP]
    bydeg = {}
    for v in range(n):
        d = adj[v].bit_count()
        bydeg[d] = bydeg.get(d, 0) | 1 << v
    cells0 = [bydeg[d] for d in sorted(bydeg)]
    cells0 = _refine(adj, n, cells0, cells0[:-1])
    if last >= 0 and not cells0[-1] >> last & 1:
        return None
    if len(cells0) == n:
        order = [c.bit_length() - 1 for c in cells0]
        body = _body_bytes(_body_key(adj, order), n)
        return _labels(order), body, list(range(n)), known[:_AUT_CAP]

    best_key = -1
    best_order = None
    parent = list(range(n))
    auts = []
    fixed = []  # fixed[i]: the mask of points auts[i] fixes

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def record(gamma):
        # Merge gamma's cycles into the orbits; the smaller root wins, so
        # every root is the least vertex of its set.
        fix = 0
        for v, w in enumerate(gamma):
            if v == w:
                fix |= 1 << v
                continue
            while parent[v] != v:
                v = parent[v]
            while parent[w] != w:
                w = parent[w]
            if v < w:
                parent[w] = v
            elif w < v:
                parent[v] = w
        if len(auts) < _AUT_CAP:
            auts.append(gamma)
            fixed.append(fix)

    for gamma in known:
        record(gamma)

    def search(cells, prefix, t):
        # cells: a refined partition, singletons before index t; prefix: the
        # mask of the vertices individualized on the way here
        nonlocal best_key, best_order
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            key = _body_key(adj, order)
            if key > best_key:
                best_key = key
                best_order = order
            elif key == best_key:
                gamma = [0] * n
                for u, v in zip(best_order, order):
                    gamma[u] = v
                record(gamma)
            return
        while True:
            cell = cells[t]
            if cell & (cell - 1):
                break
            t += 1
        head = cells[:t]
        tail = cells[t + 1 :]
        tried = []  # at the root: the vertices of cell tried so far
        done = 0  # below it: their mask
        m = cell
        while m:
            x = m & -m
            m ^= x
            v = x.bit_length() - 1
            # v is skipped when a given or found automorphism maps it to a
            # vertex tried before: at the root any orbit merged so far
            # counts, below it a recorded automorphism that fixes prefix
            # pointwise.
            skip = False
            if not prefix:
                r = find(v)
                skip = any(find(u) == r for u in tried)
                tried.append(v)
            else:
                for g, f in zip(auts, fixed):
                    if done >> g[v] & 1 and not prefix & ~f:
                        skip = True
                        break
                done |= x
            if not skip:
                search(_refine(adj, n, [*head, x, cell ^ x, *tail], [x]), prefix | x, t + 1)

    search(cells0, 0, 0)

    return _labels(best_order), _body_bytes(best_key, n), [find(v) for v in range(n)], auts


def _labels(order):
    """labels[v] = i for the vertex v = order[i]."""
    labels = [0] * len(order)
    for i, v in enumerate(order):
        labels[v] = i
    return labels


def _edge_vertex(adj, rem):
    """The least vertex of ``rem`` with a neighbor in ``rem``, or -1."""
    m = rem
    while m:
        x = m & -m
        v = x.bit_length() - 1
        if adj[v] & rem:
            return v
        m ^= x
    return -1


# Search nodes with at least this budget run the packing bound ``_outpack``;
# ``_core.c`` uses the same constant. Lower budgets leave the bound little to
# cut: at budget 1 the last choice is tested in place, and below a budget-2
# node lie only such tests. Over 6000 connected graphs of order 9 to 14, gates
# 2, 3 and 4 made ``solvers.domination_number`` on these kernels about 20 %,
# 5 % and 2 % slower; over 40 sparse graphs of order 16 to 24 they cut its
# search nodes by 78 %, 66 % and 44 %.
BOUND_MIN_BUDGET = 3

# Domination's target row: every vertex is its own target.
_SELF_ROWS = tuple(1 << v for v in range(64))


def _outpack(adj, tgt, rem, forbidden, v, cand, budget):
    """Packing bound of both searches: True when more than ``budget``
    targets still to hit have pairwise disjoint allowed choosers, or one
    of them has none allowed.

    ``tgt`` names the targets, one mask per vertex: a vertex ``a`` of
    ``rem`` is the low end of a target when ``tgt[a] & rem`` is nonzero,
    and the least bit of that mask is the other end. With ``tgt = adj``
    the targets are the edges inside ``rem`` (isolation), and with
    ``_SELF_ROWS`` the vertices of ``rem`` (domination). A target's
    choosers are the closed neighborhoods of its ends less ``forbidden``.

    Each such target needs a chosen vertex of its own, so a True answer
    refutes the node, and a node that holds a solution always gets False:
    the bound never changes an answer. The greedy starts from the
    branching target, whose low end is ``v`` and whose choosers are
    ``cand``. A target's choosers meet a kept chooser set ``C`` exactly
    when one of its ends lies in ``N[C]``, so the next target is the least
    one inside ``left``, ``rem`` less the closed neighborhoods of every
    kept chooser, and each kept target costs one union per chooser. Both
    target rows are symmetric, so a vertex that is the low end of no
    target inside ``left`` is an end of none, and never becomes one, since
    ``left`` only shrinks: the scan drops it from ``left`` for good, and
    ``left`` starts at ``v``, as no vertex below ``v`` is the low end of a
    target in ``rem``. Each further target lies inside ``left``, and
    keeping it takes at least one of its ends out of ``left``, so the
    greedy gives up once ``left`` has fewer vertices than targets it still
    needs.
    """
    left = rem >> v << v
    while cand:
        near = cand
        while cand:
            y = cand & -cand
            cand ^= y
            near |= adj[y.bit_length() - 1]
        left &= ~near
        if left.bit_count() < budget:
            return False
        while left:
            x = left & -left
            a = x.bit_length() - 1
            e = tgt[a] & left
            if e:
                break
            left ^= x
        else:
            return False
        budget -= 1
        if not budget:
            return True
        cand = adj[a] | x
        if e != x:  # a vertex target is its own other end
            y = e & -e
            cand |= adj[y.bit_length() - 1] | y
        cand &= ~forbidden
    return True


def _isolating_search(adj, n):
    """The isolation search of ``has_isolating_set``, as ``rec(covered,
    forbidden, budget)``: whether some set of at most ``budget`` vertices
    outside ``forbidden`` isolates the graph with ``covered`` removed.

    Branches on the least edge not yet touched by chosen closed
    neighborhoods; candidates are the closed neighborhoods of the edge's
    endpoints. Earlier siblings are forbidden below a branch, so no vertex
    set is explored twice. A node with budget ``BOUND_MIN_BUDGET`` or more
    is refuted without branching when ``_outpack``, on the target row
    ``adj``, finds more edges with pairwise disjoint choosers than the
    budget.
    """
    full = (1 << n) - 1

    def rec(covered, forbidden, budget):
        rem = full & ~covered
        v = _edge_vertex(adj, rem)
        if v < 0:
            return True
        if not budget:
            return False
        e = adj[v] & rem
        u = (e & -e).bit_length() - 1
        cand = (adj[v] | adj[u] | (1 << v) | (1 << u)) & ~forbidden
        if budget == 1:
            # The last choice, tested in place: a candidate isolates when no
            # edge is left among the vertices it leaves. Vertices below v
            # had no edge in rem, so the scan starts at v.
            while cand:
                x = cand & -cand
                cand ^= x
                left = rem & ~(adj[x.bit_length() - 1] | x)
                m = left >> v << v
                while m:
                    y = m & -m
                    if adj[y.bit_length() - 1] & left:
                        break
                    m ^= y
                else:
                    return True
            return False
        if budget >= BOUND_MIN_BUDGET and _outpack(adj, adj, rem, forbidden, v, cand, budget):
            return False
        tried = 0
        while cand:
            x = cand & -cand
            cand ^= x
            w = x.bit_length() - 1
            if rec(covered | adj[w] | x, forbidden | tried, budget - 1):
                return True
            tried |= x
        return False

    return rec


def _dominating_search(adj, n):
    """The domination search of ``has_dominating_set``, as ``rec(covered,
    forbidden, budget)``, in the manner of ``_isolating_search``.

    Branches on the least undominated vertex's closed neighborhood, and
    refutes a node with budget ``BOUND_MIN_BUDGET`` or more early when
    ``_outpack``, on the target row ``_SELF_ROWS``, finds more undominated
    vertices with pairwise disjoint allowed closed neighborhoods than the
    budget.
    """
    full = (1 << n) - 1

    def rec(covered, forbidden, budget):
        rem = full & ~covered
        if not rem:
            return True
        if not budget:
            return False
        x = rem & -rem
        v = x.bit_length() - 1
        cand = (adj[v] | x) & ~forbidden
        if budget == 1:
            # The last choice, tested in place: it must dominate all of rem.
            while cand:
                y = cand & -cand
                if not rem & ~(adj[y.bit_length() - 1] | y):
                    return True
                cand ^= y
            return False
        if budget >= BOUND_MIN_BUDGET and _outpack(
            adj, _SELF_ROWS, rem, forbidden, v, cand, budget
        ):
            return False
        tried = 0
        while cand:
            y = cand & -cand
            cand ^= y
            w = y.bit_length() - 1
            if rec(covered | adj[w] | y, forbidden | tried, budget - 1):
                return True
            tried |= y
        return False

    return rec


def _first(rec, adj, n, k, covered, forbidden):
    """The lex-least set of exactly ``k`` vertices outside ``forbidden``
    that ``rec`` (a search from ``_isolating_search`` or
    ``_dominating_search``) accepts from the start state, as a mask, or -1.

    A vertex v is taken at the next position when a completion of at most
    one vertex fewer exists with every vertex up to v forbidden, and enough
    allowed vertices lie above v to pad it to exact size. Both properties
    are kept by supersets, so a taken vertex always completes, and the walk
    never backtracks: at most n decisions in all.
    """
    if not 0 <= k <= n:
        return -1
    if not k:
        return 0 if rec(covered, forbidden, 0) else -1
    rest = ((1 << n) - 1) & ~forbidden
    found = 0
    while k:
        k -= 1
        while True:
            if rest.bit_count() <= k:
                return -1
            bit = rest & -rest
            rest ^= bit
            c = covered | adj[bit.bit_length() - 1] | bit
            f = forbidden | bit | (bit - 1)
            if rec(c, f, k):
                break
        found |= bit
        covered, forbidden = c, f
    return found


def has_isolating_set(adj, n, k, covered=0, forbidden=0, /):
    """Decide whether some vertex set of size <= k isolates the graph
    (False for k < 0), by the search of ``_isolating_search``.

    The search may start from a state: ``covered`` vertices count as
    already removed (the closed neighborhood of a set chosen so far) and
    ``forbidden`` vertices may not be chosen. Mask bits at or above n are
    ignored.

    The packing bound refutes only nodes that hold no solution, so it
    changes no answer, only how soon a refutation ends.
    """
    if k < 0:
        return False
    if k == 0:
        return _edge_vertex(adj, ((1 << n) - 1) & ~covered) < 0
    return _isolating_search(adj, n)(covered, forbidden, k)


def has_dominating_set(adj, n, k, covered=0, forbidden=0, /):
    """Decide whether some vertex set of size <= k dominates every vertex
    (False for k < 0), starting from ``covered`` vertices already dominated
    and with ``forbidden`` vertices never chosen, as in has_isolating_set,
    by the search of ``_dominating_search``."""
    if k < 0:
        return False
    if k == 0:
        return not ((1 << n) - 1) & ~covered
    return _dominating_search(adj, n)(covered, forbidden, k)


def first_isolating_set(adj, n, k, covered=0, forbidden=0, /):
    """The lex-least isolating set of exactly k vertices outside
    ``forbidden``, from the start state of ``has_isolating_set``, as a
    mask; -1 when there is none (always for k < 0 or k > n)."""
    return _first(_isolating_search(adj, n), adj, n, k, covered, forbidden)


def first_dominating_set(adj, n, k, covered=0, forbidden=0, /):
    """The lex-least dominating set of exactly k vertices, as
    ``first_isolating_set``."""
    return _first(_dominating_search(adj, n), adj, n, k, covered, forbidden)
