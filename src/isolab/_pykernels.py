"""Pure-Python compute kernels (fallback for the compiled core).

Semantically identical to ``isolab._core``; either module can back
``isolab._backend``. Graphs arrive as a sequence of per-vertex adjacency
bitmasks, one machine word per vertex, order <= 64.

``canon_form`` holds each cell of a partition as one vertex mask, whose
bits in ascending order are the cell's members in order. It refines on
bit-sliced neighbor counts, all vertices at once, and compares leaves by
one integer in the order of their graph6 bodies, packing bytes only for
the best leaf. ``_body_key`` and ``_body_bytes`` are also the graph6
packer of ``isolab.graphs.write_graph6``. Its search, ``_search``, is a
module-level function that takes the search state as arguments and
returns the best leaf so far, so a call builds no closure.

The decisions are set-cover searches, the view of domination that Fomin,
Grandoni and Kratsch (J. ACM 2009) and van Rooij and Bodlaender (Discrete
Appl. Math. 2011) analyze: each branches on the least target still to hit,
an edge for isolation and a vertex for domination, and prunes with a greedy
packing bound, since targets whose allowed chooser sets are pairwise
disjoint each need a chosen vertex of their own. The bound, ``_outpack``,
is written once for both, told which targets to pack by a target row.
The searches, ``_isolating_rec`` and ``_dominating_rec``, stay apart, each
testing its last choice in place. Both are module-level functions that take
the whole state as arguments, so a call builds nothing, and each returns
the set it chose, or -1. The ``has_*`` decisions run one from the start
state, and the ``first_*`` kernels run ``_first``, the walk that builds the
lex-least set of exactly k vertices from at most n of its decisions and
takes a vertex without a decision where the completion it holds already
shows one. A start state with a forbidden vertex is first scanned once by
``_dead_target``, which refutes it when a target has no allowed chooser.
"""

from __future__ import annotations

import operator

BACKEND_NAME = "python"

_AUT_CAP = 96


def _refine(adj, n, cells, fresh, watch=0):
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

    With a nonzero ``watch`` mask, the result is None as soon as the last
    cell holds no vertex of ``watch``: at the start, or after the round
    that first leaves it so. That is exact, since cells split in place and
    the last cell only shrinks. The round's last cell is the members of
    the last cell with the greatest signature, kept plane by plane, so it
    is checked before any cell is split.
    """
    if watch and not cells[-1] & watch:
        return None
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
        if watch:
            # Keep the members with the plane's bit set whenever one has it.
            last = cells[-1]
            for p in planes:
                x = last & p
                if x:
                    last = x
            if not last & watch:
                return None
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
    is not in that cell, found without a search at the first round of the
    root refinement that leaves ``last`` outside the last cell, since that
    cell only shrinks; otherwise it is the same as without ``last``.
    ``last`` outside ``-1..n-1`` raises ``ValueError``, and one that is not
    an integer ``TypeError``, both before the root refinement.

    Below the root, a branch is pruned only by the automorphisms recorded
    in ``auts``. So on a graph with many more than ``_AUT_CAP`` of them the
    search tree grows exponentially with the order: on a 2-vCPU VM, K_n and
    the empty graph take about 0.05 s at n = 18, 0.7 to 0.85 s at n = 19 and
    12 to 15 s at n = 20.
    """
    if not -1 <= operator.index(last) < n:
        raise ValueError(f"last {last} outside -1..{n - 1}")
    gammas, known = known, []
    for g in gammas:
        known.append(list(map(operator.index, g)))
    if known:
        ident = list(range(n))
        for g in known:
            if sorted(g) != ident:
                raise ValueError(f"a known entry is not a permutation of range({n})")
    if n == 0:
        return [], b"", [], known[:_AUT_CAP]
    bydeg = {}
    for v in range(n):
        d = adj[v].bit_count()
        bydeg[d] = bydeg.get(d, 0) | 1 << v
    cells0 = list(map(bydeg.get, sorted(bydeg)))
    cells0 = _refine(adj, n, cells0, cells0[:-1], 1 << last if last >= 0 else 0)
    if cells0 is None:
        return None
    if len(cells0) == n:
        order = _order(cells0)
        body = _body_bytes(_body_key(adj, order), n)
        return _labels(order), body, list(range(n)), known[:_AUT_CAP]
    parent = list(range(n))
    auts = []
    fixed = []  # fixed[i]: the mask of points auts[i] fixes
    for gamma in known:
        _record(gamma, parent, auts, fixed)
    key, order = _search(adj, n, cells0, 0, 0, -1, None, parent, auts, fixed)
    # Every root is the least vertex of its set, so parent[v] <= v, and in
    # ascending order parent[v] is a root once parent[parent[v]] is.
    for v in range(n):
        parent[v] = parent[parent[v]]
    return _labels(order), _body_bytes(key, n), parent, auts


def _find(parent, x):
    """The root of ``x`` in the union-find forest ``parent``, compressing
    the path to it."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _record(gamma, parent, auts, fixed):
    """Merge the cycles of the automorphism ``gamma`` into the orbits of
    ``parent``, the smaller root winning, so that every root is the least
    vertex of its set, and keep ``gamma`` and the mask of the points it
    fixes while ``auts`` holds fewer than ``_AUT_CAP``."""
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


def _search(adj, n, cells, prefix, t, best_key, best_order, parent, auts, fixed):
    """The subtree of ``canon_form``'s search below ``cells``, a refined
    partition that is not discrete, with singletons before index ``t``;
    ``prefix`` is the mask of the vertices individualized on the way here.

    Returns the greatest leaf key met so far and the order of the first
    leaf that attains it, given those met before as ``best_key`` and
    ``best_order``. A later leaf with an equal key gives an automorphism,
    recorded in the orbits ``parent`` and in ``auts`` and ``fixed``. Each
    leaf is taken in the loop over its parent's cell, not by a call of
    ``_search``.
    """
    while True:
        cell = cells[t]
        if cell & (cell - 1):
            break
        t += 1
    head = cells[:t]
    tail = cells[t + 1 :]
    t += 1
    tried = []  # at the root: the vertices of cell tried so far
    done = 0  # below it: their mask
    m = cell
    while m:
        x = m & -m
        m ^= x
        v = x.bit_length() - 1
        # v is skipped when a given or found automorphism maps it to a
        # vertex tried before: at the root any orbit merged so far counts,
        # below it a recorded automorphism that fixes prefix pointwise.
        skip = False
        if not prefix:
            r = _find(parent, v)
            for u in tried:
                if _find(parent, u) == r:
                    skip = True
                    break
            tried.append(v)
        else:
            for g, f in zip(auts, fixed):
                if done >> g[v] & 1 and not prefix & ~f:
                    skip = True
                    break
            done |= x
        if skip:
            continue
        below = _refine(adj, n, [*head, x, cell ^ x, *tail], [x])
        if len(below) < n:
            best_key, best_order = _search(
                adj, n, below, prefix | x, t, best_key, best_order, parent, auts, fixed
            )
            continue
        order = _order(below)
        key = _body_key(adj, order)
        if key > best_key:
            best_key = key
            best_order = order
        elif key == best_key:
            gamma = [0] * n
            for u, w in zip(best_order, order):
                gamma[u] = w
            _record(gamma, parent, auts, fixed)
    return best_key, best_order


def _order(cells):
    """The vertices of a discrete partition, in order."""
    return [c.bit_length() - 1 for c in cells]


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


def _dead_target(adj, tgt, rem, forbidden):
    """Whether some target inside ``rem`` has every chooser forbidden, on
    the target row ``tgt`` of ``_outpack``. Such a target refutes the state
    at every budget.

    A vertex is blind when its closed neighborhood is all forbidden, the
    vertex itself included. A target's choosers are the closed
    neighborhoods of its ends, so it has none allowed exactly when both
    ends are blind: a blind vertex of ``rem`` with a blind target partner.
    """
    blind = 0
    m = rem & forbidden
    while m:
        x = m & -m
        m ^= x
        if not adj[x.bit_length() - 1] & ~forbidden:
            blind |= x
    m = blind
    while m:
        x = m & -m
        if tgt[x.bit_length() - 1] & blind:
            return True
        m ^= x
    return False


def _isolating_rec(adj, full, covered, forbidden, budget):
    """The isolation search: some set of at most ``budget`` vertices
    outside ``forbidden`` that isolates the graph with ``covered`` removed,
    as the mask of the vertices it chose, or -1 when there is none.

    Branches on the least edge not yet touched by chosen closed
    neighborhoods; candidates are the closed neighborhoods of the edge's
    endpoints, in ascending order. Earlier siblings are forbidden below a
    branch, so no vertex set is explored twice, and the set returned is the
    first the search meets. A node with budget ``BOUND_MIN_BUDGET`` or more
    is refuted without branching when ``_outpack``, on the target row
    ``adj``, finds more edges with pairwise disjoint choosers than the
    budget.
    """
    rem = full & ~covered
    v = _edge_vertex(adj, rem)
    if v < 0:
        return 0
    if not budget:
        return -1
    e = adj[v] & rem
    u = (e & -e).bit_length() - 1
    cand = (adj[v] | adj[u] | (1 << v) | (1 << u)) & ~forbidden
    if budget == 1:
        # The last choice, tested in place: a candidate isolates when no
        # edge is left among the vertices it leaves. Vertices below v had
        # no edge in rem, so the scan starts at v.
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
                return x
        return -1
    if budget >= BOUND_MIN_BUDGET and _outpack(adj, adj, rem, forbidden, v, cand, budget):
        return -1
    tried = 0
    budget -= 1
    while cand:
        x = cand & -cand
        cand ^= x
        got = _isolating_rec(
            adj, full, covered | adj[x.bit_length() - 1] | x, forbidden | tried, budget
        )
        if got >= 0:
            return got | x
        tried |= x
    return -1


def _dominating_rec(adj, full, covered, forbidden, budget):
    """The domination search, in the manner of ``_isolating_rec``: some
    set of at most ``budget`` vertices outside ``forbidden`` whose closed
    neighborhoods cover every vertex outside ``covered``, as a mask, or -1.

    Branches on the least undominated vertex's closed neighborhood, and
    refutes a node with budget ``BOUND_MIN_BUDGET`` or more early when
    ``_outpack``, on the target row ``_SELF_ROWS``, finds more undominated
    vertices with pairwise disjoint allowed closed neighborhoods than the
    budget.
    """
    rem = full & ~covered
    if not rem:
        return 0
    if not budget:
        return -1
    x = rem & -rem
    v = x.bit_length() - 1
    cand = (adj[v] | x) & ~forbidden
    if budget == 1:
        # The last choice, tested in place: it must dominate all of rem.
        while cand:
            y = cand & -cand
            if not rem & ~(adj[y.bit_length() - 1] | y):
                return y
            cand ^= y
        return -1
    if budget >= BOUND_MIN_BUDGET and _outpack(adj, _SELF_ROWS, rem, forbidden, v, cand, budget):
        return -1
    tried = 0
    budget -= 1
    while cand:
        y = cand & -cand
        cand ^= y
        got = _dominating_rec(
            adj, full, covered | adj[y.bit_length() - 1] | y, forbidden | tried, budget
        )
        if got >= 0:
            return got | y
        tried |= y
    return -1


def _first(rec, adj, n, k, covered, forbidden):
    """The lex-least set of exactly ``k`` vertices outside ``forbidden``
    that ``rec`` (``_isolating_rec`` or ``_dominating_rec``) accepts from
    the start state, as a mask, or -1.

    A vertex v is taken at the next position when a completion of at most
    one vertex fewer exists with every vertex up to v forbidden, and enough
    allowed vertices lie above v to pad it to exact size. Both properties
    are kept by supersets, so a taken vertex always completes, and the walk
    never backtracks: at most n decisions in all.

    A decision that succeeds returns its completion, and the walk keeps it
    as ``w``, all of it above the vertex just taken. At the next position
    the least vertex of ``w`` needs no decision: the rest of ``w`` completes
    it, with every vertex up to it forbidden. Only the candidates below it
    are decided, and one that succeeds is lex-smaller, so its completion
    replaces ``w``. A walk whose first completion is already lex-least
    makes one accepting search.
    """
    if not 0 <= k <= n:
        return -1
    full = (1 << n) - 1
    if not k:
        return 0 if rec(adj, full, covered, forbidden, 0) >= 0 else -1
    rest = full & ~forbidden
    found = w = 0
    while k:
        k -= 1
        while True:
            if rest.bit_count() <= k:
                return -1
            bit = rest & -rest
            rest ^= bit
            c = covered | adj[bit.bit_length() - 1] | bit
            f = forbidden | bit | (bit - 1)
            if w & bit:
                w ^= bit
                break
            got = rec(adj, full, c, f, k)
            if got >= 0:
                w = got
                break
        found |= bit
        covered, forbidden = c, f
    return found


def has_isolating_set(adj, n, k, covered=0, forbidden=0, /):
    """Decide whether some vertex set of size <= k isolates the graph
    (False for k < 0), by ``_isolating_rec``.

    The search may start from a state: ``covered`` vertices count as
    already removed (the closed neighborhood of a set chosen so far) and
    ``forbidden`` vertices may not be chosen. Mask bits at or above n are
    ignored. When ``forbidden`` holds a vertex, one scan of the start state
    first answers False if some edge left has every chooser forbidden.

    The packing bound refutes only nodes that hold no solution, so it
    changes no answer, only how soon a refutation ends.
    """
    if k < 0:
        return False
    full = (1 << n) - 1
    if k == 0:
        return _edge_vertex(adj, full & ~covered) < 0
    if forbidden & full and _dead_target(adj, adj, full & ~covered, forbidden):
        return False
    return _isolating_rec(adj, full, covered, forbidden, k) >= 0


def has_dominating_set(adj, n, k, covered=0, forbidden=0, /):
    """Decide whether some vertex set of size <= k dominates every vertex
    (False for k < 0), starting from ``covered`` vertices already dominated
    and with ``forbidden`` vertices never chosen, as in has_isolating_set,
    by ``_dominating_rec``; its start-state scan looks for an undominated
    vertex with every chooser forbidden."""
    if k < 0:
        return False
    full = (1 << n) - 1
    if k == 0:
        return not full & ~covered
    if forbidden & full and _dead_target(adj, _SELF_ROWS, full & ~covered, forbidden):
        return False
    return _dominating_rec(adj, full, covered, forbidden, k) >= 0


def first_isolating_set(adj, n, k, covered=0, forbidden=0, /):
    """The lex-least isolating set of exactly k vertices outside
    ``forbidden``, from the start state of ``has_isolating_set``, as a
    mask; -1 when there is none (always for k < 0 or k > n). The start
    state is scanned for a dead edge as in ``has_isolating_set``."""
    full = (1 << n) - 1
    if forbidden & full and _dead_target(adj, adj, full & ~covered, forbidden):
        return -1
    return _first(_isolating_rec, adj, n, k, covered, forbidden)


def first_dominating_set(adj, n, k, covered=0, forbidden=0, /):
    """The lex-least dominating set of exactly k vertices, as
    ``first_isolating_set``."""
    full = (1 << n) - 1
    if forbidden & full and _dead_target(adj, _SELF_ROWS, full & ~covered, forbidden):
        return -1
    return _first(_dominating_rec, adj, n, k, covered, forbidden)
