"""Independent reference implementations used to derive expected values.

Everything here deliberately avoids the library's bitmask machinery:
graphs are dicts of sets, subsets are frozensets, and graph6 decoding goes
through a textual bit string. Slow and obvious beats fast and clever for
an oracle. ``parse_graph6_ref`` keeps the previous graph6 decoder's
checks, messages and offsets, which the current one must reproduce
exactly, and builds its rows bit by bit from the body's bit string,
sharing no table or transpose with the decoder. The exceptions are the
last three sections: small helpers on isolab's ``Graph`` that only the
tests use, the previous pure-Python ``canon_form`` and the previous
partition engine, whose output the current ones must reproduce exactly.
"""

from __future__ import annotations

import operator
import re
from collections import deque
from itertools import combinations, permutations, product

from isolab import _backend
from isolab import graphs as G
from isolab import partition as P
from isolab._pykernels import _AUT_CAP
from isolab.partition import TriPartition, partition3, verify_partition


def decode_graph6_reference(line: str) -> tuple[int, set[frozenset[int]]]:
    """Textbook graph6 decoder: header, then column-major upper triangle."""
    data = [ord(c) - 63 for c in line.strip()]
    if data[0] == 63:  # '~'
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    bits = "".join(format(v, "06b") for v in body)
    edges = set()
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx] == "1":
                edges.add(frozenset((i, j)))
            idx += 1
    return n, edges


# Each graph6 character as the six body bits it carries, high bit first.
_G6_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}
_G6_BAD = re.compile("[^?-~]")


def parse_graph6_ref(text: str) -> G.Graph:
    """The checks, messages and offsets of the previous
    ``graphs.parse_graph6``, then the rows built bit by bit from the body's
    string of ``0`` and ``1``: edge (i, j) sets bit j of row i and bit i of
    row j. The graph goes through the validating ``Graph`` constructor.
    Here a padding bit is sought through the whole body string; the current
    decoder checks the padding once, on the last body byte, before either of
    its paths, which never raise: table lookup up to order 16, one base64
    decode and word operations above it. Both must match this one."""
    line = text.rstrip("\n")
    if not line:
        raise G.Graph6Error("empty graph6 string", 0)
    bad = _G6_BAD.search(line)
    if bad:
        raise G.Graph6Error(f"character {bad.group()!r} out of graph6 range", bad.start())
    data = line.encode("ascii")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise G.Graph6Error("eight-byte order header exceeds supported range", 1)
        if len(data) < 4:
            raise G.Graph6Error("truncated long-form order header", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n <= 62:
            raise G.Graph6Error("long-form header used for order <= 62", 0)
        body_off = 4
    else:
        n = data[0] - 63
        body_off = 1
    if n > G.MAX_ORDER:
        raise G.Graph6Error(f"order {n} exceeds supported maximum {G.MAX_ORDER}", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    have = len(data) - body_off
    if have < need:
        raise G.Graph6Error("graph6 body truncated", body_off + have)
    if have > need:
        raise G.Graph6Error("unexpected trailing bytes", body_off + need)
    bits = line[body_off:].translate(_G6_BITS)
    pad = bits.find("1", nbits)
    if pad >= 0:
        raise G.Graph6Error("nonzero padding bits", body_off + pad // 6)
    # Column-major upper triangle: edge (i, j), i < j, at j(j - 1)/2 + i.
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx] == "1":
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return G.Graph(n, tuple(rows))


def neighbors(n: int, edges: set[frozenset[int]]) -> dict[int, set[int]]:
    adj = {v: set() for v in range(n)}
    for e in edges:
        u, v = sorted(e)
        adj[u].add(v)
        adj[v].add(u)
    return adj


def closed_nbhd(adj: dict[int, set[int]], xs: frozenset[int]) -> set[int]:
    out = set(xs)
    for v in xs:
        out |= adj[v]
    return out


def isolating_ref(n: int, edges: set[frozenset[int]], xs, covered=()) -> bool:
    """N[xs], together with the ``covered`` vertices, meets every edge."""
    adj = neighbors(n, edges)
    removed = closed_nbhd(adj, frozenset(xs)) | set(covered)
    return not any(e.isdisjoint(removed) for e in edges)


def dominating_ref(n: int, edges: set[frozenset[int]], xs, covered=()) -> bool:
    """N[xs], together with the ``covered`` vertices, is every vertex."""
    adj = neighbors(n, edges)
    return closed_nbhd(adj, frozenset(xs)) | set(covered) == set(range(n))


# Each kernel decision with the predicate it decides.
KERNEL_DECISIONS = (
    ("has_isolating_set", isolating_ref),
    ("has_dominating_set", dominating_ref),
)


def decide_ref(n: int, edges: set[frozenset[int]], k: int, covered: int,
               forbidden: int, predicate) -> bool:
    """A kernel decision by scan: whether some set of at most k vertices
    outside ``forbidden`` has ``predicate`` (``isolating_ref`` or
    ``dominating_ref``) together with the ``covered`` vertices. The masks
    are read as the kernels read them, bits at or above n ignored, and
    k < 0 gives False."""
    cov = [v for v in range(n) if covered >> v & 1]
    allowed = [v for v in range(n) if not forbidden >> v & 1]
    return any(
        predicate(n, edges, xs, cov)
        for size in range(min(k, len(allowed)) + 1)
        for xs in combinations(allowed, size)
    )


def dead_target_ref(n: int, edges: set[frozenset[int]], covered: int, forbidden: int,
                    predicate) -> bool:
    """Whether some target left by ``covered`` has no allowed chooser: a
    vertex (``dominating_ref``) or an edge (``isolating_ref``) outside
    ``covered`` that no closed neighborhood of an allowed vertex meets.
    Such a state has no set with ``predicate`` at any size."""
    adj = neighbors(n, edges)
    reach = closed_nbhd(adj, frozenset(v for v in range(n) if not forbidden >> v & 1))
    left = {v for v in range(n) if not covered >> v & 1}
    if predicate is dominating_ref:
        return any(v not in reach for v in left)
    return any(e <= left and e.isdisjoint(reach) for e in edges)


# Each kernel walk with the predicate its sets have.
KERNEL_WALKS = (
    ("first_isolating_set", isolating_ref),
    ("first_dominating_set", dominating_ref),
)


def first_ref(n: int, edges: set[frozenset[int]], k: int, covered: int,
              forbidden: int, predicate) -> int:
    """A kernel walk by scan: the first set of exactly k vertices outside
    ``forbidden``, in the lex order of ``combinations``, that has
    ``predicate`` together with the ``covered`` vertices, as a mask, or -1.
    The masks are read as in ``decide_ref``."""
    if k < 0:
        return -1
    cov = [v for v in range(n) if covered >> v & 1]
    allowed = [v for v in range(n) if not forbidden >> v & 1]
    for xs in combinations(allowed, k):
        if predicate(n, edges, xs, cov):
            return sum(1 << v for v in xs)
    return -1


def tree_domination_ref(n: int, edges: set[frozenset[int]]) -> int:
    """The domination number of a tree, by the linear-time dynamic program
    of Cockayne, Goodman and Hedetniemi (Inform. Process. Lett. 4, 1975).

    Rooted at vertex 0, each subtree T_v has three states, each the least
    size of a set S of vertices of T_v:
    - ``inside``: S dominates T_v and contains v;
    - ``below``: S dominates T_v, misses v, and so holds a child of v;
    - ``above``: S dominates T_v - v and misses v and its children, so v is
      left for its parent to dominate.
    A leaf has 1, no ``below`` set (infinity) and 0. Otherwise ``inside``
    is 1 plus each child's least state; ``above`` takes each child's
    ``below``, as no child is in S and v is not either; and ``below`` takes
    each child's least of ``inside`` and ``below``, forcing one child in S
    at the least extra cost. The tree's value is the least of ``inside``
    and ``below`` at the root.
    """
    adj = neighbors(n, edges)
    parent = {0: None}
    order = [0]
    for v in order:
        for u in sorted(adj[v]):
            if u not in parent:
                parent[u] = v
                order.append(u)
    if len(order) != n or len(edges) != n - 1:
        raise ValueError("not a tree")
    inside, below, above = {}, {}, {}
    for v in reversed(order):
        children = [u for u in adj[v] if u != parent[v]]
        inside[v] = 1 + sum(min(inside[c], below[c], above[c]) for c in children)
        above[v] = sum(below[c] for c in children)
        if children:
            best = [min(inside[c], below[c]) for c in children]
            below[v] = sum(best) + min(inside[c] - b for c, b in zip(children, best))
        else:
            below[v] = float("inf")
    return min(inside[0], below[0])


def min_param_ref(n: int, edges, predicate) -> tuple[int, tuple[int, ...]]:
    """Smallest k and the lexicographically least witness, by full scan."""
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            if predicate(n, edges, combo):
                return k, combo
    raise AssertionError("predicate never satisfied")


def graph_faults_ref(n: int, rows) -> list[str]:
    """Every reason ``Graph(n, rows)`` must be refused, one bit at a time,
    worded as isolab words it: a row that is negative or has a bit at or
    beyond n, a loop, and each set bit (v, u) whose mirror (u, v) is clear.
    Empty when the rows are a simple undirected graph on n vertices."""
    faults = []
    for v in range(n):
        row = rows[v]
        if row < 0 or row >= 1 << n:
            faults.append(f"adjacency bits beyond order at vertex {v}")
            continue
        for u in range(n):
            if not (row >> u) & 1:
                continue
            if u == v:
                faults.append(f"loop at vertex {v}")
            elif not (rows[u] >> v) & 1:
                faults.append(f"asymmetric edge {v}-{u}")
    return faults


def isomorphic_ref(n1, edges1, n2, edges2) -> bool:
    if n1 != n2 or len(edges1) != len(edges2):
        return False
    for perm in permutations(range(n1)):
        if {frozenset((perm[u], perm[v])) for u, v in map(sorted, edges1)} == edges2:
            return True
    return False


def is_automorphism_ref(n: int, edges: set[frozenset[int]], perm) -> bool:
    """perm (perm[v] = image of v) permutes range(n) and maps edges onto edges."""
    return sorted(perm) == list(range(n)) and {
        frozenset(perm[v] for v in e) for e in edges
    } == edges


def orbit_minima_ref(n: int, perms) -> list[int]:
    """The least vertex of each vertex's orbit under the group the perms
    generate: the union of their cycles through it, closed by search."""
    out = []
    for v in range(n):
        orbit = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for perm in perms:
                if perm[u] not in orbit:
                    orbit.add(perm[u])
                    frontier.append(perm[u])
        out.append(min(orbit))
    return out


def refined_root_cells_ref(n: int, edges: set[frozenset[int]]) -> list[list[int]]:
    """Equitable refinement of the degree partition, done naively. Cells
    start in ascending degree, members ascending. Each round splits every
    cell by its members' neighbor counts against every cell, subcells in
    ascending signature order, until no cell splits."""
    adj = neighbors(n, edges)
    cells = [
        [v for v in range(n) if len(adj[v]) == d]
        for d in sorted({len(adj[v]) for v in range(n)})
    ]
    while True:
        out = []
        for cell in cells:
            sig = {v: tuple(len(adj[v] & set(c)) for c in cells) for v in cell}
            for key in sorted(set(sig.values())):
                out.append([v for v in cell if sig[v] == key])
        if len(out) == len(cells):
            return cells
        cells = out


def subset_orbit_heads_ref(k: int, perms, order) -> list[int]:
    """The first subset mask, in the given order, of each orbit of subsets
    of range(k) under the group the perms generate. The group is closed
    out as a set of permutation tuples, then applied to every subset."""
    group = {tuple(range(k))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for perm in perms:
            h = tuple(perm[g[v]] for v in range(k))
            if h not in group:
                group.add(h)
                frontier.append(h)
    heads = []
    done = set()
    for s in order:
        if s in done:
            continue
        heads.append(s)
        members = {v for v in range(k) if s >> v & 1}
        for g in group:
            done.add(sum(1 << g[v] for v in members))
    return heads


def valid_tripartition_ref(n, edges, coloring) -> bool:
    """Set-based check that the leftover of a 3-coloring is independent."""
    adj = neighbors(n, edges)
    leftover = set()
    for c in (1, 2, 3):
        cls = frozenset(v for v in range(n) if coloring[v] == c)
        leftover |= set(range(n)) - closed_nbhd(adj, cls)
    return not any(set(e) <= leftover for e in edges)


def has_valid_tripartition_ref(n, edges) -> bool:
    return any(
        valid_tripartition_ref(n, edges, dict(enumerate(assign)))
        for assign in product((1, 2, 3), repeat=n)
    )


# ---------------------------------------------------------------------------
# helpers on isolab's Graph that only the tests use


def relabel(g: G.Graph, labels: list[int]) -> G.Graph:
    """The graph with vertex ``v`` renamed to ``labels[v]``."""
    adj = [0] * g.order
    for v in range(g.order):
        row = 0
        for u in G.bit_list(g.adj[v]):
            row |= 1 << labels[u]
        adj[labels[v]] = row
    return G.Graph(g.order, tuple(adj))


def corona_of_complete(m: int) -> G.Graph:
    """K_m with one private pendant leaf per clique vertex (order 2m)."""
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges += [(i, m + i) for i in range(m)]
    return G.from_edges(2 * m, edges)


def canonical_labels(g: G.Graph) -> list[int]:
    """Canonical position of each vertex under the selected backend."""
    return _backend.canon_form(g.adj, g.order)[0]


def is_distance2_dominating(g: G.Graph, x: int) -> bool:
    """True iff every vertex is within distance two of the set x."""
    near = G.closed_neighborhood(g, G.closed_neighborhood(g, x))
    return near == g.full_mask


def extend_pair_check(h: G.Graph, k: int) -> dict[tuple[int, int], int | None]:
    """For each vertex pair, one size-k isolating superset or None: the pair
    plus the first k-2 other vertices, in combinations order, that complete it."""
    out = {}
    for z1, z2 in combinations(range(h.order), 2):
        base = (1 << z1) | (1 << z2)
        covered = G.closed_neighborhood(h, base)
        extra = _backend.first_isolating_set(h.adj, h.order, k - 2, covered, base)
        out[(z1, z2)] = None if extra < 0 else base | extra
    return out


def disjoint_isolating_sets(g: G.Graph) -> tuple[int, int, int]:
    """Three disjoint isolating sets: the classes of the tri-partition.

    Each V - N[Ai] sits inside the independent leftover, so removing N[Ai]
    leaves no edge.
    """
    tp, _ = partition3(g)
    return tp.classes


# The step kinds of the reduction engine's six rungs, the only kinds a
# trace may hold.
RUNGS = frozenset({
    "base-star", "base-cycle", "cut-vertex", "degree-2", "separating-path",
    "cycle-mod-3",
})
EXHAUSTIVE_MAX_ORDER = 20


def exhaustive_partition3(g: G.Graph) -> TriPartition | None:
    """The first of all 3^n colorings, in product order, whose leftover is
    independent, or None (guarded at n <= 20). Independent of the reduction
    engine."""
    n = g.order
    if n > EXHAUSTIVE_MAX_ORDER:
        raise ValueError(f"exhaustive search guarded at order {EXHAUSTIVE_MAX_ORDER}")
    for assignment in product((1, 2, 3), repeat=n):
        classes = [0, 0, 0]
        for v, c in enumerate(assignment):
            classes[c - 1] |= 1 << v
        ok, res, _ = verify_partition(g, TriPartition(tuple(classes), 0))
        if ok:
            return TriPartition(tuple(classes), res)
    return None


def bfs_tree_ref(g: G.Graph, root: int, mask: int) -> tuple[list[int], list[int]]:
    """Queue BFS from ``root`` inside ``mask``, then each reached vertex's
    parent as its least-index neighbor one level up."""
    n = g.order
    nbrs = [G.bit_list(g.adj[v] & mask) for v in range(n)]
    depth = [-1] * n
    depth[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in nbrs[v]:
            if depth[u] < 0:
                depth[u] = depth[v] + 1
                queue.append(u)
    parent = [-1] * n
    for v in range(n):
        if depth[v] > 0:
            parent[v] = min(u for u in nbrs[v] if depth[u] == depth[v] - 1)
    return parent, depth


def _ref_path(g: G.Graph, src: int, dst: int, mask: int) -> list[int] | None:
    parent, depth = bfs_tree_ref(g, src, mask)
    if depth[dst] < 0:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    return path[::-1]


def reducing_star_ref(g: G.Graph) -> tuple[int, int]:
    """``(center, leaves)`` of the reducing star, by the case split of
    ``lab.find_reducing_star`` on per-vertex parent and children lists
    from three queue breadth-first searches: the spanning tree from vertex
    0, the tree's depths from 0, and the tree from the least deepest
    vertex. ``lab`` reads the same tree off two level sweeps and masks.
    ``g`` is connected of order >= 3."""
    n = g.order
    parent0, _ = bfs_tree_ref(g, 0, g.full_mask)
    edges = [(v, parent0[v]) for v in range(n) if parent0[v] >= 0]
    tree = G.from_edges(n, edges)
    for v in range(n):
        if tree.degree(v) == n - 1:
            return v, g.full_mask ^ (1 << v)
    _, d0 = bfs_tree_ref(tree, 0, tree.full_mask)
    a = min(v for v in range(n) if d0[v] == max(d0))
    parent, depth = bfs_tree_ref(tree, a, tree.full_mask)
    z = min(v for v in range(n) if depth[v] == max(depth))
    y = parent[z]
    x = parent[y]
    children = [sorted(v for v in range(n) if parent[v] == p) for p in range(n)]
    if len(children[y]) >= 2:
        return y, G.bits_of(children[y])
    for c in children[x]:
        if len(children[c]) >= 2:
            return c, G.bits_of(children[c])
    if len(children[x]) == 1:
        return y, (1 << x) | (1 << z)
    grands = sorted(gc for c in children[x] for gc in children[c])
    for u, v in combinations(grands, 2):
        if g.has_edge(u, v):
            return u, (1 << v) | (1 << parent[u])
    return x, G.bits_of(children[x])


def closure_cut_vertices(g: G.Graph) -> int:
    """The previous cut-vertex search, kept as the reference: one queue
    search per vertex over the neighbor sets of the others, a cut vertex
    when it leaves some of them unreached."""
    if g.order <= 2:
        return 0
    nbrs = {v: set(G.bit_list(g.adj[v])) for v in range(g.order)}
    out = 0
    for v in range(g.order):
        start = 1 if v == 0 else 0
        seen = {v, start}
        queue = deque([start])
        while queue:
            for u in nbrs[queue.popleft()] - seen:
                seen.add(u)
                queue.append(u)
        if len(seen) < g.order:
            out |= 1 << v
    return out


def induced_subgraph_ref(g: G.Graph, mask: int) -> tuple[G.Graph, tuple[int, ...]]:
    """The previous induced_subgraph, kept as the reference: old indices
    relabeled through a dict, the rows checked by ``Graph``."""
    keep = tuple(G.bit_list(mask))
    pos = {v: i for i, v in enumerate(keep)}
    adj = []
    for v in keep:
        row = 0
        for u in G.bit_list(g.adj[v] & mask):
            row |= 1 << pos[u]
        adj.append(row)
    return G.Graph(len(keep), tuple(adj)), keep


def degree_two_cycle_ref(g: G.Graph, mask: int, deg2: int) -> list[int]:
    """The degree-2 rung's cycle as chosen with one unbounded search per
    degree-2 vertex: the vertex, then the shortest path between its two
    neighbors; the first strictly shortest cycle wins."""
    best = None
    for v in G.bit_list(deg2):
        a, b = G.bit_list(g.adj[v] & mask)
        path = _ref_path(g, a, b, mask & ~(1 << v))
        if path is None:
            raise RuntimeError("degree-2 vertex on no cycle")
        if best is None or len(path) + 1 < len(best):
            best = [v] + path
    return best


# ---------------------------------------------------------------------------
# the list-based canon_form of the pure-Python kernels, kept unchanged as the
# reference for isolab._pykernels.canon_form: cells are ascending vertex
# lists, refinement counts neighbors one vertex and one dict at a time, and
# each leaf packs its graph6 body


def _refine_ref(adj, cells, fresh):
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


def _pack_body_ref(adj, n, pos):
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


def canon_form_ref(adj, n, last=-1):
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
    cells0 = _refine_ref(adj, cells0, cells0[:-1])
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
            body = _pack_body_ref(adj, n, pos)
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
            search(_refine_ref(adj, head + [single, rest] + tail, [single]), prefix + (v,))
            tried.add(v)

    search(cells0, ())

    return best["pos"], best["body"], [find(v) for v in range(n)], auts


# ---------------------------------------------------------------------------
# the dict-based partition engine, kept unchanged as the reference for
# isolab.partition.partition3: each step owns a dict of the colors it wrote,
# and a forced component's color is met by rewriting every entry of its
# sub-steps. The least cut vertex is the library's own search and the
# degree-2 rung's cycle is degree_two_cycle_ref; the coloring and its
# bookkeeping are the previous engine's. FORCED_SWAPS_REF counts the sub-traces whose colors were
# permuted, so a test can show that its corpus reaches that branch.

FORCED_SWAPS_REF = [0]


def _color_components_ref(g, comps, anchors, step, steps):
    colors = step.colors
    colored_mask = G.bits_of(colors)
    for comp in comps:
        forced = [(v, av, fc) for v, (av, fc) in anchors.items() if (comp >> v) & 1]
        if len(forced) > 1:
            raise RuntimeError("at most one forced vertex per component")
        size = comp.bit_count()
        if size == 1:
            v = comp.bit_length() - 1
            if forced:
                colors[v] = forced[0][2]
            else:
                # The color fewest colored neighbors carry, the least on ties.
                count = [0, 0, 0, 0]
                m = g.adj[v] & colored_mask
                while m:
                    b = m & -m
                    count[colors[b.bit_length() - 1]] += 1
                    m ^= b
                colors[v] = count.index(min(count[1:]), 1)
        elif size == 2 or P.is_c5(g, comp):
            verts = G.bit_list(comp)
            if size == 2 and not g.has_edge(verts[0], verts[1]):
                raise RuntimeError("two-vertex component must be an edge")
            # Both patterns start at the forced vertex, else at the first
            # vertex with a colored neighbor, and read that neighbor's color.
            if forced:
                w, anchor, f = forced[0]
            else:
                w = next(v for v in verts if g.adj[v] & colored_mask)
                nb = g.adj[w] & colored_mask
                anchor, f = (nb & -nb).bit_length() - 1, None
            vcol = colors[anchor]
            if f is None:
                f = [c for c in P.COLORS if c != vcol][0 if size == 2 else 1]
            if f == vcol:
                raise RuntimeError("forced color clashes with the anchor's color")
            second = 6 - f - vcol
            if size == 2:
                u = verts[1] if w == verts[0] else verts[0]
                colors.update({w: f, u: second})
            else:
                x1, x2, x3, x4, x5 = G.cycle_walk(g, comp, w)
                colors.update({x3: vcol, x2: second, x5: second, x1: f, x4: f})
        else:
            sub_steps = _solve_ref(g, comp)
            if forced:
                w, _, f = forced[0]
                # A w no sub-step colors is left for replay_trace to reject.
                cur = next((s.colors[w] for s in sub_steps if w in s.colors), f)
                if cur != f:
                    FORCED_SWAPS_REF[0] += 1
                    swap = {cur: f, f: cur}
                    for s in sub_steps:
                        for v, c in s.colors.items():
                            s.colors[v] = swap.get(c, c)
            steps.extend(sub_steps)


def _path_reduce_ref(g, comps, path, x, y, pre_steps):
    # The path is colored 1, 2, 3 repeating, x is forced to 3 and y to the
    # color missing at the path's end.
    path_colors = {v: (i % 3) + 1 for i, v in enumerate(path)}
    missing_end = 6 - path_colors[path[-1]] - path_colors[path[-2]]
    step = P.TraceStep("separating-path", tuple(path), path_colors)
    steps = pre_steps + [step]
    anchors = {x: (path[0], 3), y: (path[-1], missing_end)}
    _color_components_ref(g, comps, anchors, step, steps)
    return steps


def _cycle_reduce_ref(g, mask, cyc):
    step = P.TraceStep("cycle-mod-3", cyc, {v: (i % 3) + 1 for i, v in enumerate(cyc)})
    steps = [step]
    comps = G.masked_components(g, mask & ~G.bits_of(cyc))
    _color_components_ref(g, comps, {}, step, steps)
    return steps


def _cycle_base_coloring_ref(order):
    n = len(order)
    r = n % 3
    if r == 0:
        pat = [(i % 3) + 1 for i in range(n)]
    elif r == 1:
        pat = [1, 2, 1, 3] + [(i % 3) + 1 for i in range(n - 4)]
    else:
        pat = [1, 3, 2, 1, 3] + [(i % 3) + 1 for i in range(n - 5)]
    return {v: pat[i] for i, v in enumerate(order)}


def _reduce_cut_vertex_ref(g, mask, cv):
    adj = g.adj
    v = cv.bit_length() - 1
    rest = mask ^ cv
    z = next((u for u in G.bit_list(adj[v] & rest) if adj[u] & rest), -1)
    if z < 0:
        raise RuntimeError("cut-vertex reduction on a star, which is a base case")
    comps = G.masked_components(g, rest ^ (1 << z))
    if all(c & adj[z] for c in comps):
        raise RuntimeError("cut-vertex reduction needs a cut vertex")
    yb = adj[z] & rest
    y = (yb & -yb).bit_length() - 1
    comp_y = next(c for c in comps if (c >> y) & 1)
    xb = adj[v] & mask & ~(1 << z) & ~comp_y
    x = (xb & -xb).bit_length() - 1
    pre = P.TraceStep("cut-vertex", (v, z))
    return _path_reduce_ref(g, comps, [v, z], x, y, [pre])


def _reduce_degree_two_ref(g, mask, deg2):
    cyc = degree_two_cycle_ref(g, mask, deg2)
    rest = mask & ~G.bits_of(cyc)
    length = len(cyc)
    pairs = []
    for i in range(length):
        u = cyc[i]
        if not (deg2 >> u) & 1:
            continue
        for w in (cyc[(i - 1) % length], cyc[(i + 1) % length]):
            if g.adj[w] & rest:
                pairs.append((u, w))
    if not pairs:
        raise RuntimeError("a graph that is not a cycle has such a pair on this cycle")
    u, w = min(pairs)
    i = cyc.index(u)
    rot = cyc[i + 1 :] + cyc[:i]
    path = rot if rot[-1] == w else list(reversed(rot))
    yb = g.adj[w] & rest
    y = (yb & -yb).bit_length() - 1
    pre = P.TraceStep("degree-2", (u, w))
    comps = G.masked_components(g, mask & ~G.bits_of(path))
    return _path_reduce_ref(g, comps, path, x=u, y=y, pre_steps=[pre])


def _solve_ref(g, mask):
    adj = g.adj
    n = mask.bit_count()
    ones = deg2 = 0
    m = mask
    while m:
        b = m & -m
        m ^= b
        d = (adj[b.bit_length() - 1] & mask).bit_count()
        if d == 1:
            ones |= b
        elif d == 2:
            deg2 |= b
    if n < 3 or (n == 5 and deg2 == mask):
        raise RuntimeError("reduction needs order at least 3 and no 5-cycle")

    if ones.bit_count() == n - 1:
        center = (mask ^ ones).bit_length() - 1
        leaves = G.bit_list(ones)
        colors = {center: 1, leaves[0]: 2, leaves[1]: 3}
        for u in leaves[2:]:
            colors[u] = 1
        return [P.TraceStep("base-star", (center,), colors)]

    if deg2 == mask:
        cyc = G.cycle_walk(g, mask, (mask & -mask).bit_length() - 1)
        return [P.TraceStep("base-cycle", tuple(cyc), _cycle_base_coloring_ref(cyc))]

    cv = P._least_cut_vertex(g, mask, ones)
    if cv:
        return _reduce_cut_vertex_ref(g, mask, cv)
    if deg2:
        return _reduce_degree_two_ref(g, mask, deg2)
    cyc = G.find_cycle_len_mod3(g, mask)
    if cyc is None:
        raise RuntimeError("no cycle of length divisible by 3")
    return _cycle_reduce_ref(g, mask, cyc)


def partition3_ref(g: G.Graph) -> tuple[TriPartition, list]:
    """The previous engine's partition and trace of a connected graph of
    order at least 3 other than the 5-cycle, replayed and verified."""
    steps = _solve_ref(g, g.full_mask)
    tp = P.replay_trace(g, steps)
    if not verify_partition(g, tp)[0]:
        raise RuntimeError(f"reference partition of {G.write_graph6(g)} fails verification")
    return tp, steps
