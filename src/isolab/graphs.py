"""Immutable bitmask graphs, the graph6 codec, and structural queries.

Vertices are integers ``0..order-1``. A vertex set is a plain ``int`` used
as a bit vector (bit ``v`` set means vertex ``v`` is in the set); that is
the currency of every operation in the package. Adjacency is one machine
word per vertex, which caps the order at 64 and keeps all set algebra
branch-free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from isolab import _backend
from isolab._pykernels import _pack_body

MAX_ORDER = 64


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position at fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def bits_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bit vector."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bit_list(mask: int) -> list[int]:
    """Unpack a bit vector into a sorted list of vertex indices."""
    out = []
    while mask:
        x = mask & -mask
        out.append(x.bit_length() - 1)
        mask ^= x
    return out


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        x = mask & -mask
        yield x.bit_length() - 1
        mask ^= x


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on at most 64 vertices.

    ``adj[v]`` is the open neighborhood of ``v`` as a bit vector. Instances
    are immutable and safe to share across workers.
    """

    order: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n = self.order
        if not 0 <= n <= MAX_ORDER:
            raise ValueError(f"order {n} outside 0..{MAX_ORDER}")
        if len(self.adj) != n:
            raise ValueError("adjacency length does not match order")
        full = (1 << n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency bits beyond order at vertex {v}")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(n):
            for u in iter_bits(self.adj[v]):
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric edge {v}-{u}")

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.order):
            row = self.adj[v] >> (v + 1)
            for u in iter_bits(row << (v + 1)):
                out.append((v, u))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


@dataclass(frozen=True)
class CyclePath:
    """Vertex sequence forming a path, or a cycle when ``closed``."""

    vertices: tuple[int, ...]
    closed: bool

    def __len__(self) -> int:
        return len(self.vertices)


# ---------------------------------------------------------------------------
# construction helpers


def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = [0] * order
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(order, tuple(adj))


def empty_graph(order: int) -> Graph:
    return Graph(order, (0,) * order)


def path_graph(order: int) -> Graph:
    return from_edges(order, [(i, i + 1) for i in range(order - 1)])


def cycle_graph(order: int) -> Graph:
    if order < 3:
        raise ValueError("cycle needs order >= 3")
    edges = [(i, (i + 1) % order) for i in range(order)]
    return from_edges(order, edges)


def complete_graph(order: int) -> Graph:
    full = (1 << order) - 1
    return Graph(order, tuple(full ^ (1 << v) for v in range(order)))


def star_graph(leaves: int) -> Graph:
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def corona_of_complete(m: int) -> Graph:
    """K_m with one private pendant leaf per clique vertex (order 2m)."""
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges += [(i, m + i) for i in range(m)]
    return from_edges(2 * m, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    adj = list(a.adj) + [row << a.order for row in b.adj]
    return Graph(a.order + b.order, tuple(adj))


def relabel(g: Graph, labels: list[int]) -> Graph:
    """Return the graph with vertex ``v`` renamed to ``labels[v]``."""
    adj = [0] * g.order
    for v in range(g.order):
        row = 0
        for u in iter_bits(g.adj[v]):
            row |= 1 << labels[u]
        adj[labels[v]] = row
    return Graph(g.order, tuple(adj))


# ---------------------------------------------------------------------------
# graph6 codec


def _g6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


# Each graph6 character, as the six body bits it carries, high bit first.
_G6_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}
_G6_BAD = re.compile("[^?-~]")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a Graph.

    Accepts the one-byte header for n <= 62 and the four-byte ``~`` header;
    rejects orders beyond 64, characters outside 63..126 (every non-ASCII
    one included), missing or surplus body bytes, and nonzero padding bits,
    each with its byte offset.
    """
    line = text.rstrip("\n")
    if not line:
        raise Graph6Error("empty graph6 string", 0)
    bad = _G6_BAD.search(line)
    if bad:
        raise Graph6Error(f"character {bad.group()!r} out of graph6 range", bad.start())
    data = line.encode("ascii")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("eight-byte order header exceeds supported range", 1)
        if len(data) < 4:
            raise Graph6Error("truncated long-form order header", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n <= 62:
            raise Graph6Error("long-form header used for order <= 62", 0)
        body_off = 4
    else:
        n = data[0] - 63
        body_off = 1
    if n > MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds supported maximum {MAX_ORDER}", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    have = len(data) - body_off
    if have < need:
        raise Graph6Error("graph6 body truncated", body_off + have)
    if have > need:
        raise Graph6Error("unexpected trailing bytes", body_off + need)
    # The body is the upper triangle column by column: column j holds the
    # bits of edges (0, j), ..., (j - 1, j), so reversed it is the binary
    # numeral of j's lower neighborhood.
    bits = line[body_off:].translate(_G6_BITS)
    pad = bits.find("1", nbits)
    if pad >= 0:
        raise Graph6Error("nonzero padding bits", body_off + pad // 6)
    adj = [0] * n
    start = 0
    for j in range(1, n):
        lower = int(bits[start : start + j][::-1], 2)
        start += j
        adj[j] = lower
        bj = 1 << j
        while lower:
            x = lower & -lower
            adj[x.bit_length() - 1] |= bj
            lower ^= x
    return Graph(n, tuple(adj))


def write_graph6(g: Graph) -> str:
    """Encode a Graph as one graph6 line (inverse of parse_graph6)."""
    n = g.order
    return (_g6_header(n) + _pack_body(g.adj, n, range(n))).decode("ascii")


# ---------------------------------------------------------------------------
# neighborhoods and subgraphs


def closed_neighborhood(g: Graph, x: int) -> int:
    """N[x]: the set together with every neighbor of its members."""
    out = x
    for v in iter_bits(x):
        out |= g.adj[v]
    return out


def induced_subgraph(g: Graph, mask: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``mask`` plus the kept old indices in order.

    New vertex ``i`` is old vertex ``keep[i]``; the map is increasing, so
    relative vertex order is preserved.
    """
    keep = tuple(bit_list(mask))
    pos = {v: i for i, v in enumerate(keep)}
    adj = []
    for v in keep:
        row = 0
        for u in iter_bits(g.adj[v] & mask):
            row |= 1 << pos[u]
        adj.append(row)
    return Graph(len(keep), tuple(adj)), keep


# ---------------------------------------------------------------------------
# connectivity


def _closure(g: Graph, seed: int, mask: int) -> int:
    comp = seed & mask
    frontier = comp
    while frontier:
        grow = 0
        for v in iter_bits(frontier):
            grow |= g.adj[v]
        frontier = grow & mask & ~comp
        comp |= frontier
    return comp


def masked_components(g: Graph, mask: int) -> list[int]:
    """Components of the subgraph induced on ``mask``, by least vertex."""
    rest = mask
    out = []
    while rest:
        comp = _closure(g, rest & -rest, mask)
        out.append(comp)
        rest &= ~comp
    return out


def components(g: Graph) -> list[int]:
    """Vertex sets of the connected components, by least contained vertex."""
    return masked_components(g, g.full_mask)


def is_connected(g: Graph) -> bool:
    if g.order == 0:
        return False
    return _closure(g, 1, g.full_mask) == g.full_mask


def bfs_tree(g: Graph, root: int, mask: int) -> tuple[list[int], list[int]]:
    """Breadth-first tree from ``root`` inside the subgraph induced on ``mask``.

    Returns ``(parent, depth)``. Each level is scanned in ascending vertex
    order, so a vertex's parent is its least-index neighbor one level up.
    The root and every vertex not reached have parent -1; vertices not
    reached have depth -1.
    """
    parent = [-1] * g.order
    depth = [-1] * g.order
    depth[root] = 0
    seen = 1 << root
    frontier = [root]
    while frontier:
        reached = 0
        for v in frontier:
            new = g.adj[v] & mask & ~seen
            seen |= new
            reached |= new
            for u in iter_bits(new):
                parent[u] = v
                depth[u] = depth[v] + 1
        frontier = bit_list(reached)
    return parent, depth


def cut_vertices(g: Graph, mask: Optional[int] = None) -> int:
    """Cut vertices of the subgraph induced on ``mask`` (default: all
    vertices), in linear time.

    One iterative lowpoint depth-first search from the least vertex of the
    mask (Tarjan 1972): a non-root vertex is a cut vertex when the subtree
    of some DFS child has no edge reaching above it, the root when it has
    two or more DFS children. Vertices outside the mask count as already
    seen, so the search never enters them. Masks of at most 2 vertices
    have none. On disconnected input every vertex counts, except an
    isolated vertex whose removal leaves exactly one component.
    """
    if mask is None:
        mask = g.full_mask
    if mask.bit_count() <= 2:
        return 0
    adj = g.adj
    n = g.order
    disc = [0] * n  # discovery number
    low = [0] * n  # least discovery number reachable from the subtree
    up = [0] * n  # neighbors discovered earlier: the parent and back edges
    root = (mask & -mask).bit_length() - 1
    stack = [root]
    seen = (g.full_mask & ~mask) | (1 << root)
    clock = 1
    root_children = 0
    out = 0
    while stack:
        v = stack[-1]
        fresh = adj[v] & ~seen
        if fresh:
            w = (fresh & -fresh).bit_length() - 1
            up[w] = adj[w] & seen & mask
            seen |= 1 << w
            disc[w] = low[w] = clock
            clock += 1
            stack.append(w)
            continue
        stack.pop()
        # Neighbors discovered later are descendants and cannot lower it.
        lo = low[v]
        for u in iter_bits(up[v]):
            if disc[u] < lo:
                lo = disc[u]
        low[v] = lo
        if not stack:
            break
        p = stack[-1]
        if p == root:
            root_children += 1
        else:
            if lo >= disc[p]:
                out |= 1 << p
            if lo < low[p]:
                low[p] = lo
    if seen != g.full_mask:
        comps = masked_components(g, mask)
        if len(comps) == 2:
            for comp in comps:
                if comp.bit_count() == 1:
                    return mask ^ comp
        return mask
    if root_children >= 2:
        out |= 1 << root
    return out


# ---------------------------------------------------------------------------
# cycles


def cycles_of_length(
    g: Graph, length: int, mask: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Simple cycles of exactly this length inside ``mask`` (default: all
    vertices), rooted at their least vertex, one orientation each (second
    vertex below last), in lexicographic order."""
    adj = g.adj
    if mask is None:
        mask = g.full_mask
    outside = g.full_mask & ~mask
    path = []

    def extend(v: int, used: int) -> Iterator[tuple[int, ...]]:
        if len(path) == length:
            if (adj[v] >> path[0]) & 1 and path[1] < path[-1]:
                yield tuple(path)
            return
        for w in iter_bits(adj[v] & ~used):
            path.append(w)
            yield from extend(w, used | (1 << w))
            path.pop()

    for r in iter_bits(mask):
        path.clear()
        path.append(r)
        # Vertices below the root and outside the mask are never entered.
        yield from extend(r, outside | ((2 << r) - 1))


def cycle_walk(g: Graph, mask: int, start: int) -> list[int]:
    """The cycle through ``start`` inside ``mask``, in walk order.

    Every vertex of ``mask`` must have exactly two neighbors in ``mask``.
    The walk leaves ``start`` toward its smaller neighbor and takes
    ``|mask|`` vertices, so when ``mask`` holds several cycles the list
    repeats vertices of the first one.
    """
    order = [start]
    prev, cur = -1, start
    for _ in range(mask.bit_count() - 1):
        a, b = bit_list(g.adj[cur] & mask)
        nxt = a if a != prev else b
        order.append(nxt)
        prev, cur = cur, nxt
    return order


def iter_simple_cycles(g: Graph, mask: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All simple cycles inside ``mask`` (default: all vertices), shortest
    first, in the order of ``cycles_of_length``."""
    if mask is None:
        mask = g.full_mask
    for length in range(3, mask.bit_count() + 1):
        yield from cycles_of_length(g, length, mask)


def find_cycle_len_mod3(g: Graph, mask: Optional[int] = None) -> Optional[CyclePath]:
    """Shortest simple cycle inside ``mask`` (default: all vertices) whose
    length is a multiple of 3, if any."""
    if mask is None:
        mask = g.full_mask
    for length in range(3, mask.bit_count() + 1, 3):
        for cyc in cycles_of_length(g, length, mask):
            return CyclePath(cyc, closed=True)
    return None


# ---------------------------------------------------------------------------
# canonical labeling


def canonical_labels(g: Graph) -> list[int]:
    """Canonical position of each vertex (refinement plus backtracking)."""
    return _backend.canon_form(g.adj, g.order)[0]


def canonical_code(g: Graph) -> bytes:
    """Order-prefixed canonical encoding; equal codes iff isomorphic.

    The code is exactly the graph6 line of the canonically relabeled
    graph, so catalogs sorted by code are sorted graph6 files.
    """
    return canonical_code_of(g.adj, g.order)


def canonical_code_of(adj: Sequence[int], n: int) -> bytes:
    """``canonical_code`` of the graph with these adjacency masks, for
    callers that hold raw rows and no ``Graph``."""
    return _g6_header(n) + _backend.canon_form(adj, n)[1]
