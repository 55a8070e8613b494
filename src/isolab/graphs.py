"""Immutable bitmask graphs, the graph6 codec, and structural queries.

Vertices are integers ``0..order-1``. A vertex set is a plain ``int`` used
as a bit vector (bit ``v`` set means vertex ``v`` is in the set); that is
the currency of every operation in the package. Adjacency is one machine
word per vertex, which caps the order at 64 and keeps all set algebra
branch-free.

graph6 input is checked in full before it is decoded, its padding once on
the last body byte, so neither decode path raises. Orders 0 to 16 decode by
table lookup, one sum of an entry per body character; orders 17 to 64 by one
base64 decode and a logarithmic number of word operations.
``parse_graph6`` says why the wider packings keep word operations.

Vertex sets grow by ``bfs_levels``, the one breadth-first search: callers
sum its levels for components, connectivity and partition's cut-vertex
probes, and read shortest paths and spanning trees off them;
``cut_vertices`` is the one lowpoint depth-first search, and
``cycles_of_length`` the one cycle search. Both are loops over an explicit
stack, with no recursion.
"""

from __future__ import annotations

import re
import sys
from array import array
from binascii import a2b_base64
from dataclasses import dataclass
from math import isqrt
from operator import getitem
from typing import Iterable, Iterator, Optional, Sequence

from isolab import _backend
from isolab._pykernels import _body_bytes, _body_key

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


def _transpose_swaps(w: int) -> tuple[tuple[int, int], ...]:
    """Delta swaps that transpose a w x w bit matrix held in one integer,
    row r at bit w * r (Warren, Hacker's Delight, 2nd ed., section 7-3).

    The swap for each j in w/2, w/4, ..., 1 exchanges bit (r, c) with bit
    (r + j, c - j) wherever bit j of r is 0 and bit j of c is 1, so the
    pair lies j * (w - 1) apart; the masks are those positions, a column
    pattern repeated down a row pattern.
    """
    big = 1 << w
    out = []
    j = w // 2
    while j:
        cols = ((1 << w) - 1) // ((1 << 2 * j) - 1) * (((1 << j) - 1) << j)
        rows = (big**w - 1) // (big ** (2 * j) - 1) * ((big**j - 1) // (big - 1))
        out.append((j * (w - 1), rows * cols))
        j //= 2
    return tuple(out)


_WIDTHS = (8, 16, 32, 64)
_SWAPS = {w: _transpose_swaps(w) for w in _WIDTHS}
_TYPECODES = {w: next(c for c in "BHILQ" if array(c).itemsize * 8 == w) for w in _WIDTHS}


def _layout(n: int) -> tuple:
    """How a graph of order n is packed into one integer, row v at bit
    w * v, where the width w is the least of 8, 16, 32 and 64 that holds n:
    ``(w, array typecode of w-bit items, outside, transpose swaps, pad)``,
    with ``outside`` the bits of the n rows that no simple graph sets, the
    diagonal and every column from n on, and ``pad`` the padding bits of the
    last character of an order-n graph6 body."""
    w = next(w for w in _WIDTHS if n <= w)
    every_row = ((1 << w * n) - 1) // ((1 << w) - 1)  # bit w * v for each v < n
    diagonal = ((1 << (w + 1) * n) - 1) // ((1 << w + 1) - 1)
    outside = ((1 << w) - (1 << n)) * every_row | diagonal
    pad = (1 << -(n * (n - 1) // 2) % 6) - 1
    return w, _TYPECODES[w], outside, _SWAPS[w], pad


_LAYOUTS = tuple(_layout(n) for n in range(MAX_ORDER + 1))


def _transpose(m: int, swaps: tuple[tuple[int, int], ...]) -> int:
    """Transpose a packed bit matrix by the swaps of ``_transpose_swaps``."""
    for s, mask in swaps:
        x = (m ^ (m >> s)) & mask
        m ^= x ^ (x << s)
    return m


def _row_fault(adj: Sequence[int], n: int) -> str:
    """The first row, in vertex order, with bits beyond the order or a loop."""
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            return f"adjacency bits beyond order at vertex {v}"
        if (row >> v) & 1:
            return f"loop at vertex {v}"
    raise RuntimeError("no row fault found")


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
        # A tuple, so that the rows cannot change once checked and the
        # graph hashes; tuple() hands a tuple back unchanged.
        adj = tuple(self.adj)
        object.__setattr__(self, "adj", adj)
        if len(adj) != n:
            raise ValueError("adjacency length does not match order")
        width, code, outside, swaps, _ = _LAYOUTS[n]
        # The whole matrix in one integer, so that the range, loop and
        # symmetry checks are a few word operations. Packing refuses a row
        # that is negative or wider than the width.
        try:
            m = int.from_bytes(array(code, adj), sys.byteorder)
        except OverflowError:
            raise ValueError(_row_fault(adj, n)) from None
        if m & outside:
            raise ValueError(_row_fault(adj, n))
        t = _transpose(m, swaps)
        if t != m:
            # Bit (v, u) of m without (u, v): the least v, then the least u.
            x = m & ~t
            v, u = divmod((x & -x).bit_length() - 1, width)
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
            for u in bit_list(row << (v + 1)):
                out.append((v, u))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


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


def disjoint_union(a: Graph, b: Graph) -> Graph:
    adj = list(a.adj) + [row << a.order for row in b.adj]
    return Graph(a.order + b.order, tuple(adj))


# ---------------------------------------------------------------------------
# graph6 codec


def _g6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


# Each graph6 character as the base64 character (RFC 4648) whose six bits
# are its own reversed, so that the body, read backwards and base64
# decoded, is one numeral with bit 6b + s of the body stream at bit 6b + s.
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_B64 = bytes.maketrans(
    bytes(range(63, 127)), bytes(_B64[int(f"{v:06b}"[::-1], 2)] for v in range(64))
)
_G6_BAD = re.compile("[^?-~]")
# Per order 17 to 64, the masked shifts of ``_g6_spread``, built on first use.
_G6_SPREAD: list = [None] * (MAX_ORDER + 1)
# Per packing width 8 and 16, the lookup tables of ``_g6_tables``, built on
# first use.
_G6_TABLES: dict = {}


def _g6_tables(width: int) -> tuple[tuple[int, ...], ...]:
    """Per body position of a graph6 line packed at this width, the packed
    symmetric matrix of each character there: entry c of table b holds bits
    (i, j) and (j, i) for every edge (i, j) that character c sets at
    position b. The body is the upper triangle column by column whatever the
    order, so the tables serve every order of the width. A line's matrix is
    the sum of its characters' entries: no two entries share a bit, so the
    sum is their union. A bit past the width's last edge sets nothing.
    """
    tables = []
    for b in range((width * (width - 1) // 2 + 5) // 6):
        # entries[v] for the character of value v, built from its low bit,
        # the last of its six in the body
        entries = [0]
        for k in reversed(range(6 * b, 6 * b + 6)):
            # bit k of the body is edge (i, j), k = j(j - 1)/2 + i, i < j
            j = (1 + isqrt(8 * k + 1)) // 2
            i = k - j * (j - 1) // 2
            bit = 1 << width * i + j | 1 << width * j + i if j < width else 0
            entries += [e + bit for e in entries]
        # indexed by the character itself, 63 + v
        tables.append((0,) * 63 + tuple(entries))
    tables = _G6_TABLES[width] = tuple(tables)
    return tables


def _g6_spread(n: int) -> tuple[tuple[int, int], ...]:
    """The masked shifts, as (mask, shift) pairs, that move each column of
    an order-n body's numeral to its row of the packed matrix, in a
    logarithmic number of word operations (Warren, Hacker's Delight, 2nd
    ed., ch. 7).

    In the numeral, edge (i, j) sits at bit j(j - 1)/2 + i, so column j of
    the upper triangle is a run of j bits. Its row j of the packed matrix
    lies a left shift of w * j - j(j - 1)/2 away for the packing width w;
    the spread makes those shifts one bit per step, the highest first. The
    shifts grow with j, and so do their values rounded down to a multiple of
    any power of two, while each run ends where the next begins. So after
    every step the runs still lie in order without overlap, and no moved run
    lands on another.
    """
    width = _LAYOUTS[n][0]
    shifts = [width * j - j * (j - 1) // 2 for j in range(n)]
    spread = []
    for b in reversed(range(max(shifts, default=0).bit_length())):
        # Runs sit where the shift bits above b have moved them.
        high = ~0 << b + 1
        mask = sum(
            ((1 << j) - 1) << j * (j - 1) // 2 + (d & high)
            for j, d in enumerate(shifts)
            if d >> b & 1
        )
        if mask:
            spread.append((mask, 1 << b))
    spread = _G6_SPREAD[n] = tuple(spread)
    return spread


def _decoded_graph(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph built without ``__post_init__``'s checks, for rows valid by
    construction: those parse_graph6 decodes, and those induced_subgraph
    cuts from a graph already checked. Every other caller goes through
    ``Graph(...)``."""
    g = object.__new__(Graph)
    object.__setattr__(g, "order", n)
    object.__setattr__(g, "adj", adj)
    return g


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a Graph.

    Accepts the one-byte header for n <= 62 and the four-byte ``~`` header;
    rejects orders beyond 64, characters outside 63..126 (every non-ASCII
    one included), missing or surplus body bytes, and nonzero padding bits,
    each with its byte offset.

    Every check comes before decoding. All padding lies in the low bits of
    the last body character, so it is checked once there, and neither path
    below raises. A body of order 16 or less, packed 8 or 16 bits wide, is
    the sum of one entry of ``_g6_tables`` per character. Orders 17 to 64
    are read as one numeral by one base64 decode (RFC 4648 packs the same
    six-bit groups), and the masked shifts of ``_g6_spread`` move it into
    rows. The wider packings keep word operations because each addition of
    the sum copies a wider integer: timed per line against them in one
    process on a Xeon vCPU, tables took 0.73-0.86x their time at orders
    17-24 but 1.01x at 25-28 and 1.15x at 29-32, so width 32 has no one
    choice; at width 64, 1.8x at 33-48 and 3.9x at 49-64. Their tables
    would hold 0.7 MB and 8.7 MB.
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
    width, code, _, swaps, pad = _LAYOUTS[n]
    # Every padding bit lies in the last body character.
    if data[-1] - 63 & pad:
        raise Graph6Error("nonzero padding bits", len(data) - 1)
    if width <= 16:
        tables = _G6_TABLES.get(width) or _g6_tables(width)
        m = sum(map(getitem, tables, data[body_off:]))
    else:
        # The body is the upper triangle column by column: column j holds
        # the bits of edges (0, j), ..., (j - 1, j). Decoded, it is one
        # numeral with edge (i, j) at bit j(j - 1)/2 + i; spread, each
        # column's run is row j of the packed matrix, its lower triangle;
        # the upper one is the transpose.
        body = data[: body_off - 1 : -1].translate(_G6_B64)
        m = int.from_bytes(a2b_base64(b"A" * (-need % 4) + body), "big")
        for mask, s in _G6_SPREAD[n] or _g6_spread(n):
            x = m & mask
            m = m ^ x | x << s
        m |= _transpose(m, swaps)
    # Symmetric, loop-free and inside the order by construction: nothing for
    # __post_init__ to check.
    return _decoded_graph(n, tuple(array(code, m.to_bytes(width * n // 8, sys.byteorder))))


def write_graph6(g: Graph) -> str:
    """Encode a Graph as one graph6 line (inverse of parse_graph6)."""
    n = g.order
    return (_g6_header(n) + _body_bytes(_body_key(g.adj, range(n)), n)).decode("ascii")


# ---------------------------------------------------------------------------
# neighborhoods and subgraphs


def closed_neighborhood(g: Graph, x: int) -> int:
    """N[x]: the set together with every neighbor of its members."""
    adj = g.adj
    out = x
    while x:
        b = x & -x
        out |= adj[b.bit_length() - 1]
        x ^= b
    return out


def induced_subgraph(g: Graph, mask: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``mask`` plus the kept old indices in order.

    New vertex ``i`` is old vertex ``keep[i]``; the map is increasing, so
    relative vertex order is preserved.
    """
    keep = tuple(bit_list(mask))
    adj = g.adj
    rows = []
    for v in keep:
        # Old vertex u becomes the number of kept vertices below it.
        row = 0
        x = adj[v] & mask
        while x:
            b = x & -x
            row |= 1 << (mask & (b - 1)).bit_count()
            x ^= b
        rows.append(row)
    # Symmetric, loop-free and inside the new order, as g's rows are.
    return _decoded_graph(len(keep), tuple(rows)), keep


# ---------------------------------------------------------------------------
# connectivity


def masked_components(g: Graph, mask: int) -> list[int]:
    """Components of the subgraph induced on ``mask``, by least vertex. A
    vertex with no neighbor in ``mask`` is its own component, read off its
    row without a search."""
    adj = g.adj
    rest = mask
    out = []
    while rest:
        b = rest & -rest
        v = b.bit_length() - 1
        comp = sum(bfs_levels(adj, v, mask)) if adj[v] & mask else b
        out.append(comp)
        rest &= ~comp
    return out


def components(g: Graph) -> list[int]:
    """Vertex sets of the connected components, by least contained vertex."""
    return masked_components(g, g.full_mask)


def is_connected(g: Graph) -> bool:
    if g.order == 0:
        return False
    return sum(bfs_levels(g.adj, 0, g.full_mask)) == g.full_mask


def bfs_levels(
    adj: Sequence[int], root: int, mask: int, until: int = -1, limit: Optional[int] = None
) -> list[int]:
    """Breadth-first levels from ``root``, a vertex of ``mask``, inside the
    subgraph induced on ``mask``, for the adjacency rows ``adj``:
    ``levels[d]`` is the set of vertices ``d`` edges from the root, and no
    level is empty. The levels are disjoint, so their sum is the set
    reached. A positive ``limit`` leaves every vertex ``limit`` or more
    edges from the root unreached. The search ends at the first level after
    which every vertex of the set ``until`` has been reached (default:
    never), which is then the last level.
    """
    level = seen = 1 << root
    levels = [level]
    deepest = len(adj) if limit is None else limit - 1
    while until & ~seen and len(levels) <= deepest:
        grow = 0
        while level:
            b = level & -level
            grow |= adj[b.bit_length() - 1]
            level ^= b
        level = grow & mask & ~seen
        if not level:
            break
        seen |= level
        levels.append(level)
    return levels


def cut_vertices(g: Graph, mask: Optional[int] = None) -> int:
    """Cut vertices of the subgraph induced on ``mask`` (default: all
    vertices), in linear time.

    One iterative lowpoint depth-first search from the least vertex of the
    mask (Tarjan 1972), with the lowpoint kept as a set instead of a
    discovery number: the DFS path is one mask, and each subtree passes up
    the path vertices its edges reach. A non-root vertex is a cut vertex
    when the subtree of some DFS child reaches no path vertex but it, the
    root when it has two or more DFS children. The current vertex is a
    local and the stack holds only its ancestors; the search enters only
    vertices of ``unseen``, the mask less those visited, so it never leaves
    the mask. Masks of at most 2 vertices have none. On disconnected input,
    where ``unseen`` is left nonempty, every vertex counts, except an
    isolated vertex whose removal leaves exactly one component.
    """
    if mask is None:
        mask = g.full_mask
    if mask.bit_count() <= 2:
        return 0
    adj = g.adj
    # At discovery, the neighbors on the DFS path (the parent and the back
    # edges); after the subtree finishes, every path vertex it reaches.
    up = [0] * g.order
    root = (mask & -mask).bit_length() - 1
    v = root
    unseen = mask ^ 1 << root
    path = 1 << root
    stack = []
    root_children = 0
    out = 0
    while True:
        fresh = adj[v] & unseen
        if fresh:
            b = fresh & -fresh
            w = b.bit_length() - 1
            # Neighbors seen earlier are all on the path: a finished one
            # would have entered w itself.
            up[w] = adj[w] & path
            unseen ^= b
            path |= b
            stack.append(v)
            v = w
            continue
        if not stack:
            break
        path ^= 1 << v
        p = stack.pop()
        if p == root:
            root_children += 1
        else:
            # The subtree reaches the parent by its tree edge; it reaches
            # nothing above it exactly when the parent separates it.
            reach = up[v] & path
            if reach == 1 << p:
                out |= 1 << p
            up[p] |= reach
        v = p
    if unseen:
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
    vertex below last), in lexicographic order.

    One iterative depth-first search per root, over the vertices of the
    mask above it. ``todo[d]`` holds the vertices still to try after
    ``path[d]``; a path one vertex short of the length is closed by one word
    operation, its last vertex's neighbors that neighbor the root, lie above
    ``path[1]`` and are off the path, taken in ascending order.
    """
    if length < 3:
        return
    adj = g.adj
    if mask is None:
        mask = g.full_mask
    rest = mask
    while rest:
        b = rest & -rest
        rest ^= b
        r = b.bit_length() - 1
        # A cycle rooted here leaves and returns by two of these.
        ends = adj[r] & rest
        if not ends & (ends - 1):
            continue
        # The vertices of the mask above the root that are off the path.
        free = rest
        path = [r]
        # The second vertex lies below the last, so it is never the root's
        # greatest neighbor.
        todo = [ends ^ 1 << ends.bit_length() - 1]
        while todo:
            c = todo[-1]
            if not c:
                todo.pop()
                free |= 1 << path.pop()
                continue
            b = c & -c
            todo[-1] = c ^ b
            v = b.bit_length() - 1
            path.append(v)
            if len(path) + 1 < length:
                free ^= b
                todo.append(adj[v] & free)
                continue
            close = adj[v] & ends & free & -(2 << path[1])
            while close:
                b = close & -close
                yield (*path, b.bit_length() - 1)
                close ^= b
            path.pop()


def cycle_walk(g: Graph, mask: int, start: int) -> list[int]:
    """The cycle through ``start`` inside ``mask``, in walk order.

    ``mask`` must induce one cycle: connected, every vertex with exactly
    two neighbors in ``mask``. The walk leaves ``start`` toward its smaller
    neighbor.
    """
    order = [start]
    prev, cur = -1, start
    for _ in range(mask.bit_count() - 1):
        a, b = bit_list(g.adj[cur] & mask)
        nxt = a if a != prev else b
        order.append(nxt)
        prev, cur = cur, nxt
    return order


def find_cycle_len_mod3(
    g: Graph, mask: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """Vertices of the first shortest simple cycle inside ``mask`` (default:
    all vertices) whose length is a multiple of 3, in the order of
    ``cycles_of_length``; None when there is none."""
    if mask is None:
        mask = g.full_mask
    for length in range(3, mask.bit_count() + 1, 3):
        for cyc in cycles_of_length(g, length, mask):
            return cyc
    return None


# ---------------------------------------------------------------------------
# canonical labeling


def canonical_code(g: Graph) -> bytes:
    """Order-prefixed canonical encoding; equal codes iff isomorphic.

    The code is exactly the graph6 line of the canonically relabeled
    graph, so catalogs sorted by code are sorted graph6 files.

    Its cost is that of the kernels' ``canon_form``, exponential in the
    order on graphs with many automorphisms; the docstring of
    ``isolab._pykernels.canon_form`` says when.
    """
    return canonical_code_of(g.adj, g.order)


def canonical_code_of(adj: Sequence[int], n: int) -> bytes:
    """``canonical_code`` of the graph with these adjacency masks, for
    callers that hold raw rows and no ``Graph``."""
    return _g6_header(n) + _backend.canon_form(adj, n)[1]
