"""Constructive three-way vertex partition with an independent leftover.

For a connected graph of order at least 3 other than the 5-cycle, builds a
partition (A1, A2, A3) of the vertices such that the union of the three
sets V - N[Ai] is independent. The construction works by recursive
reduction and records every step in a trace. Each vertex's color is
written once, into one of three class masks held per call. One painter
writes every walk the engine colors, a separating path, a cycle, or a
two-vertex or five-cycle component, straight into those masks: a head of
fixed colors, then 1, 2, 3 repeating. A component whose forced vertex
came out in the wrong color has two classes swapped on its vertices, a
few word operations, since its sub-solve colored exactly those. Steps are
kept as (kind, vertices, mask of the vertices colored) and become trace
steps, colors in ascending vertex order, only once every color is final.
The returned partition is the one the trace replays to, it must equal the
class masks, and it is re-verified before being returned.

Reductions, in the order tried: star base case, cycle base case,
cut-vertex, degree-2 vertex, cycle of length divisible by 3. Each
subproblem is the subgraph induced on a vertex mask, solved in place in
the input graph's numbering, so every vertex in a trace is an input vertex.
One pass per mask counts each vertex's degree inside it, and both base
cases and the degree-2 rung are read from those counts. The cut-vertex
rung needs only the least cut vertex. A leaf's neighbor is a cut vertex
and a leaf never is, so the least leaf neighbor bounds the answer, and
the other vertices below it are probed in ascending order, each probe the
sum of the breadth-first levels (``graphs.bfs_levels``) on one side of
the vertex, stopped once they hold all the vertex's neighbors. A mask with
no leaves, or one whose probes have grown as many vertices as it holds,
gets one full lowpoint search instead. The rung then splits the mask with
one component pass, which takes a vertex with no neighbor in the mask as
its own component without a search, and the degree-2 rung's shortest paths
are read off the same levels; once a triangle is the shortest cycle found,
no further search runs. The verifier looks for an edge inside the leftover set
with the decision kernels' own edge scan.

The cycle rung is the last one: a mask that reaches it has no cut vertex
and no degree-2 vertex, so it is 2-connected with minimum degree at least
3, and every graph of minimum degree at least 3 has a cycle whose length
is divisible by 3 (G. Chen and A. Saito, J. Combin. Theory Ser. B 60
(1994) 277-292). The rung takes the first cycle of the least such length
that ``graphs.cycles_of_length`` gives; on almost every mask that reaches
it this is a triangle, which that search closes by one word operation per
edge at the root. A mask where the search finds none, a trace that does
not replay or replays to other classes than the engine's, and a result
that fails verification are gaps between the engine and that theory; each
raises EngineGap naming the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from isolab._pykernels import _edge_vertex
from isolab.graphs import (
    Graph,
    bfs_levels,
    bit_list,
    bits_of,
    closed_neighborhood,
    cut_vertices,
    cycle_walk,
    find_cycle_len_mod3,
    induced_subgraph,
    is_connected,
    masked_components,
    write_graph6,
)

COLORS = (1, 2, 3)


class NoValidPartition(Exception):
    """The graph admits no three-way partition with independent leftover."""


class EngineGap(Exception):
    """The reduction engine failed on a graph the theory covers: a gap in
    the engine, not a property of the graph. The message names the graph."""


@dataclass
class TraceStep:
    """One applied reduction: its rule name, the structure it acted on,
    and the color assignments it made (original vertex indices)."""

    kind: str
    vertices: tuple[int, ...]
    colors: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class TriPartition:
    """Three disjoint vertex classes covering V, plus the recomputed
    leftover set (the union of V - N[Ai])."""

    classes: tuple[int, int, int]
    residual: int


# ---------------------------------------------------------------------------
# verification


def compute_residual(g: Graph, classes: tuple[int, int, int]) -> int:
    res = 0
    for cls in classes:
        res |= g.full_mask & ~closed_neighborhood(g, cls)
    return res


def _independence_violation(g: Graph, mask: int) -> Optional[tuple[int, int]]:
    v = _edge_vertex(g.adj, mask)
    if v < 0:
        return None
    hit = g.adj[v] & mask
    return (v, (hit & -hit).bit_length() - 1)


def verify_partition(
    g: Graph, t: TriPartition
) -> tuple[bool, int, Optional[tuple[int, int]]]:
    """Recompute everything from scratch; trust nothing stored.

    Returns (ok, recomputed residual, offending edge or None). Coverage or
    disjointness failures return ok=False with no edge.
    """
    a1, a2, a3 = t.classes
    if a1 | a2 | a3 != g.full_mask or a1 & a2 or a1 & a3 or a2 & a3:
        return False, compute_residual(g, t.classes), None
    res = compute_residual(g, t.classes)
    bad = _independence_violation(g, res)
    return bad is None, res, bad


# ---------------------------------------------------------------------------
# structure probes


def is_c5(g: Graph, mask: Optional[int] = None) -> bool:
    """Whether the subgraph induced on ``mask`` (default: all vertices) is
    the 5-cycle: on five vertices, all of degree 2 already means one cycle."""
    if mask is None:
        mask = g.full_mask
    return mask.bit_count() == 5 and all(
        (g.adj[v] & mask).bit_count() == 2 for v in bit_list(mask)
    )


def _bfs_shortest_path(
    g: Graph, src: int, dst: int, mask: int, limit: Optional[int] = None
) -> Optional[list[int]]:
    """Shortest src-dst path inside ``mask``, or None when there is none
    with fewer than ``limit`` edges. Walking back from ``dst`` over the
    ``bfs_levels``, each step goes to the least neighbor one level up."""
    adj = g.adj
    levels = bfs_levels(adj, src, mask, 1 << dst, limit)
    if not levels[-1] >> dst & 1:
        return None
    path = [dst]
    for level in reversed(levels[:-1]):
        up = adj[path[-1]] & level
        path.append((up & -up).bit_length() - 1)
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# the reduction engine


# A step as the engine builds it: (kind, vertices, mask of the vertices it
# colored). partition3 turns each into a TraceStep once every color is set.
Step = tuple[str, tuple[int, ...], int]


# The heads of the base cycle coloring by length mod 3. A head colors a
# walk's first vertices, and 1, 2, 3 repeating colors the rest.
_HEADS = ((), (1, 2, 1, 3), (1, 3, 2, 1, 3))


def _paint(cls: list[int], order: Sequence[int], head: tuple[int, ...] = ()) -> int:
    """Give ``order[i]`` the color ``head[i]`` while the head lasts, then
    1, 2, 3 repeating from 1, writing into the class masks ``cls``; returns
    the mask of the vertices painted."""
    painted = 0
    k = len(head)
    for i, v in enumerate(order):
        b = 1 << v
        cls[head[i] if i < k else (i - k) % 3 + 1] |= b
        painted |= b
    return painted


def _color_of(cls: list[int], v: int) -> int:
    """The color whose class holds ``v``, or 0 when none does."""
    for c in COLORS:
        if cls[c] >> v & 1:
            return c
    return 0


def _color_components(
    g: Graph,
    comps: list[int],
    anchors: dict[int, tuple[int, int]],
    step: Step,
    cls: list[int],
    steps: list[Step],
) -> None:
    """Append the path/cycle ``step`` to ``steps``, then color the
    components ``comps`` it leaves: those of the reduced mask without the
    vertices it colored, by least vertex.

    ``anchors`` maps a forced vertex to (its colored neighbor, its forced
    color). Small components get the fixed two-vertex and five-cycle
    patterns and join ``step``'s mask; larger ones recurse, appending their
    own steps, then have two classes swapped on their vertices to meet the
    forced color. A sub-solve colors exactly its component, so the swap
    touches nothing else.
    """
    adj = g.adj
    kind, vertices, colored = step
    at = len(steps)
    steps.append(step)
    own = colored
    forced = bits_of(anchors)
    for comp in comps:
        hit = comp & forced
        if hit & (hit - 1):
            raise RuntimeError("at most one forced vertex per component")
        size = comp.bit_count()
        if size == 1:
            if hit:
                c = anchors[comp.bit_length() - 1][1]
            else:
                # The color fewest colored neighbors carry, the least on ties.
                nb = adj[comp.bit_length() - 1] & colored
                k1 = (nb & cls[1]).bit_count()
                k2 = (nb & cls[2]).bit_count()
                k3 = (nb & cls[3]).bit_count()
                c = 1 if k1 <= k2 and k1 <= k3 else 2 if k2 <= k3 else 3
            cls[c] |= comp
            own |= comp
        elif size == 2 or is_c5(g, comp):
            verts = bit_list(comp)
            if size == 2 and not g.has_edge(verts[0], verts[1]):
                raise RuntimeError("two-vertex component must be an edge")
            # Both patterns start at the forced vertex, else at the first
            # vertex with a colored neighbor, and read that neighbor's color.
            if hit:
                w = hit.bit_length() - 1
                anchor, f = anchors[w]
            else:
                w = next(v for v in verts if adj[v] & colored)
                nb = adj[w] & colored
                anchor, f = (nb & -nb).bit_length() - 1, None
            vcol = _color_of(cls, anchor)
            if f is None:
                f = [c for c in COLORS if c != vcol][0 if size == 2 else 1]
            if f == vcol:
                raise RuntimeError("forced color clashes with the anchor's color")
            second = 6 - f - vcol
            if size == 2:
                walk = (w, (comp ^ 1 << w).bit_length() - 1)
            else:
                walk = cycle_walk(g, comp, w)
            own |= _paint(cls, walk, (f, second, vcol, f, second))
        else:
            _solve(g, comp, cls, steps)
            if hit:
                w = hit.bit_length() - 1
                f = anchors[w][1]
                # A w the sub-solve left uncolored is left for the replay
                # check to reject.
                cur = _color_of(cls, w)
                if cur and cur != f:
                    flip = (cls[cur] | cls[f]) & comp
                    cls[cur] ^= flip
                    cls[f] ^= flip
    steps[at] = (kind, vertices, own)


def _path_reduce(
    g: Graph,
    comps: list[int],
    path: list[int],
    x: int,
    y: int,
    cls: list[int],
    steps: list[Step],
) -> None:
    """Color the separating ``path`` of n >= 2 vertices 1, 2, 3 repeating,
    then the components ``comps`` of the reduced mask without it.

    The neighbor x of the path's first vertex is forced to color 3 and the
    neighbor y of its last vertex to the color missing at the path's end,
    6 - c(path[-1]) - c(path[-2]) = 4 - (n - 1) % 3 - (n - 2) % 3, which
    keeps every path vertex out of the leftover set.
    """
    n = len(path)
    step = ("separating-path", tuple(path), _paint(cls, path))
    anchors = {x: (path[0], 3), y: (path[-1], 4 - (n - 1) % 3 - (n - 2) % 3)}
    _color_components(g, comps, anchors, step, cls, steps)


def _least_cut_vertex(g: Graph, mask: int, ones: int) -> int:
    """The least cut vertex of the connected subgraph induced on ``mask``,
    of at least 3 vertices, as one bit, or 0 when it has none; ``ones``
    holds the mask's leaves.

    The neighbor of a leaf is a cut vertex and a leaf never is, so with
    leaves the answer is at most the least leaf neighbor b, and only the
    other vertices below b are probed, in ascending order. A probe of c is
    the sum of the ``bfs_levels`` from c's least neighbor inside ``mask``
    without c, stopped once they hold all of c's neighbors. Once the probes
    have grown as many vertices as the mask holds, or when there are no
    leaves, one lowpoint search (``cut_vertices``) answers instead.
    """
    if ones:
        hooks = closed_neighborhood(g, ones) & mask & ~ones
        bound = hooks & -hooks
        probe = mask & ~ones & (bound - 1)
        budget = mask.bit_count()
        while probe and budget > 0:
            c = probe & -probe
            probe ^= c
            rest = mask ^ c
            need = g.adj[c.bit_length() - 1] & rest
            comp = sum(bfs_levels(g.adj, (need & -need).bit_length() - 1, rest, need))
            if need & ~comp:
                return c
            budget -= comp.bit_count()
        if not probe:
            return bound
    cvs = cut_vertices(g, mask)
    return cvs & -cvs


def _reduce_cut_vertex(
    g: Graph, mask: int, cv: int, cls: list[int], steps: list[Step]
) -> None:
    """``cv`` holds the least cut vertex of the connected ``mask``, as one
    bit.

    The path is v, z with z the least neighbor of v that has a neighbor
    in ``mask`` without v. The components of ``mask`` without v and z are
    those of ``mask`` without v other than z's, which hold no neighbor of
    z, and the pieces of z's, which all do. So v is a cut vertex exactly
    when one of them misses z's neighbors, or when there is no such z:
    then ``mask`` is a star on v, a base case.
    """
    adj = g.adj
    v = cv.bit_length() - 1
    rest = mask ^ cv
    for z in bit_list(adj[v] & rest):
        if adj[z] & rest:
            break
    else:
        raise RuntimeError("cut-vertex reduction on a star, which is a base case")
    comps = masked_components(g, rest ^ (1 << z))
    for c in comps:
        if not c & adj[z]:
            break
    else:
        raise RuntimeError("cut-vertex reduction needs a cut vertex")
    yb = adj[z] & rest
    y = (yb & -yb).bit_length() - 1
    # y lies in rest without z, so in one of the components.
    for comp_y in comps:
        if comp_y >> y & 1:
            break
    xb = adj[v] & mask & ~(1 << z) & ~comp_y
    x = (xb & -xb).bit_length() - 1
    steps.append(("cut-vertex", (v, z), 0))
    _path_reduce(g, comps, [v, z], x, y, cls, steps)


def _degree_two_cycle(g: Graph, mask: int, deg2: int) -> list[int]:
    """A shortest cycle through a vertex of ``deg2``, the first such vertex
    on ties, as that vertex followed by the shortest path between its two
    neighbors.

    Only a strictly shorter cycle replaces the best so far, so each search
    stops at the far neighbor and gives up before depth ``len(best) - 2``,
    and none runs once a triangle is the best: it would reach only its root.
    """
    best = None
    for v in bit_list(deg2):
        if best is not None and len(best) == 3:
            break
        a, b = bit_list(g.adj[v] & mask)
        limit = None if best is None else len(best) - 2
        sp = _bfs_shortest_path(g, a, b, mask & ~(1 << v), limit)
        if sp is not None:
            best = [v] + sp
        elif best is None:
            raise RuntimeError("degree-2 reduction requires 2-connectivity")
    return best


def _reduce_degree_two(
    g: Graph, mask: int, deg2: int, cls: list[int], steps: list[Step]
) -> None:
    """``deg2`` holds the vertices of degree 2 inside ``mask``, one bit each."""
    cyc = _degree_two_cycle(g, mask, deg2)
    rest = mask & ~bits_of(cyc)
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
    steps.append(("degree-2", (u, w), 0))
    comps = masked_components(g, mask & ~bits_of(path))
    _path_reduce(g, comps, path, u, y, cls, steps)


def _solve(g: Graph, mask: int, cls: list[int], steps: list[Step]) -> None:
    """Color the connected subgraph induced on ``mask``, in ``g``'s own
    vertex numbering, into the class masks ``cls``, and append the steps
    that did it to ``steps``. Every vertex of ``mask`` is colored once and
    no other vertex is touched; partition3's replay checks both."""
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
        # The mask is connected, so the one vertex left touches every leaf.
        # The center and every leaf after the second get color 1.
        first = ones & -ones
        second = (ones ^ first) & -(ones ^ first)
        cls[1] |= mask ^ first ^ second
        cls[2] |= first
        cls[3] |= second
        steps.append(("base-star", ((mask ^ ones).bit_length() - 1,), mask))
        return

    if deg2 == mask:
        # Connected with every degree 2: one cycle.
        cyc = cycle_walk(g, mask, (mask & -mask).bit_length() - 1)
        steps.append(("base-cycle", tuple(cyc), _paint(cls, cyc, _HEADS[len(cyc) % 3])))
        return

    cv = _least_cut_vertex(g, mask, ones)
    if cv:
        return _reduce_cut_vertex(g, mask, cv, cls, steps)
    if deg2:
        return _reduce_degree_two(g, mask, deg2, cls, steps)
    cyc = find_cycle_len_mod3(g, mask)
    if cyc is None:
        sub, _ = induced_subgraph(g, mask)
        raise EngineGap(
            f"reduction dead-end on {sub.order}-vertex graph {write_graph6(sub)}: "
            "no cycle of length divisible by 3"
        )
    # A cycle of length divisible by 3 is colored 1, 2, 3 repeating.
    step = ("cycle-mod-3", cyc, _paint(cls, cyc))
    _color_components(g, masked_components(g, mask & ~step[2]), {}, step, cls, steps)


# ---------------------------------------------------------------------------
# public entry points


def partition3(g: Graph) -> tuple[TriPartition, list[TraceStep]]:
    """Verified tri-partition with independent leftover, plus the trace that
    replays to it.

    Raises ValueError for graphs of order below 3 or disconnected input,
    NoValidPartition for the 5-cycle, RuntimeError when an invariant of a
    reduction step breaks, and EngineGap when the cycle rung finds no cycle,
    the trace does not replay (a rung left a vertex uncolored, say), it
    replays to other classes than the engine's, or the replayed partition
    fails verification.
    """
    if g.order < 3:
        raise ValueError("partition requires order at least 3")
    if not is_connected(g):
        raise ValueError("partition requires a connected graph")
    if is_c5(g):
        raise NoValidPartition("the 5-cycle admits no valid partition")
    cls = [0, 0, 0, 0]
    made: list[Step] = []
    _solve(g, g.full_mask, cls, made)
    # Each step's colors in ascending vertex order. A vertex in no class or
    # in two reads as one class here, which the replay check below rejects.
    c1, c2 = cls[1], cls[2]
    steps = []
    for kind, vs, m in made:
        colors = {}
        while m:
            b = m & -m
            colors[b.bit_length() - 1] = 1 if c1 & b else 2 if c2 & b else 3
            m ^= b
        steps.append(TraceStep(kind, vs, colors))
    try:
        tp = replay_trace(g, steps)
    except ValueError as exc:
        raise EngineGap(f"trace of graph {write_graph6(g)} does not replay: {exc}") from None
    if tp.classes != (cls[1], cls[2], cls[3]):
        raise EngineGap(
            f"trace of graph {write_graph6(g)} replays to other classes than the engine's"
        )
    ok, _, bad = verify_partition(g, tp)
    if not ok:
        raise EngineGap(f"result on graph {write_graph6(g)} fails verification: edge {bad}")
    # A verified partition uses all three classes: an empty one would leave
    # all of V, which holds an edge, in the leftover set.
    return tp, steps


def replay_trace(g: Graph, steps: list[TraceStep]) -> TriPartition:
    """Re-apply a recorded trace; reproduces the engine's partition.

    Raises ValueError when the trace uses a color outside 1..3, colors a
    vertex outside 0..n-1, colors a vertex twice or misses one.
    """
    classes = {1: 0, 2: 0, 3: 0}
    count = 0
    try:
        for step in steps:
            for v, c in step.colors.items():
                classes[c] |= 1 << v  # a negative v raises ValueError here
            count += len(step.colors)
    except KeyError as exc:
        raise ValueError(f"trace uses color {exc.args[0]}") from None
    cls = (classes[1], classes[2], classes[3])
    colored = cls[0] | cls[1] | cls[2]
    if colored >> g.order:
        raise ValueError(f"trace colors vertex {colored.bit_length() - 1} of a {g.order}-vertex graph")
    if colored.bit_count() != count:
        raise ValueError("trace colors a vertex twice")
    if colored != g.full_mask:
        raise ValueError("trace does not color every vertex")
    return TriPartition(cls, compute_residual(g, cls))
