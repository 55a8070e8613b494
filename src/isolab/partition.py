"""Constructive three-way vertex partition with an independent leftover.

For a connected graph of order at least 3 other than the 5-cycle, builds a
partition (A1, A2, A3) of the vertices such that the union of the three
sets V - N[Ai] is independent. The construction works by recursive
reduction and records every step in a trace. Each color is written once,
in the trace step that made it, and nowhere else: the returned partition
is the one the trace replays to, and it is re-verified before being
returned.

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
one component pass, and the degree-2 rung's shortest paths are read off
the same levels. The verifier looks for an edge inside the leftover set
with the decision kernels' own edge scan.

The cycle rung is the last one: a mask that reaches it has no cut vertex
and no degree-2 vertex, so it is 2-connected with minimum degree at least
3, and every graph of minimum degree at least 3 has a cycle whose length
is divisible by 3 (G. Chen and A. Saito, J. Combin. Theory Ser. B 60
(1994) 277-292). A mask where the search finds none, a trace that does not
replay and a result that fails verification are gaps between the engine
and that theory; each raises EngineGap naming the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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


def separating_path_reduce(
    path: list[int], x: int, y: int
) -> tuple[dict[int, int], dict[int, int]]:
    """Periodic coloring of a separating path plus the forced endpoint colors.

    The path is colored 1,2,3 repeating; the neighbor x of the first vertex
    is forced to color 3 and the neighbor y of the last vertex to the color
    missing at the path's end, which keeps every path vertex out of the
    leftover set. A path of fewer than two vertices raises ValueError.
    """
    if len(path) < 2:
        raise ValueError("separating path needs at least two vertices")
    colors = {v: (i % 3) + 1 for i, v in enumerate(path)}
    missing_end = 6 - colors[path[-1]] - colors[path[-2]]
    return colors, {x: 3, y: missing_end}


def _color_components(
    g: Graph,
    comps: list[int],
    anchors: dict[int, tuple[int, int]],
    step: TraceStep,
    steps: list[TraceStep],
) -> None:
    """Color the components ``comps`` left after a path/cycle ``step``: those
    of the reduced mask without the vertices ``step.colors`` holds, by least
    vertex.

    ``anchors`` maps a forced vertex to (its colored neighbor, its forced
    color). Small components get the fixed two-vertex and five-cycle
    patterns, written into ``step.colors``; larger ones recurse, then have
    the colors of their own steps permuted to meet the forced color, and
    those steps join ``steps``.
    """
    colors = step.colors
    colored_mask = bits_of(colors)
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
        elif size == 2 or is_c5(g, comp):
            verts = bit_list(comp)
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
                f = [c for c in COLORS if c != vcol][0 if size == 2 else 1]
            if f == vcol:
                raise RuntimeError("forced color clashes with the anchor's color")
            second = 6 - f - vcol
            if size == 2:
                u = verts[1] if w == verts[0] else verts[0]
                colors.update({w: f, u: second})
            else:
                x1, x2, x3, x4, x5 = cycle_walk(g, comp, w)
                colors.update({x3: vcol, x2: second, x5: second, x1: f, x4: f})
        else:
            sub_steps = _solve(g, comp)
            if forced:
                w, _, f = forced[0]
                # A w no sub-step colors is left for replay_trace to reject.
                cur = next((s.colors[w] for s in sub_steps if w in s.colors), f)
                if cur != f:
                    swap = {cur: f, f: cur}
                    for s in sub_steps:
                        for v, c in s.colors.items():
                            s.colors[v] = swap.get(c, c)
            steps.extend(sub_steps)


def _path_reduce(
    g: Graph,
    comps: list[int],
    path: list[int],
    x: int,
    y: int,
    pre_steps: list[TraceStep],
) -> list[TraceStep]:
    """Color ``path`` periodically, then the components ``comps`` of the
    reduced mask without it."""
    path_colors, forced = separating_path_reduce(path, x, y)
    step = TraceStep("separating-path", tuple(path), path_colors)
    steps = pre_steps + [step]
    anchors = {x: (path[0], forced[x]), y: (path[-1], forced[y])}
    _color_components(g, comps, anchors, step, steps)
    return steps


def _cycle_reduce(g: Graph, mask: int, cyc: tuple[int, ...]) -> list[TraceStep]:
    step = TraceStep("cycle-mod-3", cyc, {v: (i % 3) + 1 for i, v in enumerate(cyc)})
    steps = [step]
    comps = masked_components(g, mask & ~bits_of(cyc))
    _color_components(g, comps, {}, step, steps)
    return steps


def _cycle_base_coloring(order: list[int]) -> dict[int, int]:
    n = len(order)
    r = n % 3
    if r == 0:
        pat = [(i % 3) + 1 for i in range(n)]
    elif r == 1:
        pat = [1, 2, 1, 3] + [(i % 3) + 1 for i in range(n - 4)]
    else:
        pat = [1, 3, 2, 1, 3] + [(i % 3) + 1 for i in range(n - 5)]
    return {v: pat[i] for i, v in enumerate(order)}


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


def _reduce_cut_vertex(g: Graph, mask: int, cv: int) -> list[TraceStep]:
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
    z = next((u for u in bit_list(adj[v] & rest) if adj[u] & rest), -1)
    if z < 0:
        raise RuntimeError("cut-vertex reduction on a star, which is a base case")
    comps = masked_components(g, rest ^ (1 << z))
    if all(c & adj[z] for c in comps):
        raise RuntimeError("cut-vertex reduction needs a cut vertex")
    yb = adj[z] & rest
    y = (yb & -yb).bit_length() - 1
    comp_y = next(c for c in comps if (c >> y) & 1)
    xb = adj[v] & mask & ~(1 << z) & ~comp_y
    x = (xb & -xb).bit_length() - 1
    pre = TraceStep("cut-vertex", (v, z))
    return _path_reduce(g, comps, [v, z], x, y, [pre])


def _degree_two_cycle(g: Graph, mask: int, deg2: int) -> list[int]:
    """A shortest cycle through a vertex of ``deg2``, the first such vertex
    on ties, as that vertex followed by the shortest path between its two
    neighbors.

    Only a strictly shorter cycle replaces the best so far, so each search
    stops at the far neighbor and gives up before depth ``len(best) - 2``.
    """
    best = None
    for v in bit_list(deg2):
        a, b = bit_list(g.adj[v] & mask)
        limit = None if best is None else len(best) - 2
        sp = _bfs_shortest_path(g, a, b, mask & ~(1 << v), limit)
        if sp is not None:
            best = [v] + sp
        elif best is None:
            raise RuntimeError("degree-2 reduction requires 2-connectivity")
    return best


def _reduce_degree_two(g: Graph, mask: int, deg2: int) -> list[TraceStep]:
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
    pre = TraceStep("degree-2", (u, w))
    comps = masked_components(g, mask & ~bits_of(path))
    return _path_reduce(g, comps, path, x=u, y=y, pre_steps=[pre])


def _solve(g: Graph, mask: int) -> list[TraceStep]:
    """The trace that colors the connected subgraph induced on ``mask``, in
    ``g``'s own vertex numbering; each color lives only in the step that
    made it, and partition3's replay checks that every vertex got one."""
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
        center = (mask ^ ones).bit_length() - 1
        leaves = bit_list(ones)
        colors = {center: 1, leaves[0]: 2, leaves[1]: 3}
        for u in leaves[2:]:
            colors[u] = 1
        return [TraceStep("base-star", (center,), colors)]

    if deg2 == mask:
        # Connected with every degree 2: one cycle.
        cyc = cycle_walk(g, mask, (mask & -mask).bit_length() - 1)
        return [TraceStep("base-cycle", tuple(cyc), _cycle_base_coloring(cyc))]

    cv = _least_cut_vertex(g, mask, ones)
    if cv:
        return _reduce_cut_vertex(g, mask, cv)
    if deg2:
        return _reduce_degree_two(g, mask, deg2)
    cyc = find_cycle_len_mod3(g, mask)
    if cyc is None:
        sub, _ = induced_subgraph(g, mask)
        raise EngineGap(
            f"reduction dead-end on {sub.order}-vertex graph {write_graph6(sub)}: "
            "no cycle of length divisible by 3"
        )
    return _cycle_reduce(g, mask, cyc)


# ---------------------------------------------------------------------------
# public entry points


def partition3(g: Graph) -> tuple[TriPartition, list[TraceStep]]:
    """Verified tri-partition with independent leftover, plus the trace that
    replays to it.

    Raises ValueError for graphs of order below 3 or disconnected input,
    NoValidPartition for the 5-cycle, RuntimeError when an invariant of a
    reduction step breaks, and EngineGap when the cycle rung finds no cycle,
    the trace does not replay (a rung left a vertex uncolored, say), or the
    replayed partition fails verification.
    """
    if g.order < 3:
        raise ValueError("partition requires order at least 3")
    if not is_connected(g):
        raise ValueError("partition requires a connected graph")
    if is_c5(g):
        raise NoValidPartition("the 5-cycle admits no valid partition")
    steps = _solve(g, g.full_mask)
    try:
        tp = replay_trace(g, steps)
    except ValueError as exc:
        raise EngineGap(f"trace of graph {write_graph6(g)} does not replay: {exc}") from None
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
