"""Constructive three-way vertex partition with an independent leftover.

For a connected graph of order at least 3 other than the 5-cycle, builds a
partition (A1, A2, A3) of the vertices such that the union of the three
sets V - N[Ai] is independent. The construction works by recursive
reduction; every step is recorded in a trace, the result is re-verified
before being returned, and a brute-force search over all 3^n colorings
doubles as both the oracle for tests and the last-resort fallback.

Reductions, in the order tried: star base case, cycle base case,
cut-vertex, degree-2 vertex, cycle of length divisible by 3, separating
cycle. Each subproblem is the subgraph induced on a vertex mask, solved in
place in the input graph's numbering, so every vertex in a trace is an
input vertex; only the exhaustive fallback builds a relabelled copy. The
cycle-length-mod-3 step runs before the separating-cycle scan
(dense graphs nearly always contain a triangle, while graphs with no cycle
length divisible by 3 are necessarily sparse); the steps are sound in any
order, so this only affects which valid partition is produced.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from isolab.graphs import (
    Graph,
    bfs_tree,
    bit_list,
    bits_of,
    closed_neighborhood,
    cut_vertices,
    cycle_walk,
    find_cycle_len_mod3,
    induced_subgraph,
    is_connected,
    iter_bits,
    iter_simple_cycles,
    masked_components,
    write_graph6,
)

log = logging.getLogger("isolab.partition")

COLORS = (1, 2, 3)
EXHAUSTIVE_MAX_ORDER = 20


class NoValidPartition(Exception):
    """The graph admits no three-way partition with independent leftover."""


class EngineGap(Exception):
    """The engine needed its exhaustive fallback on a graph above the
    fallback's order guard: a gap in the engine, not a property of the
    graph."""


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
# verification and the exhaustive oracle


def compute_residual(g: Graph, classes: tuple[int, int, int]) -> int:
    res = 0
    for cls in classes:
        res |= g.full_mask & ~closed_neighborhood(g, cls)
    return res


def _independence_violation(g: Graph, mask: int) -> Optional[tuple[int, int]]:
    for v in iter_bits(mask):
        hit = g.adj[v] & mask
        if hit:
            return (v, (hit & -hit).bit_length() - 1)
    return None


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


def _colors_to_partition(g: Graph, colors: dict[int, int]) -> TriPartition:
    classes = [0, 0, 0]
    for v, c in colors.items():
        classes[c - 1] |= 1 << v
    cls = (classes[0], classes[1], classes[2])
    return TriPartition(cls, compute_residual(g, cls))


def exhaustive_partition3(g: Graph) -> Optional[TriPartition]:
    """Brute-force search over all 3^n colorings (guarded at n <= 20).

    Independent of the reduction engine; used as the test oracle and as
    the engine's diagnostic fallback.
    """
    n = g.order
    if n > EXHAUSTIVE_MAX_ORDER:
        raise ValueError(f"exhaustive search guarded at order {EXHAUSTIVE_MAX_ORDER}")
    for assignment in product(COLORS, repeat=n):
        tp = _colors_to_partition(g, dict(enumerate(assignment)))
        if _independence_violation(g, tp.residual) is None:
            return tp
    return None


# ---------------------------------------------------------------------------
# structure probes


def _star_center(g: Graph, mask: int) -> Optional[int]:
    for v in iter_bits(mask):
        if g.adj[v] & mask == mask ^ (1 << v):
            if all((g.adj[u] & mask).bit_count() == 1 for u in iter_bits(mask) if u != v):
                return v
    return None


def _cycle_order(g: Graph, mask: int) -> Optional[list[int]]:
    if any((g.adj[v] & mask).bit_count() != 2 for v in iter_bits(mask)):
        return None
    order = cycle_walk(g, mask, (mask & -mask).bit_length() - 1)
    if len(set(order)) != mask.bit_count():
        return None
    return order


def is_c5(g: Graph, mask: Optional[int] = None) -> bool:
    """Whether the subgraph induced on ``mask`` (default: all vertices) is
    the 5-cycle: on five vertices, all of degree 2 already means one cycle."""
    if mask is None:
        mask = g.full_mask
    return mask.bit_count() == 5 and all(
        (g.adj[v] & mask).bit_count() == 2 for v in iter_bits(mask)
    )


def _bfs_shortest_path(g: Graph, src: int, dst: int, mask: int) -> Optional[list[int]]:
    parent, depth = bfs_tree(g, src, mask)
    if depth[dst] < 0:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# the reduction engine


def separating_path_reduce(
    g: Graph, path: list[int], x: int, y: int
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
    mask: int,
    colors: dict[int, int],
    anchors: dict[int, tuple[int, int]],
    parent_step: TraceStep,
    steps: list[TraceStep],
) -> None:
    """Color every component of ``mask`` left after a path/cycle step.

    ``anchors`` maps a forced vertex to (its colored neighbor, its forced
    color). Small components get the fixed two-vertex and five-cycle
    patterns; larger ones recurse, then have their colors permuted to meet
    the forced color.
    """
    colored_mask = bits_of(colors)
    for comp in masked_components(g, mask & ~colored_mask):
        forced = [(v, av, fc) for v, (av, fc) in anchors.items() if (comp >> v) & 1]
        if len(forced) > 1:
            raise RuntimeError("at most one forced vertex per component")
        verts = bit_list(comp)
        size = len(verts)
        if size == 1:
            v = verts[0]
            if forced:
                c = forced[0][2]
            else:
                nb = [colors[u] for u in iter_bits(g.adj[v] & colored_mask)]
                c = min((nb.count(col), col) for col in COLORS)[1]
            colors[v] = c
            parent_step.colors[v] = c
        elif size == 2 or is_c5(g, comp):
            if size == 2 and not g.has_edge(verts[0], verts[1]):
                raise RuntimeError("two-vertex component must be an edge")
            # Both patterns start at the forced vertex, else at the first
            # vertex with a colored neighbor, and read that neighbor's color.
            if forced:
                w, anchor, f = forced[0]
            else:
                w = next(v for v in verts if g.adj[v] & colored_mask)
                anchor, f = min(iter_bits(g.adj[w] & colored_mask)), None
            vcol = colors[anchor]
            if f is None:
                f = [c for c in COLORS if c != vcol][0 if size == 2 else 1]
            if f == vcol:
                raise RuntimeError("forced color clashes with the anchor's color")
            second = 6 - f - vcol
            if size == 2:
                u = verts[1] if w == verts[0] else verts[0]
                assign = {w: f, u: second}
            else:
                x1, x2, x3, x4, x5 = cycle_walk(g, comp, w)
                assign = {x3: vcol, x2: second, x5: second, x1: f, x4: f}
            colors.update(assign)
            parent_step.colors.update(assign)
        else:
            sub_colors, sub_steps = _solve(g, comp)
            if forced:
                w, _, f = forced[0]
                cur = sub_colors[w]
                if cur != f:
                    swap = {cur: f, f: cur}
                    for d in [sub_colors] + [s.colors for s in sub_steps]:
                        for v, c in d.items():
                            d[v] = swap.get(c, c)
            colors.update(sub_colors)
            steps.extend(sub_steps)


def _path_reduce(
    g: Graph,
    mask: int,
    path: list[int],
    x: int,
    y: int,
    pre_steps: list[TraceStep],
) -> tuple[dict[int, int], list[TraceStep]]:
    path_colors, forced = separating_path_reduce(g, path, x, y)
    step = TraceStep("separating-path", tuple(path), dict(path_colors))
    colors = dict(path_colors)
    steps = pre_steps + [step]
    anchors = {x: (path[0], forced[x]), y: (path[-1], forced[y])}
    _color_components(g, mask, colors, anchors, step, steps)
    return colors, steps


def _cycle_reduce(
    g: Graph, mask: int, cyc: list[int], kind: str
) -> tuple[dict[int, int], list[TraceStep]]:
    colors = {v: (i % 3) + 1 for i, v in enumerate(cyc)}
    step = TraceStep(kind, tuple(cyc), dict(colors))
    steps = [step]
    _color_components(g, mask, colors, {}, step, steps)
    return colors, steps


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


def _reduce_cut_vertex(
    g: Graph, mask: int, cvs: int
) -> tuple[dict[int, int], list[TraceStep]]:
    v = (cvs & -cvs).bit_length() - 1
    comps_v = masked_components(g, mask & ~(1 << v))
    if len(comps_v) < 2:
        raise RuntimeError("cut-vertex reduction needs a cut vertex")
    nontrivial = 0
    for comp in comps_v:
        if comp.bit_count() >= 2:
            nontrivial |= comp
    z = min(iter_bits(g.adj[v] & nontrivial))
    y = min(iter_bits(g.adj[z] & mask & ~(1 << v)))
    path = [v, z]
    path_mask = bits_of(path)
    comp_y = next(c for c in masked_components(g, mask & ~path_mask) if (c >> y) & 1)
    x = min(iter_bits(g.adj[v] & mask & ~(1 << z) & ~comp_y))
    pre = TraceStep("cut-vertex", (v, z))
    return _path_reduce(g, mask, path, x, y, [pre])


def _reduce_degree_two(
    g: Graph, mask: int, deg2: list[int]
) -> tuple[dict[int, int], list[TraceStep]]:
    best = None
    for v in deg2:
        a, b = bit_list(g.adj[v] & mask)
        sp = _bfs_shortest_path(g, a, b, mask & ~(1 << v))
        if sp is None:
            raise RuntimeError("degree-2 reduction requires 2-connectivity")
        cyc = [v] + sp
        if best is None or len(cyc) < len(best):
            best = cyc
    cyc = best
    rest = mask & ~bits_of(cyc)
    length = len(cyc)
    pairs = []
    for i in range(length):
        u = cyc[i]
        if (g.adj[u] & mask).bit_count() != 2:
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
    y = min(iter_bits(g.adj[w] & rest))
    pre = TraceStep("degree-2", (u, w))
    return _path_reduce(g, mask, path, x=u, y=y, pre_steps=[pre])


def _reduce_separating_cycle(
    g: Graph, mask: int
) -> Optional[tuple[dict[int, int], list[TraceStep]]]:
    for cyc in iter_simple_cycles(g, mask):
        cyc = list(cyc)
        rest = mask & ~bits_of(cyc)
        if not rest:
            continue
        comps = masked_components(g, rest)
        if len(comps) < 2:
            continue

        def comp_of(v: int) -> int:
            return next(c for c in comps if (c >> v) & 1)

        length = len(cyc)
        # Consecutive pair attached to different outside components: take
        # the whole cycle as a path between them.
        for i in range(length):
            u, w = cyc[i], cyc[(i + 1) % length]
            ext_u = g.adj[u] & rest
            ext_w = g.adj[w] & rest
            if not ext_u or not ext_w:
                continue
            for xc in iter_bits(ext_w):
                for yc in iter_bits(ext_u):
                    if comp_of(xc) != comp_of(yc):
                        path = [cyc[(i + 1 + t) % length] for t in range(length)]
                        pre = TraceStep("separating-cycle", tuple(cyc))
                        return _path_reduce(g, mask, path, x=xc, y=yc, pre_steps=[pre])
        # Otherwise some cycle vertex has no outside neighbor; drop one such
        # vertex whose cycle neighbor does reach outside.
        cands = []
        for i in range(length):
            v = cyc[i]
            if g.adj[v] & rest:
                continue
            for w in (cyc[(i - 1) % length], cyc[(i + 1) % length]):
                if g.adj[w] & rest:
                    cands.append((v, w))
        if not cands:
            raise RuntimeError("separating cycle must have an attachment boundary")
        v, w = min(cands)
        i = cyc.index(v)
        rot = cyc[i + 1 :] + cyc[:i]
        path = rot if rot[-1] == w else list(reversed(rot))
        y = min(iter_bits(g.adj[w] & rest))
        pre = TraceStep("separating-cycle", tuple(cyc))
        return _path_reduce(g, mask, path, x=v, y=y, pre_steps=[pre])
    return None


def _solve(g: Graph, mask: int) -> tuple[dict[int, int], list[TraceStep]]:
    """Color the connected subgraph induced on ``mask``, in ``g``'s own
    vertex numbering."""
    n = mask.bit_count()
    if n < 3 or is_c5(g, mask):
        raise RuntimeError("reduction needs order at least 3 and no 5-cycle")

    center = _star_center(g, mask)
    if center is not None:
        leaves = [v for v in iter_bits(mask) if v != center]
        colors = {center: 1, leaves[0]: 2, leaves[1]: 3}
        for u in leaves[2:]:
            colors[u] = 1
        return colors, [TraceStep("base-star", (center,), dict(colors))]

    cyc = _cycle_order(g, mask)
    if cyc is not None:
        colors = _cycle_base_coloring(cyc)
        return colors, [TraceStep("base-cycle", tuple(cyc), dict(colors))]

    cvs = cut_vertices(g, mask)
    if cvs:
        colors, steps = _reduce_cut_vertex(g, mask, cvs)
    else:
        deg2 = [v for v in iter_bits(mask) if (g.adj[v] & mask).bit_count() == 2]
        if deg2:
            colors, steps = _reduce_degree_two(g, mask, deg2)
        else:
            cp = find_cycle_len_mod3(g, mask)
            if cp is not None:
                colors, steps = _cycle_reduce(g, mask, list(cp.vertices), "cycle-mod-3")
            else:
                reduced = _reduce_separating_cycle(g, mask)
                if reduced is None:
                    return _exhaust(g, mask)
                colors, steps = reduced
    if len(colors) != n:
        raise RuntimeError("reduction left a vertex uncolored")
    return colors, steps


def _exhaust(g: Graph, mask: int) -> tuple[dict[int, int], list[TraceStep]]:
    # Reachable only through a gap between the reduction engine and the
    # theory; loud by design, naming the subgraph that dead-ended.
    sub, keep = induced_subgraph(g, mask)
    if sub.order > EXHAUSTIVE_MAX_ORDER:
        raise EngineGap(
            f"reduction dead-end on {sub.order}-vertex graph {write_graph6(sub)}; "
            f"exhaustive fallback is guarded at order {EXHAUSTIVE_MAX_ORDER}"
        )
    log.warning(
        "reduction dead-end on %d-vertex graph %s; running exhaustive fallback",
        sub.order,
        write_graph6(sub),
    )
    tp = exhaustive_partition3(sub)
    if tp is None:
        raise NoValidPartition("exhaustive fallback found no valid partition")
    colors = {}
    for i, cls in enumerate(tp.classes):
        for v in iter_bits(cls):
            colors[keep[v]] = i + 1
    return colors, [TraceStep("exhaustive-fallback", keep, dict(colors))]


# ---------------------------------------------------------------------------
# public entry points


def partition3(g: Graph) -> tuple[TriPartition, list[TraceStep]]:
    """Verified tri-partition with independent leftover, plus its trace.

    Raises ValueError for graphs of order below 3 or disconnected input,
    NoValidPartition for the 5-cycle, EngineGap when the reductions need the
    exhaustive fallback above its order guard, and RuntimeError when an
    engine invariant breaks or even the fallback's result fails verification.
    """
    if g.order < 3:
        raise ValueError("partition requires order at least 3")
    if not is_connected(g):
        raise ValueError("partition requires a connected graph")
    if is_c5(g):
        raise NoValidPartition("the 5-cycle admits no valid partition")
    colors, steps = _solve(g, g.full_mask)
    tp = _colors_to_partition(g, colors)
    ok, _, bad = verify_partition(g, tp)
    if not ok:
        log.warning("self-verification failed (edge %s); falling back", bad)
        colors, steps = _exhaust(g, g.full_mask)
        tp = _colors_to_partition(g, colors)
        ok, _, _ = verify_partition(g, tp)
        if not ok:
            raise RuntimeError("exhaustive fallback result failed verification")
    if not all(tp.classes):
        raise RuntimeError("top-level partition must use all three classes")
    return tp, steps


def disjoint_isolating_sets(g: Graph) -> tuple[int, int, int]:
    """Three disjoint isolating sets: the classes of the tri-partition.

    Each V - N[Ai] sits inside the independent leftover, so removing N[Ai]
    leaves no edge.
    """
    tp, _ = partition3(g)
    return tp.classes


def replay_trace(g: Graph, steps: list[TraceStep]) -> TriPartition:
    """Re-apply a recorded trace; reproduces the engine's partition.

    Raises ValueError when the trace colors a vertex twice or misses one.
    """
    colors: dict[int, int] = {}
    for step in steps:
        for v, c in step.colors.items():
            if v in colors:
                raise ValueError("trace colors a vertex twice")
            colors[v] = c
    if len(colors) != g.order:
        raise ValueError("trace does not color every vertex")
    return _colors_to_partition(g, colors)
