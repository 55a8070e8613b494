"""Independent reference implementations used to derive expected values.

Everything here deliberately avoids the library's bitmask machinery:
graphs are dicts of sets, subsets are frozensets, and graph6 decoding goes
through a textual bit string. Slow and obvious beats fast and clever for
an oracle.
"""

from __future__ import annotations

from itertools import combinations, permutations, product


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


def isolating_ref(n: int, edges: set[frozenset[int]], xs) -> bool:
    adj = neighbors(n, edges)
    removed = closed_nbhd(adj, frozenset(xs))
    return not any(e.isdisjoint(removed) for e in edges)


def dominating_ref(n: int, edges: set[frozenset[int]], xs) -> bool:
    adj = neighbors(n, edges)
    return closed_nbhd(adj, frozenset(xs)) == set(range(n))


def min_param_ref(n: int, edges, predicate) -> tuple[int, tuple[int, ...]]:
    """Smallest k and the lexicographically least witness, by full scan."""
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            if predicate(n, edges, combo):
                return k, combo
    raise AssertionError("predicate never satisfied")


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
