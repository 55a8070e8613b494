"""The benchmark's own graph code: seeded generators, a graph6 codec and the
predicates its output checks use.

Nothing here imports isolab, so the checks do not trust the code they
measure. A graph is a list of adjacency bitmasks, one per vertex.
"""

from __future__ import annotations

import random

C5_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
K2_ATTACH = ((0,), (1,), (0, 1))
# Allowed C5 attachments: the nonempty vertex sets that miss some cycle edge.
C5_ATTACH = tuple(
    a for a in (tuple(v for v in range(5) if (m >> v) & 1) for m in range(1, 32))
    if not all(u in a or v in a for u, v in C5_EDGES)
)


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def relabel(adj: list[int], rng: random.Random) -> list[int]:
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for v in range(n):
        for u in bits(adj[v]):
            out[perm[v]] |= 1 << perm[u]
    return out


def encode(adj: list[int]) -> str:
    """graph6 for order <= 62: upper triangle column by column, 6 bits a byte."""
    n = len(adj)
    out = [chr(n + 63)]
    group = nbits = 0
    for j in range(1, n):
        for i in range(j):
            group = (group << 1) | ((adj[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(group + 63))
                group = nbits = 0
    if nbits:
        out.append(chr((group << (6 - nbits)) + 63))
    return "".join(out)


def decode(line: str) -> list[int]:
    """Inverse of encode; raises ValueError on a malformed line."""
    data = line.encode("ascii")
    n = data[0] - 63
    if not 0 <= n <= 62 or len(data) != 1 + (n * (n - 1) // 2 + 5) // 6:
        raise ValueError(f"not a graph6 line of order <= 62: {line!r}")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte = data[1 + k // 6] - 63
            if (byte >> (5 - k % 6)) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


def closed_nbhd(adj: list[int], mask: int) -> int:
    out = mask
    for v in bits(mask):
        out |= adj[v]
    return out


def component_masks(adj: list[int], mask: int) -> list[int]:
    comps = []
    left = mask
    while left:
        comp = frontier = left & -left
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v]
            frontier = grow & mask & ~comp
            comp |= frontier
        comps.append(comp)
        left &= ~comp
    return comps


def is_connected(adj: list[int]) -> bool:
    return len(component_masks(adj, (1 << len(adj)) - 1)) == 1


def independent(adj: list[int], mask: int) -> bool:
    return all(not adj[v] & mask for v in bits(mask))


def isolates(adj: list[int], x: int) -> bool:
    full = (1 << len(adj)) - 1
    return independent(adj, full & ~closed_nbhd(adj, x))


def dominates(adj: list[int], x: int) -> bool:
    return closed_nbhd(adj, x) == (1 << len(adj)) - 1


# ---------------------------------------------------------------------------
# generators


def random_connected(rng: random.Random, n: int, p: float) -> list[int]:
    """A random spanning tree plus each other pair with probability p."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for v in range(n):
        for u in range(v + 1, n):
            if rng.random() < p:
                edges.add((v, u))
    return relabel(from_edges(n, edges), rng)


def raise_min_degree(rng: random.Random, adj: list[int], k: int) -> list[int]:
    """Add random edges until every vertex has degree at least k."""
    adj = list(adj)
    n = len(adj)
    for v in range(n):
        while adj[v].bit_count() < k:
            u = rng.choice([u for u in range(n) if u != v and not (adj[v] >> u) & 1])
            adj[v] |= 1 << u
            adj[u] |= 1 << v
    return adj


def pendant_family(rng: random.Random, base_order: int, c5_count: int, p: float) -> list[int]:
    """A connected base where every vertex carries one K2 or C5 pendant,
    joined by an allowed attachment; vertices shuffled afterwards. The
    order is 3 * (base_order + c5_count)."""
    base = random_connected(rng, base_order, p)
    edges = [(v, u) for v in range(base_order) for u in bits(base[v]) if v < u]
    c5_hooks = set(rng.sample(range(base_order), c5_count))
    off = base_order
    for hook in range(base_order):
        if hook in c5_hooks:
            edges += [(off + u, off + v) for u, v in C5_EDGES]
            attach, size = rng.choice(C5_ATTACH), 5
        else:
            edges.append((off, off + 1))
            attach, size = rng.choice(K2_ATTACH), 2
        edges += [(hook, off + a) for a in attach]
        off += size
    return relabel(from_edges(off, edges), rng)


# ---------------------------------------------------------------------------
# exact answers, computed independently of isolab


def _dominate(adj, covered, allowed, budget):
    full = (1 << len(adj)) - 1
    left = full & ~covered
    if not left:
        return True
    if budget == 0:
        return False
    low = left & -left
    cand = (adj[low.bit_length() - 1] | low) & allowed
    while cand:
        x = cand & -cand
        cand ^= x
        if _dominate(adj, covered | adj[x.bit_length() - 1] | x, allowed, budget - 1):
            return True
        allowed &= ~x
    return False


def _isolate(adj, covered, allowed, budget):
    left = ((1 << len(adj)) - 1) & ~covered
    for v in bits(left):
        if adj[v] & left:
            break
    else:
        return True
    if budget == 0:
        return False
    u = (adj[v] & left & -(adj[v] & left)).bit_length() - 1
    cand = (adj[v] | adj[u] | 1 << v | 1 << u) & allowed
    while cand:
        x = cand & -cand
        cand ^= x
        if _isolate(adj, covered | adj[x.bit_length() - 1] | x, allowed, budget - 1):
            return True
        allowed &= ~x
    return False


def lex_least(adj: list[int], decide) -> tuple[int, ...]:
    """The least optimal set in itertools.combinations order: find the
    optimum size, then fix each position to the least vertex that can
    still be completed using larger vertices only."""
    n = len(adj)
    full = (1 << n) - 1
    k = 0
    while not decide(adj, 0, full, k):
        k += 1
    out: list[int] = []
    covered = 0
    for left in range(k, 0, -1):
        start = out[-1] + 1 if out else 0
        for v in range(start, n):
            cov = covered | adj[v] | 1 << v
            if decide(adj, cov, full & ~((1 << (v + 1)) - 1), left - 1):
                out.append(v)
                covered = cov
                break
    return tuple(out)


def min_dominating(adj):
    return lex_least(adj, _dominate)


def min_isolating(adj):
    return lex_least(adj, _isolate)


def combo_rank(n: int, combo: tuple[int, ...]) -> int:
    """Position of a sorted combo in itertools.combinations(range(n), k)."""
    from math import comb

    k = len(combo)
    rank = 0
    prev = -1
    for i, c in enumerate(combo):
        for j in range(prev + 1, c):
            rank += comb(n - 1 - j, k - 1 - i)
        prev = c
    return rank
