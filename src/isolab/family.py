"""The pendant family: graphs whose isolation number is one-third the order.

A member is built from a connected base graph; every base vertex (a hook)
carries one pendant, either an edge (K2) or a 5-cycle (C5), joined to the
hook by an allowed attachment. K2 pendants attach at one or both of their
vertices; C5 pendants attach at any nonempty vertex set that is not a
vertex cover of the 5-cycle, which works out to a single vertex, any two
vertices, or three consecutive ones.

Realized graphs number their vertices base first, then pendant blocks in
base order, so builds are reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter
from typing import NamedTuple, Optional

from isolab.graphs import (
    Graph,
    bit_list,
    from_edges,
    induced_subgraph,
    is_connected,
    parse_graph6,
    write_graph6,
)

PENDANT_SIZES = {"K2": 2, "C5": 5}
C5_LOCAL_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
K2_ATTACHMENTS = ((0,), (1,), (0, 1))


class InvalidAttachment(ValueError):
    pass


class DisconnectedBase(ValueError):
    pass


@dataclass(frozen=True)
class PendantAttachment:
    kind: str
    attach: tuple[int, ...]


@dataclass(frozen=True)
class FamilySpec:
    """Membership certificate: base graph plus one attachment per hook."""

    base: Graph
    pendants: tuple[PendantAttachment, ...]

    @property
    def order(self) -> int:
        return self.base.order + sum(PENDANT_SIZES[p.kind] for p in self.pendants)


def is_c5_vertex_cover(attach: tuple[int, ...]) -> bool:
    s = set(attach)
    return all(u in s or v in s for u, v in C5_LOCAL_EDGES)


def valid_c5_attachments() -> list[tuple[int, ...]]:
    """All 20 allowed C5 attachments: nonempty non-covers of the 5-cycle."""
    out = []
    for size in (1, 2, 3, 4, 5):
        for combo in combinations(range(5), size):
            if combo and not is_c5_vertex_cover(combo):
                out.append(combo)
    return out


def validate_spec(spec: FamilySpec) -> list[str]:
    """Every invariant violation, in a fixed order; empty means valid."""
    problems = []
    if spec.base.order < 1:
        problems.append("base graph is empty")
    elif not is_connected(spec.base):
        problems.append("base graph is disconnected")
    if len(spec.pendants) != spec.base.order:
        problems.append(
            f"expected {spec.base.order} pendants, got {len(spec.pendants)}"
        )
    for i, p in enumerate(spec.pendants):
        if p.kind not in PENDANT_SIZES:
            problems.append(f"pendant {i}: unknown kind {p.kind!r}")
            continue
        size = PENDANT_SIZES[p.kind]
        attach = p.attach
        if tuple(sorted(set(attach))) != attach:
            problems.append(f"pendant {i}: attachment not sorted and distinct")
            continue
        if not attach:
            problems.append(f"pendant {i}: empty attachment")
        elif any(a < 0 or a >= size for a in attach):
            problems.append(f"pendant {i}: attachment index out of range")
        elif p.kind == "C5" and is_c5_vertex_cover(attach):
            problems.append(f"pendant {i}: attachment covers every 5-cycle edge")
    return problems


def build_family_graph(spec: FamilySpec) -> Graph:
    """Realize a spec: base edges, pendant edges, hook-to-attachment edges."""
    problems = validate_spec(spec)
    if problems:
        if spec.base.order < 1 or not is_connected(spec.base):
            raise DisconnectedBase(problems[0])
        raise InvalidAttachment(problems[0])
    b = spec.base.order
    edges = list(spec.base.edges())
    off = b
    for hook, p in enumerate(spec.pendants):
        if p.kind == "K2":
            edges.append((off, off + 1))
        else:
            edges.extend((off + u, off + v) for u, v in C5_LOCAL_EDGES)
        edges.extend((hook, off + a) for a in p.attach)
        off += PENDANT_SIZES[p.kind]
    return from_edges(spec.order, edges)


def _pendant_offsets(spec: FamilySpec) -> list[int]:
    offs = []
    off = spec.base.order
    for p in spec.pendants:
        offs.append(off)
        off += PENDANT_SIZES[p.kind]
    return offs


def hook_isolating_set(spec: FamilySpec) -> int:
    """Isolating set of size n/3 containing every hook.

    All hooks, plus one vertex per C5 pendant: the least cycle vertex whose
    closed cycle neighborhood, together with the attachment, leaves no
    cycle edge behind. Such a vertex always exists because the attachment
    is not a vertex cover. The result need not dominate (singleton and
    non-adjacent-pair attachments leave an undominated cycle vertex);
    see block_dominating_set for the dominating certificate.
    """
    mask = (1 << spec.base.order) - 1
    for off, p in zip(_pendant_offsets(spec), spec.pendants):
        if p.kind != "C5":
            continue
        attach = set(p.attach)
        for w in range(5):
            leftover = set(range(5)) - attach - {(w - 1) % 5, w, (w + 1) % 5}
            if not any(u in leftover and v in leftover for u, v in C5_LOCAL_EDGES):
                mask |= 1 << (off + w)
                break
        else:
            raise RuntimeError("non-cover attachment must admit such a vertex")
    return mask


def block_dominating_set(spec: FamilySpec) -> int:
    """Dominating set of size n/3: one pick per K2 block, two per C5 block.

    Each pick is an attachment vertex (so it dominates its hook); a C5
    block adds the vertex two steps around the cycle, and together the two
    picks dominate the whole block. Dominating implies isolating, so this
    certificate passes both predicates.
    """
    mask = 0
    for off, p in zip(_pendant_offsets(spec), spec.pendants):
        a = p.attach[0]
        mask |= 1 << (off + a)
        if p.kind == "C5":
            mask |= 1 << (off + (a + 2) % 5)
    return mask


# ---------------------------------------------------------------------------
# JSON wire format


def spec_to_json(spec: FamilySpec) -> dict:
    return {
        "base": write_graph6(spec.base),
        "pendants": [
            {"kind": p.kind, "attach": list(p.attach)} for p in spec.pendants
        ],
    }


def spec_from_json(data) -> FamilySpec:
    """Parse the wire format; ValueError when it is malformed, naming a
    missing key as ``missing key 'base'``.

    Only the JSON shape is checked here; validate_spec judges the values.
    """
    if not isinstance(data, dict):
        raise ValueError("spec must be a JSON object")
    base = _field(data, "base")
    if not isinstance(base, str):
        raise ValueError("base must be a graph6 string")
    items = _field(data, "pendants")
    if not isinstance(items, list):
        raise ValueError("pendants must be a list")
    pendants = []
    for i, p in enumerate(items):
        if not isinstance(p, dict) or not isinstance(kind := _field(p, "kind"), str):
            raise ValueError(f"pendant {i}: must be an object with a string kind")
        attach = _field(p, "attach")
        if not isinstance(attach, list) or any(type(a) is not int for a in attach):
            raise ValueError(f"pendant {i}: attach must be a list of integers")
        pendants.append(PendantAttachment(kind, tuple(sorted(attach))))
    return FamilySpec(parse_graph6(base), tuple(pendants))


def _field(obj: dict, key: str):
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"missing key {key!r}") from None


# ---------------------------------------------------------------------------
# recognition


class _Block(NamedTuple):
    kind: str
    verts: tuple[int, ...]  # pendant vertices, in local labeling order
    hook: int
    attach: tuple[int, ...]
    mask: int


# A block's attachment by the set of its local positions that the hook
# touches, None for a C5 set that covers every cycle edge.
_K2_ATTACH = (None, (0,), (1,), (0, 1))
_C5_ATTACH = tuple(
    None if is_c5_vertex_cover(at) else at
    for at in (tuple(i for i in range(5) if s >> i & 1) for s in range(32))
)

# The 23 allowed attachments, each one shared instance: the pendants of
# every recognized spec.
_ATTACHMENTS = {
    (kind, at): PendantAttachment(kind, at)
    for kind, ats in (("K2", K2_ATTACHMENTS), ("C5", valid_c5_attachments()))
    for at in ats
}
_hook = attrgetter("hook")


def _candidate_blocks(g: Graph) -> list[_Block]:
    """Every pendant-shaped piece of ``g`` with its hook, sorted by least
    vertex, kind, vertices and hook.

    A block's only outside neighbor is its hook, so a K2 block's vertices
    have degree at most 2, and a C5 block, which is chordless, has
    vertices of degree 2 or 3; each kind is searched only among those
    vertices. A C5 block is rooted at its least vertex r, with the
    neighbors a < b of r on it, and x, y the rest of the walk r, a, x, y,
    b: x ranges over N(a), y over N(x), b over N(r) and N(y), each past the
    vertices of the five chords r-x, r-y, a-y, a-b and x-b. Every hit is
    then a chordless 5-cycle, found once, in the local labeling: the walk
    from the least vertex toward its smaller neighbor. The loops take a,
    x, y and b in ascending order, and each least vertex yields its C5
    blocks before its K2 blocks, so the list comes out sorted.
    """
    adj = g.adj
    # Vertices of degree at most 2, and at most 3.
    deg2 = deg3 = 0
    for v, row in enumerate(adj):
        d = row.bit_count()
        if d <= 3:
            if d <= 2:
                deg2 |= 1 << v
            deg3 |= 1 << v
    cands = []
    rest = deg3
    while rest:
        rb = rest & -rest
        rest ^= rb
        r = rb.bit_length() - 1
        nr = adj[r]
        # Blocks rooted at r lie inside ``rest``: vertices of degree <= 3
        # above r.
        m_a = nr & rest
        while m_a:
            ab = m_a & -m_a
            m_a ^= ab
            a = ab.bit_length() - 1
            na = adj[a]
            m_x = na & rest & ~nr
            while m_x:
                xb = m_x & -m_x
                m_x ^= xb
                x = xb.bit_length() - 1
                nx = adj[x]
                m_y = nx & rest & ~nr & ~na & ~ab
                while m_y:
                    yb = m_y & -m_y
                    m_y ^= yb
                    y = yb.bit_length() - 1
                    ny = adj[y]
                    # m_a now holds r's neighbors in rest above a.
                    m_b = m_a & ny & ~na & ~nx
                    while m_b:
                        bb = m_b & -m_b
                        m_b ^= bb
                        b = bb.bit_length() - 1
                        mask = rb | ab | xb | yb | bb
                        ext = (nr | na | nx | ny | adj[b]) & ~mask
                        if not ext or ext & (ext - 1):
                            continue
                        h = ext.bit_length() - 1
                        nh = adj[h]
                        attach = _C5_ATTACH[
                            (nh >> r & 1) | (nh >> a & 1) << 1 | (nh >> x & 1) << 2
                            | (nh >> y & 1) << 3 | (nh >> b & 1) << 4
                        ]
                        if attach is not None:
                            cands.append(_Block("C5", (r, a, x, y, b), h, attach, mask))
        if not rb & deg2:
            continue
        m_q = nr & deg2 & rest
        while m_q:
            qb = m_q & -m_q
            m_q ^= qb
            q = qb.bit_length() - 1
            pair = rb | qb
            ext = (nr | adj[q]) & ~pair
            if not ext or ext & (ext - 1):
                continue
            h = ext.bit_length() - 1
            nh = adj[h]
            attach = _K2_ATTACH[(nh >> r & 1) | (nh >> q & 1) << 1]
            cands.append(_Block("K2", (r, q), h, attach, pair))
    return cands


def recognize_family(g: Graph) -> Optional[FamilySpec]:
    """Find a spec realizing g, or None.

    Backtracks over disjoint candidate blocks (a pendant-shaped piece whose
    outside neighborhood is a single vertex, its hook), requiring every
    leftover vertex to host exactly one block and the leftovers to induce a
    connected base. Returns the first decomposition in search order; specs
    are not unique and no uniqueness is implied.

    The search is the module-level ``_bt``, which builds no closure, so a
    call leaves no reference cycle for the collector. The spec's pendants
    are the shared, immutable instances of ``_ATTACHMENTS``, one per
    allowed (kind, attachment).

    The connectivity test up front is not redundant with the base check:
    a full decomposition's base is connected exactly when g is, so on a
    disconnected g the search would try every full decomposition (2^k of
    them for k disjoint paths on three vertices) before returning None.
    """
    n = g.order
    if n == 0 or n % 3 != 0 or not is_connected(g):
        return None
    by_vertex: list[list[_Block]] = [[] for _ in range(n)]
    for c in _candidate_blocks(g):
        for v in c.verts:
            by_vertex[v].append(c)
        by_vertex[c.hook].append(c)
    return _bt(g, by_vertex, g.full_mask, 0, 0, [])


def _bt(
    g: Graph,
    by_vertex: list[list[_Block]],
    full: int,
    pend_mask: int,
    hook_mask: int,
    chosen: list[_Block],
) -> Optional[FamilySpec]:
    """First full decomposition extending ``chosen`` whose base is
    connected: the least unresolved vertex tries its blocks in order."""
    resolved = pend_mask | hook_mask
    if resolved == full:
        base, _ = induced_subgraph(g, hook_mask)
        if not is_connected(base):
            return None
        # Each hook hosts one block, so blocks by hook follow the base order.
        chosen.sort(key=_hook)
        return FamilySpec(
            base, tuple(_ATTACHMENTS[c.kind, c.attach] for c in chosen)
        )
    unresolved = ~resolved & full
    v = (unresolved & -unresolved).bit_length() - 1
    for c in by_vertex[v]:
        hb = 1 << c.hook
        if c.mask & resolved or hb & resolved:
            continue
        chosen.append(c)
        r = _bt(g, by_vertex, full, pend_mask | c.mask, hook_mask | hb, chosen)
        if r is not None:
            return r
        chosen.pop()
    return None


# ---------------------------------------------------------------------------
# sampling


def random_family_spec(target_order: int, seed: int) -> FamilySpec:
    """Seeded random spec of the given order (a multiple of 3)."""
    if target_order < 3 or target_order % 3 != 0:
        raise ValueError("order must be a positive multiple of 3")
    rng = random.Random(seed)
    blocks = target_order // 3
    t = rng.randint(0, min(blocks // 2, blocks - 1))
    b = blocks - t
    edges = [(rng.randrange(i), i) for i in range(1, b)]
    for i in range(b):
        for j in range(i + 1, b):
            if (i, j) not in edges and rng.random() < 0.25:
                edges.append((i, j))
    base = from_edges(b, edges)
    c5_at = set(rng.sample(range(b), t))
    c5_opts = valid_c5_attachments()
    pendants = []
    for i in range(b):
        if i in c5_at:
            pendants.append(PendantAttachment("C5", rng.choice(c5_opts)))
        else:
            pendants.append(PendantAttachment("K2", rng.choice(K2_ATTACHMENTS)))
    return FamilySpec(base, tuple(pendants))
