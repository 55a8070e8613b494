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
from typing import Optional

from isolab.graphs import (
    Graph,
    bit_list,
    from_edges,
    bits_of,
    cycle_walk,
    cycles_of_length,
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
        if "disconnected" in problems[0] or "empty" in problems[0]:
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
            raise AssertionError("non-cover attachment must admit such a vertex")
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
    """Parse the wire format; ValueError or KeyError when it is malformed.

    Only the JSON shape is checked here; validate_spec judges the values.
    """
    if not isinstance(data, dict):
        raise ValueError("spec must be a JSON object")
    if not isinstance(data["base"], str):
        raise ValueError("base must be a graph6 string")
    if not isinstance(data["pendants"], list):
        raise ValueError("pendants must be a list")
    pendants = []
    for i, p in enumerate(data["pendants"]):
        if not isinstance(p, dict) or not isinstance(p["kind"], str):
            raise ValueError(f"pendant {i}: must be an object with a string kind")
        attach = p["attach"]
        if not isinstance(attach, list) or any(type(a) is not int for a in attach):
            raise ValueError(f"pendant {i}: attach must be a list of integers")
        pendants.append(PendantAttachment(p["kind"], tuple(sorted(attach))))
    return FamilySpec(parse_graph6(data["base"]), tuple(pendants))


# ---------------------------------------------------------------------------
# recognition


@dataclass(frozen=True)
class _Block:
    kind: str
    verts: tuple[int, ...]  # pendant vertices, in local labeling order
    hook: int
    attach: tuple[int, ...]
    mask: int


def _candidate_blocks(g: Graph) -> list[_Block]:
    """Every pendant-shaped piece of ``g`` with its hook, sorted by least
    vertex, kind, vertices and hook.

    A C5 block is chordless and its only outside neighbor is its hook, so
    each of its vertices has two cycle neighbors and at most one more:
    degree at most 3. The 5-cycles are therefore searched only among those
    vertices, which yields every block a search of the whole graph would.
    """
    cands = []
    n = g.order
    for p in range(n):
        for q in bit_list(g.adj[p]):
            if q <= p:
                continue
            ext = (g.adj[p] | g.adj[q]) & ~((1 << p) | (1 << q))
            if ext.bit_count() != 1:
                continue
            h = ext.bit_length() - 1
            attach = tuple(
                i for i, v in enumerate((p, q)) if (g.adj[h] >> v) & 1
            )
            cands.append(_Block("K2", (p, q), h, attach, (1 << p) | (1 << q)))
    low = bits_of(v for v in range(n) if g.adj[v].bit_count() <= 3)
    seen = set()
    for cyc in cycles_of_length(g, 5, low):
        mask = bits_of(cyc)
        if mask in seen:
            continue
        seen.add(mask)
        if any((g.adj[v] & mask).bit_count() != 2 for v in cyc):
            continue  # chorded
        ext = 0
        for v in cyc:
            ext |= g.adj[v]
        ext &= ~mask
        if ext.bit_count() != 1:
            continue
        h = ext.bit_length() - 1
        # local labeling: start at the least cycle vertex, toward its
        # smaller cycle neighbor
        order = cycle_walk(g, mask, min(cyc))
        attach = tuple(
            i for i, v in enumerate(order) if (g.adj[h] >> v) & 1
        )
        if is_c5_vertex_cover(attach):
            continue
        cands.append(_Block("C5", tuple(order), h, attach, mask))
    cands.sort(key=lambda c: (min(c.verts), c.kind, c.verts, c.hook))
    return cands


def recognize_family(g: Graph) -> Optional[FamilySpec]:
    """Find a spec realizing g, or None.

    Backtracks over disjoint candidate blocks (a pendant-shaped piece whose
    outside neighborhood is a single vertex, its hook), requiring every
    leftover vertex to host exactly one block and the leftovers to induce a
    connected base. Returns the first decomposition in search order; specs
    are not unique and no uniqueness is implied.
    """
    n = g.order
    if n == 0 or n % 3 != 0 or not is_connected(g):
        return None
    cands = _candidate_blocks(g)
    by_vertex: list[list[_Block]] = [[] for _ in range(n)]
    for c in cands:
        for v in c.verts:
            by_vertex[v].append(c)
        by_vertex[c.hook].append(c)
    full = g.full_mask

    def bt(pend_mask: int, hook_mask: int, chosen: list[_Block]):
        resolved = pend_mask | hook_mask
        if resolved == full:
            base, hooks = induced_subgraph(g, hook_mask)
            if not is_connected(base):
                return None
            by_hook = {c.hook: c for c in chosen}
            pendants = tuple(
                PendantAttachment(by_hook[h].kind, by_hook[h].attach)
                for h in hooks
            )
            return FamilySpec(base, pendants)
        unresolved = ~resolved & full
        v = (unresolved & -unresolved).bit_length() - 1
        for c in by_vertex[v]:
            hb = 1 << c.hook
            if c.mask & resolved or hb & pend_mask or hb & hook_mask:
                continue
            r = bt(pend_mask | c.mask, hook_mask | hb, chosen + [c])
            if r is not None:
                return r
        return None

    return bt(0, 0, [])


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
