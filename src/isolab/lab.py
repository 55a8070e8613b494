"""Isomorph-free enumeration and the extremal classification pipeline.

Enumeration works by vertex augmentation with a canonical parent rule:
a child built from a parent by attaching one new vertex is accepted only
when deleting the canonically-last vertex of the child gives back the
parent's isomorphism class. Each class on k+1 vertices therefore has
exactly one producing parent class, children of one parent are deduped by
canonical code, and the union over parents is isomorph-free with no global
bookkeeping, which also makes the search embarrassingly parallel.

Most augmentations are rejected before the child is built. Both kernel
backends list canonical positions in nondecreasing degree, so the
canonically-last vertex has maximum degree. When the new vertex has lower
degree than that, deleting the canonically-last vertex removes more edges
than deleting the new one, so the result cannot be the parent's class and
the canonical parent test would fail anyway. Acceptance depends only on the
child's isomorphism class, so skipping such a child before the per-parent
dedupe leaves the output unchanged. For connected final levels, a child is
connected exactly when the new vertex's neighborhood meets every component
of the parent.

Of the subsets left, only one per orbit of the parent's automorphisms is
canonized (orbit pruning, as in McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998). An automorphism of the parent maps a
subset to one whose child is isomorphic, so every skipped subset has an
isomorphic subset earlier in the iteration order, whose code the per-parent
dedupe already holds. The automorphisms are the ones ``canon_form`` found
on the parent; they may generate only a subgroup, which makes the orbits
finer but the pruning no less exact, and the dedupe stays for the
isomorphic children that such orbits, or different orbits, still give.
They come with the parent from the level below: each entry of an
all-graph level keeps the automorphisms of its own ``canon_form`` call,
one ``bytes`` per automorphism, so no parent is canonized twice.

Children inherit the parent's automorphisms (McKay 1998 again): one that
maps the subset S onto itself, extended by k -> k, is an automorphism of
S's child, and is passed to its ``canon_form`` call as ``known``, so that
the search does not find it again. ``_images`` builds each automorphism's
subset-image table once per parent, for the orbit heads and for this test.
The labels and body cannot move. The body is the greatest leaf key, and
the labels are those of the first leaf in search order that attains it.
A subtree pruned by an automorphism that fixes the path to it is the
image of an earlier sibling subtree, whose image of each leaf has an
equal key and comes earlier. So the first greatest leaf is never pruned.
The child's orbits and automorphisms may change, and any subgroup is
enough here.

Each child left is canonized as ``canon_form(child, k + 1, k, known)``, which
refines the child's degree partition and returns None, without searching,
when the new vertex k is not in the last refined cell. Both backends split
cells in place and never reorder them, so the last cell only shrinks, and
the pure-Python one returns at the first refinement round that leaves k
outside it. The canonically-last vertex always lies in the last refined
cell, so k cannot be in its orbit, and such a child is skipped before the
per-parent dedupe. The set of classes does not change. Let a skipped child
C have a class that the parent test accepts: deleting C's canonically-last
vertex u leaves a graph that some map f takes onto the parent. Let s2 be
the subset f(N(u)) of the parent. The child of s2 is isomorphic to C by f
extended with u -> k, and the refined cells are invariant under
isomorphism, so its new vertex is in its last refined cell. s2 passes the
degree prune, since u has maximum degree in C, and the component prune,
since its child is connected when C is. The orbit head of s2 is its image
under an automorphism of the parent, which extends to an isomorphism of
the two children fixing k, so the head's child keeps k in the last cell
and is not skipped. Acceptance depends only on the class, so the class is
still accepted, through the first child of it that is not skipped.

The canonical parent test then canonizes the deletion of the
canonically-last vertex u, unless u is k or in k's found orbit. No cheaper
invariant is compared first: u and k lie in one cell of an equitable
partition that refines the degree partition, so they have equally many
neighbors of each degree, and deleting either leaves the same degree
sequence.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from operator import or_
from typing import Optional

from isolab import _backend
from isolab.family import (
    K2_ATTACHMENTS,
    FamilySpec,
    PendantAttachment,
    build_family_graph,
    recognize_family,
    spec_to_json,
    valid_c5_attachments,
)
from isolab.graphs import (
    Graph,
    _g6_header,
    bfs_levels,
    bit_list,
    bits_of,
    canonical_code,
    canonical_code_of,
    components,
    masked_components,
    parse_graph6,
)
from isolab.solvers import is_extremal

MAX_ENUM_ORDER = 10
# Connected classes on n = 1..MAX_ENUM_ORDER vertices (OEIS A001349).
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571)

# An all-graph level entry: (adj, code, auts), one bytes per automorphism.
_Entry = tuple[tuple[int, ...], bytes, tuple[bytes, ...]]
_ALL_LEVELS: dict[int, list[_Entry]] = {}
_CONNECTED: dict[int, list[str]] = {}


# ---------------------------------------------------------------------------
# enumeration


def _delete_vertex(adj: tuple[int, ...], u: int) -> tuple[int, ...]:
    low = (1 << u) - 1
    out = []
    for v, row in enumerate(adj):
        if v == u:
            continue
        out.append((row & low) | ((row >> (u + 1)) << u))
    return tuple(out)


def _images(k: int, auts) -> list[list[int]]:
    """``images[g][s]``: the image of subset mask ``s`` under ``auts[g]``, a
    permutation of ``range(k)``, each table built a bit at a time."""
    images = []
    for gamma in auts:
        img = [0]
        for v in range(k):
            bit = 1 << gamma[v]
            img += [s | bit for s in img]
        images.append(img)
    return images


@cache
def _spread(k: int) -> tuple[tuple[int, ...], ...]:
    """``spread[s]``: the new vertex k's bit in each row ``v < k`` of the
    child of subset mask ``s``, ``1 << k`` when ``v`` is in ``s`` and 0
    otherwise, so that the child's rows are ``padj[v] | spread[s][v]``."""
    bit = 1 << k
    spread = [()]
    for _ in range(k):
        spread = [row + (0,) for row in spread] + [row + (bit,) for row in spread]
    return tuple(spread)


def _orbit_heads(subsets, images) -> list[int]:
    """The first subset, in the given order, of each orbit that the
    subsets meet under the group generated by the permutations whose
    ``_images`` tables are given, in that order."""
    subsets = list(subsets)
    if not images:
        return subsets
    reached = bytearray(len(images[0]))
    heads = []
    for s in subsets:
        if reached[s]:
            continue
        heads.append(s)
        reached[s] = 1
        stack = [s]
        while stack:
            x = stack.pop()
            for img in images:
                y = img[x]
                if not reached[y]:
                    reached[y] = 1
                    stack.append(y)
    return heads


def _children_of(
    parent: _Entry, connected_final: bool
) -> list[tuple[tuple[int, ...], bytes, Optional[tuple[bytes, ...]]]]:
    """Accepted augmentations ``(child, code, auts)`` of one parent
    ``(adj, code, auts)``, deduped within the parent. A child's ``auts`` are
    those of its ``canon_form`` call, one ``bytes`` each, or None on a
    connected final level, whose children are never parents."""
    padj, pcode, pauts = parent
    k = len(padj)
    top = max(row.bit_count() for row in padj)
    topmask = bits_of(v for v, row in enumerate(padj) if row.bit_count() == top)
    # The new vertex must reach the child's maximum degree (module
    # docstring), and must touch every parent component to connect it. A
    # subset that passes the degree prune with top >= 1 is not empty, so it
    # touches a connected parent's one component.
    subsets = [s for s in range(1 << k) if s.bit_count() >= top + (1 if s & topmask else 0)]
    comps = components(Graph(k, padj)) if connected_final else []
    if len(comps) > 1 or top < 1:
        subsets = [s for s in subsets if all(s & comp for comp in comps)]
    images = _images(k, pauts)
    spread = _spread(k)
    # The parent's automorphisms with k -> k, and their subset images
    extended = list(zip([gamma + bytes([k]) for gamma in pauts], images))
    out = []
    seen: set[bytes] = set()
    for subset in _orbit_heads(subsets, images):
        child = (*map(or_, padj, spread[subset]), subset)
        known = [g for g, img in extended if img[subset] == subset] if extended else ()
        canon = _backend.canon_form(child, k + 1, k, known)
        if canon is None:  # k is outside the last root cell (docstring)
            continue
        labels, body, orbits, auts = canon
        code = _g6_header(k + 1) + body
        if code in seen:
            continue
        seen.add(code)
        u_last = labels.index(k)
        if u_last != k and orbits[u_last] != orbits[k]:
            if canonical_code_of(_delete_vertex(child, u_last), k) != pcode:
                continue
        carried = None if connected_final else tuple(map(bytes, auts))
        out.append((child, code, carried))
    return out


def _all_graphs_level(n: int) -> list[_Entry]:
    """Every graph on n vertices (connected or not), one per class."""
    if n < 1 or n > MAX_ENUM_ORDER - 1:
        raise ValueError(f"all-graph levels kept for 1 <= n <= {MAX_ENUM_ORDER - 1}")
    if n in _ALL_LEVELS:
        return _ALL_LEVELS[n]
    if n == 1:
        level = [((0,), canonical_code_of((0,), 1), ())]
    else:
        level = []
        for parent in _all_graphs_level(n - 1):
            level.extend(_children_of(parent, connected_final=False))
        level.sort(key=lambda item: item[1])
    _ALL_LEVELS[n] = level
    return level


class CacheDirError(OSError):
    """``ISOLAB_CACHE_DIR`` names something that cannot hold the cache, or
    a cache file in it cannot be read or written."""


def _cache_path(name: str) -> Optional[str]:
    root = os.environ.get("ISOLAB_CACHE_DIR")
    if not root:
        return None
    try:
        os.makedirs(root, exist_ok=True)
    except OSError as exc:
        raise CacheDirError(f"cannot use cache dir {root}: {exc.strerror}") from None
    return os.path.join(root, name)


def _cache_header(body: bytes) -> bytes:
    # Imported here: loading hashlib adds about 4 MB of resident memory,
    # which runs without ISOLAB_CACHE_DIR need not pay.
    import hashlib

    return b"# sha256 " + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"


def _read_cache(path: str, n: int) -> Optional[list[str]]:
    """The cached catalog, or None when the file is missing or fails a check:
    its first line must be the sha256 header of the rest, which must hold
    the known number of classes in strictly increasing order. A file that
    exists but cannot be read raises ``CacheDirError``."""
    try:
        with open(path, "rb") as fh:
            header, body = fh.readline(), fh.read()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CacheDirError(f"cannot read cache file {path}: {exc.strerror}") from None
    if header != _cache_header(body) or not body.isascii():
        return None
    lines = body.decode("ascii").split("\n")
    if lines.pop() != "" or len(lines) != CONNECTED_COUNTS[n - 1]:
        return None
    if any(a >= b for a, b in zip(lines, lines[1:])):
        return None
    return lines


def _write_cache(path: str, lines: list[str]) -> None:
    """Write a temp file beside ``path`` and rename it over ``path``, so the
    cache never holds a half-written catalog. The first line is
    ``# sha256 <hex>`` of the graph6 lines below it. A temp file that cannot
    be made or written (read-only or full dir) raises ``CacheDirError``."""
    body = ("\n".join(lines) + "\n").encode("ascii")
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_cache_header(body) + body)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        reason = exc.strerror or exc
        raise CacheDirError(f"cannot write cache file {path}: {reason}") from None


def _parallel_map(fn, items: list, threads: int) -> list:
    """``[fn(x) for x in items]``, in order; with more than one thread, over
    that many worker processes, each task a run of about 1/(8 threads) of
    the items."""
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    chunksize = -(-len(items) // (threads * 8))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def _connected_children(parent: _Entry) -> list[str]:
    return [code.decode("ascii") for _, code, _ in _children_of(parent, True)]


def enumerate_connected(n: int, threads: int = 1) -> list[str]:
    """Connected graphs on n vertices, one canonical graph6 line per class,
    sorted by canonical code. Guarded at order 10. Returns a fresh list, so
    callers may mutate it without touching the memo."""
    if n < 1 or n > MAX_ENUM_ORDER:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUM_ORDER}")
    if n in _CONNECTED:
        return list(_CONNECTED[n])
    cache_file = _cache_path(f"connected_n{n}.g6")
    lines = _read_cache(cache_file, n) if cache_file else None
    if lines is None:
        if n == 1:
            lines = ["@"]
        else:
            results = _parallel_map(
                _connected_children, _all_graphs_level(n - 1), threads
            )
            lines = sorted(line for chunk in results for line in chunk)
        if cache_file:
            _write_cache(cache_file, lines)
    _CONNECTED[n] = lines
    return list(lines)


def enumerate_all(n: int) -> list[str]:
    """All graphs on n vertices up to isomorphism, sorted canonical lines."""
    if n < 1 or n > MAX_ENUM_ORDER - 1:
        raise ValueError(f"full enumeration supports 1 <= n <= {MAX_ENUM_ORDER - 1}")
    return [code.decode("ascii") for _, code, _ in _all_graphs_level(n)]


# ---------------------------------------------------------------------------
# extremal classification


@dataclass(frozen=True)
class ExtremalEntry:
    graph6: str
    kind: str  # "G" for family members, "E" for exceptional graphs
    spec: Optional[FamilySpec]


@dataclass(frozen=True)
class ExtremalReport:
    order: int
    total_connected: int
    entries: tuple[ExtremalEntry, ...]

    @property
    def g_count(self) -> int:
        return sum(1 for e in self.entries if e.kind == "G")

    @property
    def e_count(self) -> int:
        return sum(1 for e in self.entries if e.kind == "E")

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "total": self.total_connected,
            "extremal": len(self.entries),
            "g": self.g_count,
            "e": self.e_count,
            "entries": [
                {
                    "graph6": e.graph6,
                    "class": e.kind,
                    "spec": spec_to_json(e.spec) if e.spec else None,
                }
                for e in self.entries
            ],
        }


def _has_no_smaller_isolating_set(line: str) -> bool:
    g = parse_graph6(line)
    return not _backend.has_isolating_set(g.adj, g.order, g.order // 3 - 1)


_EXTREMAL_CACHE: dict[int, "ExtremalReport"] = {}


def extremal_graphs(n: int, threads: int = 1) -> ExtremalReport:
    """All connected graphs of this order with no isolating set below n/3,
    classified into family members and exceptional graphs."""
    if n % 3 != 0 or not 3 <= n <= MAX_ENUM_ORDER:
        raise ValueError("extremal classification runs at orders 3, 6, 9")
    if n in _EXTREMAL_CACHE:
        return _EXTREMAL_CACHE[n]
    lines = enumerate_connected(n, threads=threads)
    keep = _parallel_map(_has_no_smaller_isolating_set, lines, threads)
    entries = []
    for line, kept in zip(lines, keep):
        if kept:
            spec = recognize_family(parse_graph6(line))
            entries.append(ExtremalEntry(line, "G" if spec else "E", spec))
    report = ExtremalReport(n, len(lines), tuple(entries))
    _EXTREMAL_CACHE[n] = report
    return report


# ---------------------------------------------------------------------------
# the exceptional catalog


def _star_attachment_survivors(h: Graph, k: int) -> list[tuple[int, int]]:
    """Attachment pairs (S1, S2) not killed by any size-k isolating set.

    If some size-k isolating set of the host meets both attachment sets, it
    already isolates the extended graph, so the extension cannot be
    extremal; only the surviving pairs need the full decision. Such a set
    exists exactly when some v in S1 and some w in S2 lie in one, that is,
    when the pair {v, w} extends: at most k - |{v, w}| more vertices isolate
    the host together with it. With k <= n, a smaller isolating superset of
    {v, w} pads up to size k, since supersets of an isolating set isolate;
    with k > n there is no size-k set at all. So a pair survives exactly
    when S2 misses the union of through[v] over v in S1. Pairs come with S1
    ascending, then S2 ascending.
    """
    adj, n = h.adj, h.order
    through = [0] * n  # through[v]: the w such that {v, w} extends
    if k <= n:
        for v in range(n):
            for w in range(v, n):
                pair = (1 << v) | (1 << w)
                covered = adj[v] | adj[w] | pair
                if _backend.has_isolating_set(adj, n, k - pair.bit_count(), covered, 0):
                    through[v] |= 1 << w
                    through[w] |= 1 << v
    hit = [0] * (1 << n)  # hit[S1]: union of through[v] over v in S1
    out = []
    for s1 in range(1, 1 << n):
        low = s1 & -s1
        hit[s1] = hit[s1 ^ low] | through[low.bit_length() - 1]
        free = h.full_mask & ~hit[s1]
        # submasks of free, walked down from the top until they drop below S1
        descending = []
        s2 = free
        while s2 >= s1:
            descending.append((s1, s2))
            s2 = (s2 - 1) & free
        out.extend(reversed(descending))
    return out


def _extend_by_star(h: Graph, s1: int, s2: int, edge: bool) -> tuple[int, ...]:
    # New vertices: y1 = n, y2 = n+1, x = n+2. x touches only y1 and y2.
    n = h.order
    y1, y2, x = n, n + 1, n + 2
    rows = [
        row | (((s1 >> v) & 1) << y1) | (((s2 >> v) & 1) << y2)
        for v, row in enumerate(h.adj)
    ]
    r1 = s1 | (1 << x) | ((1 << y2) if edge else 0)
    r2 = s2 | (1 << x) | ((1 << y1) if edge else 0)
    rows += [r1, r2, (1 << y1) | (1 << y2)]
    return tuple(rows)


def _star_extensions(line: str) -> tuple[int, list[str]]:
    """Graft a two-leaf star onto the host ``line`` of order 3k at every
    attachment pair that survives its size-k isolating sets, with and
    without the leaf edge. Returns how many extensions were decided, and
    the sorted canonical lines of those with no size-k isolating set."""
    h = parse_graph6(line)
    k, n = h.order // 3, h.order + 3
    checked = 0
    extremal = set()
    for s1, s2 in _star_attachment_survivors(h, k):
        for edge in (False, True):
            adj = _extend_by_star(h, s1, s2, edge)
            checked += 1
            if not _backend.has_isolating_set(adj, n, k):
                extremal.add(canonical_code_of(adj, n).decode("ascii"))
    return checked, sorted(extremal)


def _extremal_star_extensions(
    hosts: list[str], threads: int
) -> tuple[int, list[str], list[str]]:
    """``_star_extensions`` over every host: the extensions decided, the
    sorted extremal ones, and those of them the family recognizer rejects."""
    results = _parallel_map(_star_extensions, hosts, threads)
    extremal = sorted({line for _, lines in results for line in lines})
    outside = [
        line for line in extremal if recognize_family(parse_graph6(line)) is None
    ]
    return sum(checked for checked, _ in results), extremal, outside


def derive_exceptional(order: int, threads: int = 1) -> list[str]:
    """The exceptional extremal graphs at orders 6, 9, 12 (canonical lines).

    Orders 6 and 9 come straight from exhaustive classification. Order 12
    is out of enumeration range, so it is derived the way the structure
    theory dictates: graft a two-leaf star onto every order-9 extremal
    graph (the center kept clear of the host, both leaves attached, the
    leaf edge optional), keep the extensions with no 3-vertex isolating
    set, and discard the ones the family recognizer accepts.
    """
    if order not in (6, 9, 12):
        raise ValueError("exceptional catalog exists at orders 6, 9, 12")
    if order in (6, 9):
        report = extremal_graphs(order, threads=threads)
        return [e.graph6 for e in report.entries if e.kind == "E"]
    hosts = [e.graph6 for e in extremal_graphs(9, threads=threads).entries]
    return _extremal_star_extensions(hosts, threads)[2]


def enumerate_family_members(order: int) -> list[tuple[str, FamilySpec]]:
    """Every family member of the given order up to isomorphism.

    Runs over all spec shapes: block composition, connected base, pendant
    kinds, and attachments, deduping realized graphs by canonical code.
    """
    if order % 3 != 0 or order < 3:
        raise ValueError("family orders are positive multiples of 3")
    blocks = order // 3
    c5_opts = valid_c5_attachments()
    out: dict[str, FamilySpec] = {}
    for t in range(0, blocks // 2 + 1):
        a = blocks - 2 * t
        b = a + t
        if a < 0 or b < 1:
            continue
        for base_line in enumerate_connected(b):
            base = parse_graph6(base_line)
            for c5_at in combinations(range(b), t):
                kinds = ["C5" if i in c5_at else "K2" for i in range(b)]
                options = [
                    c5_opts if k == "C5" else list(K2_ATTACHMENTS) for k in kinds
                ]
                for choice in product(*options):
                    spec = FamilySpec(
                        base,
                        tuple(
                            PendantAttachment(k, att)
                            for k, att in zip(kinds, choice)
                        ),
                    )
                    g = build_family_graph(spec)
                    code = canonical_code(g).decode("ascii")
                    out.setdefault(code, spec)
    return sorted(out.items())


# ---------------------------------------------------------------------------
# extendability and the structure star


@dataclass(frozen=True)
class StarReduction:
    """A star (center plus leaves, not necessarily induced) whose removal
    leaves at most one nontrivial component."""

    center: int
    leaves: int

    @property
    def mask(self) -> int:
        return self.leaves | (1 << self.center)


def _verify_star(g: Graph, star: StarReduction) -> StarReduction:
    """The star, once it passes every check; a failed one raises
    RuntimeError."""
    if star.leaves.bit_count() < 2:
        raise RuntimeError("star must have at least two leaves")
    if (star.leaves >> star.center) & 1:
        raise RuntimeError("center must not be a leaf")
    if star.leaves & ~g.adj[star.center]:
        raise RuntimeError("center must touch every leaf")
    rest = g.full_mask & ~star.mask
    nontrivial = sum(
        1 for comp in masked_components(g, rest) if comp.bit_count() >= 2
    )
    if nontrivial > 1:
        raise RuntimeError("removal must leave at most one nontrivial component")
    return star


def find_reducing_star(g: Graph) -> StarReduction:
    """Star on >= 3 vertices whose removal leaves <= 1 nontrivial component.

    Follows a spanning-tree case split: a star tree is returned whole;
    otherwise the tree is rooted at one end of a longest path ending
    ...x, y, z and the star is found at y, at a child of x, as the path tail
    {x, y, z}, across an edge between grandchildren of x, or as x with all
    its children. Bad input raises ValueError; the result is re-verified
    before returning, and a failed check raises RuntimeError.

    Two level sweeps (``bfs_levels``) suffice. The spanning tree is the BFS
    tree from vertex 0, each vertex joined to its least neighbor one level
    up; the sweep also decides connectivity. Tree edges join consecutive
    levels, so the least vertex ``a`` of the last level is one end of a
    longest path, and one sweep of the tree from ``a`` gives the other end
    ``z``. Each tree vertex's parent, children and grandchildren are then
    its tree row, and its children's rows, met with the level above or
    below.
    """
    n = g.order
    adj = g.adj
    levels = bfs_levels(adj, 0, g.full_mask) if n >= 3 else []
    if n < 3 or sum(map(int.bit_count, levels)) != n:
        raise ValueError("connected graph of order >= 3 required")
    # The tree is a star when it has depth 1, or depth 2 below one vertex:
    # the next-to-last level is then the center alone.
    center = levels[-2]
    if len(levels) <= 3 and center.bit_count() == 1:
        return _verify_star(g, StarReduction(center.bit_length() - 1, g.full_mask ^ center))

    tree = [0] * n
    for up, level in zip(levels, levels[1:]):
        while level:
            b = level & -level
            u = b.bit_length() - 1
            p = adj[u] & up
            p &= -p
            tree[u] |= p
            tree[p.bit_length() - 1] |= b
            level ^= b
    last = levels[-1]
    levels = bfs_levels(tree, (last & -last).bit_length() - 1, g.full_mask)
    deep, below, above = levels[-1], levels[-2], levels[-3]
    z = (deep & -deep).bit_length() - 1
    y = (tree[z] & below).bit_length() - 1
    x = (tree[y] & above).bit_length() - 1
    children = tree[x] & below

    star = None
    for c in [y] + bit_list(children):
        leaves = tree[c] & deep
        if leaves & (leaves - 1):
            star = StarReduction(c, leaves)
            break
    if star is None and children == 1 << y:
        star = StarReduction(y, (1 << x) | (1 << z))
    if star is None:
        # Every child of x has one child at most now.
        grands = 0
        for c in bit_list(children):
            grands |= tree[c] & deep
        for u in bit_list(grands):
            v = adj[u] & grands & ~((2 << u) - 1)
            if v:
                star = StarReduction(u, (v & -v) | (tree[u] & below))
                break
    if star is None:
        star = StarReduction(x, children)
    return _verify_star(g, star)


# ---------------------------------------------------------------------------
# characterization checks


def _flag(lines, problem: str) -> list[dict]:
    return [{"graph6": line, "problem": problem} for line in lines]


def _not_extremal(lines) -> list[str]:
    return [line for line in lines if not is_extremal(parse_graph6(line))]


def verify_characterization(n: int, threads: int = 1) -> dict:
    """Check both directions of the extremal characterization at one order.

    Full at orders 3, 6, 9: the classified extremal set must agree exactly
    with independently generated family members, and every family member
    must be extremal. Partial at order 12 (enumeration is out of reach):
    the derived exceptional catalog and every family member of order 12
    are checked on the extremal side only, and the report says so.
    """
    if n in (3, 6, 9):
        report = extremal_graphs(n, threads=threads)
        generated = {code for code, _ in enumerate_family_members(n)}
        recognized = {e.graph6 for e in report.entries if e.kind == "G"}
        counterexamples = (
            _flag(sorted(generated - recognized),
                  "family member not among recognized extremal graphs")
            + _flag(sorted(recognized - generated),
                    "recognized member missing from generated family")
            + _flag(_not_extremal(sorted(generated)), "family member not extremal")
        )
        return {
            "order": n,
            "mode": "full",
            "total": report.total_connected,
            "extremal": len(report.entries),
            "g": report.g_count,
            "e": report.e_count,
            "counterexamples": counterexamples,
            "ok": not counterexamples,
        }
    if n == 12:
        exceptional = derive_exceptional(12, threads=threads)
        members = enumerate_family_members(12)
        counterexamples = _flag(
            _not_extremal(exceptional), "derived exceptional graph not extremal"
        ) + _flag(_not_extremal(code for code, _ in members), "family member not extremal")
        return {
            "order": 12,
            "mode": "partial",
            "exceptional": len(exceptional),
            "family_members": len(members),
            "counterexamples": counterexamples,
            "ok": not counterexamples,
        }
    raise ValueError("characterization checks run at orders 3, 6, 9, 12")


def check_order15_extensions(threads: int = 1) -> dict:
    """Star-extension search above the order-12 extremal set.

    Every order-12 extremal graph (all family members of order 12 plus the
    derived exceptional three) is extended by a two-leaf star exactly as in
    the order-12 derivation, one order higher. Extremal outcomes must all
    be family members; any other graph would be a counterexample at the
    first order where the family alone is supposed to win.
    """
    hosts = [code for code, _ in enumerate_family_members(12)]
    hosts += derive_exceptional(12, threads=threads)
    hosts = sorted(set(hosts))
    checked, extremal, outside = _extremal_star_extensions(hosts, threads)
    return {
        "order": 15,
        "hosts": len(hosts),
        "candidates_checked": checked,
        "extremal_extensions": len(extremal),
        "outside_family": outside,
        "ok": not outside,
    }
