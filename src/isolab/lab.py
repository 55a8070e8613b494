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

The canonical parent test compares the sorted degree sequence of the
child minus its canonically-last vertex with the parent's before it
canonizes that deletion; a mismatch means the two are not isomorphic.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

from isolab import _backend
from isolab.family import (
    K2_ATTACHMENTS,
    FamilySpec,
    PendantAttachment,
    build_family_graph,
    recognize_family,
    random_family_spec,
    spec_to_json,
    valid_c5_attachments,
)
from isolab.graphs import (
    Graph,
    _g6_header,
    bfs_tree,
    bits_of,
    canonical_code,
    canonical_code_of,
    components,
    is_connected,
    iter_bits,
    masked_components,
    parse_graph6,
)
from isolab.solvers import isolating_sets_of_size, lex_extensions

MAX_ENUM_ORDER = 10
# Connected classes on n = 1..MAX_ENUM_ORDER vertices (OEIS A001349).
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571)

_ALL_LEVELS: dict[int, list[tuple[tuple[int, ...], bytes]]] = {}
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


def _orbit_heads(subsets, k: int, auts) -> list[int]:
    """The first subset, in the given order, of each orbit that the
    subsets meet under the group generated by ``auts`` (permutations of
    ``range(k)``), in that order."""
    subsets = list(subsets)
    if not auts:
        return subsets
    # images[g][s]: the image of subset s under auts[g], built a bit at a time
    images = []
    for gamma in auts:
        img = [0]
        for v in range(k):
            bit = 1 << gamma[v]
            img += [s | bit for s in img]
        images.append(img)
    reached = bytearray(1 << k)
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
    parent: tuple[tuple[int, ...], bytes],
    connected_final: bool,
    descending: bool = False,
) -> list[tuple[tuple[int, ...], bytes]]:
    """Accepted augmentations of one parent, deduped within the parent."""
    padj, pcode = parent
    k = len(padj)
    pdegs = sorted(row.bit_count() for row in padj)
    top = pdegs[-1]
    topmask = bits_of(v for v, row in enumerate(padj) if row.bit_count() == top)
    comps = components(Graph(k, padj)) if connected_final else []
    # The new vertex must reach the child's maximum degree (module
    # docstring), and must touch every parent component to connect it.
    subsets = [
        s
        for s in (range((1 << k) - 1, -1, -1) if descending else range(1 << k))
        if s.bit_count() >= top + (1 if s & topmask else 0)
        and all(s & comp for comp in comps)
    ]
    auts = _backend.canon_form(padj, k)[3]
    out = []
    seen: set[bytes] = set()
    for subset in _orbit_heads(subsets, k, auts):
        child = tuple(
            row | (((subset >> v) & 1) << k) for v, row in enumerate(padj)
        ) + (subset,)
        labels, body, orbits, _ = _backend.canon_form(child, k + 1)
        code = _g6_header(k + 1) + body
        if code in seen:
            continue
        seen.add(code)
        u_last = labels.index(k)
        if u_last != k and orbits[u_last] != orbits[k]:
            rest = _delete_vertex(child, u_last)
            if sorted(row.bit_count() for row in rest) != pdegs:
                continue
            if canonical_code_of(rest, k) != pcode:
                continue
        out.append((child, code))
    return out


def _all_graphs_level(n: int) -> list[tuple[tuple[int, ...], bytes]]:
    """Every graph on n vertices (connected or not), one per class."""
    if n < 1 or n > MAX_ENUM_ORDER - 1:
        raise ValueError(f"all-graph levels kept for 1 <= n <= {MAX_ENUM_ORDER - 1}")
    if n in _ALL_LEVELS:
        return _ALL_LEVELS[n]
    if n == 1:
        level = [((0,), canonical_code_of((0,), 1))]
    else:
        level = []
        for parent in _all_graphs_level(n - 1):
            level.extend(_children_of(parent, connected_final=False))
        level.sort(key=lambda item: item[1])
    _ALL_LEVELS[n] = level
    return level


class CacheDirError(OSError):
    """``ISOLAB_CACHE_DIR`` names something that cannot hold the cache."""


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
    the known number of classes in strictly increasing order."""
    try:
        with open(path, "rb") as fh:
            header, body = fh.readline(), fh.read()
        lines = body.decode("ascii").split("\n")
    except (FileNotFoundError, UnicodeDecodeError):
        return None
    if header != _cache_header(body) or lines.pop() != "":
        return None
    if len(lines) != CONNECTED_COUNTS[n - 1]:
        return None
    if any(a >= b for a, b in zip(lines, lines[1:])):
        return None
    return lines


def _write_cache(path: str, lines: list[str]) -> None:
    """Write a temp file beside ``path`` and rename it over ``path``, so the
    cache never holds a half-written catalog. The first line is
    ``# sha256 <hex>`` of the graph6 lines below it."""
    body = ("\n".join(lines) + "\n").encode("ascii")
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


def _final_level_chunk(args) -> list[str]:
    parents, descending = args
    out = []
    for parent in parents:
        out.extend(
            code.decode("ascii")
            for _, code in _children_of(
                parent, connected_final=True, descending=descending
            )
        )
    return out


def _parallel_map(fn, chunks, threads: int):
    if threads <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, chunks))


def _chunked(items: list, pieces: int) -> list[list]:
    pieces = max(1, min(pieces, len(items)))
    step = (len(items) + pieces - 1) // pieces
    return [items[i : i + step] for i in range(0, len(items), step)]


def enumerate_connected(
    n: int, threads: int = 1, descending: bool = False
) -> list[str]:
    """Connected graphs on n vertices, one canonical graph6 line per class,
    sorted by canonical code. Guarded at order 10. Returns a fresh list, so
    callers may mutate it without touching the memo."""
    if n < 1 or n > MAX_ENUM_ORDER:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUM_ORDER}")
    if not descending and n in _CONNECTED:
        return list(_CONNECTED[n])
    cache_file = _cache_path(f"connected_n{n}.g6") if not descending else None
    cached = _read_cache(cache_file, n) if cache_file else None
    if cached is not None:
        _CONNECTED[n] = cached
        return list(cached)
    if n == 1:
        lines = ["@"]
    else:
        parents = _all_graphs_level(n - 1)
        chunks = _chunked(parents, threads * 8 if threads > 1 else 1)
        results = _parallel_map(
            _final_level_chunk, [(c, descending) for c in chunks], threads
        )
        lines = sorted(line for chunk in results for line in chunk)
    if not descending:
        _CONNECTED[n] = lines
        if cache_file:
            _write_cache(cache_file, lines)
        return list(lines)
    return lines


def enumerate_all(n: int) -> list[str]:
    """All graphs on n vertices up to isomorphism, sorted canonical lines."""
    if n < 1 or n > MAX_ENUM_ORDER - 1:
        raise ValueError(f"full enumeration supports 1 <= n <= {MAX_ENUM_ORDER - 1}")
    return [code.decode("ascii") for _, code in _all_graphs_level(n)]


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


def _extremal_filter_chunk(args) -> list[str]:
    lines, k = args
    out = []
    for line in lines:
        g = parse_graph6(line)
        if not _backend.has_isolating_set(g.adj, g.order, k):
            out.append(line)
    return out


_EXTREMAL_CACHE: dict[int, "ExtremalReport"] = {}


def extremal_graphs(n: int, threads: int = 1) -> ExtremalReport:
    """All connected graphs of this order with no isolating set below n/3,
    classified into family members and exceptional graphs."""
    if n % 3 != 0 or not 3 <= n <= MAX_ENUM_ORDER:
        raise ValueError("extremal classification runs at orders 3, 6, 9")
    if n in _EXTREMAL_CACHE:
        return _EXTREMAL_CACHE[n]
    lines = enumerate_connected(n, threads=threads)
    chunks = _chunked(lines, threads * 8 if threads > 1 else 1)
    results = _parallel_map(
        _extremal_filter_chunk, [(c, n // 3 - 1) for c in chunks], threads
    )
    extremal = sorted(line for chunk in results for line in chunk)
    entries = []
    for line in extremal:
        g = parse_graph6(line)
        spec = recognize_family(g)
        entries.append(
            ExtremalEntry(line, "G" if spec else "E", spec)
        )
    report = ExtremalReport(n, len(lines), tuple(entries))
    _EXTREMAL_CACHE[n] = report
    return report


# ---------------------------------------------------------------------------
# the exceptional catalog


def _star_attachment_survivors(h: Graph, k: int) -> list[tuple[int, int]]:
    """Attachment pairs (S1, S2) not killed by any size-k isolating set.

    If some size-k isolating set of the host meets both attachment sets, it
    already isolates the extended graph, so the extension cannot be
    extremal; only the surviving pairs need the full decision. A pair
    survives exactly when S2 misses the union of the size-k isolating sets
    that meet S1. Pairs come with S1 ascending, then S2 ascending.
    """
    through = [0] * h.order  # union of the size-k isolating sets holding v
    for x in isolating_sets_of_size(h, k):
        for v in iter_bits(x):
            through[v] |= x
    hit = [0] * (1 << h.order)  # hit[S1]: union of the sets meeting S1
    out = []
    for s1 in range(1, 1 << h.order):
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


def _derive12_for_host(line: str) -> list[str]:
    h = parse_graph6(line)
    out = {}
    for s1, s2 in _star_attachment_survivors(h, 3):
        for edge in (False, True):
            adj = _extend_by_star(h, s1, s2, edge)
            if _backend.has_isolating_set(adj, 12, 3):
                continue
            code = canonical_code_of(adj, 12)
            out[code] = code.decode("ascii")
    return sorted(out.values())


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
    results = _parallel_map(_derive12_for_host, hosts, threads)
    merged = sorted({line for chunk in results for line in chunk})
    return [line for line in merged if recognize_family(parse_graph6(line)) is None]


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


def extend_pair_check(h: Graph, k: int) -> dict[tuple[int, int], Optional[int]]:
    """For each vertex pair, one size-k isolating superset or None: the pair
    plus the first k-2 other vertices, in combinations order, that complete it."""
    out: dict[tuple[int, int], Optional[int]] = {}
    for z1, z2 in combinations(range(h.order), 2):
        base = (1 << z1) | (1 << z2)
        witness = None
        if k >= 2:
            for extra in lex_extensions(h, _backend.has_isolating_set, k - 2, base):
                witness = base | extra
                break
        out[(z1, z2)] = witness
    return out


@dataclass(frozen=True)
class StarReduction:
    """A star (center plus leaves, not necessarily induced) whose removal
    leaves at most one nontrivial component."""

    center: int
    leaves: int

    @property
    def mask(self) -> int:
        return self.leaves | (1 << self.center)


def _verify_star(g: Graph, star: StarReduction) -> None:
    if star.leaves.bit_count() < 2:
        raise ValueError("star must have at least two leaves")
    if (star.leaves >> star.center) & 1:
        raise ValueError("center must not be a leaf")
    if star.leaves & ~g.adj[star.center]:
        raise ValueError("center must touch every leaf")
    rest = g.full_mask & ~star.mask
    nontrivial = sum(
        1 for comp in masked_components(g, rest) if comp.bit_count() >= 2
    )
    if nontrivial > 1:
        raise ValueError("removal must leave at most one nontrivial component")


def find_reducing_star(g: Graph) -> StarReduction:
    """Star on >= 3 vertices whose removal leaves <= 1 nontrivial component.

    Follows a spanning-tree case split: a star tree is returned whole;
    otherwise the tree is rooted at one end of a longest path ending
    ...x, y, z and the star is found at y, at a child of x, as the path tail
    {x, y, z}, across an edge between grandchildren of x, or as x with all
    its children. The result is re-verified before returning.
    """
    n = g.order
    if n < 3 or not is_connected(g):
        raise ValueError("connected graph of order >= 3 required")

    parent0, _ = bfs_tree(g, 0, g.full_mask)
    tree_adj = [0] * n
    for v in range(n):
        if parent0[v] >= 0:
            tree_adj[v] |= 1 << parent0[v]
            tree_adj[parent0[v]] |= 1 << v
    tree = Graph(n, tuple(tree_adj))

    for v in range(n):
        if tree.adj[v].bit_count() == n - 1:
            return StarReduction(v, g.full_mask ^ (1 << v))

    _, d0 = bfs_tree(tree, 0, tree.full_mask)
    a = min(v for v in range(n) if d0[v] == max(d0))
    parent, depth = bfs_tree(tree, a, tree.full_mask)
    z = min(v for v in range(n) if depth[v] == max(depth))
    y = parent[z]
    x = parent[y]
    children = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    for lst in children:
        lst.sort()

    star = None
    if len(children[y]) >= 2:
        star = StarReduction(y, bits_of(children[y]))
    if star is None:
        for c in children[x]:
            if len(children[c]) >= 2:
                star = StarReduction(c, bits_of(children[c]))
                break
    if star is None and len(children[x]) == 1:
        star = StarReduction(y, (1 << x) | (1 << z))
    if star is None:
        grands = sorted(gc for c in children[x] for gc in children[c])
        for u, v in combinations(grands, 2):
            if g.has_edge(u, v):
                star = StarReduction(u, (1 << v) | (1 << parent[u]))
                break
    if star is None:
        star = StarReduction(x, bits_of(children[x]))
    _verify_star(g, star)
    return star


# ---------------------------------------------------------------------------
# characterization checks


def verify_characterization(
    n: int, threads: int = 1, sample_specs: int = 200, seed: int = 20240
) -> dict:
    """Check both directions of the extremal characterization at one order.

    Full at orders 3, 6, 9: the classified extremal set must agree exactly
    with independently generated family members, and every family member
    must be extremal. Partial at order 12 (enumeration is out of reach):
    the derived exceptional catalog plus sampled family specs are checked
    on the extremal side only, and the report says so.
    """
    from isolab.solvers import is_extremal

    if n in (3, 6, 9):
        report = extremal_graphs(n, threads=threads)
        generated = {code for code, _ in enumerate_family_members(n)}
        recognized = {e.graph6 for e in report.entries if e.kind == "G"}
        counterexamples = []
        for line in sorted(generated - recognized):
            counterexamples.append({"graph6": line, "problem": "family member not among recognized extremal graphs"})
        for line in sorted(recognized - generated):
            counterexamples.append({"graph6": line, "problem": "recognized member missing from generated family"})
        for code in sorted(generated):
            if not is_extremal(parse_graph6(code)):
                counterexamples.append({"graph6": code, "problem": "family member not extremal"})
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
        counterexamples = []
        for line in exceptional:
            g = parse_graph6(line)
            if not is_extremal(g):
                counterexamples.append({"graph6": line, "problem": "derived exceptional graph not extremal"})
        for i in range(sample_specs):
            spec = random_family_spec(12, seed + i)
            g = build_family_graph(spec)
            if not is_extremal(g):
                counterexamples.append({"graph6": canonical_code(g).decode(), "problem": "sampled family member not extremal"})
        return {
            "order": 12,
            "mode": "partial",
            "exceptional": len(exceptional),
            "family_sampled": sample_specs,
            "counterexamples": counterexamples,
            "ok": not counterexamples,
        }
    raise ValueError("characterization checks run at orders 3, 6, 9, 12")


def _order15_for_host(line: str) -> dict:
    h = parse_graph6(line)
    survivors = _star_attachment_survivors(h, 4)
    checked = 0
    extremal_lines = []
    for s1, s2 in survivors:
        for edge in (False, True):
            adj = _extend_by_star(h, s1, s2, edge)
            checked += 1
            if _backend.has_isolating_set(adj, 15, 4):
                continue
            extremal_lines.append(canonical_code_of(adj, 15).decode("ascii"))
    return {
        "host": line,
        "survivor_pairs": len(survivors),
        "checked": checked,
        "extremal": sorted(set(extremal_lines)),
    }


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
    results = _parallel_map(_order15_for_host, hosts, threads)
    extremal = sorted({line for r in results for line in r["extremal"]})
    outside = [
        line for line in extremal if recognize_family(parse_graph6(line)) is None
    ]
    return {
        "order": 15,
        "hosts": len(hosts),
        "candidates_checked": sum(r["checked"] for r in results),
        "extremal_extensions": len(extremal),
        "outside_family": outside,
        "ok": not outside,
    }
