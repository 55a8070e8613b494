"""Output checks for each `isolab` command, written without isolab.

Each checker takes the generated items and the command's stdout lines and
returns the number of items whose output is wrong. An item is
(graph6 line, adjacency, kind, expected), where kind says how the
benchmark built it and expected holds answers it computed itself.
"""

from __future__ import annotations

import json

import inputs as I

PENDANT_SIZES = {"K2": 2, "C5": 5}
TRACE_KINDS = (
    "base-star", "base-cycle", "cut-vertex", "degree-2", "separating-path",
    "cycle-mod-3", "separating-cycle", "exhaustive-fallback",
)
# Kinds the partition3 workload is built to reach. A separating-cycle step
# needs minimum degree 3 and no cycle of length divisible by 3, which no
# graph has (Chen and Saito, 1994), and a fallback is an engine gap.
REACHED_KINDS = TRACE_KINDS[:6]


def _records(items, lines):
    """Pair items with parsed JSON records; count unpaired items as failed."""
    pairs, failed = [], abs(len(items) - len(lines))
    for item, line in zip(items, lines):
        try:
            rec = json.loads(line)
        except ValueError:
            failed += 1
            continue
        if not isinstance(rec, dict) or rec.get("graph6") != item[0]:
            failed += 1
            continue
        pairs.append((item, rec))
    return pairs, failed


def _run(items, lines, check_one) -> int:
    pairs, failed = _records(items, lines)
    for item, rec in pairs:
        try:
            ok = check_one(item, rec)
        except (KeyError, TypeError, ValueError, IndexError):
            ok = False
        failed += not ok
    return failed


def _mask(vertices, n):
    if not isinstance(vertices, list) or len(set(vertices)) != len(vertices):
        raise ValueError("vertex list")
    m = 0
    for v in vertices:
        if not isinstance(v, int) or not 0 <= v < n:
            raise ValueError("vertex out of range")
        m |= 1 << v
    return m


def check_min_set(key, predicate):
    """iso / dom: the value and lex-least witness the benchmark computed,
    and the witness has that size and isolates or dominates."""

    def check_one(item, rec):
        _, adj, _, expected = item
        witness = expected[key]
        w = _mask(rec["witness"], len(adj))
        return (
            rec["n"] == len(adj)
            and rec[key] == len(witness)
            and rec["witness"] == list(witness)
            and predicate(adj, w)
        )

    return lambda items, lines: _run(items, lines, check_one)


def _error_expected(kind, command):
    """The documented domain error a command gives on a bad input, or None."""
    if kind == "c5":
        return "no_valid_partition" if command == "partition3" else None
    if kind in ("disconnected", "tiny") and command in ("partition3", "star"):
        return "domain"
    return None


def check_partition3(items, lines, rules):
    """Classes disjoint, covering and isolating; residual independent and
    as reported; trace kinds counted into rules."""

    def check_one(item, rec):
        _, adj, kind, _ = item
        error = _error_expected(kind, "partition3")
        if error:
            return rec.get("error") == error
        n = len(adj)
        full = (1 << n) - 1
        classes = [_mask(c, n) for c in rec["classes"]]
        if len(classes) != 3 or not all(classes):
            return False
        a, b, c = classes
        if a | b | c != full or a & b or a & c or b & c:
            return False
        residual = 0
        for cls in classes:
            if not I.isolates(adj, cls):
                return False
            residual |= full & ~I.closed_nbhd(adj, cls)
        for step in rec["trace"]:
            k = step["kind"] if step["kind"] in TRACE_KINDS else "other"
            rules[k] = rules.get(k, 0) + 1
        return residual == _mask(rec["residual"], n) and I.independent(adj, residual)

    return _run(items, lines, check_one)


def _spec_matches(adj, spec) -> bool:
    """A claimed family spec is valid and realizes a graph of the same order,
    edge count and degree sequence as the input."""
    base = I.decode(spec["base"])
    b = len(base)
    if not b or not I.is_connected(base) or len(spec["pendants"]) != b:
        return False
    edges = [(v, u) for v in range(b) for u in I.bits(base[v]) if v < u]
    off = b
    for hook, p in enumerate(spec["pendants"]):
        kind, attach = p["kind"], tuple(p["attach"])
        size = PENDANT_SIZES[kind]
        if kind == "K2":
            ok = attach in I.K2_ATTACH
            edges.append((off, off + 1))
        else:
            ok = attach in I.C5_ATTACH
            edges += [(off + u, off + v) for u, v in I.C5_EDGES]
        if not ok:
            return False
        edges += [(hook, off + x) for x in attach]
        off += size
    if off != len(adj):
        return False
    built = I.from_edges(off, edges)
    return sorted(r.bit_count() for r in built) == sorted(r.bit_count() for r in adj)


def check_recognize(items, lines, tally):
    """Built family members are recognized, graphs that cannot be members
    are not, and every claimed spec realizes a matching graph."""

    def check_one(item, rec):
        _, adj, kind, _ = item
        member = rec["member"]
        if member is not (rec["spec"] is not None):
            return False
        tally["members"] = tally.get("members", 0) + member
        if kind == "family" and not member:
            return False
        if kind in ("deg3", "c5", "disconnected", "tiny") and member:
            return False
        return not member or _spec_matches(adj, rec["spec"])

    return _run(items, lines, check_one)


def check_star(items, lines):
    """The center touches at least 2 leaves, all of them, and removing the
    star leaves at most one component with an edge."""

    def check_one(item, rec):
        _, adj, kind, _ = item
        error = _error_expected(kind, "star")
        if error:
            return rec.get("error") == error
        n = len(adj)
        center = rec["center"]
        leaves = _mask(rec["leaves"], n)
        if not 0 <= center < n or (leaves >> center) & 1 or leaves.bit_count() < 2:
            return False
        if leaves & ~adj[center]:
            return False
        rest = ((1 << n) - 1) & ~(leaves | 1 << center)
        return sum(c.bit_count() >= 2 for c in I.component_masks(adj, rest)) <= 1

    return _run(items, lines, check_one)


def check_catalog(lines, order, connected, count) -> int:
    """enum: the known number of classes, each a graph6 line of the order
    (connected if asked), strictly increasing, so no class repeats."""
    failed = abs(count - len(lines))
    prev = ""
    for line in lines:
        try:
            adj = I.decode(line)
        except (ValueError, IndexError):
            failed += 1
            continue
        if len(adj) != order or line <= prev or (connected and not I.is_connected(adj)):
            failed += 1
        prev = line
    return failed
