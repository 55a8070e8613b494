"""Exact decision procedures and minimizers for isolation and domination.

Minimization decides the value with the kernel, then builds the lex-least
witness one position at a time from further decisions that start from the
chosen prefix: at most n * k decisions for value k at order n, never a scan
of the C(n, k) candidate sets. Everything here runs on the full 64-vertex
range; the cost of one decision is what grows with the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from isolab import _backend
from isolab.graphs import Graph, closed_neighborhood, is_connected, iter_bits


@dataclass(frozen=True)
class SolveResult:
    """Optimal parameter value plus a witness attaining it.

    The witness is the lexicographically least optimal set (as a sorted
    vertex tuple), so repeated solves are byte-identical.
    """

    value: int
    witness: int


def is_isolating(g: Graph, x: int) -> bool:
    """True iff removing N[x] leaves no edge."""
    rem = g.full_mask & ~closed_neighborhood(g, x)
    for v in iter_bits(rem):
        if g.adj[v] & rem:
            return False
    return True


def is_dominating(g: Graph, x: int) -> bool:
    """True iff N[x] covers every vertex."""
    return closed_neighborhood(g, x) == g.full_mask


def is_distance2_dominating(g: Graph, x: int) -> bool:
    """True iff every vertex is within distance two of x."""
    return closed_neighborhood(g, closed_neighborhood(g, x)) == g.full_mask


def has_isolating_set(g: Graph, k: int) -> bool:
    """Decide whether an isolating set of size at most k exists."""
    return _backend.has_isolating_set(g.adj, g.order, k)


def has_dominating_set(g: Graph, k: int) -> bool:
    return _backend.has_dominating_set(g.adj, g.order, k)


def lex_extensions(g: Graph, decide, size: int, chosen: int = 0) -> Iterator[int]:
    """Every set X of exactly ``size`` vertices outside ``chosen`` such that
    ``chosen | X`` has the property ``decide`` tests, in ascending
    lexicographic order of their sorted vertex tuples.

    ``decide`` is a kernel decision, ``decide(adj, n, k, covered, forbidden)``,
    of a property kept by supersets (isolating, dominating). A vertex v is
    taken at the next position only when a completion exists with every
    vertex up to v forbidden, and at least ``size - 1`` allowed vertices lie
    above v to pad it to exact size, so the search never enters a dead branch
    and the first set costs at most ``n * size`` decisions.
    """
    return _walk(g, decide, size, closed_neighborhood(g, chosen), chosen)


def _walk(g: Graph, decide, size: int, covered: int, forbidden: int) -> Iterator[int]:
    if size == 0:
        if decide(g.adj, g.order, 0, covered, forbidden):
            yield 0
        return
    allowed = g.full_mask & ~forbidden
    for v in iter_bits(allowed):
        if (allowed >> (v + 1)).bit_count() < size - 1:
            return
        bit = 1 << v
        state = (covered | g.adj[v] | bit, forbidden | ((bit << 1) - 1))
        if not decide(g.adj, g.order, size - 1, *state):
            continue
        if size == 1:
            yield bit
        else:
            for rest in _walk(g, decide, size - 1, *state):
                yield bit | rest


def _lex_least(g: Graph, decide) -> SolveResult:
    value = 0
    while not decide(g.adj, g.order, value):
        value += 1
    for x in lex_extensions(g, decide, value):
        return SolveResult(value, x)
    raise RuntimeError("decision procedure and witness walk disagree")


def isolation_number(g: Graph) -> SolveResult:
    """Minimum size of an isolating set, with the lex-least witness.

    Disconnected and empty graphs are fine; edgeless graphs solve to 0.
    """
    return _lex_least(g, _backend.has_isolating_set)


def domination_number(g: Graph) -> SolveResult:
    """Minimum size of a dominating set, with the lex-least witness."""
    if g.order == 0:
        return SolveResult(0, 0)
    return _lex_least(g, _backend.has_dominating_set)


def is_extremal(g: Graph) -> bool:
    """Connected, order a multiple of 3, and no isolating set one below n/3.

    Decided directly from the size-(n/3 - 1) refutation, which is much
    cheaper than full minimization inside enumeration loops.
    """
    n = g.order
    if n == 0 or n % 3 != 0 or not is_connected(g):
        return False
    return not has_isolating_set(g, n // 3 - 1)


def isolating_sets_of_size(g: Graph, k: int) -> Iterator[int]:
    """All isolating sets of exactly size k, ascending lexicographically."""
    return lex_extensions(g, _backend.has_isolating_set, k)
