"""Exact decision procedures and minimizers for isolation and domination.

Exact minimization is meant for desk scale (order <= 16 or so); the
predicates scale to the full 64-vertex range.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from isolab import _backend
from isolab.graphs import Graph, bits_of, closed_neighborhood, is_connected, iter_bits


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


def _minimize(g: Graph, decide, predicate) -> SolveResult:
    value = 0
    while not decide(g, value):
        value += 1
    for combo in combinations(range(g.order), value):
        x = bits_of(combo)
        if predicate(g, x):
            return SolveResult(value, x)
    raise AssertionError("decision procedure and witness scan disagree")


def isolation_number(g: Graph) -> SolveResult:
    """Minimum size of an isolating set, with the lex-least witness.

    Disconnected and empty graphs are fine; edgeless graphs solve to 0.
    """
    return _minimize(g, has_isolating_set, is_isolating)


def domination_number(g: Graph) -> SolveResult:
    """Minimum size of a dominating set, with the lex-least witness."""
    if g.order == 0:
        return SolveResult(0, 0)
    return _minimize(g, has_dominating_set, is_dominating)


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
    for combo in combinations(range(g.order), k):
        x = bits_of(combo)
        if is_isolating(g, x):
            yield x
