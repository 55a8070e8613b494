"""Exact decision procedures and minimizers for isolation and domination.

Minimization decides the value with the kernel, then takes the lex-least
witness from one kernel call, ``first_isolating_set`` or
``first_dominating_set``. Inside that call the kernel builds the witness
one position at a time from decisions that start from the chosen prefix:
at most n decisions at order n, never a scan of the C(n, k) candidate
sets. The witness is then checked with ``is_isolating`` or
``is_dominating``, which do not use the kernels' searches. Everything here
runs on the full 64-vertex range.

``is_isolating`` reuses the pure-Python kernels' edge scan. Order 0 needs no
case of its own: both kernels decide k = 0 on the empty graph.
"""

from __future__ import annotations

from typing import NamedTuple

from isolab import _backend
from isolab._pykernels import _edge_vertex
from isolab.graphs import Graph, closed_neighborhood, is_connected, write_graph6


class SolveResult(NamedTuple):
    """Optimal parameter value plus a witness attaining it.

    The witness is the lexicographically least optimal set, as a vertex
    mask, so repeated solves are byte-identical. It is a named tuple
    because the query streams build one per graph, and a named tuple is
    built in about two thirds of a frozen dataclass's time.
    """

    value: int
    witness: int


def is_isolating(g: Graph, x: int) -> bool:
    """True iff removing N[x] leaves no edge."""
    return _edge_vertex(g.adj, g.full_mask & ~closed_neighborhood(g, x)) < 0


def is_dominating(g: Graph, x: int) -> bool:
    """True iff N[x] covers every vertex."""
    return closed_neighborhood(g, x) == g.full_mask


def has_isolating_set(g: Graph, k: int) -> bool:
    """Decide whether an isolating set of size at most k exists."""
    return _backend.has_isolating_set(g.adj, g.order, k)


def has_dominating_set(g: Graph, k: int) -> bool:
    return _backend.has_dominating_set(g.adj, g.order, k)


def _lex_least(g: Graph, decide, first, check) -> SolveResult:
    """The least k that ``decide`` accepts, with the witness ``first``
    returns for it, once ``check(g, witness)`` and its size confirm it."""
    adj, n = g.adj, g.order
    value = 0
    while not decide(adj, n, value):
        value += 1
    x = first(adj, n, value)
    if x < 0 or x.bit_count() != value or not check(g, x):
        raise RuntimeError(f"kernel witness {x} fails the size-{value} check on {write_graph6(g)}")
    return SolveResult(value, x)


def isolation_number(g: Graph) -> SolveResult:
    """Minimum size of an isolating set, with the lex-least witness.

    Disconnected and empty graphs are fine; edgeless graphs solve to 0.
    """
    return _lex_least(g, _backend.has_isolating_set, _backend.first_isolating_set, is_isolating)


def domination_number(g: Graph) -> SolveResult:
    """Minimum size of a dominating set, with the lex-least witness."""
    return _lex_least(g, _backend.has_dominating_set, _backend.first_dominating_set, is_dominating)


def is_extremal(g: Graph) -> bool:
    """Connected, order a multiple of 3, and no isolating set one below n/3.

    Decided directly from the size-(n/3 - 1) refutation, which is much
    cheaper than full minimization inside enumeration loops.
    """
    n = g.order
    if n == 0 or n % 3 != 0 or not is_connected(g):
        return False
    return not has_isolating_set(g, n // 3 - 1)
