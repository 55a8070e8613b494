"""The pure-Python ``canon_form`` returns exactly what the list-based
reference ``oracles.canon_form_ref`` returns: labels, body, orbits and
automorphisms, for every ``last``. Needs no C compiler."""

import random

import oracles
import pytest
from conftest import random_graph
from test_backends import SYMMETRIC

from isolab import _pykernels
from isolab import graphs as G
from isolab import lab


def assert_same_as_reference(adj, n):
    for last in range(-1, n):
        assert _pykernels.canon_form(adj, n, last) == oracles.canon_form_ref(adj, n, last)


def test_all_graphs_up_to_7_in_two_labelings():
    rng = random.Random(7)
    for n in range(1, 8):
        for line in lab.enumerate_all(n):
            g = G.parse_graph6(line)
            perm = list(range(n))
            rng.shuffle(perm)
            assert_same_as_reference(g.adj, n)
            assert_same_as_reference(oracles.relabel(g, perm).adj, n)


def test_every_graph_of_order_8():
    lines = lab.enumerate_all(8)
    assert len(lines) == 12346
    for line in lines:
        assert_same_as_reference(G.parse_graph6(line).adj, 8)


def test_symmetric_graphs():
    for g in SYMMETRIC:
        assert_same_as_reference(g.adj, g.order)


@pytest.mark.parametrize("n", range(1, 19))
def test_complete_and_empty_graphs(n):
    # At n = 18 both have far more automorphisms than the search records.
    assert_same_as_reference(G.complete_graph(n).adj, n)
    assert_same_as_reference(G.empty_graph(n).adj, n)


def test_random_graphs_of_order_9_to_20():
    rng = random.Random(920)
    for _ in range(300):
        n = rng.randrange(9, 21)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        assert_same_as_reference(g.adj, n)

