"""The compiled core and the pure-Python fallback must be interchangeable."""

import random

from isolab import _pykernels
from isolab import graphs as G
from isolab import lab


def test_backend_names(core):
    assert _pykernels.BACKEND_NAME == "python"
    assert core.BACKEND_NAME == "c"


def test_canon_identical_on_all_graphs_up_to_6(core):
    for n in range(1, 7):
        for line in lab.enumerate_all(n):
            g = G.parse_graph6(line)
            assert _pykernels.canon_form(g.adj, n) == core.canon_form(g.adj, n)


def test_decisions_identical_on_all_graphs_up_to_6(core):
    for n in range(1, 7):
        for line in lab.enumerate_all(n):
            g = G.parse_graph6(line)
            for k in range(4):
                assert _pykernels.has_isolating_set(g.adj, n, k) == core.has_isolating_set(g.adj, n, k)
                assert _pykernels.has_dominating_set(g.adj, n, k) == core.has_dominating_set(g.adj, n, k)


def test_canon_identical_on_random_graphs(core):
    rng = random.Random(1234)
    from conftest import random_graph

    for _ in range(300):
        n = rng.randrange(1, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.4, 0.7]))
        assert _pykernels.canon_form(g.adj, n) == core.canon_form(g.adj, n)


def test_highly_symmetric_graphs(core):
    for g in (
        G.complete_graph(9),
        G.empty_graph(9),
        G.cycle_graph(9),
        G.star_graph(8),
        G.from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)]),  # K44
    ):
        assert _pykernels.canon_form(g.adj, g.order) == core.canon_form(g.adj, g.order)
