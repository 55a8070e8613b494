"""The compiled core and the pure-Python fallback must be interchangeable."""

import random

import oracles
import pytest

from isolab import _pykernels
from isolab import graphs as G
from isolab import lab


def test_backend_names(core):
    assert _pykernels.BACKEND_NAME == "python"
    assert core.BACKEND_NAME == "c"


def assert_canon_agrees(core, adj, n):
    # Every last in -1..n-1: None or the 4-tuple, the same on both backends.
    for last in range(-1, n):
        assert _pykernels.canon_form(adj, n, last) == core.canon_form(adj, n, last)


def assert_canon_agrees_in_two_labelings(core, rng, n, lines):
    for line in lines:
        g = G.parse_graph6(line)
        perm = list(range(n))
        rng.shuffle(perm)
        assert_canon_agrees(core, g.adj, n)
        assert_canon_agrees(core, G.relabel(g, perm).adj, n)


def test_canon_identical_on_all_graphs_up_to_6(core):
    rng = random.Random(6)
    for n in range(1, 7):
        assert_canon_agrees_in_two_labelings(core, rng, n, lab.enumerate_all(n))


@pytest.mark.parametrize("n", [7, 8])
def test_canon_identical_on_all_graphs_of_order(core, n):
    lines = lab.enumerate_all(n)
    assert_canon_agrees_in_two_labelings(core, random.Random(n), n, lines)


def assert_decisions_agree(core, g, *state):
    for k in range(-1, 4):
        assert _pykernels.has_isolating_set(g.adj, g.order, k, *state) == core.has_isolating_set(g.adj, g.order, k, *state)
        assert _pykernels.has_dominating_set(g.adj, g.order, k, *state) == core.has_dominating_set(g.adj, g.order, k, *state)


def random_state(rng, n):
    # (covered, forbidden), each with a few bits at or above n, which both
    # backends ignore.
    return rng.getrandbits(n + 8), rng.getrandbits(n + 8) & rng.getrandbits(n + 8)


def test_decisions_identical_on_all_graphs_up_to_6(core):
    for n in range(1, 7):
        for line in lab.enumerate_all(n):
            assert_decisions_agree(core, G.parse_graph6(line))


def test_decisions_identical_on_all_graphs_of_order_7(core):
    lines = lab.enumerate_all(7)
    assert len(lines) == 1044
    for line in lines:
        assert_decisions_agree(core, G.parse_graph6(line))


def test_canon_identical_on_random_graphs(core):
    rng = random.Random(1234)
    from conftest import random_graph

    for _ in range(300):
        n = rng.randrange(1, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.4, 0.7]))
        assert_canon_agrees(core, g.adj, n)


SYMMETRIC = (
    G.complete_graph(9),
    G.empty_graph(9),
    G.cycle_graph(9),
    G.star_graph(8),
    G.from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)]),  # K44
)


def test_highly_symmetric_graphs(core):
    for g in SYMMETRIC:
        assert_canon_agrees(core, g.adj, g.order)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_automorphisms_of_symmetric_graphs(request, backend):
    kernels = _pykernels if backend == "python" else request.getfixturevalue("core")
    for g in SYMMETRIC:
        n = g.order
        edges = {frozenset((u, v)) for u in range(n) for v in G.iter_bits(g.adj[u])}
        _, _, orbits, auts = kernels.canon_form(g.adj, n)
        assert 0 < len(auts) <= _pykernels._AUT_CAP
        assert all(oracles.is_automorphism_ref(n, edges, gamma) for gamma in auts)
        assert orbits == oracles.orbit_minima_ref(n, auts)
        # each of these graphs is vertex-transitive or a star
        assert len(set(orbits)) == (2 if g == G.star_graph(8) else 1)


def test_identical_on_random_graphs_up_to_64(core):
    # n = 64 puts vertex 63 in the top bit of a 64-bit word.
    rng = random.Random(64)
    from conftest import random_graph

    top_bit_used = False
    for n in [64, 64, 63] + [rng.randrange(12, 65) for _ in range(33)]:
        g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.3, 0.6]))
        top_bit_used |= n == 64 and g.adj[63] != 0
        assert_canon_agrees(core, g.adj, n)
        assert_decisions_agree(core, g)
    assert top_bit_used


def test_core_rejects_inputs_it_cannot_hold(core):
    for fn, extra in ((core.canon_form, ()), (core.has_isolating_set, (1,)),
                      (core.has_dominating_set, (1,))):
        with pytest.raises(ValueError):
            fn((0,) * 65, 65, *extra)
        with pytest.raises(IndexError):
            fn((0, 0), 3, *extra)
        with pytest.raises(ValueError):
            fn((1 << 5, 1), 2, *extra)  # names vertex 5 of a 2-vertex graph


@pytest.mark.parametrize("backend", ["python", "c"])
def test_canon_rejects_last_outside_the_vertices(request, backend):
    kernels = _pykernels if backend == "python" else request.getfixturevalue("core")
    adj = G.path_graph(4).adj
    for last in (-2, 4, 5, 1 << 70, -(1 << 70)):
        with pytest.raises(ValueError):
            kernels.canon_form(adj, 4, last)
    with pytest.raises(ValueError):
        kernels.canon_form((), 0, 0)
    with pytest.raises(TypeError):
        kernels.canon_form(adj, 4, 0.5)
    assert kernels.canon_form((), 0, -1) == ([], b"", [], [])


def test_core_canon_takes_two_or_three_arguments(core):
    adj = G.path_graph(4).adj
    assert core.canon_form(adj, 4, -1) == core.canon_form(adj, 4)
    with pytest.raises(TypeError):
        core.canon_form(adj, 4, 3, 0)
    with pytest.raises(TypeError):
        core.canon_form(adj)


def test_start_state_identical_on_all_graphs_up_to_6(core):
    rng = random.Random(36)
    for n in range(1, 7):
        for line in lab.enumerate_all(n):
            g = G.parse_graph6(line)
            assert_decisions_agree(core, g, 0, 0)
            for _ in range(4):
                assert_decisions_agree(core, g, *random_state(rng, n))


def test_start_state_identical_on_random_graphs_up_to_64(core):
    rng = random.Random(65)
    from conftest import random_graph

    for n in [64, 64] + [rng.randrange(7, 65) for _ in range(30)]:
        g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.3]))
        for _ in range(3):
            assert_decisions_agree(core, g, *random_state(rng, n))


def test_start_state_takes_both_masks_or_neither(core):
    g = G.path_graph(4)
    for fn in (core.has_isolating_set, core.has_dominating_set):
        assert fn(g.adj, 4, 1) == fn(g.adj, 4, 1, 0, 0)
        with pytest.raises(TypeError):
            fn(g.adj, 4, 1, 0)
        with pytest.raises(TypeError):
            fn(g.adj, 4, 1, 0, 0, 0)
