import random
import time
from itertools import combinations

import pytest

import oracles
from conftest import random_graph
from isolab import _backend, _pykernels
from isolab import graphs as G
from isolab import lab
from isolab import solvers as S


def as_edges(g):
    return {frozenset(e) for e in g.edges()}


class TestPredicates:
    def test_isolating_examples(self):
        c5 = G.cycle_graph(5)
        assert not S.is_isolating(c5, 1 << 0)
        assert S.is_isolating(c5, G.bits_of([0, 2]))
        assert S.is_isolating(G.star_graph(3), 1 << 0)

    def test_dominating_examples(self):
        c5 = G.cycle_graph(5)
        assert S.is_dominating(c5, G.bits_of([0, 2]))
        assert not S.is_dominating(c5, 1 << 0)
        assert S.is_dominating(G.star_graph(3), 1 << 0)

    def test_distance2_examples(self):
        assert S.is_distance2_dominating(G.cycle_graph(5), 1 << 0)
        assert S.is_distance2_dominating(G.path_graph(5), 1 << 2)
        assert not S.is_distance2_dominating(G.path_graph(7), 1 << 0)

    def test_hierarchy(self, small_connected):
        # dominating => isolating => distance-2 dominating (no isolated
        # vertices in connected graphs of order >= 2)
        rng = random.Random(0)
        for n in (4, 5, 6):
            for g in small_connected[n]:
                for _ in range(8):
                    x = rng.randrange(1 << n)
                    if S.is_dominating(g, x):
                        assert S.is_isolating(g, x)
                    if S.is_isolating(g, x):
                        assert S.is_distance2_dominating(g, x)


class TestMinimizers:
    def test_examples(self):
        assert S.isolation_number(G.cycle_graph(5)).value == 2
        assert S.isolation_number(G.from_edges(2, [(0, 1)])).value == 1
        assert S.isolation_number(G.empty_graph(6)).value == 0
        assert S.isolation_number(G.empty_graph(0)).value == 0
        assert S.domination_number(G.cycle_graph(5)).value == 2
        assert S.domination_number(G.star_graph(3)).value == 1
        assert S.domination_number(G.corona_of_complete(4)).value == 4

    def test_against_oracle_exhaustive_order5(self, small_connected):
        for g in small_connected[5]:
            edges = as_edges(g)
            want_i, wit_i = oracles.min_param_ref(5, edges, oracles.isolating_ref)
            want_d, wit_d = oracles.min_param_ref(5, edges, oracles.dominating_ref)
            ri = S.isolation_number(g)
            rd = S.domination_number(g)
            assert (ri.value, G.bit_list(ri.witness)) == (want_i, list(wit_i))
            assert (rd.value, G.bit_list(rd.witness)) == (want_d, list(wit_d))

    def test_against_oracle_random(self):
        rng = random.Random(17)
        for _ in range(150):
            n = rng.randrange(1, 8)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            edges = as_edges(g)
            want_i, wit_i = oracles.min_param_ref(n, edges, oracles.isolating_ref)
            ri = S.isolation_number(g)
            assert (ri.value, G.bit_list(ri.witness)) == (want_i, list(wit_i))

    def test_disconnected_adds_up(self):
        a = G.cycle_graph(5)
        b = G.star_graph(3)
        u = G.disjoint_union(a, b)
        assert S.isolation_number(u).value == S.isolation_number(a).value + S.isolation_number(b).value
        assert S.domination_number(u).value == S.domination_number(a).value + S.domination_number(b).value

    def test_witness_validity(self, small_connected):
        for n in (4, 6):
            for g in small_connected[n]:
                r = S.isolation_number(g)
                assert r.witness.bit_count() == r.value
                assert S.is_isolating(g, r.witness)
                assert not S.has_isolating_set(g, r.value - 1)


class TestExtremal:
    def test_examples(self):
        assert S.is_extremal(G.path_graph(3))
        assert S.is_extremal(G.complete_graph(3))
        # settled by brute force: both are extremal
        assert S.is_extremal(G.cycle_graph(6))
        assert S.is_extremal(G.cycle_graph(9))
        assert not S.is_extremal(G.cycle_graph(5))
        assert not S.is_extremal(G.star_graph(5))  # order 6, iota 1

    def test_matches_direct_definition(self, small_connected):
        for g in small_connected[6]:
            direct = S.isolation_number(g).value == 2
            assert S.is_extremal(g) == direct


def scan_witness(g, value, predicate):
    """The lex-least witness by scanning combinations, as the solvers once did."""
    for combo in combinations(range(g.order), value):
        x = G.bits_of(combo)
        if predicate(g, x):
            return x
    return None


def assert_witnesses_match_scan(g):
    for solve, predicate in (
        (S.isolation_number, S.is_isolating),
        (S.domination_number, S.is_dominating),
    ):
        r = solve(g)
        assert r.witness == scan_witness(g, r.value, predicate)


def sparse_connected_graph(n, seed):
    # A random tree plus n // 4 further edges.
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return G.from_edges(n, sorted(edges))


class TestWitnessWalk:
    def test_matches_scan_on_all_graphs_up_to_7(self):
        for n in range(1, 8):
            for line in lab.enumerate_all(n):
                assert_witnesses_match_scan(G.parse_graph6(line))

    def test_matches_scan_on_connected_order_8(self):
        for line in lab.enumerate_connected(8):
            assert_witnesses_match_scan(G.parse_graph6(line))

    def test_matches_scan_on_random_graphs_up_to_16(self):
        rng = random.Random(16)
        for _ in range(200):
            n = rng.randrange(1, 17)
            assert_witnesses_match_scan(
                random_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.6]))
            )

    def test_isolating_sets_of_size_match_brute_force(self, small_connected):
        above_iota = 0
        for n in range(1, 7):
            for g in small_connected[n]:
                iota = S.isolation_number(g).value
                for k in range(4):
                    want = [
                        G.bits_of(c)
                        for c in combinations(range(n), k)
                        if S.is_isolating(g, G.bits_of(c))
                    ]
                    assert list(S.isolating_sets_of_size(g, k)) == want
                    above_iota += k > iota and bool(want)
        assert above_iota > 0

    def test_walk_that_finds_nothing_raises(self):
        def decide(adj, n, k, covered=None, forbidden=None):
            # claims a set of size 1 exists, then refutes every completion
            return covered is None and k >= 1

        with pytest.raises(RuntimeError):
            S._lex_least(G.path_graph(3), decide)

    def test_45_vertices_on_python_kernels(self, monkeypatch):
        monkeypatch.setattr(_backend, "has_isolating_set", _pykernels.has_isolating_set)
        monkeypatch.setattr(_backend, "has_dominating_set", _pykernels.has_dominating_set)
        g = sparse_connected_graph(45, 45)
        start = time.perf_counter()
        r = S.isolation_number(g)
        d = S.domination_number(g)
        assert time.perf_counter() - start < 30
        assert S.is_isolating(g, r.witness) and not S.has_isolating_set(g, r.value - 1)
        assert S.is_dominating(g, d.witness) and not S.has_dominating_set(g, d.value - 1)
        assert r.witness.bit_count() == r.value and d.witness.bit_count() == d.value

    def test_64_vertices_on_core(self, monkeypatch, core):
        monkeypatch.setattr(_backend, "has_isolating_set", core.has_isolating_set)
        g = sparse_connected_graph(64, 64)
        start = time.perf_counter()
        r = S.isolation_number(g)
        assert time.perf_counter() - start < 30
        assert S.is_isolating(g, r.witness) and not S.has_isolating_set(g, r.value - 1)
        assert r.witness.bit_count() == r.value
