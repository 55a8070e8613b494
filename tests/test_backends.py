"""The compiled core and the pure-Python fallback must be interchangeable."""

import functools
import os
import random
import re
import time
import types

import oracles
import pytest

from isolab import _backend, _pykernels
from isolab import graphs as G
from isolab import lab


def kernels_of(request, backend):
    return _pykernels if backend == "python" else request.getfixturevalue("core")


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
        assert_canon_agrees(core, oracles.relabel(g, perm).adj, n)


def test_canon_identical_on_all_graphs_up_to_6(core):
    rng = random.Random(6)
    for n in range(1, 7):
        assert_canon_agrees_in_two_labelings(core, rng, n, lab.enumerate_all(n))


@pytest.mark.parametrize("n", [7, 8])
def test_canon_identical_on_all_graphs_of_order(core, n):
    lines = lab.enumerate_all(n)
    assert_canon_agrees_in_two_labelings(core, random.Random(n), n, lines)


KERNEL_QUERIES = tuple(name for name, _ in oracles.KERNEL_DECISIONS + oracles.KERNEL_WALKS)


def assert_decisions_agree(core, g, *state):
    # The decisions and the walks, for k = -1..3.
    for name in KERNEL_QUERIES:
        ours, theirs = getattr(_pykernels, name), getattr(core, name)
        for k in range(-1, 4):
            assert ours(g.adj, g.order, k, *state) == theirs(g.adj, g.order, k, *state), (name, k)


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
def test_order_zero_graph_solves_to_zero(request, use_backend, backend):
    # The minimizers have no order-0 case of their own: both kernels decide
    # k = 0 on the empty graph, and the witness walk yields the empty set.
    from isolab import solvers as S

    use_backend(kernels_of(request, backend))
    empty = G.empty_graph(0)
    assert S.domination_number(empty) == S.SolveResult(0, 0)
    assert S.isolation_number(empty) == S.SolveResult(0, 0)


def test_use_backend_rebinds_every_kernel_and_returns_the_previous(use_backend):
    names = ("canon_form",) + KERNEL_QUERIES
    assert len(names) == 5
    fake = types.SimpleNamespace(BACKEND_NAME="fake", **{name: object() for name in names})
    before = _backend.kernels
    assert use_backend(fake) is before
    assert _backend.kernels is fake and _backend.backend_name() == "fake"
    for name in names:
        assert getattr(_backend, name) is getattr(fake, name)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_automorphisms_of_symmetric_graphs(request, backend):
    kernels = kernels_of(request, backend)
    for g in SYMMETRIC:
        n = g.order
        edges = {frozenset((u, v)) for u in range(n) for v in G.bit_list(g.adj[u])}
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


def test_walks_identical_at_the_value_on_random_graphs_up_to_64(core):
    # The lex-least witness at the least k with one, and from a start state
    # at the least k the state leaves, where the walks take every position.
    rng = random.Random(640)
    from conftest import random_graph

    values = set()
    for n in [64, 64] + [rng.randrange(12, 65) for _ in range(14)]:
        g = random_graph(rng, n, rng.choice([0.2, 0.3, 0.5]))
        for state in ((), random_state(rng, n)):
            for (name, _), (walk, _) in zip(oracles.KERNEL_DECISIONS, oracles.KERNEL_WALKS):
                k = 0
                while not getattr(core, name)(g.adj, n, k, *state) and k <= n:
                    k += 1
                values.add(k)
                want = getattr(core, walk)(g.adj, n, k, *state)
                assert (want >= 0) == (k <= n)
                assert getattr(_pykernels, walk)(g.adj, n, k, *state) == want, (walk, n, k, state)
    assert max(values) >= 6


def test_core_rejects_inputs_it_cannot_hold(core):
    queries = [(getattr(core, name), (1,)) for name in KERNEL_QUERIES]
    for fn, extra in [(core.canon_form, ())] + queries:
        with pytest.raises(ValueError):
            fn((0,) * 65, 65, *extra)
        with pytest.raises(IndexError):
            fn((0, 0), 3, *extra)
        with pytest.raises(ValueError):
            fn((1 << 5, 1), 2, *extra)  # names vertex 5 of a 2-vertex graph


@pytest.mark.parametrize("backend", ["python", "c"])
def test_canon_rejects_last_outside_the_vertices(request, backend):
    kernels = kernels_of(request, backend)
    adj = G.path_graph(4).adj
    for last in (-2, 4, 5, 1 << 70, -(1 << 70)):
        with pytest.raises(ValueError):
            kernels.canon_form(adj, 4, last)
    with pytest.raises(ValueError):
        kernels.canon_form((), 0, 0)
    with pytest.raises(TypeError):
        kernels.canon_form(adj, 4, 0.5)
    assert kernels.canon_form((), 0, -1) == ([], b"", [], [])


@pytest.mark.parametrize("backend", ["python", "c"])
def test_canon_takes_two_to_four_positional_arguments(request, backend):
    kernels = kernels_of(request, backend)
    adj = G.path_graph(4).adj
    flip = [3, 2, 1, 0]
    plain = kernels.canon_form(adj, 4)
    assert kernels.canon_form(adj, 4, -1) == plain
    assert kernels.canon_form(adj, 4, -1, ()) == plain
    seeded = kernels.canon_form(adj, 4, 2, [flip])
    assert seeded[:2] == plain[:2] and seeded[2] == [0, 1, 1, 0] and seeded[3][0] == flip
    assert kernels.canon_form(adj, 4, 2, (bytes(flip),)) == seeded
    assert kernels.canon_form(adj, 4, 0, [flip]) is None
    # wrong length, a repeated image, an image >= n, a negative image
    for bad in ([0, 1, 2], [3, 2, 1, 0, 4], [0, 0, 1, 2], [0, 1, 2, 4], [0, 1, 2, -1],
                [0, 1, 2, 1 << 70]):
        with pytest.raises(ValueError):
            kernels.canon_form(adj, 4, -1, [flip, bad])
        with pytest.raises(ValueError):
            kernels.canon_form(adj, 4, 0, [bad])  # checked before the root exit
        if all(0 <= w < 256 for w in bad):
            with pytest.raises(ValueError):
                kernels.canon_form(adj, 4, -1, [bytes(bad)])
    for bad in (5, [5], [None], [[0, 1, 2, 3.0]], ["0123"]):
        with pytest.raises(TypeError):
            kernels.canon_form(adj, 4, -1, bad)
    with pytest.raises(TypeError):
        kernels.canon_form(adj)
    with pytest.raises(TypeError):
        kernels.canon_form(adj, 4, -1, (), 0)
    with pytest.raises(TypeError):
        kernels.canon_form(adj, 4, last=-1)
    assert kernels.canon_form((), 0, -1, [[]]) == ([], b"", [], [[]])
    with pytest.raises(ValueError):
        kernels.canon_form((), 0, -1, [[0]])


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


def small_oracle_cases(rng):
    """(graph, covered, forbidden): every graph up to order 6 from nothing
    and from three start states drawn from ``rng``."""
    for n in range(1, 7):
        for line in lab.enumerate_all(n):
            g = G.parse_graph6(line)
            yield g, 0, 0
            for _ in range(3):
                yield g, *random_state(rng, n)


def oracle_cases():
    """(graph, covered, forbidden, largest k): ``small_oracle_cases`` with k
    up to n, then seeded random graphs of order 7 to 11 from two start
    states, with k up to 5. The larger budgets are where the kernels'
    packing bound runs."""
    from conftest import random_graph

    rng = random.Random(66)
    for g, covered, forbidden in small_oracle_cases(rng):
        yield g, covered, forbidden, g.order
    for _ in range(40):
        n = rng.randrange(7, 12)
        g = random_graph(rng, n, rng.choice([0.1, 0.15, 0.25, 0.4]))
        yield g, 0, 0, 5
        # about a quarter covered and an eighth forbidden, so that budgets
        # of 3 and more still arise
        covered = rng.getrandbits(n) & rng.getrandbits(n)
        forbidden = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
        yield g, covered, forbidden, 5


@functools.cache
def oracle_table():
    table = []
    for g, covered, forbidden, top in oracle_cases():
        edges = {frozenset(e) for e in g.edges()}
        for name, ref in oracles.KERNEL_DECISIONS:
            want = [oracles.decide_ref(g.order, edges, k, covered, forbidden, ref)
                    for k in range(-1, top + 1)]
            table.append((g, covered, forbidden, name, want))
    return table


@pytest.mark.parametrize("backend", ["python", "c"])
def test_decisions_match_the_scan_oracle(request, backend):
    kernels = kernels_of(request, backend)
    bad = []
    for g, covered, forbidden, name, want in oracle_table():
        decide = getattr(kernels, name)
        got = [decide(g.adj, g.order, k, covered, forbidden) for k in range(-1, len(want) - 1)]
        if got != want:
            bad.append((name, G.write_graph6(g), covered, forbidden, got, want))
    assert bad == []


@functools.cache
def walk_table():
    """(graph, covered, forbidden, walk, [first_ref at k = 0..n+1]) for the
    graphs and start states up to order 6 that ``oracle_table`` holds."""
    table = []
    for g, covered, forbidden in small_oracle_cases(random.Random(66)):
        edges = {frozenset(e) for e in g.edges()}
        for name, ref in oracles.KERNEL_WALKS:
            want = [oracles.first_ref(g.order, edges, k, covered, forbidden, ref)
                    for k in range(g.order + 2)]
            table.append((g, covered, forbidden, name, want))
    return table


@pytest.mark.parametrize("backend", ["python", "c"])
def test_walks_match_the_lex_oracle(request, backend):
    kernels = kernels_of(request, backend)
    bad = []
    found = 0
    for g, covered, forbidden, name, want in walk_table():
        walk = getattr(kernels, name)
        got = [walk(g.adj, g.order, k, covered, forbidden) for k in range(len(want))]
        found += sum(x >= 0 for x in want)
        if got != want:
            bad.append((name, G.write_graph6(g), covered, forbidden, got, want))
    assert bad == []
    assert 0 < found < sum(len(want) for *_, want in walk_table())


@pytest.mark.parametrize("backend", ["python", "c"])
def test_walks_refuse_k_outside_the_order(request, backend):
    # An exact-size walk has no answer below 0 or above n, however large k.
    kernels = kernels_of(request, backend)
    adj = G.path_graph(3).adj
    for name, _ in oracles.KERNEL_WALKS:
        walk = getattr(kernels, name)
        assert walk(adj, 3, 3) == 0b111
        assert walk(adj, 3, 2, 0, 0b001) == 0b110
        assert walk(adj, 3, 3, 0, 0b001) == -1  # too few allowed vertices
        for k in (-1, 4, 2**63, -(2**63), 2**63 - 1, -(2**63) - 1, 1 << 70, -(1 << 70)):
            assert walk(adj, 3, k) == -1
            assert walk(adj, 3, k, 0, 0) == -1


@pytest.mark.parametrize("backend", ["python", "c"])
def test_walks_ignore_mask_bits_at_or_above_n(request, backend):
    kernels = kernels_of(request, backend)
    g = G.cycle_graph(6)
    high = (1 << 6) | (1 << 40) | (1 << 63)
    for name, _ in oracles.KERNEL_WALKS:
        walk = getattr(kernels, name)
        for covered, forbidden in ((0, 0), (0b000011, 0b100000), (0b001000, 0b000101)):
            for k in range(-1, 8):
                want = walk(g.adj, 6, k, covered, forbidden)
                assert walk(g.adj, 6, k, covered | high, forbidden | high) == want
                assert walk(g.adj, 6, k, covered | high, forbidden) == want


@pytest.mark.parametrize("backend", ["python", "c"])
def test_decisions_take_any_integer_k(request, backend):
    # No set needs more than n vertices, so a k past a machine word is
    # still a k on both backends.
    kernels = kernels_of(request, backend)
    for name, _ in oracles.KERNEL_DECISIONS:
        decide = getattr(kernels, name)
        for k in (2**63, 1 << 70):
            assert decide((2, 1), 2, k) is True
            assert decide((2, 1), 2, k, 0, 3) is False  # every vertex forbidden
        for k in (-(2**63) - 1, -(1 << 70)):
            assert decide((2, 1), 2, k) is False


@pytest.mark.parametrize("backend", ["python", "c"])
def test_start_state_takes_three_to_five_positional_arguments(request, backend):
    # covered alone means forbidden = 0 on both backends, and a keyword
    # call fails on both, so a call that runs on one runs on the other.
    kernels = kernels_of(request, backend)
    g = G.cycle_graph(6)
    for name in KERNEL_QUERIES:
        fn = getattr(kernels, name)
        for k in range(-1, 5):
            assert fn(g.adj, 6, k) == fn(g.adj, 6, k, 0, 0), (name, k)
            for covered in (0b000001, 0b000110, 0b101010, 0b111111):
                assert fn(g.adj, 6, k, covered) == fn(g.adj, 6, k, covered, 0), (name, k)
        with pytest.raises(TypeError):
            fn(g.adj, 6, 1, covered=1)
        with pytest.raises(TypeError):
            fn(g.adj, 6, 1, covered=1, forbidden=0)
        with pytest.raises(TypeError):
            fn(g.adj, 6)
        with pytest.raises(TypeError):
            fn(g.adj, 6, 1, 0, 0, 0)


def test_core_constants_match_the_python_kernels():
    # A drift in BOUND_MIN_BUDGET changes no answer, only where the bound
    # runs, so no parity test could see it.
    source = os.path.join(os.path.dirname(lab.__file__), "_core.c")
    with open(source) as f:
        defines = dict(re.findall(r"^#define (\w+) (\d+)\b", f.read(), re.M))
    assert int(defines["BOUND_MIN_BUDGET"]) == _pykernels.BOUND_MIN_BUDGET
    assert int(defines["AUT_CAP"]) == _pykernels._AUT_CAP


def independent_free_state(rng, g):
    """(covered, forbidden): about a quarter of the vertices covered and an
    eighth forbidden, but never a vertex of one random maximal independent
    set, which both isolates and dominates, so that both decisions have a
    value of at most n."""
    n = g.order
    covered = rng.getrandbits(n) & rng.getrandbits(n)
    forbidden = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
    free = (1 << n) - 1
    for v in rng.sample(range(n), n):
        if free >> v & 1:
            forbidden &= ~(1 << v)
            free &= ~(g.adj[v] | 1 << v)
    return covered, forbidden


def test_decisions_identical_around_the_value_on_sparse_graphs_up_to_64(core):
    # The decision corpora above stop at k = 3 on large graphs, but the
    # packing bound and the target scan do most of their work at high
    # budgets: here the value and one below, from two start states.
    from test_solvers import sparse_connected_graph

    rng = random.Random(2064)
    values = set()
    for n in [64] + [rng.randrange(20, 65) for _ in range(7)]:
        g = sparse_connected_graph(n, rng.randrange(1 << 16))
        for state in ((0, 0), independent_free_state(rng, g)):
            for name, _ in oracles.KERNEL_DECISIONS:
                theirs = getattr(core, name)
                k = next(k for k in range(n + 1) if theirs(g.adj, n, k, *state))
                values.add(k)
                for j in (k - 1, k):
                    got = getattr(_pykernels, name)(g.adj, n, j, *state)
                    assert got == (j == k), (name, G.write_graph6(g), state, j)
    assert max(values) >= 20


# Graphs from a seeded stream of small random connected graphs on which the
# walk at the value first finds a completion that is not lex-least and
# replaces it, so that it makes two accepting searches.
REPLACED_COMPLETIONS = (
    ("first_dominating_set", "H?W?l@{"),
    ("first_dominating_set", "HDQFOcg"),
    ("first_isolating_set", "L?Ca?aOJQWAoG?"),
    ("first_isolating_set", "Ls?II__AGD?A`G"),
)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_walks_that_replace_their_first_completion_match_the_lex_oracle(request, backend):
    kernels = kernels_of(request, backend)
    refs = dict(oracles.KERNEL_WALKS)
    for name, line in REPLACED_COMPLETIONS:
        g = G.parse_graph6(line)
        edges = {frozenset(e) for e in g.edges()}
        walk = getattr(kernels, name)
        for k in range(g.order + 2):
            want = oracles.first_ref(g.order, edges, k, 0, 0, refs[name])
            assert walk(g.adj, g.order, k) == want, (name, line, k)


def test_dead_target_scan_matches_its_definition():
    rng = random.Random(2031)
    dead = cases = 0
    for g, covered, forbidden in small_oracle_cases(rng):
        full = (1 << g.order) - 1
        edges = {frozenset(e) for e in g.edges()}
        for predicate, tgt in (
            (oracles.isolating_ref, g.adj),
            (oracles.dominating_ref, _pykernels._SELF_ROWS),
        ):
            want = oracles.dead_target_ref(g.order, edges, covered, forbidden, predicate)
            got = _pykernels._dead_target(g.adj, tgt, full & ~covered, forbidden & full)
            assert got == want, (G.write_graph6(g), covered, forbidden, predicate)
            dead += want
            cases += 1
    assert 0 < dead < cases


@pytest.mark.parametrize("backend", ["python", "c"])
def test_a_start_state_with_a_dead_edge_is_refuted_at_once(request, backend):
    # Edge (25, 39) has every chooser forbidden, so no budget suffices;
    # without the start-state scan Python took seconds per call.
    from test_solvers import sparse_connected_graph

    kernels = kernels_of(request, backend)
    g = sparse_connected_graph(62, 59698)
    covered, forbidden = 0x203C000268110001, 0x88C8013000008
    for fn, k, want in (
        (kernels.has_isolating_set, 31, False),
        (kernels.has_isolating_set, 62, False),
        (kernels.first_isolating_set, 31, -1),
    ):
        start = time.perf_counter()
        assert fn(g.adj, 62, k, covered, forbidden) == want
        assert time.perf_counter() - start < 0.1
    # The same state without the dead edge's forbidden choosers is solvable.
    assert kernels.has_isolating_set(g.adj, 62, 62, covered, 0)
