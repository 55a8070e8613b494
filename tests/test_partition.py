import hashlib
import os
import random
import re
import subprocess
import sys
from itertools import product

import pytest

import oracles
from conftest import (
    leafy_and_dense_graphs,
    random_connected_graph,
    random_min_degree3,
    random_sparse_connected,
    random_subdivision,
    random_theta,
    random_tree,
)
from isolab import family as F
from isolab import graphs as G
from isolab import lab
from isolab import partition as P
from isolab import solvers as S
from isolab.partition import (
    EngineGap,
    TraceStep,
    NoValidPartition,
    TriPartition,
    is_c5,
    partition3,
    replay_trace,
    verify_partition,
)


# sha256 of the engine output over the graphs of test_trace_bytes_pinned.
PINNED_TRACE_SHA256 = "18d19cc129a9388a4d4a4b2dea7c6a266fe50a98e1a8f5eda3397d066a03c23c"

# sha256 of the engine output over leafy_and_dense_graphs(), computed on the
# engine that ran a full cut-vertex search at every level.
LEAFY_DENSE_TRACE_SHA256 = "34c3d6ff061857ea0771d048621a5529f938f51a94aa358e41d950e9bd95ee5a"

# 2-connected graphs of minimum degree at least 3, whose cycles of length
# divisible by 3 the engine's cycle rung must find.
CUBE = G.from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
SQUARE_OF_C21 = G.from_edges(21, [(v, (v + d) % 21) for v in range(21) for d in (1, 2)])


@pytest.fixture(scope="module")
def leafy_and_dense():
    return leafy_and_dense_graphs()


@pytest.fixture(scope="module")
def engine_corpus(leafy_and_dense):
    """2000 connected graphs of order 9 to 64: the leafy and dense ones,
    then trees, sparse graphs, subdivisions, thetas and graphs of minimum
    degree 3."""
    rng = random.Random(71)
    graphs = list(leafy_and_dense)
    for _ in range(320):
        n = rng.randrange(9, G.MAX_ORDER + 1)
        graphs += [
            random_tree(rng, n),
            random_sparse_connected(rng, n),
            random_subdivision(rng, rng.choice([4, 5]), n),
            random_theta(rng, n),
            random_min_degree3(rng, n),
        ]
    return graphs


def engine_digest(graphs):
    """sha256 of the classes, leftover and trace partition3 gives each graph."""
    h = hashlib.sha256()
    for g in graphs:
        tp, steps = partition3(g)
        trace = [(s.kind, s.vertices, sorted(s.colors.items())) for s in steps]
        h.update(repr((tp.classes, tp.residual, trace)).encode() + b"\n")
    return h.hexdigest()


class TestOracleAgreement:
    def test_c5_has_no_partition_all_243(self):
        c5 = G.cycle_graph(5)
        edges = {frozenset(e) for e in c5.edges()}
        assert not oracles.has_valid_tripartition_ref(5, edges)
        assert oracles.exhaustive_partition3(c5) is None

    def test_exhaustive_oracle_guard(self):
        with pytest.raises(ValueError):
            oracles.exhaustive_partition3(G.empty_graph(21))

    def test_c5_raises(self):
        with pytest.raises(NoValidPartition):
            partition3(G.cycle_graph(5))
        with pytest.raises(NoValidPartition):
            partition3(G.parse_graph6("DLo"))  # canonical 5-cycle

    def test_uniqueness_of_c5_up_to_7(self, small_connected):
        # among connected graphs of orders 3..7 exactly C5 fails
        for n in range(3, 8):
            for g in small_connected[n]:
                has = oracles.exhaustive_partition3(g) is not None
                assert has == (not is_c5(g)), G.write_graph6(g)


class TestPreconditions:
    def test_small_orders_rejected(self):
        with pytest.raises(ValueError):
            partition3(G.from_edges(2, [(0, 1)]))
        with pytest.raises(ValueError):
            partition3(G.empty_graph(1))

    def test_disconnected_rejected(self):
        g = G.disjoint_union(G.complete_graph(3), G.complete_graph(3))
        with pytest.raises(ValueError):
            partition3(g)


class TestBaseCases:
    def test_c6_periodic(self):
        tp, steps = partition3(G.cycle_graph(6))
        assert steps[0].kind == "base-cycle"
        assert tp.residual == 0

    def test_c7_two_residual_vertices_far_apart(self):
        tp, _ = partition3(G.cycle_graph(7))
        vs = G.bit_list(tp.residual)
        assert len(vs) == 2
        d = abs(vs[0] - vs[1])
        assert min(d, 7 - d) >= 2

    def test_cycles_all_lengths(self):
        for n in (3, 4, 6, 7, 8, 9, 10, 11, 12):
            tp, steps = partition3(G.cycle_graph(n))
            ok, _, _ = verify_partition(G.cycle_graph(n), tp)
            assert ok
            assert tp.residual == 0 if n % 3 == 0 else tp.residual.bit_count() == 2

    def test_star_base(self):
        tp, steps = partition3(G.path_graph(3))
        assert steps[0].kind == "base-star"
        assert tp.residual == G.bits_of([0, 2])
        for leaves in (3, 4, 7):
            s = G.star_graph(leaves)
            tp, _ = partition3(s)
            assert tp.residual == s.full_mask & ~1


def _painted(rng, order, head=()):
    """The colors ``P._paint`` gives the walk ``order`` on 64 vertices, into
    class masks that already hold random bits off the walk; the returned
    mask must be the walk's vertices, and no other bit may change."""
    walk = G.bits_of(order)
    cls = [rng.getrandbits(64) & ~walk for _ in range(4)]
    before = list(cls)
    assert P._paint(cls, order, head) == walk
    assert [c & ~walk for c in cls] == before
    colors = {}
    for v in order:
        held = [c for c in P.COLORS if cls[c] >> v & 1]
        assert len(held) == 1 and not cls[0] >> v & 1, (order, head, v)
        colors[v] = held[0]
    return colors


class TestPainter:
    def test_cycle_heads(self):
        rng = random.Random(73)
        for n in range(3, 65):
            order = rng.sample(range(64), n)
            got = _painted(rng, order, P._HEADS[n % 3])
            assert got == oracles._cycle_base_coloring_ref(order), n

    def test_paths(self):
        rng = random.Random(79)
        for n in range(2, 65):
            order = rng.sample(range(64), n)
            assert _painted(rng, order) == {v: (i % 3) + 1 for i, v in enumerate(order)}, n

    def test_k2_and_c5_heads(self):
        # The forced color f, then the color neither f nor the anchor's.
        rng = random.Random(83)
        for vcol, f in product(P.COLORS, repeat=2):
            if f == vcol:
                continue
            second = 6 - f - vcol
            head = (f, second, vcol, f, second)
            w, u = rng.sample(range(64), 2)
            assert _painted(rng, (w, u), head) == {w: f, u: second}
            x1, x2, x3, x4, x5 = rng.sample(range(64), 5)
            assert _painted(rng, (x1, x2, x3, x4, x5), head) == {
                x1: f, x2: second, x3: vcol, x4: f, x5: second
            }


class TestSeparatingPath:
    def test_no_path_vertex_in_residual(self, small_connected):
        # wherever a separating-path step fires, its vertices stay covered
        for g in small_connected[6] + small_connected[7]:
            if is_c5(g):
                continue
            tp, steps = partition3(g)
            for s in steps:
                if s.kind == "separating-path":
                    for v in s.vertices:
                        assert not (tp.residual >> v) & 1


class TestEngineOnCatalogs:
    def test_full_small_corpus(self, small_connected):
        for n in range(3, 8):
            for g in small_connected[n]:
                if is_c5(g):
                    continue
                tp, steps = partition3(g)
                ok, res, bad = verify_partition(g, tp)
                assert ok, (G.write_graph6(g), bad)
                assert res == tp.residual
                assert {s.kind for s in steps} <= oracles.RUNGS
                assert all(tp.classes)
                coloring = {}
                for i, cls in enumerate(tp.classes):
                    for v in G.bit_list(cls):
                        coloring[v] = i + 1
                assert oracles.valid_tripartition_ref(
                    g.order, {frozenset(e) for e in g.edges()}, coloring
                )

    def test_random_sample_orders_9_to_16(self):
        rng = random.Random(2024)
        for _ in range(10000):
            g = random_connected_graph(rng, rng.randrange(9, 17))
            tp, steps = partition3(g)
            ok, _, bad = verify_partition(g, tp)
            assert ok, (G.write_graph6(g), bad)
            assert {s.kind for s in steps} <= oracles.RUNGS

    def test_trace_bytes_pinned(self, small_connected):
        # Every choice the engine makes is a minimum or an ascending order,
        # so its classes, leftover and trace are fixed bytes; this digest
        # pins them across refactors of the engine.
        graphs = [g for n in range(3, 8) for g in small_connected[n] if not is_c5(g)]
        rng = random.Random(2031)
        graphs += [random_connected_graph(rng, rng.randrange(9, 31)) for _ in range(300)]
        assert engine_digest(graphs) == PINNED_TRACE_SHA256

    def test_leafy_and_dense_trace_bytes_pinned(self, leafy_and_dense):
        # Leaves and minimum degree 3, which the random graphs above rarely
        # give: the cut-vertex rung on pendant families, the cycle rung on
        # the rest.
        assert engine_digest(leafy_and_dense) == LEAFY_DENSE_TRACE_SHA256

    def test_matches_the_dict_engine(self, engine_corpus):
        # Classes, leftover and every step of the trace, as the previous
        # engine gave them, over a corpus where that engine rewrote the
        # colors of forced sub-traces.
        swaps = oracles.FORCED_SWAPS_REF[0]
        for g in engine_corpus:
            tp, steps = partition3(g)
            ref_tp, ref_steps = oracles.partition3_ref(g)
            assert tp == ref_tp, G.write_graph6(g)
            assert [(s.kind, s.vertices, sorted(s.colors.items())) for s in steps] == [
                (s.kind, s.vertices, sorted(s.colors.items())) for s in ref_steps
            ], G.write_graph6(g)
        assert oracles.FORCED_SWAPS_REF[0] - swaps > 100

    def test_steps_color_each_vertex_once_in_vertex_order(self, engine_corpus):
        # The CLI writes each step's colors in the order they are held.
        for g in engine_corpus:
            _, steps = partition3(g)
            colored = []
            for s in steps:
                vs = list(s.colors)
                assert vs == sorted(vs), G.write_graph6(g)
                colored += vs
            assert sorted(colored) == list(range(g.order)), G.write_graph6(g)

    def test_determinism(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randrange(6, 13))
            first = partition3(g)
            second = partition3(g)
            assert first[0] == second[0]
            assert [(s.kind, s.vertices, s.colors) for s in first[1]] == [
                (s.kind, s.vertices, s.colors) for s in second[1]
            ]


def _cut_vertex_free_degree_two(g):
    deg2 = G.bits_of(v for v in range(g.order) if g.degree(v) == 2)
    return deg2 if deg2 and not G.cut_vertices(g) else 0


class TestReductionInputs:
    # The degree-2 rung's bounded searches and the cut-vertex rung's reused
    # components must give the engine exactly what it computed before.

    def test_degree_two_cycle_matches_unbounded_search(self, small_connected, monkeypatch):
        # No search runs once a triangle is the best cycle: its limit of 1
        # would leave every vertex but the root unreached.
        limits = []
        search = P._bfs_shortest_path

        def searching(g, src, dst, mask, limit=None):
            limits.append(limit)
            return search(g, src, dst, mask, limit)

        monkeypatch.setattr(P, "_bfs_shortest_path", searching)
        graphs = [g for n in range(3, 8) for g in small_connected[n]]
        graphs += [G.parse_graph6(line) for line in lab.enumerate_connected(8)]
        rng = random.Random(59)
        for _ in range(120):
            n = rng.randrange(9, G.MAX_ORDER + 1)
            graphs.append(random_subdivision(rng, rng.choice([4, 5]), n))
            graphs.append(random_theta(rng, n))
        checked = stopped = 0
        for g in graphs:
            deg2 = _cut_vertex_free_degree_two(g)
            if deg2:
                checked += 1
                got = P._degree_two_cycle(g, g.full_mask, deg2)
                assert got == oracles.degree_two_cycle_ref(g, g.full_mask, deg2), (
                    G.write_graph6(g)
                )
                stopped += len(got) == 3 and got[0] != G.bit_list(deg2)[-1]
        assert checked > 2000 and stopped > 100
        assert 1 not in limits

    def test_engine_steps_on_random_graphs(self, monkeypatch):
        # Each separating path holds 1, 2, 3 repeating, x holds 3 and y the
        # color missing at the path's end, once its components are colored;
        # every colored step leaves the components of its mask without the
        # vertices it colored.
        masks, seen = [], {"degree-2": 0, "separating-path": 0, "cycle-mod-3": 0}
        solve, cycle, path_reduce = P._solve, P._degree_two_cycle, P._path_reduce
        color_components = P._color_components

        def solving(g, mask, *rest):
            masks.append(mask)
            try:
                return solve(g, mask, *rest)
            finally:
                masks.pop()

        def cycling(g, mask, deg2):
            seen["degree-2"] += 1
            got = cycle(g, mask, deg2)
            assert got == oracles.degree_two_cycle_ref(g, mask, deg2)
            return got

        def color_of(cls, v):
            held = [c for c in P.COLORS if cls[c] >> v & 1]
            assert len(held) == 1, v
            return held[0]

        def reducing(g, comps, path, x, y, cls, steps):
            path_reduce(g, comps, path, x, y, cls, steps)
            colors = [color_of(cls, v) for v in path]
            assert colors == [(i % 3) + 1 for i in range(len(path))]
            assert color_of(cls, x) == 3
            assert color_of(cls, y) == 6 - colors[-1] - colors[-2]

        def coloring(g, comps, anchors, step, *rest):
            seen[step[0]] += 1
            assert comps == G.masked_components(g, masks[-1] & ~step[2])
            return color_components(g, comps, anchors, step, *rest)

        monkeypatch.setattr(P, "_solve", solving)
        monkeypatch.setattr(P, "_degree_two_cycle", cycling)
        monkeypatch.setattr(P, "_path_reduce", reducing)
        monkeypatch.setattr(P, "_color_components", coloring)
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randrange(9, G.MAX_ORDER + 1)
            for g in (
                random_connected_graph(rng, n),
                random_tree(rng, n),
                random_sparse_connected(rng, n),
                random_subdivision(rng, rng.choice([4, 5]), n),
                random_theta(rng, n),
            ):
                tp, _ = partition3(g)
                assert verify_partition(g, tp)[0]
        assert seen["degree-2"] > 100 and seen["separating-path"] > 1000
        assert seen["cycle-mod-3"] > 100, seen


def _leaves(g, mask):
    return G.bits_of(v for v in G.bit_list(mask) if (g.adj[v] & mask).bit_count() == 1)


def _random_connected_mask(rng, g):
    size = rng.randrange(3, g.order + 1)
    mask = 1 << rng.randrange(g.order)
    while mask.bit_count() < size:
        mask |= 1 << rng.choice(G.bit_list(G.closed_neighborhood(g, mask) & ~mask))
    return mask


def _cycle_with_high_pendant():
    """The 63-cycle with a pendant on its highest vertex: 62 probes below
    the leaf bound, each growing most of the cycle."""
    return G.from_edges(64, [(v, (v + 1) % 63) for v in range(63)] + [(62, 63)])


@pytest.fixture
def searches(monkeypatch):
    """A one-item list counting the engine's full lowpoint searches."""
    count = [0]
    full_search = P.cut_vertices

    def counting(g, mask):
        count[0] += 1
        return full_search(g, mask)

    monkeypatch.setattr(P, "cut_vertices", counting)
    return count


class TestLeastCutVertex:
    def test_matches_closures(self, searches):
        # The least bit of the reference cut-vertex set, through each of the
        # helper's three ways to an answer: the probes, the lowpoint search
        # once the probe budget runs out, and that search on a mask with no
        # leaves.
        branches = {"probe": 0, "budget": 0, "no-leaf": 0}

        def check(g, mask):
            sub, keep = G.induced_subgraph(g, mask)
            want = oracles.closure_cut_vertices(sub)
            want = 1 << keep[(want & -want).bit_length() - 1] if want else 0
            ones = _leaves(g, mask)
            before = searches[0]
            assert P._least_cut_vertex(g, mask, ones) == want, (G.write_graph6(g), mask)
            if not ones:
                branches["no-leaf"] += 1
            else:
                branches["budget" if searches[0] > before else "probe"] += 1

        for n in range(3, 7):
            for line in lab.enumerate_all(n):
                g = G.parse_graph6(line)
                for mask in range(1, 1 << n):
                    if mask.bit_count() >= 3 and len(G.masked_components(g, mask)) == 1:
                        check(g, mask)
        rng = random.Random(67)
        for seed in range(30):
            for g in (random_tree(rng, 64), F.build_family_graph(F.random_family_spec(63, seed))):
                for _ in range(20):
                    check(g, _random_connected_mask(rng, g))
        g = _cycle_with_high_pendant()
        before = branches["budget"]
        check(g, g.full_mask)
        assert branches["budget"] == before + 1
        assert min(branches.values()) > 0, branches

    def test_cut_vertex_searches_do_not_grow(self, leafy_and_dense, searches):
        # 1858 masks reach the cut-vertex rung; the leaf bound and the
        # probes answer all but 1029 of them without a lowpoint search.
        for g in leafy_and_dense:
            partition3(g)
        assert searches[0] <= 1029

    def test_reduce_cut_vertex_refuses_other_vertices(self, small_connected):
        # Every vertex that is not a cut vertex raises, the least cut vertex
        # heads a cut-vertex step, and a star's center is left to the base
        # case.
        for n in range(3, 8):
            for g in small_connected[n]:
                cvs = oracles.closure_cut_vertices(g)
                for v in G.bit_list(g.full_mask & ~cvs):
                    with pytest.raises(RuntimeError, match="needs a cut vertex"):
                        P._reduce_cut_vertex(g, g.full_mask, 1 << v, [0, 0, 0, 0], [])
                least = cvs & -cvs
                if not least:
                    continue
                v = least.bit_length() - 1
                if g.degree(v) == n - 1 and g.edge_count() == n - 1:
                    with pytest.raises(RuntimeError, match="base case"):
                        P._reduce_cut_vertex(g, g.full_mask, least, [0, 0, 0, 0], [])
                else:
                    steps = []
                    P._reduce_cut_vertex(g, g.full_mask, least, [0, 0, 0, 0], steps)
                    kind, vertices, _ = steps[0]
                    assert (kind, vertices[0]) == ("cut-vertex", v)


class TestTrace:
    def test_replay_reproduces_partition(self):
        rng = random.Random(6)
        for _ in range(200):
            g = random_connected_graph(rng, rng.randrange(3, 13))
            if is_c5(g):
                continue
            tp, steps = partition3(g)
            assert replay_trace(g, steps) == tp

    def test_step_kinds_named(self):
        rng = random.Random(7)
        # Every rung of the reduction ladder shows up.
        seen = set()
        for _ in range(300):
            g = random_connected_graph(rng, rng.randrange(3, 13))
            if is_c5(g):
                continue
            _, steps = partition3(g)
            seen.update(s.kind for s in steps)
        assert seen == oracles.RUNGS

    def test_replay_rejects_bad_traces(self):
        g = G.path_graph(3)
        twice = [TraceStep("x", (0,), {0: 1, 1: 2}), TraceStep("y", (1,), {1: 3, 2: 1})]
        with pytest.raises(ValueError, match="twice"):
            replay_trace(g, twice)
        with pytest.raises(ValueError, match="every vertex"):
            replay_trace(g, [TraceStep("x", (0,), {0: 1, 1: 2})])

    @pytest.mark.parametrize("colors, message", [
        ({0: 0, 1: 2, 2: 1}, "color 0"),
        ({0: 4, 1: 2, 2: 1}, "color 4"),
        ({0: 1, 1: 2, 3: 3}, "vertex 3 of a 3-vertex graph"),
    ], ids=["color-0", "color-4", "vertex-n"])
    def test_replay_rejects_out_of_range(self, colors, message):
        with pytest.raises(ValueError, match=message):
            replay_trace(G.path_graph(3), [TraceStep("x", (0,), colors)])

    def test_replay_rejects_bad_trace_under_python_O(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(P.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "from isolab import graphs, partition\n"
            "try:\n"
            "    partition.replay_trace(graphs.path_graph(3), [])\n"
            "except ValueError as exc:\n"
            "    print('raised', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised")

    def test_broken_invariants_raise_under_python_O(self):
        # Each probe breaks one invariant of the reduction engine on a
        # 2-connected theta graph: a "cut vertex" that is none, a
        # shortest-path search that finds nothing, and a 5-cycle handed to
        # the solver. The engine must say so rather than run on. A rung that
        # leaves a vertex of P4 uncolored is an engine gap naming P4. The
        # last probes hide every cycle of length divisible by 3 from K4, the
        # 3-cube and the square of the 21-cycle: an engine gap naming the
        # graph at every order.
        p4 = G.write_graph6(G.path_graph(4))
        gaps = [G.complete_graph(4), CUBE, SQUARE_OF_C21]
        src = os.path.dirname(os.path.dirname(os.path.abspath(P.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "from isolab import graphs, partition\n"
            "theta = graphs.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 2)])\n"
            "def probe(call):\n"
            "    try:\n"
            "        call()\n"
            "    except (RuntimeError, partition.EngineGap) as exc:\n"
            "        print('raised', exc)\n"
            "cut_vertices = partition.cut_vertices\n"
            "partition.cut_vertices = lambda g, mask: 1\n"
            "probe(lambda: partition.partition3(theta))\n"
            "partition.cut_vertices = cut_vertices\n"
            "partition._bfs_shortest_path = lambda *args: None\n"
            "probe(lambda: partition.partition3(theta))\n"
            "c5 = graphs.cycle_graph(5)\n"
            "probe(lambda: partition._solve(c5, c5.full_mask, [0, 0, 0, 0], []))\n"
            "color = partition._color_components\n"
            "partition._color_components = lambda g, comps, *rest: color(g, comps[:-1], *rest)\n"
            f"probe(lambda: partition.partition3(graphs.parse_graph6({p4!r})))\n"
            "partition._color_components = color\n"
            "partition.find_cycle_len_mod3 = lambda g, mask: None\n"
            f"for line in {[G.write_graph6(g) for g in gaps]!r}:\n"
            "    probe(lambda: partition.partition3(graphs.parse_graph6(line)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised cut-vertex reduction needs a cut vertex",
            "raised degree-2 reduction requires 2-connectivity",
            "raised reduction needs order at least 3 and no 5-cycle",
            f"raised trace of graph {p4} does not replay: trace does not color every vertex",
        ] + [
            f"raised reduction dead-end on {g.order}-vertex graph {G.write_graph6(g)}: "
            "no cycle of length divisible by 3"
            for g in gaps
        ]


class TestRarePaths:
    @pytest.mark.parametrize("g", [G.complete_graph(4), CUBE], ids=["K4", "3-cube"])
    def test_no_cycle_mod3_is_engine_gap(self, g, monkeypatch):
        # The cycle-mod-3 rung is the last; on a 2-connected graph of
        # minimum degree 3 a search that finds no cycle is an engine gap.
        monkeypatch.setattr(P, "find_cycle_len_mod3", lambda g, mask: None)
        with pytest.raises(EngineGap, match=re.escape(G.write_graph6(g))):
            partition3(g)

    def test_dead_end_names_the_subgraph(self, monkeypatch):
        # The cut-vertex step at 0 (path 0-1) leaves the K4 on 3..6 to a
        # recursive solve, and the dead end names that K4, not the input.
        monkeypatch.setattr(P, "find_cycle_len_mod3", lambda g, mask: None)
        k4 = [(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]
        host = G.from_edges(7, [(0, 1), (1, 2), (0, 3)] + k4)
        k4_line = G.write_graph6(G.complete_graph(4))
        with pytest.raises(EngineGap, match=re.escape(f"4-vertex graph {k4_line}")):
            partition3(host)

    def test_unverified_result_is_engine_gap(self, monkeypatch):
        # A monochrome coloring replays, but its leftover is all of V.
        def mono(g, mask, cls, steps):
            cls[1] |= mask
            steps.append(("base-cycle", tuple(G.bit_list(mask)), mask))

        monkeypatch.setattr(P, "_solve", mono)
        g = G.cycle_graph(6)
        with pytest.raises(EngineGap, match=re.escape(G.write_graph6(g)) + r".*edge \(0, 1\)"):
            partition3(g)

    def test_classes_other_than_the_replayed_ones_are_engine_gap(self, monkeypatch):
        # A vertex put in two classes replays to one of them only.
        solve = P._solve

        def overlapping(g, mask, cls, steps):
            solve(g, mask, cls, steps)
            cls[3] |= cls[1] & -cls[1]

        monkeypatch.setattr(P, "_solve", overlapping)
        g = G.cycle_graph(6)
        with pytest.raises(EngineGap, match=re.escape(G.write_graph6(g)) + ".*other classes"):
            partition3(g)

    def test_trace_that_does_not_replay_is_engine_gap(self, monkeypatch):
        # Not a ValueError, which the CLI would print as a domain error.
        monkeypatch.setattr(P, "_solve", lambda g, mask, cls, steps: None)
        g = G.cycle_graph(6)
        with pytest.raises(EngineGap, match=re.escape(G.write_graph6(g)) + ".*every vertex"):
            partition3(g)

    def test_uncolored_vertex_is_engine_gap(self, monkeypatch):
        # The cut-vertex step at 1 on P4 (path 1-2) leaves the components
        # {0} and {3}; a rung that drops the last leaves vertex 3 uncolored,
        # and replay rejects the trace with the input graph named.
        color = P._color_components
        monkeypatch.setattr(
            P, "_color_components", lambda g, comps, *rest: color(g, comps[:-1], *rest)
        )
        g = G.path_graph(4)
        with pytest.raises(EngineGap, match=re.escape(G.write_graph6(g)) + ".*every vertex"):
            partition3(g)

    def test_dead_end_above_fallback_guard_is_engine_gap(self, monkeypatch):
        # K4 and a 21-vertex graph alike: the dead end raises at every order.
        monkeypatch.setattr(P, "find_cycle_len_mod3", lambda g, mask: None)
        for g in (G.complete_graph(4), SQUARE_OF_C21):
            with pytest.raises(EngineGap, match=re.escape(G.write_graph6(g))):
                partition3(g)


class TestVerifier:
    def test_rejects_one_class_coloring(self):
        g = G.cycle_graph(6)
        tp = TriPartition((g.full_mask, 0, 0), 0)
        ok, res, bad = verify_partition(g, tp)
        assert not ok and bad is not None
        assert res == g.full_mask

    def test_rejects_overlapping_classes(self):
        g = G.cycle_graph(6)
        tp = TriPartition((0b000111, 0b001110, 0b110000), 0)
        ok, _, _ = verify_partition(g, tp)
        assert not ok

    def test_rejects_all_243_on_c5(self):
        g = G.cycle_graph(5)
        for assign in product((1, 2, 3), repeat=5):
            classes = [0, 0, 0]
            for v, c in enumerate(assign):
                classes[c - 1] |= 1 << v
            tp = TriPartition(tuple(classes), 0)
            ok, _, _ = verify_partition(g, tp)
            assert not ok


class TestDisjointIsolating:
    def test_three_disjoint_isolating_sets(self, small_connected):
        for n in range(3, 8):
            for g in small_connected[n]:
                if is_c5(g):
                    continue
                a1, a2, a3 = oracles.disjoint_isolating_sets(g)
                assert a1 & a2 == a1 & a3 == a2 & a3 == 0
                assert a1 | a2 | a3 == g.full_mask
                for cls in (a1, a2, a3):
                    assert S.is_isolating(g, cls)
                    assert oracles.is_distance2_dominating(g, cls)

    def test_star_example(self):
        g = G.star_graph(3)
        for cls in oracles.disjoint_isolating_sets(g):
            assert S.is_isolating(g, cls)
