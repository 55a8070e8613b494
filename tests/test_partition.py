import hashlib
import logging
import os
import random
import re
import subprocess
import sys
from itertools import product

import pytest

import oracles
from conftest import random_connected_graph
from isolab import graphs as G
from isolab import partition as P
from isolab import solvers as S
from isolab.partition import (
    EngineGap,
    TraceStep,
    NoValidPartition,
    TriPartition,
    disjoint_isolating_sets,
    exhaustive_partition3,
    is_c5,
    partition3,
    replay_trace,
    separating_path_reduce,
    verify_partition,
)


# sha256 of the engine output over the graphs of test_trace_bytes_pinned.
PINNED_TRACE_SHA256 = "18d19cc129a9388a4d4a4b2dea7c6a266fe50a98e1a8f5eda3397d066a03c23c"


class TestOracleAgreement:
    def test_c5_has_no_partition_all_243(self):
        c5 = G.cycle_graph(5)
        edges = {frozenset(e) for e in c5.edges()}
        assert not oracles.has_valid_tripartition_ref(5, edges)
        assert exhaustive_partition3(c5) is None

    def test_c5_raises(self):
        with pytest.raises(NoValidPartition):
            partition3(G.cycle_graph(5))
        with pytest.raises(NoValidPartition):
            partition3(G.parse_graph6("DLo"))  # canonical 5-cycle

    def test_uniqueness_of_c5_up_to_7(self, small_connected):
        # among connected graphs of orders 3..7 exactly C5 fails
        for n in range(3, 8):
            for g in small_connected[n]:
                has = exhaustive_partition3(g) is not None
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


class TestSeparatingPath:
    def test_rejects_single_vertex_path(self):
        with pytest.raises(ValueError):
            separating_path_reduce(G.path_graph(3), [1], 0, 2)

    def test_single_edge_forces_both_to_three(self):
        g = G.path_graph(4)
        colors, forced = separating_path_reduce(g, [1, 2], 0, 3)
        assert colors == {1: 1, 2: 2}
        assert forced == {0: 3, 3: 3}

    def test_three_vertex_path_forces_missing_color(self):
        g = G.path_graph(5)
        colors, forced = separating_path_reduce(g, [1, 2, 3], 0, 4)
        assert colors == {1: 1, 2: 2, 3: 3}
        assert forced == {0: 3, 4: 1}

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
                assert not any(s.kind == "exhaustive-fallback" for s in steps)
                assert all(tp.classes)
                coloring = {}
                for i, cls in enumerate(tp.classes):
                    for v in G.iter_bits(cls):
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
            assert not any(s.kind == "exhaustive-fallback" for s in steps)

    def test_trace_bytes_pinned(self, small_connected):
        # Every choice the engine makes is a minimum or an ascending order,
        # so its classes, leftover and trace are fixed bytes; this digest
        # pins them across refactors of the engine.
        graphs = [g for n in range(3, 8) for g in small_connected[n] if not is_c5(g)]
        rng = random.Random(2031)
        graphs += [random_connected_graph(rng, rng.randrange(9, 31)) for _ in range(300)]
        h = hashlib.sha256()
        for g in graphs:
            tp, steps = partition3(g)
            trace = [(s.kind, s.vertices, sorted(s.colors.items())) for s in steps]
            h.update(repr((tp.classes, tp.residual, trace)).encode() + b"\n")
        assert h.hexdigest() == PINNED_TRACE_SHA256

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
        allowed = {
            "base-star", "base-cycle", "cycle-mod-3", "separating-path",
            "cut-vertex", "degree-2", "separating-cycle", "endgame-cycle",
            "exhaustive-fallback",
        }
        seen = set()
        for _ in range(300):
            g = random_connected_graph(rng, rng.randrange(3, 13))
            if is_c5(g):
                continue
            _, steps = partition3(g)
            for s in steps:
                assert s.kind in allowed
                seen.add(s.kind)
        assert {"base-star", "base-cycle", "cycle-mod-3", "separating-path"} <= seen

    def test_replay_rejects_bad_traces(self):
        g = G.path_graph(3)
        twice = [TraceStep("x", (0,), {0: 1, 1: 2}), TraceStep("y", (1,), {1: 3, 2: 1})]
        with pytest.raises(ValueError, match="twice"):
            replay_trace(g, twice)
        with pytest.raises(ValueError, match="every vertex"):
            replay_trace(g, [TraceStep("x", (0,), {0: 1, 1: 2})])

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
        # the solver. The engine must say so rather than run on.
        src = os.path.dirname(os.path.dirname(os.path.abspath(P.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "from isolab import graphs, partition\n"
            "theta = graphs.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 2)])\n"
            "def probe(call):\n"
            "    try:\n"
            "        call()\n"
            "    except RuntimeError as exc:\n"
            "        print('raised', exc)\n"
            "cut_vertices = partition.cut_vertices\n"
            "partition.cut_vertices = lambda g, mask: 1\n"
            "probe(lambda: partition.partition3(theta))\n"
            "partition.cut_vertices = cut_vertices\n"
            "partition._bfs_shortest_path = lambda *args: None\n"
            "probe(lambda: partition.partition3(theta))\n"
            "c5 = graphs.cycle_graph(5)\n"
            "probe(lambda: partition._solve(c5, c5.full_mask))\n"
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
        ]


class TestRarePaths:
    def test_separating_cycle_reduction_directly(self):
        # No graph reaches this rung through the normal flow (a cycle of
        # length divisible by 3 always shows up first), so drive it by hand:
        # a 4-cycle separating two single vertices.
        from isolab.partition import _colors_to_partition, _reduce_separating_cycle

        g = G.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 5)])
        reduced = _reduce_separating_cycle(g, g.full_mask)
        assert reduced is not None
        colors, steps = reduced
        assert steps[0].kind == "separating-cycle"
        assert any(s.kind == "separating-path" for s in steps)
        tp = _colors_to_partition(g, colors)
        ok, _, bad = verify_partition(g, tp)
        assert ok, bad

    def test_exhaustive_fallback_directly(self):
        from isolab.partition import _colors_to_partition, _exhaust

        g = G.cycle_graph(6)
        colors, steps = _exhaust(g, g.full_mask)
        assert steps[0].kind == "exhaustive-fallback"
        ok, _, _ = verify_partition(g, _colors_to_partition(g, colors))
        assert ok
        # On a proper mask it colors the induced subgraph in h's numbering.
        h = G.disjoint_union(G.path_graph(3), g)
        colors_h, steps_h = _exhaust(h, h.full_mask & ~0b111)
        assert colors_h == {v + 3: c for v, c in colors.items()}
        assert steps_h[0].vertices == tuple(range(3, 9))

    def test_exhaustive_fallback_warning_names_the_graph(self, caplog):
        g = G.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        # The same subgraph, alone and inside a graph with a pendant vertex.
        h = G.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 4)])
        for host in (g, h):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="isolab.partition"):
                P._exhaust(host, 0b1111)
            assert any(G.write_graph6(g) in r.getMessage() for r in caplog.records)

    def test_failed_fallback_raises(self, monkeypatch):
        # Both the engine and the fallback return a monochrome coloring,
        # which never verifies; the result must not be returned.
        def mono(g, mask):
            return {v: 1 for v in G.iter_bits(mask)}, []

        monkeypatch.setattr(P, "_solve", mono)
        monkeypatch.setattr(P, "_exhaust", mono)
        with pytest.raises(RuntimeError):
            partition3(G.cycle_graph(6))

    def test_exhaustive_fallback_raises_on_c5(self):
        from isolab.partition import _exhaust

        with pytest.raises(NoValidPartition):
            c5 = G.cycle_graph(5)
            _exhaust(c5, c5.full_mask)

    def test_dead_end_above_fallback_guard_is_engine_gap(self, monkeypatch, caplog):
        g = G.path_graph(P.EXHAUSTIVE_MAX_ORDER + 1)
        monkeypatch.setattr(P, "_solve", P._exhaust)
        with caplog.at_level(logging.WARNING, logger="isolab.partition"):
            with pytest.raises(EngineGap, match=re.escape(G.write_graph6(g))):
                partition3(g)
        # No fallback runs, so none is announced.
        assert not any("running exhaustive fallback" in r.getMessage() for r in caplog.records)

    def test_exhaustive_oracle_guard(self):
        with pytest.raises(ValueError):
            exhaustive_partition3(G.empty_graph(21))


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
                a1, a2, a3 = disjoint_isolating_sets(g)
                assert a1 & a2 == a1 & a3 == a2 & a3 == 0
                assert a1 | a2 | a3 == g.full_mask
                for cls in (a1, a2, a3):
                    assert S.is_isolating(g, cls)
                    assert S.is_distance2_dominating(g, cls)

    def test_star_example(self):
        g = G.star_graph(3)
        for cls in disjoint_isolating_sets(g):
            assert S.is_isolating(g, cls)
