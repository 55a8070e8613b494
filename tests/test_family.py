import json
import random
from itertools import combinations

import pytest

from isolab import family as F
from isolab import graphs as G
from isolab import lab
from isolab import solvers as S


def full_scan_candidate_blocks(g):
    """The previous candidate search, kept as the reference: K2 blocks as
    in the library, C5 blocks from every 5-cycle of the whole graph."""
    cands = []
    for p in range(g.order):
        for q in G.bit_list(g.adj[p]):
            if q <= p:
                continue
            ext = (g.adj[p] | g.adj[q]) & ~((1 << p) | (1 << q))
            if ext.bit_count() != 1:
                continue
            h = ext.bit_length() - 1
            attach = tuple(i for i, v in enumerate((p, q)) if (g.adj[h] >> v) & 1)
            cands.append(F._Block("K2", (p, q), h, attach, (1 << p) | (1 << q)))
    seen = set()
    for cyc in G.cycles_of_length(g, 5):
        mask = G.bits_of(cyc)
        if mask in seen:
            continue
        seen.add(mask)
        if any((g.adj[v] & mask).bit_count() != 2 for v in cyc):
            continue
        ext = 0
        for v in cyc:
            ext |= g.adj[v]
        ext &= ~mask
        if ext.bit_count() != 1:
            continue
        h = ext.bit_length() - 1
        order = G.cycle_walk(g, mask, min(cyc))
        attach = tuple(i for i, v in enumerate(order) if (g.adj[h] >> v) & 1)
        if F.is_c5_vertex_cover(attach):
            continue
        cands.append(F._Block("C5", tuple(order), h, attach, mask))
    cands.sort(key=lambda c: (min(c.verts), c.kind, c.verts, c.hook))
    return cands


def k1():
    return G.empty_graph(1)


class TestAttachmentValidity:
    def test_vertex_cover_test_matches_literal_description(self):
        # "one, or any two, or three consecutive" == nonempty non-covers
        literal = {(v,) for v in range(5)}
        literal |= set(combinations(range(5), 2))
        literal |= {tuple(sorted({v, (v + 1) % 5, (v + 2) % 5})) for v in range(5)}
        assert set(F.valid_c5_attachments()) == literal
        assert len(F.valid_c5_attachments()) == 20

    def test_all_31_subsets_decided(self):
        valid = set(F.valid_c5_attachments())
        for size in range(1, 6):
            for combo in combinations(range(5), size):
                assert (combo in valid) == (not F.is_c5_vertex_cover(combo))

    def test_full_cycle_is_cover(self):
        spec = F.FamilySpec(k1(), (F.PendantAttachment("C5", (0, 1, 2, 3, 4)),))
        assert F.validate_spec(spec)

    def test_nonconsecutive_pair_valid(self):
        spec = F.FamilySpec(k1(), (F.PendantAttachment("C5", (0, 2)),))
        assert F.validate_spec(spec) == []

    def test_empty_attachment_invalid(self):
        spec = F.FamilySpec(k1(), (F.PendantAttachment("K2", ()),))
        assert F.validate_spec(spec)

    def test_nonconsecutive_triple_invalid(self):
        spec = F.FamilySpec(k1(), (F.PendantAttachment("C5", (0, 1, 3)),))
        problems = F.validate_spec(spec)
        assert problems and "covers" in problems[0]


class TestBuild:
    def test_k1_with_c5_pendant(self):
        spec = F.FamilySpec(k1(), (F.PendantAttachment("C5", (0,)),))
        g = F.build_family_graph(spec)
        assert g.order == 6
        assert S.isolation_number(g).value == 2
        assert S.domination_number(g).value == 2

    def test_k2_base_two_k2_pendants(self):
        spec = F.FamilySpec(
            G.from_edges(2, [(0, 1)]),
            (F.PendantAttachment("K2", (0,)), F.PendantAttachment("K2", (0,))),
        )
        g = F.build_family_graph(spec)
        assert g.order == 6
        assert S.isolation_number(g).value == 2
        assert S.domination_number(g).value == 2

    def test_p3_and_k3_are_members(self):
        p3 = F.build_family_graph(F.FamilySpec(k1(), (F.PendantAttachment("K2", (0,)),)))
        assert G.canonical_code(p3) == G.canonical_code(G.path_graph(3))
        k3 = F.build_family_graph(F.FamilySpec(k1(), (F.PendantAttachment("K2", (0, 1)),)))
        assert G.canonical_code(k3) == G.canonical_code(G.complete_graph(3))

    def test_invalid_attachment_raises(self):
        spec = F.FamilySpec(k1(), (F.PendantAttachment("C5", (0, 1, 3)),))
        with pytest.raises(F.InvalidAttachment):
            F.build_family_graph(spec)

    def test_disconnected_base_raises(self):
        base = G.empty_graph(2)
        spec = F.FamilySpec(
            base, (F.PendantAttachment("K2", (0,)), F.PendantAttachment("K2", (0,)))
        )
        with pytest.raises(F.DisconnectedBase):
            F.build_family_graph(spec)

    def test_cut_vertex_when_base_nontrivial(self):
        for seed in range(40):
            spec = F.random_family_spec(12, seed)
            if spec.base.order < 2:
                continue
            g = F.build_family_graph(spec)
            assert G.cut_vertices(g) != 0


class TestCertificates:
    def test_hook_set_examples(self):
        spec = F.FamilySpec(k1(), (F.PendantAttachment("K2", (0,)),))
        assert F.hook_isolating_set(spec) == 1  # just the hook, size 3/3

        spec = F.FamilySpec(k1(), (F.PendantAttachment("C5", (0,)),))
        hs = F.hook_isolating_set(spec)
        g = F.build_family_graph(spec)
        assert hs.bit_count() == 2 and S.is_isolating(g, hs)

    def test_hook_set_cannot_always_dominate(self):
        # For a singleton C5 attachment no minimum dominating set contains
        # the hook at all, so an isolating certificate is the strongest
        # hook-containing guarantee available.
        spec = F.FamilySpec(k1(), (F.PendantAttachment("C5", (0,)),))
        g = F.build_family_graph(spec)
        assert S.domination_number(g).value == 2
        for combo in combinations(range(6), 2):
            if 0 in combo:
                assert not S.is_dominating(g, G.bits_of(combo))

    def test_both_certificates_across_random_specs(self):
        for seed in range(120):
            order = [3, 6, 9, 12, 15, 18][seed % 6]
            spec = F.random_family_spec(order, seed)
            g = F.build_family_graph(spec)
            hs = F.hook_isolating_set(spec)
            assert hs.bit_count() == order // 3
            assert hs & ((1 << spec.base.order) - 1) == (1 << spec.base.order) - 1
            assert S.is_isolating(g, hs)
            bd = F.block_dominating_set(spec)
            assert bd.bit_count() == order // 3
            assert S.is_dominating(g, bd)
            assert S.is_isolating(g, bd)


class TestRecognition:
    def test_round_trip_on_generated_specs(self):
        for seed in range(1000):
            order = [3, 6, 9, 12, 15, 18][seed % 6]
            spec = F.random_family_spec(order, seed)
            g = F.build_family_graph(spec)
            rec = F.recognize_family(g)
            assert rec is not None, seed
            assert F.validate_spec(rec) == []
            assert G.canonical_code(F.build_family_graph(rec)) == G.canonical_code(g)

    def test_candidates_match_full_scan_on_all_connected_graphs_up_to_8(self):
        for n in range(1, 9):
            for line in lab.enumerate_connected(n):
                g = G.parse_graph6(line)
                assert F._candidate_blocks(g) == full_scan_candidate_blocks(g), line

    def test_candidates_match_full_scan_on_relabeled_members(self):
        rng = random.Random(10)
        for seed in range(300):
            spec = F.random_family_spec(rng.choice(range(9, 31, 3)), seed)
            g = F.build_family_graph(spec)
            perm = list(range(g.order))
            rng.shuffle(perm)
            g = G.relabel(g, perm)
            cands = F._candidate_blocks(g)
            assert cands == full_scan_candidate_blocks(g), seed
            assert sum(c.kind == "C5" for c in cands) >= sum(
                p.kind == "C5" for p in spec.pendants
            )

    def test_non_members_rejected(self):
        for g in (
            G.cycle_graph(5),
            G.cycle_graph(6),
            G.cycle_graph(9),
            G.complete_graph(6),
            G.star_graph(5),
        ):
            assert F.recognize_family(g) is None

    def test_path6_is_a_member(self):
        # base edge, two pendant edges: the classic extremal path
        spec = F.recognize_family(G.path_graph(6))
        assert spec is not None and spec.base.order == 2

    def test_wrong_order_rejected(self):
        assert F.recognize_family(G.path_graph(4)) is None

    def test_deterministic(self):
        spec = F.random_family_spec(12, 3)
        g = F.build_family_graph(spec)
        assert F.recognize_family(g) == F.recognize_family(g)


class TestSampler:
    def test_deterministic_given_seed(self):
        assert F.random_family_spec(30, 7) == F.random_family_spec(30, 7)
        assert F.random_family_spec(30, 7) != F.random_family_spec(30, 8)

    def test_order_3_unique_shape(self):
        spec = F.random_family_spec(3, 123)
        assert spec.base.order == 1 and spec.pendants[0].kind == "K2"

    def test_order_6_shapes(self):
        shapes = set()
        for seed in range(60):
            spec = F.random_family_spec(6, seed)
            shapes.add(tuple(p.kind for p in spec.pendants))
        assert shapes <= {("C5",), ("K2", "K2")}
        assert len(shapes) == 2

    def test_infeasible_order(self):
        with pytest.raises(ValueError):
            F.random_family_spec(7, 0)


class TestWireFormat:
    def test_json_round_trip(self):
        spec = F.random_family_spec(15, 9)
        data = F.spec_to_json(spec)
        text = json.dumps(data)
        back = F.spec_from_json(json.loads(text))
        assert back == spec

    def test_schema_shape(self):
        spec = F.FamilySpec(k1(), (F.PendantAttachment("C5", (0, 2)),))
        data = F.spec_to_json(spec)
        assert set(data) == {"base", "pendants"}
        assert data["base"] == "@"
        assert data["pendants"] == [{"kind": "C5", "attach": [0, 2]}]
