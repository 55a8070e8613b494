import random
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_connected_graph, random_graph
from isolab import graphs as G
from isolab import lab
from isolab.partition import is_c5


def all_labeled_graphs(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k in range(len(pairs) + 1):
        for es in combinations(pairs, k):
            yield G.from_edges(n, es)


def bitwise_parse_graph6(text):
    """The previous decoder, kept as the reference: the same checks, then
    one body bit at a time, each set bit placed by a square-root column
    search."""
    line = text.rstrip("\n")
    if not line:
        raise G.Graph6Error("empty graph6 string", 0)
    for i, ch in enumerate(line):
        if not "?" <= ch <= "~":
            raise G.Graph6Error(f"character {ch!r} out of graph6 range", i)
    data = line.encode("ascii")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise G.Graph6Error("eight-byte order header exceeds supported range", 1)
        if len(data) < 4:
            raise G.Graph6Error("truncated long-form order header", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n <= 62:
            raise G.Graph6Error("long-form header used for order <= 62", 0)
        body, body_off = data[4:], 4
    else:
        n = data[0] - 63
        body, body_off = data[1:], 1
    if n > G.MAX_ORDER:
        raise G.Graph6Error(f"order {n} exceeds supported maximum {G.MAX_ORDER}", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise G.Graph6Error("graph6 body truncated", body_off + len(body))
    if len(body) > need:
        raise G.Graph6Error("unexpected trailing bytes", body_off + need)
    adj = [0] * n
    bit_index = 0
    for bi, c in enumerate(body):
        for k in range(5, -1, -1):
            bit = ((c - 63) >> k) & 1
            if bit_index < nbits:
                if bit:
                    j = int(((8 * bit_index + 1) ** 0.5 - 1) / 2) + 1
                    while j * (j - 1) // 2 > bit_index:
                        j -= 1
                    while (j + 1) * j // 2 <= bit_index:
                        j += 1
                    i = bit_index - j * (j - 1) // 2
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            elif bit:
                raise G.Graph6Error("nonzero padding bits", body_off + bi)
            bit_index += 1
    return G.Graph(n, tuple(adj))


def closure_cut_vertices(g):
    """The previous cut-vertex search, kept as the reference: one
    connectivity closure per vertex."""
    if g.order <= 2:
        return 0
    out = 0
    for v in range(g.order):
        mask = g.full_mask ^ (1 << v)
        if G._closure(g, mask & -mask, mask) != mask:
            out |= 1 << v
    return out


def rooted_cycles_of_length(g, length):
    """The previous unmasked cycle enumerator, kept as the reference."""
    path = []

    def extend(v, used):
        if len(path) == length:
            if (g.adj[v] >> path[0]) & 1 and path[1] < path[-1]:
                yield tuple(path)
            return
        for w in G.iter_bits(g.adj[v] & ~used):
            if w < path[0]:
                continue
            path.append(w)
            yield from extend(w, used | (1 << w))
            path.pop()

    for r in range(g.order):
        path[:] = [r]
        yield from extend(r, 1 << r)


class TestGraphType:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            G.Graph(2, (0b01, 0b01))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            G.Graph(2, (0b10, 0b00))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            G.Graph(2, (0b100, 0b000))

    def test_rejects_order_beyond_cap(self):
        with pytest.raises(ValueError):
            G.Graph(65, (0,) * 65)

    def test_edges_and_degree(self):
        g = G.cycle_graph(5)
        assert g.edge_count() == 5
        assert all(g.degree(v) == 2 for v in range(5))


class TestGraph6:
    def test_k2_is_A_underscore(self):
        assert G.write_graph6(G.from_edges(2, [(0, 1)])) == "A_"
        assert G.parse_graph6("A_") == G.from_edges(2, [(0, 1)])

    def test_single_vertex(self):
        assert G.write_graph6(G.empty_graph(1)) == "@"

    def test_order_zero(self):
        assert G.write_graph6(G.empty_graph(0)) == "?"
        assert G.parse_graph6("?").order == 0

    def test_roundtrip_all_labeled_order5(self):
        # Against the independent reference decoder as well.
        for g in all_labeled_graphs(5):
            line = G.write_graph6(g)
            assert G.parse_graph6(line) == g
            n, edges = oracles.decode_graph6_reference(line)
            assert n == 5
            assert edges == {frozenset(e) for e in g.edges()}

    def test_roundtrip_long_form_orders(self):
        rng = random.Random(5)
        for n in (63, 64):
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.1:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            g = G.Graph(n, tuple(adj))
            line = G.write_graph6(g)
            assert line.startswith("~")
            assert G.parse_graph6(line) == g

    def test_error_character_out_of_range(self):
        with pytest.raises(G.Graph6Error) as exc:
            G.parse_graph6("D" + chr(30) + "{")
        assert exc.value.offset == 1

    @pytest.mark.parametrize("line, offset", [
        ("\u00e9", 0),
        ("D\u00e9c", 1),
        ("\udcff\udcfe", 0),
    ], ids=["non-ascii", "non-ascii-in-body", "undecodable-byte"])
    def test_error_non_ascii_rejected_not_replaced(self, line, offset):
        # Bytes that are not UTF-8 arrive from the CLI as lone surrogates.
        with pytest.raises(G.Graph6Error) as exc:
            G.parse_graph6(line)
        assert exc.value.offset == offset

    def test_error_trailing_bytes(self):
        with pytest.raises(G.Graph6Error) as exc:
            G.parse_graph6("A_x")
        assert exc.value.offset == 2

    def test_error_truncated_body(self):
        with pytest.raises(G.Graph6Error):
            G.parse_graph6("D?")

    def test_error_nonzero_padding(self):
        # K2 body uses one bit; flip a padding bit.
        with pytest.raises(G.Graph6Error) as exc:
            G.parse_graph6("A" + chr(63 + 0b100001))
        assert exc.value.offset == 1

    def test_error_order_beyond_cap(self):
        line = "~" + chr(63) + chr(64 + 1) + chr(63 + 1)  # order 65
        with pytest.raises(G.Graph6Error):
            G.parse_graph6(line)

    def test_error_eight_byte_header(self):
        with pytest.raises(G.Graph6Error):
            G.parse_graph6("~~????")

    def test_matches_bitwise_decoder_at_every_order(self):
        rng = random.Random(6)
        for n in range(G.MAX_ORDER + 1):
            for p in (0.1, 0.5, 0.9):
                line = G.write_graph6(random_graph(rng, n, p))
                assert G.parse_graph6(line) == bitwise_parse_graph6(line)

    @pytest.mark.parametrize("line, offset", [
        ("", 0),
        ("A" + chr(63 + 0b000001), 1),  # order 2: one edge bit, five padding
        ("B" + chr(63 + 0b000100), 1),  # order 3: three edge bits, three padding
        ("~??~" + "?" * 325 + chr(63 + 1), 329),  # order 63: three padding bits
        ("G" + "??" + chr(30) + "??", 3),  # bad character mid-body
        ("G??\u00e9??", 3),
        ("G????", 5),  # body truncated
        ("G?????x", 6),  # body overlong
        ("~" + "?" * 336, 0),  # long-form header for order 0
        ("~?", 2),  # long-form header truncated
        ("~~????", 1),
        ("~?@@", 0),  # order 65
    ])
    def test_errors_match_bitwise_decoder(self, line, offset):
        with pytest.raises(G.Graph6Error) as old:
            bitwise_parse_graph6(line)
        with pytest.raises(G.Graph6Error) as new:
            G.parse_graph6(line)
        assert str(new.value) == str(old.value)
        assert new.value.offset == old.value.offset == offset

    def test_order_64_has_no_padding(self):
        # 64 * 63 / 2 bits fill 336 bytes exactly, so every bit of the last
        # byte is an edge of vertex 63.
        line = "~?@?" + "?" * 335 + "~"
        g = G.parse_graph6(line)
        assert g == bitwise_parse_graph6(line)
        assert G.bit_list(g.adj[63]) == list(range(57, 63))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10), st.randoms(use_true_random=False))
    def test_roundtrip_random(self, n, rnd):
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rnd.random() < 0.5:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        g = G.Graph(n, tuple(adj))
        assert G.parse_graph6(G.write_graph6(g)) == g


class TestNeighborhoods:
    def test_closed_neighborhood_on_cycle(self):
        c5 = G.cycle_graph(5)
        assert G.closed_neighborhood(c5, 1 << 0) == G.bits_of([4, 0, 1])

    def test_empty_set(self):
        assert G.closed_neighborhood(G.cycle_graph(5), 0) == 0

    def test_star_center_dominates(self):
        s = G.star_graph(3)
        assert G.closed_neighborhood(s, 1 << 0) == s.full_mask

    def test_symmetry(self, small_connected):
        for g in small_connected[5]:
            for u in range(5):
                nu = G.closed_neighborhood(g, 1 << u)
                for v in range(5):
                    nv = G.closed_neighborhood(g, 1 << v)
                    assert bool((nu >> v) & 1) == bool((nv >> u) & 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    def test_monotone(self, n, rnd):
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rnd.random() < 0.4:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        g = G.Graph(n, tuple(adj))
        x = rnd.randrange(1 << n)
        y = x | rnd.randrange(1 << n)
        assert G.closed_neighborhood(g, x) & ~G.closed_neighborhood(g, y) == 0


class TestConnectivity:
    def test_components_cycle(self):
        assert G.components(G.cycle_graph(5)) == [G.cycle_graph(5).full_mask]

    def test_components_disjoint_union(self):
        g = G.disjoint_union(G.from_edges(2, [(0, 1)]), G.complete_graph(3))
        assert G.components(g) == [0b00011, 0b11100]

    def test_components_empty(self):
        assert G.components(G.empty_graph(0)) == []

    def test_cut_vertices_path(self):
        assert G.cut_vertices(G.path_graph(3)) == 0b010

    def test_cut_vertices_cycle(self):
        assert G.cut_vertices(G.cycle_graph(6)) == 0

    def test_cut_vertices_bowtie(self):
        g = G.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert G.cut_vertices(g) == 0b00100

    def test_cut_vertices_disconnected(self):
        # Every vertex counts, except an isolated one whose removal leaves
        # one component.
        assert G.cut_vertices(G.empty_graph(3)) == 0b111
        g = G.disjoint_union(G.cycle_graph(4), G.empty_graph(1))
        assert G.cut_vertices(g) == 0b01111
        g = G.disjoint_union(G.path_graph(2), G.path_graph(2))
        assert G.cut_vertices(g) == 0b1111

    def test_cut_vertices_match_closures_on_all_graphs_up_to_7(self):
        # Every isomorphism class, connected or not, in its catalog labeling
        # and in one shuffled labeling.
        rng = random.Random(7)
        for n in range(1, 8):
            for line in lab.enumerate_all(n):
                g = G.parse_graph6(line)
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, G.relabel(g, perm)):
                    assert G.cut_vertices(h) == closure_cut_vertices(h), line

    def test_cut_vertices_match_closures_on_random_connected_graphs(self):
        rng = random.Random(8)
        for _ in range(2000):
            g = random_connected_graph(rng, rng.randrange(3, G.MAX_ORDER + 1))
            assert G.cut_vertices(g) == closure_cut_vertices(g)

    def test_bfs_tree_least_parent(self):
        # Vertex 3 is reached from 2 and from 4 on the same level; 2 wins.
        parent, depth = G.bfs_tree(G.cycle_graph(6), 0, 0b111111)
        assert parent == [-1, 0, 1, 2, 5, 0]
        assert depth == [0, 1, 2, 3, 2, 1]

    def test_bfs_tree_inside_mask(self):
        parent, depth = G.bfs_tree(G.cycle_graph(6), 0, 0b111011)
        assert parent == [-1, 0, -1, 4, 5, 0]
        assert depth == [0, 1, -1, 3, 2, 1]


class TestCycles:
    def test_cycle_walk(self):
        assert G.cycle_walk(G.cycle_graph(6), 0b111111, 3) == [3, 2, 1, 0, 5, 4]
        two_triangles = G.disjoint_union(G.complete_graph(3), G.complete_graph(3))
        assert G.cycle_walk(two_triangles, 0b111000, 4) == [4, 3, 5]

    def test_cycles_match_previous_enumerator(self, small_connected):
        rng = random.Random(9)
        for n in range(3, 8):
            for g in small_connected[n]:
                mask = rng.randrange(1 << n)
                for length in range(3, n + 1):
                    cycles = list(rooted_cycles_of_length(g, length))
                    assert list(G.cycles_of_length(g, length)) == cycles
                    inside = [c for c in cycles if G.bits_of(c) & ~mask == 0]
                    assert list(G.cycles_of_length(g, length, mask)) == inside

    def test_c6_found(self):
        cp = G.find_cycle_len_mod3(G.cycle_graph(6))
        assert cp is not None and cp.closed and len(cp.vertices) == 6

    def test_c5_absent(self):
        assert G.find_cycle_len_mod3(G.cycle_graph(5)) is None

    def test_petersen_six_cycle(self):
        pet = G.from_edges(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6),
             (6, 8), (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
        )
        cp = G.find_cycle_len_mod3(pet)
        assert cp is not None and len(cp.vertices) == 6
        vs = cp.vertices
        for i in range(6):
            assert pet.has_edge(vs[i], vs[(i + 1) % 6])
        assert len(set(vs)) == 6

    def test_shortest_preferred(self):
        # Triangle hanging off a 6-cycle: the 3-cycle must win.
        g = G.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (1, 6)])
        cp = G.find_cycle_len_mod3(g)
        assert len(cp.vertices) == 3


def connected_mask(rng, g, size):
    """A connected vertex set of at most ``size`` vertices, grown from a
    random vertex one random neighbor at a time."""
    mask = 1 << rng.randrange(g.order)
    while mask.bit_count() < size:
        frontier = G.closed_neighborhood(g, mask) & ~mask
        if not frontier:
            break
        mask |= 1 << rng.choice(G.bit_list(frontier))
    return mask


class TestMasks:
    """Each masked helper equals the unmasked one on the induced subgraph,
    mapped back through its increasing vertex map."""

    @staticmethod
    def check(g, mask):
        sub, keep = G.induced_subgraph(g, mask)

        def back(x):
            return G.bits_of(keep[v] for v in G.iter_bits(x))

        assert G.cut_vertices(g, mask) == back(G.cut_vertices(sub))
        cp = G.find_cycle_len_mod3(sub)
        want = None if cp is None else G.CyclePath(tuple(keep[v] for v in cp.vertices), True)
        assert G.find_cycle_len_mod3(g, mask) == want
        # A prefix keeps dense masks from enumerating exponentially many cycles.
        cycles = [tuple(keep[v] for v in c) for c in islice(G.iter_simple_cycles(sub), 300)]
        assert list(islice(G.iter_simple_cycles(g, mask), 300)) == cycles
        assert is_c5(g, mask) == is_c5(sub)

    def test_random_masks_on_all_graphs_up_to_7(self):
        rng = random.Random(12)
        for n in range(1, 8):
            for line in lab.enumerate_all(n):
                g = G.parse_graph6(line)
                for _ in range(3):
                    self.check(g, rng.randrange(1 << n))

    def test_connected_masks_in_random_graphs_up_to_64(self):
        rng = random.Random(13)
        for _ in range(500):
            n = rng.randrange(3, G.MAX_ORDER + 1)
            g = random_graph(rng, n, rng.choice([2.5 / n, 4.0 / n, 0.2, 0.5]))
            self.check(g, connected_mask(rng, g, rng.randrange(3, 17)))


class TestCanonical:
    def test_invariance_under_relabeling(self):
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randrange(1, 10)
            from conftest import random_graph

            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            perm = list(range(n))
            rng.shuffle(perm)
            assert G.canonical_code(g) == G.canonical_code(G.relabel(g, perm))

    def test_separates_path_from_star(self):
        assert G.canonical_code(G.path_graph(4)) != G.canonical_code(G.star_graph(3))

    def test_eleven_classes_on_four_vertices(self):
        codes = {G.canonical_code(g) for g in all_labeled_graphs(4)}
        assert len(codes) == 11

    def test_code_is_canonical_graph6(self):
        g = G.cycle_graph(7)
        code = G.canonical_code(g)
        h = G.parse_graph6(code.decode())
        assert G.canonical_code(h) == code

    def test_pairwise_nonisomorphic_small_catalogs(self, small_connected):
        # Each catalog must hold pairwise non-isomorphic graphs; verified
        # against the permutation oracle on invariant collisions (n <= 6).
        for n in range(3, 7):
            graphs = small_connected[n]
            by_inv = {}
            for g in graphs:
                inv = (g.edge_count(), tuple(sorted(g.degree(v) for v in range(n))))
                by_inv.setdefault(inv, []).append(g)
            for group in by_inv.values():
                for a, b in combinations(group, 2):
                    assert not oracles.isomorphic_ref(
                        a.order, set(map(frozenset, a.edges())),
                        b.order, set(map(frozenset, b.edges())),
                    )
