import os
import random
import subprocess
import sys
from itertools import chain, combinations, islice

import pytest

import oracles
from conftest import random_connected_graph, random_graph
from isolab import graphs as G
from isolab import lab
from isolab.partition import _bfs_shortest_path, is_c5


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


def rooted_cycles_of_length(g, length):
    """The previous unmasked cycle enumerator, kept as the reference."""
    path = []

    def extend(v, used):
        if len(path) == length:
            if (g.adj[v] >> path[0]) & 1 and path[1] < path[-1]:
                yield tuple(path)
            return
        for w in G.bit_list(g.adj[v] & ~used):
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

    def test_rows_from_a_list_are_copied_into_a_tuple(self):
        rows = [0b10, 0b01]
        g = G.Graph(2, rows)
        rows[0] = 0b11
        assert g.adj == (0b10, 0b01)
        assert hash(g) == hash(G.path_graph(2))

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
        # The empty and complete graphs set no bit and every bit of each
        # packing width; the validating constructor accepts what the
        # decoder builds unchecked.
        rng = random.Random(6)
        for n in range(G.MAX_ORDER + 1):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                line = G.write_graph6(random_graph(rng, n, p))
                g = G.parse_graph6(line)
                assert g == bitwise_parse_graph6(line)
                assert G.Graph(g.order, g.adj) == g

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

    def test_roundtrip_random(self):
        # 154 graphs, 14 at each order 0..10.
        rng = random.Random(243)
        for i in range(154):
            g = random_graph(rng, i % 11, 0.5)
            assert G.parse_graph6(G.write_graph6(g)) == g


def assert_decoders_agree(line):
    """``parse_graph6`` gives the graph of ``oracles.parse_graph6_ref``, or
    the same ``Graph6Error`` message and offset."""
    try:
        want = oracles.parse_graph6_ref(line)
    except G.Graph6Error as exc:
        with pytest.raises(G.Graph6Error) as got:
            G.parse_graph6(line)
        assert (str(got.value), got.value.offset) == (str(exc), exc.offset), line
    else:
        assert G.parse_graph6(line) == want, line


def long_header(n):
    return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))


class TestDecoderReference:
    """Both decoder paths, table lookup up to order 16 and one base64
    decode and spread above it, and the checks before them, against the
    previous decoder, kept in ``oracles``: graphs at every order under both
    header forms, and every kind of rejection."""

    def test_random_graphs_under_both_headers(self):
        rng = random.Random(2027)
        for n in range(G.MAX_ORDER + 1):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                # write_graph6 uses the short header up to order 62 and the
                # long one above; the long one below 63 must be refused.
                line = G.write_graph6(random_graph(rng, n, p))
                assert_decoders_agree(line)
                assert_decoders_agree(long_header(n) + (line[4:] if n > 62 else line[1:]))

    def test_every_nonzero_padding_bit(self):
        rng = random.Random(2028)
        cases = 0
        for n in range(G.MAX_ORDER + 1):
            nbits = n * (n - 1) // 2
            pad = -nbits % 6
            line = G.write_graph6(random_graph(rng, n, 0.5))
            last = ord(line[-1]) - 63
            # each padding bit alone, then all of them
            for extra in [1 << bit for bit in range(pad)] + [(1 << pad) - 1] * (pad > 1):
                assert_decoders_agree(line[:-1] + chr((last | extra) + 63))
                cases += 1
        # every padding bit of orders 0 to 64, and all of them together
        # wherever there are two or more
        assert cases == 180

    def test_truncated_and_surplus_bodies(self):
        rng = random.Random(2029)
        for n in range(G.MAX_ORDER + 1):
            line = G.write_graph6(random_graph(rng, n, 0.5))
            head = 4 if n > 62 else 1
            for cut in range(head, len(line)):
                assert_decoders_agree(line[:cut])
            for extra in ("?", "~", "?~", "@" * 7):
                assert_decoders_agree(line + extra)

    def test_characters_outside_the_range(self):
        rng = random.Random(2030)
        outside = [*range(0, 63), 127, 128, 0xE9, 0x3000, 0xDCFF]
        for n in (0, 1, 2, 9, 30, 62, 63, 64):
            line = G.write_graph6(random_graph(rng, n, 0.5))
            for c in outside:
                at = rng.randrange(len(line) + 1)
                assert_decoders_agree(line[:at] + chr(c) + line[at:])
                assert_decoders_agree(line[:at] + chr(c) + line[at + 1 :])

    def test_every_character_at_every_table_position(self):
        # Each body character of a line at orders 0 to 16 replaced by each
        # graph6 character and by one outside the range: every entry of the
        # width 8 and 16 tables, and every padding fault of those orders.
        rng = random.Random(2031)
        cases = 0
        for n in range(17):
            line = G.write_graph6(random_graph(rng, n, 0.5))
            for at in range(1, len(line)):
                for c in [*range(63, 127), 62 if at % 2 else 127]:
                    assert_decoders_agree(line[:at] + chr(c) + line[at + 1 :])
                    cases += 1
        # 119 body characters across orders 0 to 16, 65 characters each
        assert cases == 119 * 65


class TestDecoderPaths:
    """Which orders the table lookup decodes and which the spread of
    ``_g6_spread`` does, read off the two caches each path fills on first
    use; and that a padding fault is raised before either is built."""

    @pytest.fixture
    def fresh_caches(self, monkeypatch):
        monkeypatch.setattr(G, "_G6_SPREAD", [None] * (G.MAX_ORDER + 1))
        monkeypatch.setattr(G, "_G6_TABLES", {})

    def test_import_builds_no_table(self):
        # In a fresh interpreter, importing the whole command line as well.
        src = os.path.dirname(os.path.dirname(os.path.abspath(G.__file__)))
        code = (
            "import isolab.cli\n"
            "from isolab import graphs\n"
            "print(graphs._G6_TABLES, any(graphs._G6_SPREAD))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["{}", "False"]

    @pytest.mark.usefixtures("fresh_caches")
    def test_orders_up_to_16_use_the_tables(self):
        rng = random.Random(2032)
        for n in range(17):
            for p in (0.0, 0.5, 1.0):
                g = random_graph(rng, n, p)
                assert G.parse_graph6(G.write_graph6(g)) == g
        assert G._G6_SPREAD == [None] * (G.MAX_ORDER + 1)
        assert sorted(G._G6_TABLES) == [8, 16]

    @pytest.mark.usefixtures("fresh_caches")
    def test_order_17_uses_word_operations(self):
        g = random_graph(random.Random(2033), 17, 0.5)
        assert G.parse_graph6(G.write_graph6(g)) == g
        assert [n for n, spread in enumerate(G._G6_SPREAD) if spread] == [17]
        assert G._G6_TABLES == {}

    @pytest.mark.usefixtures("fresh_caches")
    def test_padding_fault_is_raised_before_decoding(self):
        # Both widths of each path. Order 16 has no padding: its 120 bits
        # fill 20 characters, so order 15 stands in for width 16's fault.
        assert G._LAYOUTS[16][4] == 0
        rng = random.Random(2034)
        for n in (2, 8, 15, 17, 32, 63):
            line = G.write_graph6(random_graph(rng, n, 0.5))
            line = line[:-1] + chr((ord(line[-1]) - 63 | 1) + 63)
            assert_decoders_agree(line)
            with pytest.raises(G.Graph6Error, match="nonzero padding bits") as exc:
                G.parse_graph6(line)
            assert exc.value.offset == len(line) - 1
        assert G._G6_SPREAD == [None] * (G.MAX_ORDER + 1)
        assert G._G6_TABLES == {}


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

    def test_monotone(self):
        # 104 cases, 13 at each order 1..8.
        rng = random.Random(288)
        for i in range(104):
            n = 1 + i % 8
            g = random_graph(rng, n, 0.4)
            x = rng.randrange(1 << n)
            y = x | rng.randrange(1 << n)
            assert G.closed_neighborhood(g, x) & ~G.closed_neighborhood(g, y) == 0


class TestConnectivity:
    def test_components_cycle(self):
        assert G.components(G.cycle_graph(5)) == [G.cycle_graph(5).full_mask]

    def test_components_disjoint_union(self):
        g = G.disjoint_union(G.from_edges(2, [(0, 1)]), G.complete_graph(3))
        assert G.components(g) == [0b00011, 0b11100]

    def test_components_empty(self):
        assert G.components(G.empty_graph(0)) == []

    def test_masked_components_search_only_from_vertices_with_a_neighbor(self, monkeypatch):
        # The components of random masks, by least vertex, as queue BFS
        # finds them; a vertex with no neighbor in the mask is its own
        # component and costs no breadth-first search.
        searches = [0]
        levels = G.bfs_levels

        def counting(*args):
            searches[0] += 1
            return levels(*args)

        monkeypatch.setattr(G, "bfs_levels", counting)
        rng = random.Random(299)
        singles = 0
        for _ in range(1500):
            n = rng.randrange(1, G.MAX_ORDER + 1)
            g = random_graph(rng, n, rng.choice([0.02, 0.05, 0.1, 0.3]))
            mask = rng.randrange(1 << n)
            want, rest = [], mask
            while rest:
                _, depth = oracles.bfs_tree_ref(g, (rest & -rest).bit_length() - 1, mask)
                comp = G.bits_of(v for v in range(n) if depth[v] >= 0)
                want.append(comp)
                rest &= ~comp
            searches[0] = 0
            assert G.masked_components(g, mask) == want
            assert searches[0] == sum(c.bit_count() > 1 for c in want)
            singles += sum(c.bit_count() == 1 for c in want)
        assert singles > 1000

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
                for h in (g, oracles.relabel(g, perm)):
                    assert G.cut_vertices(h) == oracles.closure_cut_vertices(h), line

    def test_cut_vertices_match_closures_on_random_connected_graphs(self):
        rng = random.Random(8)
        for _ in range(2000):
            g = random_connected_graph(rng, rng.randrange(3, G.MAX_ORDER + 1))
            assert G.cut_vertices(g) == oracles.closure_cut_vertices(g)

    def test_cut_vertices_match_closures_on_random_masks(self):
        # The masked search against the closure search on the induced
        # subgraph, mapped back; disconnected masks leave the search with
        # unseen vertices of the mask.
        rng = random.Random(35)
        disconnected = 0
        for _ in range(2000):
            n = rng.randrange(1, G.MAX_ORDER + 1)
            g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.2, 0.4]))
            mask = rng.randrange(1 << n)
            sub, keep = G.induced_subgraph(g, mask)
            want = G.bits_of(keep[v] for v in G.bit_list(oracles.closure_cut_vertices(sub)))
            assert G.cut_vertices(g, mask) == want, (G.write_graph6(g), mask)
            disconnected += sub.order > 2 and not G.is_connected(sub)
        assert disconnected > 500

    def test_shortest_path_least_parent(self):
        # Vertex 3 is reached from 2 and from 4 on the same level; 2 wins,
        # and each step back goes to the least neighbor one level up.
        c6 = G.cycle_graph(6)
        assert _bfs_shortest_path(c6, 0, 3, 0b111111) == [0, 1, 2, 3]
        assert _bfs_shortest_path(c6, 3, 0, 0b111111) == [3, 2, 1, 0]
        assert _bfs_shortest_path(c6, 0, 4, 0b111111) == [0, 5, 4]
        assert _bfs_shortest_path(c6, 2, 2, 0b111111) == [2]

    def test_shortest_path_inside_mask(self):
        c6 = G.cycle_graph(6)
        assert _bfs_shortest_path(c6, 0, 3, 0b111011) == [0, 5, 4, 3]
        assert _bfs_shortest_path(c6, 0, 1, 0b111011) == [0, 1]
        assert _bfs_shortest_path(c6, 0, 2, 0b111011) is None
        assert _bfs_shortest_path(c6, 1, 3, 0b111011) == [1, 0, 5, 4, 3]

    def test_shortest_path_matches_queue_bfs_on_random_masks(self):
        rng = random.Random(41)
        for _ in range(1500):
            n = rng.randrange(1, G.MAX_ORDER + 1)
            g = random_graph(rng, n, rng.choice([0.03, 0.08, 0.2, 0.5]))
            src, dst = rng.randrange(n), rng.randrange(n)
            mask = rng.getrandbits(n) | (1 << src)
            assert _bfs_shortest_path(g, src, dst, mask) == oracles._ref_path(
                g, src, dst, mask
            )

    def test_bounded_shortest_path(self):
        # With a limit, None exactly when dst is unreachable or at least
        # limit edges away, else the reference path.
        rng = random.Random(43)
        for _ in range(3000):
            n = rng.randrange(1, G.MAX_ORDER + 1)
            g = random_graph(rng, n, rng.choice([0.03, 0.06, 0.1, 0.3]))
            src, dst = rng.randrange(n), rng.randrange(n)
            mask = rng.getrandbits(n) | (1 << src) | (1 << dst)
            limit = rng.randrange(1, 9)
            want = oracles._ref_path(g, src, dst, mask)
            if want is not None and len(want) - 1 >= limit:
                want = None
            assert _bfs_shortest_path(g, src, dst, mask, limit) == want

    def test_bfs_levels_match_queue_bfs_distance_classes(self):
        # From a root inside the mask, the levels are the reference's
        # distance classes, cut before depth ``limit`` and after the first
        # level that completes ``until``.
        rng = random.Random(47)
        for _ in range(3000):
            n = rng.randrange(1, G.MAX_ORDER + 1)
            g = random_graph(rng, n, rng.choice([0.03, 0.06, 0.1, 0.3]))
            root = rng.randrange(n)
            mask = rng.getrandbits(n) | (1 << root)
            _, depth = oracles.bfs_tree_ref(g, root, mask)
            want = [
                G.bits_of(v for v in range(n) if depth[v] == d) for d in range(max(depth) + 1)
            ]
            until = rng.choice([-1, rng.getrandbits(n) & rng.getrandbits(n)])
            if rng.random() < 0.5:
                until &= sum(want)
            limit = rng.choice([None, rng.randrange(1, 9)])
            want = want[:limit]
            reached = 0
            for d, level in enumerate(want):
                reached |= level
                if not until & ~reached:
                    del want[d + 1 :]
                    break
            assert G.bfs_levels(g.adj, root, mask, until, limit) == want


PETERSEN = G.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6),
     (6, 8), (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)
CUBE = G.from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])


class TestCycles:
    def test_cycle_walk(self):
        assert G.cycle_walk(G.cycle_graph(6), 0b111111, 3) == [3, 2, 1, 0, 5, 4]
        two_triangles = G.disjoint_union(G.complete_graph(3), G.complete_graph(3))
        assert G.cycle_walk(two_triangles, 0b111000, 4) == [4, 3, 5]

    def test_cycles_match_previous_enumerator(self, small_connected):
        # Every connected graph of order 3 to 7, then random graphs of order
        # 8 to 12, at every length up to 9; lengths 1 and 2 give none.
        rng = random.Random(36)
        graphs = [g for n in range(3, 8) for g in small_connected[n]]
        graphs += [
            random_graph(rng, n, rng.choice([0.2, 0.3, 0.4]))
            for n in (rng.randrange(8, 13) for _ in range(150))
        ]
        rng = random.Random(9)
        for g in graphs:
            mask = rng.randrange(1 << g.order)
            for length in range(1, min(g.order, 9) + 1):
                cycles = list(rooted_cycles_of_length(g, length))
                assert list(G.cycles_of_length(g, length)) == cycles
                inside = [c for c in cycles if G.bits_of(c) & ~mask == 0]
                assert list(G.cycles_of_length(g, length, mask)) == inside

    def test_cycle_mod3_is_the_first_of_the_previous_enumerator(self, triangle_free):
        # Graphs whose least cycle of length divisible by 3 is longer than a
        # triangle: the Petersen graph, the cube, the Heawood graph, and
        # triangle-free graphs of minimum degree 3, some without 6-cycles.
        heawood = G.from_edges(
            14, [(v, (v + 1) % 14) for v in range(14)] + [(v, (v + 5) % 14) for v in range(0, 14, 2)]
        )
        graphs = [PETERSEN, CUBE, heawood] + triangle_free
        lengths = set()
        for g in graphs:
            want = next(
                chain.from_iterable(
                    rooted_cycles_of_length(g, length) for length in range(3, g.order + 1, 3)
                ),
                None,
            )
            assert G.find_cycle_len_mod3(g) == want, G.write_graph6(g)
            lengths.add(len(want))
        assert lengths == {6, 9}

    def test_c6_found(self):
        assert G.find_cycle_len_mod3(G.cycle_graph(6)) == (0, 1, 2, 3, 4, 5)

    def test_c5_absent(self):
        assert G.find_cycle_len_mod3(G.cycle_graph(5)) is None

    def test_petersen_six_cycle(self):
        vs = G.find_cycle_len_mod3(PETERSEN)
        assert vs is not None and len(vs) == 6
        for i in range(6):
            assert PETERSEN.has_edge(vs[i], vs[(i + 1) % 6])
        assert len(set(vs)) == 6

    def test_shortest_preferred(self):
        # Triangle hanging off a 6-cycle: the 3-cycle must win.
        g = G.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (1, 6)])
        assert len(G.find_cycle_len_mod3(g)) == 3

    def test_min_degree_three_has_cycle_mod3(self):
        # Chen and Saito (1994): minimum degree >= 3 forces a cycle whose
        # length is divisible by 3, which makes cycle-mod-3 the engine's
        # last rung. Checked on every connected graph of order 4..8.
        checked = 0
        for n in range(4, 9):
            for line in lab.enumerate_connected(n):
                g = G.parse_graph6(line)
                if min(row.bit_count() for row in g.adj) >= 3:
                    assert G.find_cycle_len_mod3(g) is not None, line
                    checked += 1
        assert checked == 2762


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
            return G.bits_of(keep[v] for v in G.bit_list(x))

        assert G.cut_vertices(g, mask) == back(G.cut_vertices(sub))
        cyc = G.find_cycle_len_mod3(sub)
        want = None if cyc is None else tuple(keep[v] for v in cyc)
        assert G.find_cycle_len_mod3(g, mask) == want

        def all_cycles(h, m):
            return chain.from_iterable(
                G.cycles_of_length(h, length, m) for length in range(3, m.bit_count() + 1)
            )

        # A prefix keeps dense masks from enumerating exponentially many cycles.
        cycles = [tuple(keep[v] for v in c) for c in islice(all_cycles(sub, sub.full_mask), 300)]
        assert list(islice(all_cycles(g, mask), 300)) == cycles
        assert is_c5(g, mask) == is_c5(sub)

    def test_induced_subgraph_matches_dict_relabel(self):
        rng = random.Random(14)
        for _ in range(2000):
            n = rng.randrange(0, G.MAX_ORDER + 1)
            g = random_graph(rng, n, rng.choice([0.05, 0.2, 0.5]))
            mask = rng.getrandbits(n) & rng.choice([-1, rng.getrandbits(n)])
            assert G.induced_subgraph(g, mask) == oracles.induced_subgraph_ref(g, mask)

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
            assert G.canonical_code(g) == G.canonical_code(oracles.relabel(g, perm))

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
