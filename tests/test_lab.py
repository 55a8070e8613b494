import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

import oracles
from conftest import random_connected_graph
from isolab import _pykernels
from isolab import family as F
from isolab import graphs as G
from isolab import lab
from isolab import solvers as S


class TestEnumeration:
    # Published class counts double as an external oracle here; pairwise
    # non-isomorphism inside the catalogs is checked in test_graphs.
    ALL = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
    CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
    CONNECTED8_SHA256 = (
        "f1f12b70357f2c5b85b272b6bb18ce5293e48948fbcc4e2ab8b97839cdf7c80d"
    )

    def test_all_graph_counts(self):
        for n, want in self.ALL.items():
            assert len(lab.enumerate_all(n)) == want

    def test_connected_counts(self):
        for n, want in self.CONNECTED.items():
            assert len(lab.enumerate_connected(n)) == want

    def test_order8_connected_bytes(self):
        text = "\n".join(lab.enumerate_connected(8)) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.CONNECTED8_SHA256

    def test_result_is_not_the_memo(self):
        first = lab.enumerate_connected(5)
        want = list(first)
        first.append("junk")
        first.sort(reverse=True)
        assert lab.enumerate_connected(5) == want

    def test_sorted_canonical_output(self):
        lines = lab.enumerate_connected(6)
        assert lines == sorted(lines)
        for line in lines[:20]:
            g = G.parse_graph6(line)
            assert G.canonical_code(g).decode() == line
            assert G.is_connected(g)

    def test_two_augmentation_orders_agree(self):
        for n in (5, 6, 7):
            descending = sorted(
                code.decode()
                for parent in lab._all_graphs_level(n - 1)
                for _, code, _ in lab._children_of(parent, True, descending=True)
            )
            assert descending == lab.enumerate_connected(n)

    def test_guard(self):
        with pytest.raises(ValueError):
            lab.enumerate_connected(11)
        with pytest.raises(ValueError):
            lab.enumerate_connected(0)

    def test_cache_dir_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ISOLAB_CACHE_DIR", str(tmp_path))
        lab._CONNECTED.pop(6, None)
        first = lab.enumerate_connected(6)
        cache = tmp_path / "connected_n6.g6"
        assert cache.read_text() == self.cache_text(first)
        lab._CONNECTED.pop(6, None)
        # a valid file is read back, not rebuilt
        monkeypatch.setattr(lab, "_all_graphs_level", None)
        assert lab.enumerate_connected(6) == first
        lab._CONNECTED.pop(6, None)

    @staticmethod
    def cache_text(lines):
        body = "\n".join(lines) + "\n"
        return f"# sha256 {hashlib.sha256(body.encode()).hexdigest()}\n" + body

    def assert_rebuilt(self, tmp_path, monkeypatch, text):
        want = lab.enumerate_connected(6)
        cache = tmp_path / "connected_n6.g6"
        cache.write_text(text)
        monkeypatch.setenv("ISOLAB_CACHE_DIR", str(tmp_path))
        monkeypatch.delitem(lab._CONNECTED, 6)
        assert lab.enumerate_connected(6) == want
        assert cache.read_text() == self.cache_text(want)

    def test_truncated_cache_file_is_rebuilt(self, tmp_path, monkeypatch):
        want = lab.enumerate_connected(6)
        text = "\n".join(want[:50]) + "\n" + want[50][:3]
        self.assert_rebuilt(tmp_path, monkeypatch, text)

    def test_cache_file_of_right_length_without_header_is_rebuilt(
        self, tmp_path, monkeypatch
    ):
        # 112 copies of one class: the right line count, nothing else right
        self.assert_rebuilt(tmp_path, monkeypatch, "E?~o\n" * 112)

    def test_cache_file_with_one_byte_changed_is_rebuilt(self, tmp_path, monkeypatch):
        text = self.cache_text(lab.enumerate_connected(6))
        at = len(text) // 2
        changed = text[:at] + ("A" if text[at] != "A" else "B") + text[at + 1 :]
        self.assert_rebuilt(tmp_path, monkeypatch, changed)

    def test_cache_file_not_strictly_increasing_is_rebuilt(
        self, tmp_path, monkeypatch
    ):
        # a true header does not make a catalog of repeated lines valid
        self.assert_rebuilt(tmp_path, monkeypatch, self.cache_text(["E?~o"] * 112))

    def test_failed_cache_write_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setenv("ISOLAB_CACHE_DIR", str(tmp_path))
        monkeypatch.delitem(lab._CONNECTED, 6, raising=False)
        monkeypatch.setattr(lab.os, "fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            lab.enumerate_connected(6)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("backend", ["python", "c"])
def test_canon_labels_a_max_degree_vertex_last(request, backend):
    # The degree prune in lab._children_of is exact only while this holds.
    kernels = _pykernels if backend == "python" else request.getfixturevalue("core")
    rng = random.Random(8)
    for n in range(1, 8):
        for line in lab.enumerate_all(n):
            g = G.parse_graph6(line)
            perm = list(range(n))
            rng.shuffle(perm)
            adj = G.relabel(g, perm).adj
            labels = kernels.canon_form(adj, n)[0]
            last = labels.index(n - 1)
            assert adj[last].bit_count() == max(row.bit_count() for row in adj)


def _edges(adj):
    return {frozenset((u, v)) for u, row in enumerate(adj) for v in G.iter_bits(row)}


@pytest.mark.parametrize("backend", ["python", "c"])
def test_canon_labels_a_last_root_cell_vertex_last(request, backend):
    # The root-cell test in lab._children_of is exact only while this holds:
    # canon_form(adj, n, v) is None exactly when v is outside the last cell
    # of the refined degree partition, and otherwise the full result.
    kernels = _pykernels if backend == "python" else request.getfixturevalue("core")
    rng = random.Random(10)
    for n in range(1, 8):
        for line in lab.enumerate_all(n):
            g = G.parse_graph6(line)
            perm = list(range(n))
            rng.shuffle(perm)
            adj = G.relabel(g, perm).adj
            last_cell = oracles.refined_root_cells_ref(n, _edges(adj))[-1]
            full = kernels.canon_form(adj, n)
            assert full[0].index(n - 1) in last_cell
            for v in range(n):
                want = full if v in last_cell else None
                assert kernels.canon_form(adj, n, v) == want


def _reference_accepts(parent, connected_final):
    """Per subset, unpruned: the child, its code, the canonical-parent
    verdict and whether the new vertex is in the last refined root cell, or
    None for a disconnected connected-final child."""
    padj, pcode, _ = parent
    k = len(padj)
    out = []
    for subset in range(1 << k):
        child = tuple(
            row | (((subset >> v) & 1) << k) for v, row in enumerate(padj)
        ) + (subset,)
        g = G.Graph(k + 1, child)
        if connected_final and not G.is_connected(g):
            out.append(None)
            continue
        last = G.canonical_labels(g).index(k)
        rest, _ = G.induced_subgraph(g, g.full_mask ^ (1 << last))
        in_last_cell = k in oracles.refined_root_cells_ref(k + 1, _edges(child))[-1]
        out.append(
            (child, G.canonical_code(g), G.canonical_code(rest) == pcode, in_last_cell)
        )
    return out


def _reference_children(verdicts, descending, connected_final, root_cell=True):
    """The first child of each accepted class, in the given order. With
    ``root_cell``, a subset whose new vertex is outside the last root cell
    is skipped before the dedupe. Each child carries the automorphisms of
    its own canon_form call, or None on a connected final level."""
    order = reversed(verdicts) if descending else verdicts
    out = []
    seen = set()
    for item in order:
        if item is None:
            continue
        child, code, accepted, in_last_cell = item
        if root_cell and not in_last_cell:
            continue
        if code in seen:
            continue
        seen.add(code)
        if accepted:
            auts = None
            if not connected_final:
                found = lab._backend.canon_form(child, len(child))[3]
                auts = tuple(bytes(gamma) for gamma in found)
            out.append((child, code, auts))
    return out


@pytest.mark.parametrize("connected_final", [False, True])
def test_pruned_augmentation_matches_unpruned(connected_final):
    for k in range(1, 7):
        for parent in lab._all_graphs_level(k):
            verdicts = _reference_accepts(parent, connected_final)
            for descending in (False, True):
                assert lab._children_of(
                    parent, connected_final, descending
                ) == _reference_children(verdicts, descending, connected_final)


def test_levels_carry_each_parents_automorphisms():
    for k in range(1, 8):
        for padj, _, auts in lab._all_graphs_level(k):
            found = lab._backend.canon_form(padj, k)[3]
            assert [list(gamma) for gamma in auts] == found


@pytest.mark.parametrize("backend", ["python", "c"])
def test_canon_automorphisms_on_all_graphs_up_to_7(request, backend):
    # Orbit pruning in lab._children_of trusts every returned gamma.
    kernels = _pykernels if backend == "python" else request.getfixturevalue("core")
    rng = random.Random(9)
    for n in range(1, 8):
        for line in lab.enumerate_all(n):
            perm = list(range(n))
            rng.shuffle(perm)
            g = G.relabel(G.parse_graph6(line), perm)
            edges = _edges(g.adj)
            _, _, orbits, auts = kernels.canon_form(g.adj, n)
            assert len(auts) <= _pykernels._AUT_CAP
            assert all(oracles.is_automorphism_ref(n, edges, gamma) for gamma in auts)
            assert orbits == oracles.orbit_minima_ref(n, auts)


def _most_symmetric_parents(count):
    return sorted(lab._all_graphs_level(7), key=lambda p: -len(p[2]))[:count]


@pytest.mark.parametrize("descending", [False, True])
def test_orbit_heads_match_brute_force_closure(descending):
    parents = [p for k in range(1, 6) for p in lab._all_graphs_level(k)]
    parents += _most_symmetric_parents(5)
    for padj, _, auts in parents:
        k = len(padj)
        order = range((1 << k) - 1, -1, -1) if descending else range(1 << k)
        for subgroup in ([], auts[:1], auts):
            want = oracles.subset_orbit_heads_ref(k, subgroup, order)
            assert lab._orbit_heads(order, k, subgroup) == want


@pytest.mark.parametrize("connected_final", [False, True])
def test_orbit_pruned_children_on_symmetric_parents(connected_final):
    # Pruning by a subgroup of Aut(parent), as when the 96-automorphism cap
    # is reached, must leave the children unchanged; the first automorphism
    # alone stands in for that case.
    parents = _most_symmetric_parents(30)
    verdicts = [_reference_accepts(p, connected_final) for p in parents]
    for cut in (None, 1):
        for (padj, pcode, auts), verdict in zip(parents, verdicts):
            for descending in (False, True):
                assert lab._children_of(
                    (padj, pcode, auts[:cut]), connected_final, descending
                ) == _reference_children(verdict, descending, connected_final)


def test_children_accepted_through_the_deletion_test():
    # Up to order 8, only these two parents had a child accepted with the
    # canonically-last vertex outside the new vertex's found orbit. In both,
    # the new vertex is outside the last root cell, so the root-cell test
    # now skips that child, and another subset gives its class.
    level = {p[1]: p for p in lab._all_graphs_level(7)}
    for code in (b"F@Tkw", b"F@YQw"):
        parent = level[code]
        verdicts = _reference_accepts(parent, True)
        skipped_accepts = [v for v in verdicts if v and v[2] and not v[3]]
        assert len(skipped_accepts) == 1
        for descending in (False, True):
            children = lab._children_of(parent, True, descending)
            assert children == _reference_children(verdicts, descending, True)
            unfiltered = _reference_children(verdicts, descending, True, False)
            assert {c[1] for c in children} == {c[1] for c in unfiltered}


@pytest.mark.parametrize("connected_final", [False, True])
def test_children_unchanged_with_the_finest_orbits(monkeypatch, connected_final):
    # canon_form may return orbits finer than the true ones, down to
    # list(range(n)). Then every child whose canonically-last vertex is not
    # the new one goes through the deletion test.
    # E@N?, EFzg and F@U^? have children that the deletion test rejects.
    parents = [p for k in range(1, 6) for p in lab._all_graphs_level(k)]
    level = {p[1]: p for k in (6, 7) for p in lab._all_graphs_level(k)}
    parents += [level[c] for c in (b"E@N?", b"EFzg", b"F@Tkw", b"F@YQw", b"F@U^?")]
    parents += _most_symmetric_parents(5)
    want = [
        _reference_children(_reference_accepts(p, connected_final), d, connected_final)
        for p in parents
        for d in (False, True)
    ]
    canon_form = lab._backend.canon_form

    def finest(adj, n, *last):
        result = canon_form(adj, n, *last)
        if result is None:
            return None
        labels, body, _, auts = result
        return labels, body, list(range(n)), auts

    code_of = lab.canonical_code_of
    deletions = []

    def counted_code(adj, n):
        deletions.append(code_of(adj, n))
        return deletions[-1]

    monkeypatch.setattr(lab._backend, "canon_form", finest)
    monkeypatch.setattr(lab, "canonical_code_of", counted_code)
    got = []
    verdicts = set()
    for parent in parents:
        for descending in (False, True):
            deletions.clear()
            got.append(lab._children_of(parent, connected_final, descending))
            verdicts |= {code == parent[1] for code in deletions}
    assert got == want
    # the deletion test both accepts and rejects children
    assert verdicts == {False, True}


def _brute_isolating_sets(h, k):
    return [
        G.bits_of(c)
        for c in combinations(range(h.order), k)
        if S.is_isolating(h, G.bits_of(c))
    ]


def _reference_survivors(h, k):
    iso = _brute_isolating_sets(h, k)
    nsub = 1 << h.order
    return [
        (s1, s2)
        for s1 in range(1, nsub)
        for s2 in range(s1, nsub)
        if not any(s1 & x and s2 & x for x in iso)
    ]


@pytest.mark.parametrize("k", [1, 2])
def test_star_attachment_survivors_match_reference(small_connected, k):
    without_sets = 0
    for n in range(1, 7):
        for h in small_connected[n]:
            want = _reference_survivors(h, k)
            assert lab._star_attachment_survivors(h, k) == want
            without_sets += not _brute_isolating_sets(h, k)
    assert without_sets > 0


@pytest.mark.parametrize("count", [0, 1, 17])
def test_parallel_map_keeps_the_item_order(count):
    # callers zip the results back onto their items
    items = list(range(count, 0, -1))
    assert lab._parallel_map(hex, items, 2) == [hex(x) for x in items]


class TestExtremalSmall:
    def test_order_3(self):
        report = lab.extremal_graphs(3)
        assert report.total_connected == 2
        assert len(report.entries) == 2
        assert report.g_count == 2 and report.e_count == 0

    def test_order_6(self):
        report = lab.extremal_graphs(6)
        assert report.total_connected == 112
        assert report.g_count == 7 and report.e_count == 3

    def test_c6_and_c9_are_exceptional(self):
        e6 = lab.derive_exceptional(6)
        assert G.canonical_code(G.cycle_graph(6)).decode() in e6
        # C9 belongs to the order-9 exceptional catalog; cheap membership
        # check against its canonical code without rerunning enumeration
        # is done in acceptance where the catalog is already built.

    def test_report_json_shape(self):
        data = lab.extremal_graphs(3).to_json()
        assert {"order", "total", "extremal", "g", "e", "entries"} <= set(data)
        for entry in data["entries"]:
            assert entry["class"] in ("G", "E")
            if entry["class"] == "G":
                assert entry["spec"] is not None


class TestFamilyEnumeration:
    def test_counts(self):
        assert len(lab.enumerate_family_members(3)) == 2
        assert len(lab.enumerate_family_members(6)) == 7
        # the order-9 census is pinned by the classification: 18 members
        assert len(lab.enumerate_family_members(9)) == 18

    def test_members_recognized_and_extremal(self):
        for code, spec in lab.enumerate_family_members(6):
            g = G.parse_graph6(code)
            assert F.recognize_family(g) is not None
            assert S.is_extremal(g)
            assert G.canonical_code(F.build_family_graph(spec)).decode() == code


class TestExtendability:
    def test_harness_on_k3(self):
        # size-1 targets can never contain two vertices
        res = lab.extend_pair_check(G.complete_graph(3), 1)
        assert all(w is None for w in res.values())

    def test_matches_combinations_scan(self, small_connected):
        def scan(h, k):
            out = {}
            for z1, z2 in combinations(range(h.order), 2):
                base = (1 << z1) | (1 << z2)
                others = [v for v in range(h.order) if v not in (z1, z2)]
                sets = (base | G.bits_of(c) for c in combinations(others, k - 2))
                out[(z1, z2)] = next((x for x in sets if S.is_isolating(h, x)), None)
            return out

        for h in [G.cycle_graph(9)] + small_connected[6]:
            for k in range(2, 6):
                assert lab.extend_pair_check(h, k) == scan(h, k)

    def test_witnesses_isolate(self):
        h = G.cycle_graph(9)
        res = lab.extend_pair_check(h, 3)
        for (z1, z2), w in res.items():
            if w is not None:
                assert (w >> z1) & 1 and (w >> z2) & 1
                assert w.bit_count() == 3
                assert S.is_isolating(h, w)


class TestReducingStar:
    def test_bad_star_raises(self):
        g = G.path_graph(7)
        bad = [
            lab.StarReduction(1, 1 << 0),  # one leaf
            lab.StarReduction(1, (1 << 0) | (1 << 1)),  # center is a leaf
            lab.StarReduction(1, (1 << 0) | (1 << 3)),  # 3 is not adjacent
            lab.StarReduction(3, (1 << 2) | (1 << 4)),  # leaves 0-1 and 5-6
        ]
        for star in bad:
            with pytest.raises(ValueError):
                lab._verify_star(g, star)

    def test_bad_star_raises_under_python_O(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(lab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "from isolab import graphs, lab\n"
            "try:\n"
            "    lab._verify_star(graphs.path_graph(5), lab.StarReduction(1, 1))\n"
            "except ValueError as exc:\n"
            "    print('raised', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised")

    def test_whole_star(self):
        star = lab.find_reducing_star(G.star_graph(5))
        assert star.center == 0
        assert star.leaves == G.star_graph(5).full_mask ^ 1

    def test_path6_example(self):
        g = G.path_graph(6)
        star = lab.find_reducing_star(g)
        assert star.mask.bit_count() == 3
        rest, _ = G.induced_subgraph(g, g.full_mask & ~star.mask)
        assert rest == G.path_graph(3)

    def test_small_corpus(self, small_connected):
        for n in range(3, 8):
            for g in small_connected[n]:
                star = lab.find_reducing_star(g)  # self-verifying
                assert star.mask.bit_count() >= 3

    def test_additive_isolation_step(self, small_connected):
        # iota(g) <= iota(g - S) + 1 with the star's center added back
        for n in range(4, 8):
            for g in small_connected[n]:
                star = lab.find_reducing_star(g)
                rest, keep = G.induced_subgraph(g, g.full_mask & ~star.mask)
                sub = S.isolation_number(rest)
                whole = S.isolation_number(g)
                assert whole.value <= sub.value + 1
                lifted = (1 << star.center) | G.bits_of(
                    keep[v] for v in G.iter_bits(sub.witness)
                )
                assert S.is_isolating(g, lifted)

    def test_random_graphs(self):
        rng = random.Random(31)
        for _ in range(300):
            g = random_connected_graph(rng, rng.randrange(3, 15))
            lab.find_reducing_star(g)


class TestCharacterizationSmall:
    def test_order_3_full(self):
        rep = lab.verify_characterization(3)
        assert rep["ok"] and rep["mode"] == "full"
        assert rep["extremal"] == 2 and rep["e"] == 0

    def test_order_6_full(self):
        rep = lab.verify_characterization(6)
        assert rep["ok"]
        assert rep["extremal"] == 10 and rep["g"] == 7 and rep["e"] == 3
