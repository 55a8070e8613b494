import hashlib
import os
import random
import subprocess
import sys
import types
from itertools import combinations

import pytest

import oracles
from conftest import (
    random_connected_graph,
    random_sparse_connected,
    random_subdivision,
    random_theta,
    random_tree,
)
from isolab import _backend, _pykernels
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

    def test_order8_connected_bytes_on_the_compiled_core(self, core, use_backend, monkeypatch):
        # The catalogs from empty memos with every kernel call on C.
        monkeypatch.delenv("ISOLAB_CACHE_DIR", raising=False)
        monkeypatch.setattr(lab, "_ALL_LEVELS", {})
        monkeypatch.setattr(lab, "_CONNECTED", {})
        use_backend(core)
        text = "\n".join(lab.enumerate_connected(8)) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.CONNECTED8_SHA256
        assert len(lab.enumerate_all(7)) == self.ALL[7]

    def test_order8_connected_canon_calls_do_not_grow(self, use_backend, monkeypatch):
        # 18308 canon_form calls from empty memos: orbit pruning, the
        # root-cell exit and the deletion test must not canonize more.
        kernels = _backend.kernels
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return kernels.canon_form(*args)

        names = ("has_isolating_set", "has_dominating_set", "first_isolating_set",
                 "first_dominating_set")
        use_backend(types.SimpleNamespace(
            canon_form=counting, **{name: getattr(kernels, name) for name in names}
        ))
        monkeypatch.delenv("ISOLAB_CACHE_DIR", raising=False)
        monkeypatch.setattr(lab, "_ALL_LEVELS", {})
        monkeypatch.setattr(lab, "_CONNECTED", {})
        assert len(lab.enumerate_connected(8)) == self.CONNECTED[8]
        assert calls <= 18308

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

    def test_relabeled_parents_give_the_same_children(self):
        # A relabeled parent walks the same subsets in another order. It
        # carries the automorphisms of its own canon_form call, as a level
        # entry does.
        rng = random.Random(21)
        parents = 0
        for k in range(1, 7):
            for padj, pcode, auts in lab._all_graphs_level(k):
                perm = list(range(k))
                rng.shuffle(perm)
                radj = oracles.relabel(G.Graph(k, padj), perm).adj
                rauts = tuple(map(bytes, lab._backend.canon_form(radj, k)[3]))
                for connected_final in (False, True):
                    want = lab._children_of((padj, pcode, auts), connected_final)
                    got = lab._children_of((radj, pcode, rauts), connected_final)
                    assert sorted(c[1] for c in got) == sorted(c[1] for c in want)
                parents += 1
        assert parents == 208

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
            adj = oracles.relabel(g, perm).adj
            labels = kernels.canon_form(adj, n)[0]
            last = labels.index(n - 1)
            assert adj[last].bit_count() == max(row.bit_count() for row in adj)


def _edges(adj):
    return {frozenset((u, v)) for u, row in enumerate(adj) for v in G.bit_list(row)}


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
            adj = oracles.relabel(g, perm).adj
            last_cell = oracles.refined_root_cells_ref(n, _edges(adj))[-1]
            full = kernels.canon_form(adj, n)
            assert full[0].index(n - 1) in last_cell
            for v in range(n):
                want = full if v in last_cell else None
                assert kernels.canon_form(adj, n, v) == want


def test_watched_root_refinement_exits_exactly_outside_the_last_cell():
    # The pure-Python root exit: refining the degree cells while watching v
    # gives None exactly when v is outside the last cell of the unwatched
    # result, and otherwise that result.
    rng = random.Random(28)
    checked = exits = 0
    for n in range(1, 8):
        for line in lab.enumerate_all(n):
            g = G.parse_graph6(line)
            perm = list(range(n))
            rng.shuffle(perm)
            for adj in (g.adj, oracles.relabel(g, perm).adj):
                degrees = [row.bit_count() for row in adj]
                cells0 = [
                    G.bits_of(v for v in range(n) if degrees[v] == d)
                    for d in sorted(set(degrees))
                ]
                want = _pykernels._refine(adj, n, cells0, cells0[:-1])
                for v in range(n):
                    got = _pykernels._refine(adj, n, cells0, cells0[:-1], 1 << v)
                    assert got == (want if want[-1] >> v & 1 else None)
                    checked += 1
                    exits += got is None
    assert checked == 2 * sum(n * TestEnumeration.ALL[n] for n in range(1, 8))
    assert 0 < exits < checked


def test_pykernels_canon_form_builds_no_closure():
    # A nested function or comprehension would be built anew on every call.
    consts = _pykernels.canon_form.__code__.co_consts
    assert not any(isinstance(c, types.CodeType) for c in consts)


def test_order1_parent_gives_only_k2_on_a_connected_final_level():
    # Its top degree is 0, so the component prune must still drop the
    # empty subset, whose child is two isolated vertices.
    parent = lab._all_graphs_level(1)[0]
    assert lab._children_of(parent, connected_final=True) == [((0b10, 0b01), b"A_", None)]
    codes = [code for _, code, _ in lab._children_of(parent, connected_final=False)]
    assert sorted(codes) == [b"A?", b"A_"]


def _child(padj, subset):
    k = len(padj)
    return tuple(row | (((subset >> v) & 1) << k) for v, row in enumerate(padj)) + (subset,)


def _inherited(pauts, subset):
    """The parent automorphisms that map the subset onto itself, each
    extended by k -> k: automorphisms of the subset's child."""
    members = set(G.bit_list(subset))
    return [
        gamma + bytes([len(gamma)])
        for gamma in pauts
        if {gamma[v] for v in members} == members
    ]


def _reference_accepts(parent, connected_final):
    """Per subset, unpruned: the child, its code, the canonical-parent
    verdict and whether the new vertex is in the last refined root cell, or
    None for a disconnected connected-final child."""
    padj, pcode, _ = parent
    k = len(padj)
    out = []
    for subset in range(1 << k):
        child = _child(padj, subset)
        g = G.Graph(k + 1, child)
        if connected_final and not G.is_connected(g):
            out.append(None)
            continue
        last = oracles.canonical_labels(g).index(k)
        rest, _ = G.induced_subgraph(g, g.full_mask ^ (1 << last))
        in_last_cell = k in oracles.refined_root_cells_ref(k + 1, _edges(child))[-1]
        out.append(
            (child, G.canonical_code(g), G.canonical_code(rest) == pcode, in_last_cell)
        )
    return out


def _reference_children(verdicts, connected_final, pauts=(), root_cell=True):
    """The first child of each accepted class, in subset order. With
    ``root_cell``, a subset whose new vertex is outside the last root cell
    is skipped before the dedupe. Each child carries the automorphisms of
    its own canon_form call, given the parent automorphisms ``pauts`` that
    fix its subset, or None on a connected final level."""
    out = []
    seen = set()
    for item in verdicts:
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
                known = _inherited(pauts, child[-1])
                found = lab._backend.canon_form(child, len(child), -1, known)[3]
                auts = tuple(bytes(gamma) for gamma in found)
            out.append((child, code, auts))
    return out


@pytest.mark.parametrize("connected_final", [False, True])
def test_pruned_augmentation_matches_unpruned(connected_final):
    for k in range(1, 7):
        for parent in lab._all_graphs_level(k):
            verdicts = _reference_accepts(parent, connected_final)
            assert lab._children_of(parent, connected_final) == _reference_children(
                verdicts, connected_final, parent[2]
            )


def test_levels_carry_each_parents_automorphisms(monkeypatch):
    # Each entry keeps the automorphisms of the canon_form call that made it
    # a child, the inherited ones first.
    canon_form = lab._backend.canon_form
    calls = {}

    def recording(adj, n, *rest):
        result = canon_form(adj, n, *rest)
        if rest and rest[0] == n - 1:
            calls[tuple(adj)] = (result, rest[1:])
        return result

    monkeypatch.setattr(lab._backend, "canon_form", recording)
    monkeypatch.setattr(lab, "_ALL_LEVELS", {})
    inherited = 0
    for k in range(2, 8):
        for padj, _, auts in lab._all_graphs_level(k):
            (_, _, _, found), (known,) = calls[padj]
            assert [list(gamma) for gamma in auts] == found
            assert found[: len(known)] == [list(gamma) for gamma in known]
            inherited += bool(known)
    assert inherited > 500


def _seeded_children(k):
    """(child, known) for every orbit-head subset of every parent on the
    all-graph level k, with the known list that ``lab._children_of``
    passes, here built by ``_inherited``."""
    for padj, _, pauts in lab._all_graphs_level(k):
        for subset in lab._orbit_heads(range(1 << k), lab._images(k, pauts)):
            yield _child(padj, subset), _inherited(pauts, subset)


def test_inherited_automorphisms_leave_labels_and_body(core):
    # Children up to order 7: the seeded call gives the unseeded labels and
    # body on both backends, and orbits that the returned auts generate.
    seeded = 0
    for k in range(1, 7):
        for child, known in _seeded_children(k):
            n = k + 1
            edges = _edges(child)
            got = _pykernels.canon_form(child, n, -1, known)
            assert core.canon_form(child, n, -1, known) == got
            labels, body, orbits, auts = got
            assert (labels, body) == _pykernels.canon_form(child, n)[:2]
            assert all(oracles.is_automorphism_ref(n, edges, g) for g in known)
            assert all(oracles.is_automorphism_ref(n, edges, g) for g in auts)
            assert orbits == oracles.orbit_minima_ref(n, auts)
            seeded += bool(known)
    assert seeded > 1000


@pytest.mark.parametrize("backend", ["python", "c"])
def test_canon_automorphisms_on_all_graphs_up_to_7(request, backend):
    # Orbit pruning in lab._children_of trusts every returned gamma.
    kernels = _pykernels if backend == "python" else request.getfixturevalue("core")
    rng = random.Random(9)
    for n in range(1, 8):
        for line in lab.enumerate_all(n):
            perm = list(range(n))
            rng.shuffle(perm)
            g = oracles.relabel(G.parse_graph6(line), perm)
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
            assert lab._orbit_heads(order, lab._images(k, subgroup)) == want


@pytest.mark.parametrize("connected_final", [False, True])
def test_orbit_pruned_children_on_symmetric_parents(connected_final):
    # Pruning by a subgroup of Aut(parent), as when the 96-automorphism cap
    # is reached, must leave the children unchanged; the first automorphism
    # alone stands in for that case.
    parents = _most_symmetric_parents(30)
    verdicts = [_reference_accepts(p, connected_final) for p in parents]
    for cut in (None, 1):
        for (padj, pcode, auts), verdict in zip(parents, verdicts):
            assert lab._children_of(
                (padj, pcode, auts[:cut]), connected_final
            ) == _reference_children(verdict, connected_final, auts[:cut])


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
        children = lab._children_of(parent, True)
        assert children == _reference_children(verdicts, True)
        unfiltered = _reference_children(verdicts, True, root_cell=False)
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
        _reference_children(_reference_accepts(p, connected_final), connected_final, p[2])
        for p in parents
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
        deletions.clear()
        got.append(lab._children_of(parent, connected_final))
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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_star_attachment_survivors_match_reference(small_connected, k):
    without_sets = 0
    for n in range(1, 7):
        for h in small_connected[n]:
            want = _reference_survivors(h, k)
            assert lab._star_attachment_survivors(h, k) == want
            without_sets += not _brute_isolating_sets(h, k)
    assert without_sets > 0


def test_star_attachment_survivors_on_the_compiled_core(core, use_backend, small_connected):
    # The pair questions start from a state, which the core takes only as
    # both masks together.
    use_backend(core)
    for n in range(1, 7):
        for h in small_connected[n]:
            assert lab._star_attachment_survivors(h, 3) == _reference_survivors(h, 3)


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
        res = oracles.extend_pair_check(G.complete_graph(3), 1)
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
                assert oracles.extend_pair_check(h, k) == scan(h, k)

    def test_witnesses_isolate(self):
        h = G.cycle_graph(9)
        res = oracles.extend_pair_check(h, 3)
        for (z1, z2), w in res.items():
            if w is not None:
                assert (w >> z1) & 1 and (w >> z2) & 1
                assert w.bit_count() == 3
                assert S.is_isolating(h, w)


BAD_STARS_ON_P7 = (
    (1, 1 << 0),  # one leaf
    (1, (1 << 0) | (1 << 1)),  # center is a leaf
    (1, (1 << 0) | (1 << 3)),  # 3 is not adjacent
    (3, (1 << 2) | (1 << 4)),  # leaves 0-1 and 5-6
)


class TestReducingStar:
    # A star that fails its self-check is a broken engine invariant, not bad
    # input: RuntimeError, which the CLI does not report as a domain error.
    def test_bad_star_raises(self):
        g = G.path_graph(7)
        for center, leaves in BAD_STARS_ON_P7:
            with pytest.raises(RuntimeError):
                lab._verify_star(g, lab.StarReduction(center, leaves))

    def test_bad_star_raises_under_python_O(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(lab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "from isolab import graphs, lab\n"
            f"for center, leaves in {BAD_STARS_ON_P7!r}:\n"
            "    try:\n"
            "        lab._verify_star(graphs.path_graph(7), lab.StarReduction(center, leaves))\n"
            "    except RuntimeError as exc:\n"
            "        print('raised', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == len(BAD_STARS_ON_P7)
        assert all(line.startswith("raised") for line in lines)

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
                    keep[v] for v in G.bit_list(sub.witness)
                )
                assert S.is_isolating(g, lifted)

    def test_random_graphs(self):
        rng = random.Random(31)
        for _ in range(300):
            g = random_connected_graph(rng, rng.randrange(3, 15))
            lab.find_reducing_star(g)

    def test_matches_three_search_star_on_orders_3_to_8(self, small_connected):
        graphs = [g for n in range(3, 8) for g in small_connected[n]]
        graphs += [G.parse_graph6(line) for line in lab.enumerate_connected(8)]
        for g in graphs:
            star = lab.find_reducing_star(g)
            assert (star.center, star.leaves) == oracles.reducing_star_ref(g), (
                G.write_graph6(g)
            )

    def test_matches_three_search_star_on_random_graphs(self):
        rng = random.Random(47)
        for _ in range(150):
            n = rng.randrange(9, G.MAX_ORDER + 1)
            for g in (
                random_connected_graph(rng, n),
                random_tree(rng, n),
                random_sparse_connected(rng, n),
                random_subdivision(rng, rng.choice([4, 5]), n),
                random_theta(rng, n),
            ):
                star = lab.find_reducing_star(g)
                assert (star.center, star.leaves) == oracles.reducing_star_ref(g), (
                    G.write_graph6(g)
                )

    def test_two_searches_per_graph(self, small_connected, monkeypatch):
        # One level sweep when the BFS tree from vertex 0 is a star, else two.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return G.bfs_levels(*args, **kwargs)

        monkeypatch.setattr(lab, "bfs_levels", counting)
        rng = random.Random(53)
        graphs = [g for n in range(3, 8) for g in small_connected[n]]
        graphs += [random_sparse_connected(rng, rng.randrange(9, 65)) for _ in range(200)]
        for g in graphs:
            parent, _ = oracles.bfs_tree_ref(g, 0, g.full_mask)
            tree_degree = [int(v != 0) + parent.count(v) for v in range(g.order)]
            calls.clear()
            lab.find_reducing_star(g)
            assert len(calls) == (1 if max(tree_degree) == g.order - 1 else 2)


class TestCharacterizationSmall:
    def test_order_3_full(self):
        rep = lab.verify_characterization(3)
        assert rep["ok"] and rep["mode"] == "full"
        assert rep["extremal"] == 2 and rep["e"] == 0

    def test_order_6_full(self):
        rep = lab.verify_characterization(6)
        assert rep["ok"]
        assert rep["extremal"] == 10 and rep["g"] == 7 and rep["e"] == 3
