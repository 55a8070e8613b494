"""Acceptance suite: every criterion at its stated tolerance, exactly.

Each test prints one pass line (visible with -s or in failure output); a
failed assert is the fail line. Heavy artifacts (the order-9 catalog and
classification, the exceptional catalogs, the order-15 search) are built
once per module and shared.
"""

import hashlib

import pytest

import oracles
from isolab import family as F
from isolab import graphs as G
from isolab import lab
from isolab import solvers as S
from isolab.partition import is_c5, partition3, verify_partition

THREADS = 2


def ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


@pytest.fixture(scope="module")
def report9():
    return lab.extremal_graphs(9, threads=THREADS)


@pytest.fixture(scope="module")
def corpus_3_to_8():
    return {
        n: [G.parse_graph6(line) for line in lab.enumerate_connected(n)]
        for n in range(3, 9)
    }


@pytest.fixture(scope="module")
def exceptional():
    return {order: lab.derive_exceptional(order, threads=THREADS) for order in (6, 9, 12)}


def test_criterion_01_order9_reproduction(report9):
    assert report9.total_connected == 261080
    assert len(report9.entries) == 26
    assert report9.g_count == 18
    assert report9.e_count == 8
    ok(1, "order-9 search: 261080 connected graphs, 26 extremal = 18 family + 8 exceptional")


# sha256 of the order-9 connected catalog, computed before orbit pruning:
# the lines joined by newlines, and the same with the final newline that
# `isolab enum --order 9 --connected` prints.
ORDER9_SHA256 = "95cbcdce236032e13bca398ddc38b72eb51e95d41910530ee2316cd12c23ba55"
ORDER9_OUTPUT_SHA256 = "171f6e37c93a53dcb213fb3f3cc72ec62369fe7bec1228d5de5ba6deb1ad92b2"


def test_supporting_order9_catalog_bytes(report9):
    # report9 built and memoized the catalog
    text = "\n".join(lab.enumerate_connected(9))
    assert hashlib.sha256(text.encode()).hexdigest() == ORDER9_SHA256
    assert hashlib.sha256((text + "\n").encode()).hexdigest() == ORDER9_OUTPUT_SHA256


# sha256 of each derived catalog, its lines joined by newlines with a final
# newline: the exceptional graphs at orders 6, 9 and 12, and the 344
# extremal order-15 star extensions of criterion 10.
EXCEPTIONAL_SHA256 = {
    6: "ec74e94e05c4adc6257bbab09cc5d4f0576b5517bbbfaf87e38ab9eb1fbf5bb1",
    9: "499f52ec8c08e75d3e619e350e1e42ab691f1f73a4f571fdb9e0cea18b21f15d",
    12: "e479b3dc358fdcf28a84d5b856bfdebf7c88448c1d23d9bcc0352a3eced2811a",
}
ORDER15_EXTREMAL_SHA256 = "5f2fab6f6999cb175a1a10e176fc44e53f1e89347cf7a8fcde0bb6830d60c42d"


def _lines_sha256(lines: list[str]) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def test_supporting_derived_catalog_bytes(exceptional):
    for order, want in EXCEPTIONAL_SHA256.items():
        assert _lines_sha256(exceptional[order]) == want, order
    hosts = {code for code, _ in lab.enumerate_family_members(12)}
    extremal = lab._extremal_star_extensions(sorted(hosts | set(exceptional[12])), THREADS)[1]
    assert len(extremal) == 344
    assert _lines_sha256(extremal) == ORDER15_EXTREMAL_SHA256


def test_criterion_02_exceptional_counts(exceptional):
    assert len(exceptional[6]) == 3
    assert len(exceptional[9]) == 8
    assert len(exceptional[12]) == 3
    # the catalog is derived up to isomorphism: codes are canonical + unique
    for order, lines in exceptional.items():
        assert len(set(lines)) == len(lines)
        for line in lines:
            g = G.parse_graph6(line)
            assert G.canonical_code(g).decode() == line
            assert S.is_extremal(g)
            assert F.recognize_family(g) is None
    ok(2, "exceptional catalog sizes 3 / 8 / 3 at orders 6 / 9 / 12")


def test_criterion_03_one_third_bound_exhaustive(corpus_3_to_8, report9):
    violators = []
    for n in range(3, 9):
        k = n // 3
        for g in corpus_3_to_8[n]:
            if not S.has_isolating_set(g, k):
                violators.append(G.write_graph6(g))
    for line in lab.enumerate_connected(9):
        g = G.parse_graph6(line)
        if not S.has_isolating_set(g, 3):
            violators.append(line)
    assert violators == [G.canonical_code(G.cycle_graph(5)).decode()]
    # K2 exceeds the bound at order 2
    assert S.isolation_number(G.from_edges(2, [(0, 1)])).value == 1
    ok(3, "bound holds for all connected graphs 3 <= n <= 9 except exactly the 5-cycle")


def test_criterion_04_partition_engine_complete(corpus_3_to_8):
    checked = 0
    for n in range(3, 9):
        for g in corpus_3_to_8[n]:
            if is_c5(g):
                continue
            tp, steps = partition3(g)
            valid, _, bad = verify_partition(g, tp)
            assert valid, (G.write_graph6(g), bad)
            assert {s.kind for s in steps} <= oracles.RUNGS
            checked += 1
    assert checked == 12110
    assert oracles.exhaustive_partition3(G.cycle_graph(5)) is None
    ok(4, f"partition succeeded with verified output on all {checked} graphs; C5 refuted by the 243-coloring oracle")


def test_criterion_05_three_disjoint_isolating_sets(corpus_3_to_8):
    for n in range(3, 9):
        for g in corpus_3_to_8[n]:
            if is_c5(g):
                continue
            tp, _ = partition3(g)
            a1, a2, a3 = tp.classes
            assert a1 | a2 | a3 == g.full_mask
            assert not (a1 & a2 or a1 & a3 or a2 & a3)
            for cls in tp.classes:
                assert S.is_isolating(g, cls), G.write_graph6(g)
    ok(5, "every returned class is isolating across the full corpus")


def test_criterion_06_family_parameters():
    for seed in range(500):
        order = [3, 6, 9, 12, 15][seed % 5]
        spec = F.random_family_spec(order, 10_000 + seed)
        g = F.build_family_graph(spec)
        assert S.isolation_number(g).value == order // 3, seed
        assert S.domination_number(g).value == order // 3, seed
    for seed in range(200):
        order = [18, 21, 24, 27, 30][seed % 5]
        spec = F.random_family_spec(order, 20_000 + seed)
        g = F.build_family_graph(spec)
        hs = F.hook_isolating_set(spec)
        assert hs.bit_count() == order // 3 and S.is_isolating(g, hs), seed
        bd = F.block_dominating_set(spec)
        assert bd.bit_count() == order // 3, seed
        assert S.is_dominating(g, bd) and S.is_isolating(g, bd), seed
    ok(6, "500 exact solves at n <= 15 and 200 certificate checks at 18 <= n <= 30, zero failures")


def test_criterion_07_structure_star(corpus_3_to_8):
    count = 0
    for n in range(3, 9):
        for g in corpus_3_to_8[n]:
            star = lab.find_reducing_star(g)  # re-verified inside
            assert star.mask.bit_count() >= 3
            count += 1
    assert count == 12111
    ok(7, f"reducing star verified on all {count} connected graphs of orders 3..8")


def test_criterion_08_extendability(exceptional):
    for line in exceptional[12]:
        h = G.parse_graph6(line)
        res = oracles.extend_pair_check(h, 4)
        bad = [p for p, w in res.items() if w is None]
        assert bad == [], (line, bad)
    for line in exceptional[9]:
        h = G.parse_graph6(line)
        res = oracles.extend_pair_check(h, 3)
        bad = [p for p, w in res.items() if w is None]
        assert len(bad) <= 3, (line, bad)
    ok(8, "order-12 pairs all extend to size 4; order-9 graphs have at most 3 bad pairs")


def test_criterion_09_corona():
    for m in range(2, 9):
        g = oracles.corona_of_complete(m)
        assert S.domination_number(g).value == m
        assert S.isolation_number(g).value == 1
    ok(9, "corona of K_m has domination m and isolation 1 for 2 <= m <= 8")


def test_criterion_10_order15_schema(exceptional):
    report = lab.check_order15_extensions(threads=THREADS)
    assert report["hosts"] == len(lab.enumerate_family_members(12)) + len(exceptional[12])
    assert report["candidates_checked"] == 3720
    assert report["extremal_extensions"] == 344
    assert report["outside_family"] == []
    assert report["ok"]
    ok(10, f"{report['extremal_extensions']} extremal order-15 extensions, all family members "
           f"({report['hosts']} hosts, {report['candidates_checked']} candidates fully checked)")


# ---------------------------------------------------------------------------
# supporting properties the criteria lean on


def test_supporting_exceptional_domination_equals_isolation(exceptional):
    for order, lines in exceptional.items():
        for line in lines:
            g = G.parse_graph6(line)
            assert S.isolation_number(g).value == order // 3
            assert S.domination_number(g).value == order // 3


def test_supporting_c9_is_exceptional(exceptional):
    assert G.canonical_code(G.cycle_graph(9)).decode() in exceptional[9]
    assert G.canonical_code(G.cycle_graph(6)).decode() in exceptional[6]


def test_supporting_characterization_full_orders(report9):
    for n in (3, 6, 9):
        rep = lab.verify_characterization(n, threads=THREADS)
        assert rep["ok"], rep
        assert rep["counterexamples"] == []


def test_supporting_characterization_order12_partial():
    rep = lab.verify_characterization(12, threads=THREADS)
    assert rep["mode"] == "partial"
    assert rep["family_members"] == len(lab.enumerate_family_members(12)) == 100
    assert rep["ok"], rep


def test_supporting_order12_catalog_reduces_to_order9(exceptional, report9):
    # deleting the grafted star from each derived order-12 graph must give
    # back an order-9 extremal graph
    order9 = {e.graph6 for e in report9.entries}
    for line in exceptional[12]:
        g = G.parse_graph6(line)
        found = False
        for x in range(12):
            if g.degree(x) != 2:
                continue
            y1, y2 = G.bit_list(g.adj[x])
            rest = g.full_mask & ~G.bits_of([x, y1, y2])
            sub, _ = G.induced_subgraph(g, rest)
            if sub.order == 9 and G.is_connected(sub):
                if G.canonical_code(sub).decode() in order9:
                    found = True
                    break
        assert found, line
