"""The word-level ``Graph`` validation, the pure-Python decision leaf,
packing bound and witness walks, each against a per-bit or brute-force
oracle, and the minimizers' check of a forged witness.

The checks are plain functions that return what they checked and what
disagreed, with no ``assert`` inside, so that the same checks also run
under ``python -O``.
"""

import json
import os
import random
import subprocess
import sys

import oracles
from isolab import _backend, _pykernels
from isolab import graphs as G
from isolab import lab
from isolab import solvers as S

# Orders on both sides of each packing width (8, 16, 32, 64 bits a row).
WIDTH_EDGE_ORDERS = (0, 1, 8, 9, 16, 17, 32, 33, 63, 64)


def _random_rows(rng, n, p):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _changed(rows, v, row):
    out = list(rows)
    out[v] = row
    return out


def hostile_rows(seed=11):
    """(order, rows) at the width edges: valid graphs, and each with a loop,
    one asymmetric bit, a bit beyond the order, a negative row, or two of
    these at once."""
    rng = random.Random(seed)
    for n in WIDTH_EDGE_ORDERS:
        for p in (0.0, 0.3, 0.7, 1.0):
            rows = _random_rows(rng, n, p)
            yield n, rows
            if n == 0:
                continue
            for v in sorted({0, n - 1, rng.randrange(n)}):
                row = rows[v]
                yield n, _changed(rows, v, row | 1 << v)
                for b in sorted({n, 15, 16, 31, 32, 63, 64, 100}):
                    if b >= n:
                        yield n, _changed(rows, v, row | 1 << b)
                for neg in (-1, ~row, -(1 << n), row - (1 << 64)):
                    yield n, _changed(rows, v, neg)
                if n > 1:
                    u = rng.choice([w for w in range(n) if w != v])
                    flipped = _changed(rows, v, row ^ 1 << u)
                    yield n, flipped
                    w = rng.randrange(n)
                    yield n, _changed(flipped, w, flipped[w] | 1 << w)


def validation_mismatches():
    """(inputs checked, list of disagreements with the per-bit oracle)."""
    checked = 0
    bad = []
    for n, rows in hostile_rows():
        checked += 1
        faults = oracles.graph_faults_ref(n, rows)
        try:
            G.Graph(n, tuple(rows))
        except ValueError as exc:
            if str(exc) not in faults:
                bad.append(f"order {n}: refused with {exc!r}, oracle says {faults[:3]}")
        else:
            if faults:
                bad.append(f"order {n}: accepted, oracle says {faults[:3]}")
    return checked, bad


def _leaf_cases(seed=3):
    """Every graph up to order 6, each from four start states: nothing
    covered or forbidden, then three seeded random (covered, forbidden)."""
    rng = random.Random(seed)
    for n in range(1, 7):
        for line in lab.enumerate_all(n):
            g = G.parse_graph6(line)
            states = [(0, 0)] + [
                (rng.getrandbits(n), rng.getrandbits(n) & rng.getrandbits(n))
                for _ in range(3)
            ]
            for covered, forbidden in states:
                yield line, g, covered, forbidden


def leaf_mismatches():
    """(decisions checked, list of disagreements with brute force) for the
    pure-Python kernels at k = 0, 1 and 2."""
    checked = 0
    bad = []
    for line, g, covered, forbidden in _leaf_cases():
        n = g.order
        edges = {frozenset(e) for e in g.edges()}
        for name, ref in oracles.KERNEL_DECISIONS:
            decide = getattr(_pykernels, name)
            for k in (0, 1, 2):
                want = oracles.decide_ref(n, edges, k, covered, forbidden, ref)
                got = decide(g.adj, n, k, covered, forbidden)
                checked += 1
                if got != want:
                    bad.append(f"{name} {line} k={k} {covered:#x}/{forbidden:#x}: {got}")
    return checked, bad


def walk_mismatches():
    """(walks checked, list of disagreements with the lex-order scan) for
    the pure-Python kernels at k = -1..n+1."""
    checked = 0
    bad = []
    for line, g, covered, forbidden in _leaf_cases():
        n = g.order
        edges = {frozenset(e) for e in g.edges()}
        for name, ref in oracles.KERNEL_WALKS:
            walk = getattr(_pykernels, name)
            for k in range(-1, n + 2):
                want = oracles.first_ref(n, edges, k, covered, forbidden, ref)
                got = walk(g.adj, n, k, covered, forbidden)
                checked += 1
                if got != want:
                    bad.append(f"{name} {line} k={k} {covered:#x}/{forbidden:#x}: {got}")
    return checked, bad


def bound_mismatches():
    """(bound calls checked, refutations per decision, list of wrong
    refutations) for ``_pykernels._outpack`` on both target rows, at every
    budget from 1 to n: every graph up to order 6 from the start states of
    the leaf sweep, each with the least target still to hit as the
    branching one. A True answer claims that no set of at most that budget
    completes the state, and the scan oracle checks the claim."""
    checked = 0
    refuted = {}
    bad = []
    for line, g, covered, forbidden in _leaf_cases():
        n = g.order
        edges = {frozenset(e) for e in g.edges()}
        rem = ((1 << n) - 1) & ~covered
        rows = (g.adj, _pykernels._SELF_ROWS)
        for (name, ref), tgt in zip(oracles.KERNEL_DECISIONS, rows):
            ends = [(v, u) for v in range(n) for u in range(n)
                    if rem >> v & 1 and (tgt[v] & rem) >> u & 1]
            if not ends:
                continue  # nothing left to hit: the searches never run the bound
            v, u = ends[0]
            cand = (g.adj[v] | g.adj[u] | 1 << v | 1 << u) & ~forbidden
            for budget in range(1, n + 1):
                checked += 1
                if _pykernels._outpack(g.adj, tgt, rem, forbidden, v, cand, budget):
                    refuted[name] = refuted.get(name, 0) + 1
                    if oracles.decide_ref(n, edges, budget, covered, forbidden, ref):
                        bad.append(f"{name} {line} k={budget} {covered:#x}/{forbidden:#x}")
    return checked, refuted, bad


# Every graph up to order 6 (1, 2, 4, 11, 34 and 156 of orders 1 to 6), from
# four start states, by two walks at n + 3 values of k.
WALKS_CHECKED = 8 * sum(c * (n + 3) for n, c in enumerate((1, 2, 4, 11, 34, 156), 1))


def forged_witness_outcomes():
    """What ``solvers._lex_least`` does with forged walk results on C6
    (ι = γ = 2): for each, the exception's type and message, or None when
    it returned. Only the first forgery is a true witness."""
    c6 = G.cycle_graph(6)
    iso = (_backend.has_isolating_set, S.is_isolating)
    dom = (_backend.has_dominating_set, S.is_dominating)
    forgeries = (
        ("true", iso, 0b001001),
        ("not-isolating", iso, 0b000011),
        ("not-dominating", dom, 0b000011),
        ("too-large", iso, 0b000111),
        ("none", dom, -1),
    )
    out = {}
    for case, (decide, check), x in forgeries:
        try:
            S._lex_least(c6, decide, lambda adj, n, k, x=x: x, check)
        except RuntimeError as exc:
            out[case] = ["RuntimeError", str(exc)]
        else:
            out[case] = None
    return out


def test_validation_matches_per_bit_oracle():
    checked, bad = validation_mismatches()
    assert checked > 1000
    assert bad == []


def _refusal(n, rows):
    try:
        G.Graph(n, tuple(rows))
    except ValueError as exc:
        return exc
    raise AssertionError(f"Graph({n}, {rows}) accepted")


def test_validation_names_the_first_fault():
    assert str(_refusal(3, [0b010, 0b101, 0b000])) == "asymmetric edge 1-2"
    assert str(_refusal(9, [0] * 8 + [1 << 8])) == "loop at vertex 8"
    assert str(_refusal(9, [1 << 15] + [0] * 8)) == (
        "adjacency bits beyond order at vertex 0"
    )
    # the first faulty vertex wins, whatever kind of fault comes later
    assert str(_refusal(17, [0] * 16 + [-1])) == (
        "adjacency bits beyond order at vertex 16"
    )
    assert str(_refusal(64, [1 << 63] + [0] * 63)) == "asymmetric edge 0-63"


def test_pykernels_leaf_matches_brute_force():
    checked, bad = leaf_mismatches()
    assert checked == 208 * 4 * 2 * 3
    assert bad == []


# Bound calls of ``bound_mismatches``: the states with a target to hit,
# times n budgets.
BOUNDS_CHECKED = 8154


def test_pykernels_bound_refutes_only_unsolvable_states():
    checked, refuted, bad = bound_mismatches()
    assert checked == BOUNDS_CHECKED
    assert sorted(refuted) == ["has_dominating_set", "has_isolating_set"]
    assert bad == []


def test_pykernels_walks_match_lex_scan():
    checked, bad = walk_mismatches()
    assert checked == WALKS_CHECKED
    assert bad == []


FORGED = {
    "true": None,
    "not-isolating": ["RuntimeError", "kernel witness 3 fails the size-2 check on EhEG"],
    "not-dominating": ["RuntimeError", "kernel witness 3 fails the size-2 check on EhEG"],
    "too-large": ["RuntimeError", "kernel witness 7 fails the size-2 check on EhEG"],
    "none": ["RuntimeError", "kernel witness -1 fails the size-2 check on EhEG"],
}


def test_forged_witness_raises():
    assert forged_witness_outcomes() == FORGED


def test_checks_hold_under_python_O():
    # Under -O every assert is stripped, so a check that leaned on one
    # would accept bad rows or let a wrong answer through here.
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(G.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    code = (
        "import json, test_fast_paths as T\n"
        "print(json.dumps([T.validation_mismatches(), T.leaf_mismatches(),\n"
        "                  T.walk_mismatches(), T.forged_witness_outcomes(),\n"
        "                  T.bound_mismatches()]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    (v_checked, v_bad), (l_checked, l_bad), (w_checked, w_bad), forged, bound = json.loads(
        proc.stdout
    )
    assert v_checked > 1000 and v_bad == []
    assert l_checked == 208 * 4 * 2 * 3 and l_bad == []
    assert w_checked == WALKS_CHECKED and w_bad == []
    assert forged == FORGED
    b_checked, b_refuted, b_bad = bound
    assert b_checked == BOUNDS_CHECKED and len(b_refuted) == 2 and b_bad == []
