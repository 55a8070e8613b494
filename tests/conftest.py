import importlib.util
import os
import random
import shutil
import subprocess
import sysconfig

import pytest

import oracles
from isolab import _backend
from isolab import family as F
from isolab import graphs as G
from isolab import lab


@pytest.fixture(scope="session")
def small_connected():
    """Connected catalogs for orders 1..7, parsed once."""
    return {
        n: [G.parse_graph6(line) for line in lab.enumerate_connected(n)]
        for n in range(1, 8)
    }


@pytest.fixture(scope="session")
def triangle_free():
    """``triangle_free_graphs()``, built once."""
    return triangle_free_graphs()


@pytest.fixture(scope="session")
def core(tmp_path_factory):
    """The compiled kernels: the installed ``isolab._core`` if there is one,
    else ``_core.c`` built with the local C compiler, where any warning fails
    the build (the C file is hand-maintained source). Skips when neither a
    compiler nor the Python headers are available."""
    try:
        from isolab import _core

        return _core
    except ImportError:
        pass
    cc = shutil.which("cc") or shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if cc is None:
        pytest.skip("_core not built and no C compiler found")
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("_core not built and Python.h not found")
    source = os.path.join(os.path.dirname(lab.__file__), "_core.c")
    target = tmp_path_factory.mktemp("core") / (
        "_core" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    build = subprocess.run(
        [cc, "-shared", "-fPIC", "-O2", "-Wall", "-Wextra", "-Werror",
         "-isystem", include, source, "-o", str(target)],
        capture_output=True, text=True,
    )
    if build.returncode:
        pytest.fail(f"compiling _core.c failed:\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("isolab._core", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def use_backend():
    """``_backend.use_backend``, with the module that backed the kernels
    before the test restored after it."""
    before = _backend.kernels
    yield _backend.use_backend
    _backend.use_backend(before)


def random_graph(rng: random.Random, n: int, p: float) -> G.Graph:
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return G.Graph(n, tuple(adj))


def random_connected_graph(rng: random.Random, n: int) -> G.Graph:
    while True:
        g = random_graph(rng, n, rng.choice([0.15, 0.25, 0.4, 0.6, 0.8]))
        if G.is_connected(g):
            return g


def _shuffled(rng: random.Random, n: int, edges) -> G.Graph:
    labels = list(range(n))
    rng.shuffle(labels)
    return G.from_edges(n, [(labels[u], labels[v]) for u, v in edges])


def random_tree(rng: random.Random, n: int) -> G.Graph:
    return _shuffled(rng, n, [(v, rng.randrange(v)) for v in range(1, n)])


def random_sparse_connected(rng: random.Random, n: int) -> G.Graph:
    """A random tree plus up to n/4 random extra edges."""
    edges = {(v, rng.randrange(v)) for v in range(1, n)}
    for _ in range(rng.randrange(n // 4 + 1)):
        u, v = rng.sample(range(n), 2)
        edges.add((max(u, v), min(u, v)))
    return _shuffled(rng, n, edges)


def random_min_degree3(rng: random.Random, n: int) -> G.Graph:
    """A random tree plus random edges at each vertex of degree below 3."""
    edges = {(v, rng.randrange(v)) for v in range(1, n)}
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for v in range(n):
        while degree[v] < 3:
            u = rng.choice([u for u in range(n) if u != v and (max(u, v), min(u, v)) not in edges])
            edges.add((max(u, v), min(u, v)))
            degree[u] += 1
            degree[v] += 1
    return _shuffled(rng, n, sorted(edges))


def random_subdivision(rng: random.Random, core: int, n: int) -> G.Graph:
    """K_core with its edges subdivided at random up to n vertices: a
    2-connected graph with many degree-2 vertices."""
    paths = {(i, j): [] for i in range(core) for j in range(i + 1, core)}
    keys = sorted(paths)
    for v in range(core, n):
        paths[rng.choice(keys)].append(v)
    edges = []
    for (i, j), inner in paths.items():
        walk = [i] + inner + [j]
        edges += zip(walk, walk[1:])
    return _shuffled(rng, n, edges)


def random_theta(rng: random.Random, n: int) -> G.Graph:
    """Two poles joined by three to six internally disjoint paths, at most
    one of them a single edge, on n vertices."""
    count = rng.randrange(3, 7)
    direct = rng.random() < 0.5
    inner = list(range(2, n))
    cuts = sorted(rng.sample(range(1, len(inner)), count - direct - 1))
    runs = [inner[a:b] for a, b in zip([0] + cuts, cuts + [len(inner)])]
    if direct:
        runs.append([])
    edges = []
    for run in runs:
        walk = [0] + run + [1]
        edges += zip(walk, walk[1:])
    return _shuffled(rng, n, edges)


def leafy_and_dense_graphs():
    """200 pendant-family graphs, relabeled at random, and 200 graphs of
    minimum degree 3, all of order 9 to 30."""
    rng = random.Random(2043)
    graphs = []
    for seed in range(200):
        g = F.build_family_graph(F.random_family_spec(rng.choice(range(9, 31, 3)), seed))
        labels = list(range(g.order))
        rng.shuffle(labels)
        graphs.append(oracles.relabel(g, labels))
    graphs += [random_min_degree3(rng, rng.randrange(9, 31)) for _ in range(200)]
    return graphs


def _has_path_of_five(adj, u, v):
    """Whether some simple u-v path has exactly five edges in the rows adj."""
    stack = [(u, 1 << u, 1)]
    while stack:
        w, used, depth = stack.pop()
        if depth == 5:
            if adj[w] >> v & 1:
                return True
            continue
        for x in G.bit_list(adj[w] & ~used & ~(1 << v)):
            stack.append((x, used | 1 << x, depth + 1))
    return False


def random_triangle_free_min_degree3(rng: random.Random, n: int, no_six: bool = False) -> G.Graph:
    """A random tree plus random edges at each vertex of degree below 3,
    none of which closes a triangle or, with ``no_six``, a 6-cycle; drawn
    again when some vertex is left without a partner."""
    while True:
        adj = [0] * n
        for v in range(1, n):
            u = rng.randrange(v)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        for v in range(n):
            while adj[v].bit_count() < 3:
                partners = [
                    u for u in range(n)
                    if u != v and not adj[v] >> u & 1 and not adj[u] & adj[v]
                    and not (no_six and _has_path_of_five(adj, v, u))
                ]
                if not partners:
                    break
                u = rng.choice(partners)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            else:
                continue
            break
        else:
            edges = [(u, v) for u in range(n) for v in G.bit_list(adj[u]) if u < v]
            return _shuffled(rng, n, edges)


def triangle_free_graphs():
    """150 triangle-free graphs of minimum degree 3 and order 10 to 40, then
    50 of order 20 to 40 with no 6-cycle either, so that the least cycle of
    length divisible by 3 has length 6 in the first and at least 9 in the
    second."""
    rng = random.Random(4057)
    graphs = [random_triangle_free_min_degree3(rng, rng.randrange(10, 41)) for _ in range(150)]
    graphs += [random_triangle_free_min_degree3(rng, rng.randrange(20, 41), True) for _ in range(50)]
    return graphs
