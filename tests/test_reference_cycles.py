"""The per-graph entry points leave no reference cycle behind.

A nested function that refers to itself, such as a recursive closure or a
recursive nested generator, forms a cycle with its cell on every call, and
the cycle keeps the call's data alive until the cyclic collector runs. Run
over a seeded corpus with the collector off, each entry point must leave
nothing for ``gc.collect`` to free.
"""

import gc
import random

import pytest

import oracles
from conftest import random_connected_graph, random_sparse_connected
from isolab import family as F
from isolab import lab, partition, solvers


def corpus():
    """Connected graphs of order 6 to 30: relabeled pendant-family members,
    random graphs at mixed density and sparse graphs."""
    rng = random.Random(3407)
    graphs = []
    for i in range(40):
        g = F.build_family_graph(F.random_family_spec(3 * rng.randrange(3, 11), i))
        perm = list(range(g.order))
        rng.shuffle(perm)
        graphs.append(oracles.relabel(g, perm))
        graphs.append(random_connected_graph(rng, rng.randrange(6, 15)))
        graphs.append(random_sparse_connected(rng, rng.randrange(9, 31)))
    return graphs


CORPUS = corpus()
SMALL = [g for g in CORPUS if g.order <= 14]


@pytest.mark.parametrize(
    "run, graphs",
    [
        (F.recognize_family, CORPUS),
        (partition.partition3, CORPUS),
        (lab.find_reducing_star, CORPUS),
        (solvers.isolation_number, SMALL),
        (solvers.domination_number, SMALL),
    ],
    ids=["recognize_family", "partition3", "find_reducing_star",
         "isolation_number", "domination_number"],
)
def test_no_unreachable_objects(run, graphs):
    assert len(graphs) >= 40
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            run(g)
        assert gc.collect() == 0
    finally:
        gc.enable()
