"""The traced benchmark pass wraps layer entry points by name, so a rename
in ``isolab`` would leave a span silently empty, and so would a caller that
bound the function at import. Each hook must resolve, and each span the
benchmark expects must record calls when the query commands run."""

import ast
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from isolab import graphs as G
from isolab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _child():
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def _expected_spans() -> dict:
    # Read without importing run.py, which imports its siblings by bare name.
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXPECTED_SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("run.py defines no EXPECTED_SPANS")


def _hooks():
    child = _child()
    return [(module, attr) for module, attr, _ in child.SPANS + child.COUNTS]


@pytest.mark.parametrize("module, attr", _hooks())
def test_benchmark_hook_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("workload", ["solve", "construct"])
def test_query_spans_record_calls(capsys, monkeypatch, workload):
    child = _child()
    hooks = [(importlib.import_module(m), a) for m, a, _ in child.SPANS + child.COUNTS]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr in hooks]
    lines = "".join(G.write_graph6(g) + "\n" for g in (G.cycle_graph(6), G.path_graph(4)))
    tracer = child.Tracer()
    tracer.install()
    try:
        for argv in (["iso"], ["dom"], ["partition3", "--trace"], ["recognize-g"], ["star"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(lines))
            assert main(argv + ["-"]) == 0
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
    capsys.readouterr()
    calls = {}
    for (name, _), (count, _, _) in tracer.agg.items():
        calls[name] = calls.get(name, 0) + count
    empty = [name for name in _expected_spans()[workload] if not calls.get(name)]
    assert not empty, f"spans without calls: {empty}"
    # iso and dom check each witness with the predicates the benchmark counts
    assert tracer.counts["solvers.is_isolating"] > 0
    assert tracer.counts["solvers.is_dominating"] > 0
