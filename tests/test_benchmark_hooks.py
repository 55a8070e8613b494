"""The traced benchmark pass wraps layer entry points by name, so a rename
in ``isolab`` would leave a span silently empty. Each hook must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return [(module, attr) for module, attr, _ in child.SPANS + child.COUNTS]


@pytest.mark.parametrize("module, attr", _hooks())
def test_benchmark_hook_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
