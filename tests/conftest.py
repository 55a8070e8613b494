import importlib.util
import os
import random
import shutil
import subprocess
import sysconfig

import pytest

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
