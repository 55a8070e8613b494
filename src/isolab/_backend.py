"""Kernel backend selection.

The compiled core is used when it is importable; setting ISOLAB_PURE_PYTHON=1
forces the pure-Python fallback (useful for debugging and benchmarks).
``use_backend`` switches the kernels at run time.
"""

from __future__ import annotations

import os

if os.environ.get("ISOLAB_PURE_PYTHON"):
    from isolab import _pykernels as kernels
else:
    try:
        from isolab import _core as kernels  # type: ignore[no-redef]
    except ImportError:
        from isolab import _pykernels as kernels  # type: ignore[no-redef]

canon_form = kernels.canon_form
has_isolating_set = kernels.has_isolating_set
has_dominating_set = kernels.has_dominating_set
first_isolating_set = kernels.first_isolating_set
first_dominating_set = kernels.first_dominating_set


def use_backend(module):
    """Back ``canon_form``, ``has_isolating_set``, ``has_dominating_set``,
    ``first_isolating_set`` and ``first_dominating_set`` with the kernel
    module ``module`` (``isolab._pykernels`` or ``isolab._core``) and
    return the module that backed them before."""
    global kernels, canon_form, has_isolating_set, has_dominating_set
    global first_isolating_set, first_dominating_set
    previous = kernels
    kernels = module
    canon_form = module.canon_form
    has_isolating_set = module.has_isolating_set
    has_dominating_set = module.has_dominating_set
    first_isolating_set = module.first_isolating_set
    first_dominating_set = module.first_dominating_set
    return previous


def backend_name() -> str:
    return kernels.BACKEND_NAME
