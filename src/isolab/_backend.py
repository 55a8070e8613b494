"""Kernel backend selection.

The compiled core is used when it is importable; setting ISOLAB_PURE_PYTHON=1
forces the pure-Python fallback (useful for debugging and benchmarks).
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


def backend_name() -> str:
    return kernels.BACKEND_NAME
