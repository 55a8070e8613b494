"""Exact isolation computations, tri-partitions, and extremal catalogs.

The API is the submodules: ``isolab.graphs``, ``isolab.solvers``,
``isolab.partition``, ``isolab.family``, ``isolab.lab`` and ``isolab.cli``.
"""
