"""Exact Mahler measure dynamics on algebraic numbers.

The modules are imported by name (``mahlerdyn.mahler``, ``mahlerdyn.classify``,
...); this file only marks the directory as a package.
"""
