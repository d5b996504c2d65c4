"""Exact arithmetic for Hurwitz quaternions and progression-free densities.

The package computes, in exact integer and rational arithmetic:
quaternion factorization following a prescribed norm model, counts of
Hurwitz integers by norm, density bounds for sets free of three-term
geometric progressions, the Euler product for the density of elements
with Rankin norm, greedy progression-free selections both for
quaternions and for the free product of two involutions, and explicit
arithmetic-progression witnesses for everything the integer greedy
rejects.

Which progressions count: ``greedy.build_greedy`` and
``quaternion.is_gp_triple`` count right-ratio progressions a, a*r,
a*r*r, where r is a Hurwitz integer of norm at least 2.
``density.verify_annuli_gp_free``, and with it the lower bound
0.946589, counts integer norm ratios k >= 2, the norm triples
(n, n*k, n*k*k).  The free-group greedies follow two conventions of
their own, one for words and one for integers; the ``freegroup``
module docstring states them.

The root re-exports only HurwitzInt, factor_modelled and build_greedy;
every other name lives in its submodule (counting, density, freegroup,
greedy, quaternion, checks, cli).
"""

from .greedy import build_greedy
from .quaternion import HurwitzInt, factor_modelled

__version__ = "0.1.0"

__all__ = ["HurwitzInt", "build_greedy", "factor_modelled"]
