"""Exact combinatorial invariants of affine Deligne-Lusztig varieties.

The package computes, over any root datum with a finite-order
automorphism: length-positive sets in the extended affine Weyl group,
quantum Bruhat graph distances and weights, Newton and Kottwitz points
and lambda-invariants of sigma-conjugacy classes, Deligne-Lusztig
reduction trees with class polynomials, and the positive Coxeter type
classification with its dimension, path-count and endpoint formulas.
All arithmetic is exact.  The computation runs on integers, through one
fraction-free elimination kernel over Z; Fractions are formed only where
a rational value is handed out: the nu view ``BGClass.nu`` (and
``BGInvariants.newton_of_element``), class keys, the rational wrappers
of ``RootDatum`` (``pi_projection``, ``convex_hull_point``), the CLI's
output and the two rational wrappers of ``adlv.lattice``
(``mat_inverse_rational``, ``solve_rational_combination``).
"""

from .affine import AffineElement, AffineWeyl
from .bg import BGClass, BGInvariants
from .context import Context
from .datum import (BUILTIN_DATA, InvariantError, RootDatum, builtin_datum,
                    datum_from_config, datum_from_json)
from .lattice import QuotientPresentation
from .pct import PCT, PositiveCoxeterPair, very_special_subsets
from .qbg import QuantumBruhatGraph
from .reduction import Reduction, ReductionTree
from .weyl import WeylGroup

__all__ = [
    'AffineElement', 'AffineWeyl', 'BGClass', 'BGInvariants',
    'BUILTIN_DATA', 'Context', 'InvariantError', 'PCT', 'PositiveCoxeterPair',
    'QuantumBruhatGraph', 'QuotientPresentation', 'Reduction', 'ReductionTree', 'RootDatum',
    'WeylGroup', 'builtin_datum', 'datum_from_config', 'datum_from_json',
    'very_special_subsets',
]

__version__ = '0.1.0'
