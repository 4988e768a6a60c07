"""Exact tools for proper polynomial self-maps of the affine plane.

Properness and topological degree via Groebner bases, branch loci via
elimination, Milnor numbers as intersection multiplicities (Fulton's
algorithm), and the catalog of rank-2 complex reflection groups with
their invariant quotient maps.
"""

from .numberfield import CycloNumber, cyclotomic_polynomial, embed, zeta
from .polyring import (CyclotomicField, MultiPoly, QQ, block_order, DegRevLex,
                       gcd_poly, exact_div, jacobian_det, hessian_det,
                       squarefree_decomposition)
from .parser import PolyParseError, format_poly, parse_map, parse_poly

__all__ = [
    "CycloNumber", "cyclotomic_polynomial", "embed", "zeta",
    "CyclotomicField", "MultiPoly", "QQ", "block_order", "DegRevLex",
    "gcd_poly", "exact_div", "jacobian_det", "hessian_det",
    "squarefree_decomposition",
    "PolyParseError", "format_poly", "parse_map", "parse_poly",
]
