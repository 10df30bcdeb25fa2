"""Chirality operators of coined quantum walks on the binary tree and the
line: truncated operator bundles, circle-loop windings, and Cantor-measure
index pairings."""

from .cantor import Cylinder, Dyadic, ProductMeasure, cylinder_measure
from .index import IndexReport, classify_point, s_index_exact, s_index_montecarlo
from .onedim import LineBundle, build_line, fredholm_index
from .symbol import (HalfLineOperator, PoleData, SymbolLoop, SymbolSingularError,
                     falk_pairing, winding_quadrature, winding_residues)
from .tree import TruncatedTree, truncated_tree
from .treeop import OperatorBundle, build_bundle, check_identities
from .walk import LineWalkSpec, SphereCoeff, ValidationError, WalkSpec

__version__ = "0.1.0"

__all__ = [
    "Cylinder", "Dyadic", "ProductMeasure", "cylinder_measure",
    "IndexReport", "classify_point", "s_index_exact", "s_index_montecarlo",
    "LineBundle", "build_line", "fredholm_index",
    "HalfLineOperator", "PoleData", "SymbolLoop", "SymbolSingularError",
    "falk_pairing", "winding_quadrature", "winding_residues",
    "TruncatedTree", "truncated_tree",
    "OperatorBundle", "build_bundle", "check_identities",
    "LineWalkSpec", "SphereCoeff", "ValidationError", "WalkSpec",
    "__version__",
]
