"""Exact engine for Klyachko diagrams of monomial ideals in Cox rings.

Compute diagrams from generators, reconstruct B-saturations, evaluate first
local cohomology and multigraded Hilbert functions, and cross-check every
pipeline against brute-force monomial algebra.
"""

from .diagram import (KlyachkoDiagram, compute_diagram, gaps_by_definition,
                      shift_diagram)
from .errors import (InfiniteRegionError, InputError, KlyachkoError,
                     SearchBoxError)
from .hilbert import (constant_hilbert_poly, hilbert_value,
                      hilbert_value_general, ring_dimension)
from .monomials import (MonomialIdeal, hilbert_oracle, ideal_intersect,
                        ideal_sum, minimalize, monomial_str,
                        monomials_of_degree, saturate_oracle)
from .reconstruction import (GradedPiece, graded_basis, local_cohomology_h1,
                             minimal_generator_exponents,
                             reconstruct_generators, sum_diagram)
from .regions import Cell, LatticeRegion, count_region_points, region_points
from .render import ascii_diagram, svg_diagram
from .toric import (CoxGrading, Fan, compute_grading, hirzebruch, load_fan,
                    named_fan, product_of_projective_spaces, projective_space,
                    validate_fan)

__version__ = "0.1.0"

__all__ = [
    "Cell", "CoxGrading", "Fan", "GradedPiece", "InfiniteRegionError",
    "InputError", "KlyachkoDiagram", "KlyachkoError", "LatticeRegion",
    "MonomialIdeal", "SearchBoxError", "ascii_diagram", "compute_diagram",
    "compute_grading", "constant_hilbert_poly", "count_region_points",
    "gaps_by_definition", "graded_basis", "hilbert_oracle", "hilbert_value",
    "hilbert_value_general", "hirzebruch", "ideal_intersect", "ideal_sum",
    "load_fan", "local_cohomology_h1", "minimal_generator_exponents",
    "minimalize", "monomial_str", "monomials_of_degree", "named_fan",
    "product_of_projective_spaces", "projective_space",
    "reconstruct_generators", "region_points",
    "ring_dimension", "saturate_oracle", "shift_diagram", "sum_diagram",
    "svg_diagram", "validate_fan",
]
