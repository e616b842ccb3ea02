"""Betti tables of path ideals of graphs.

Two independent routes to the same numbers: a brute-force oracle (reduced
homology over a prime field of the strict Taylor subcomplex, Hochster's
complex Δ_W or its Alexander dual K^W, whichever is smallest) and closed
formulas for lines, cycles, and stars.  The CLI front end lives in
pathbetti.cli.
"""

from .betti import BettiTable, graded_betti_table, multigraded_betti
from .complexes import SimplicialComplex, SizeCapError, faces_by_dim, make_complex, omega_complex
from .formulas import (
    FormulaTable,
    UnsupportedFormulaError,
    binomial,
    cycle_graded_formula,
    formula_betti_table,
    line_graded_formula,
    line_multigraded_formula,
    omega_homology_dims_formula,
    star_graded_formula,
)
from .graphs import Graph, enumerate_t_paths, graph_from_edges, graph_from_json, standard_graph
from .homology import DEFAULT_PRIME, is_prime, reduced_homology_dims, validate_prime
from .ideals import MonomialIdeal, ideal_lcm, is_lcm_closed, path_ideal, taylor_strict_sub

__version__ = "0.1.0"
