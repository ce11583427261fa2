"""Exact-arithmetic verification toolkit for the tricanonical-system and
quotient-curve computations on a rotation-invariant quintic surface.

All kernel arithmetic is exact: big rationals, the cubic field Q(r) with
r^3 + r^2 - 1 = 0, sparse polynomials over it, and integer lattice pairing.
Floating point appears only in test oracles.
"""

# These re-exports are load-bearing: perfbench/run.py times
# `import cgv; cgv.build_cubics()` as its `setup_s`, so `import cgv` must load
# every layer and expose `build_cubics`; trimming this list moves that metric.
from .nf import NFElem, NF_ONE, NF_R, NF_ZERO, nf_invert, nf_reduce, nf_str
from .upoly import UPoly, squarefree_part, upoly_gcd
from .mpoly import MPoly
from .linalg import (circulant_det_formula, circulant_matrix, matrix_det, matrix_rank,
                     nf_kernel_basis)
from .parsing import ParseError, UnknownIdentifierError, parse_poly, parse_scalar
from .geometry import (CoordMap, CubicFamily, LINE_R, LINE_R_PRIME, LineSub,
                       REFERENCE_POINTS, SIGMA, SIGMA2, apply_map, build_cubics,
                       fixed_line_check)
from .divisors import DEFAULT_LATTICE, DivisorClass, IntersectionLattice
from .genus import (AccountingScenario, BinaryForm, ci_genus, cubic_one_root_probe,
                    distinct_points, multiplicity_pattern, quintuple_root_condition,
                    quotient_feasibility, restrict_to_line, rh_relation,
                    three_two_root_condition, witness_pencil_analysis,
                    z4_witness_search)
from .reportlib import CheckReport, RunConfig, render_json, render_text
from .suites import SUITE_NAMES, eval_expr, run_suite
from .tangent import lambda_replay, pairwise_independence, rank_survey

__version__ = "0.1.0"
