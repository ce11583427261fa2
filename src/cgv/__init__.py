"""Exact-arithmetic verification toolkit for the tricanonical-system and
quotient-curve computations on a rotation-invariant quintic surface.

All kernel arithmetic is exact: big rationals, the cubic field Q(r) with
r^3 + r^2 - 1 = 0, sparse polynomials over it, and integer lattice pairing.
Floating point appears only in test oracles.
"""

# Callers import the submodules.  `import cgv` still loads every layer but the
# command line (the suites import the rest), because the benchmark times
# `import cgv; cgv.build_cubics()` as its set-up.
from . import suites  # noqa: F401
from .geometry import build_cubics  # noqa: F401

__version__ = "0.1.0"
