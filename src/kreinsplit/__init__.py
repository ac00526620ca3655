"""Splitting asymptotics of Krein-degenerate unit multipliers.

For a 4x4 linear Hamiltonian flow whose monodromy-style matrix carries a
double, non-semisimple eigenvalue pair on the unit circle, this package
evaluates the closed-form square-root and linear terms of the two
bifurcating eigenvalue branches, classifies strong stability from the
first-order rate, and verifies every number against an independent
eigenvalue oracle.
"""

from .bifurcation import (
    STABLE_FORWARD,
    UNSTABLE_FORWARD,
    CoefficientLadder,
    ExpansionCoefficients,
    classify_stability,
    expansion_eps,
    expansion_t,
    ladder,
    predict_branches,
)
from .errors import (
    AnalysisError,
    InputError,
    KreinsplitError,
)
from .expr import SymmetricCurve, parse
from .flow import FlowSolution, endpoint, endpoints, integrate
from .linalg import (
    J4,
    charpoly,
    exterior_power,
    inner,
    is_symplectic,
    poly_value,
    quartic_roots,
    symplectic_form,
    symplectic_inverse,
)
from .scenario import GridSpec, Scenario, Tolerances, load_scenario, parse_scenario
from .spectral import (
    JordanPair,
    detect_double_unitary,
    eigenvalues,
    jordan_pair,
    make_jordan_symplectic,
    pair_from_vectors,
)
from .verify import BranchTrack, OracleReport, compare, track

__version__ = "0.1.0"

__all__ = [
    "J4",
    "charpoly",
    "exterior_power",
    "inner",
    "is_symplectic",
    "poly_value",
    "quartic_roots",
    "symplectic_form",
    "symplectic_inverse",
    "SymmetricCurve",
    "parse",
    "FlowSolution",
    "integrate",
    "endpoint",
    "endpoints",
    "JordanPair",
    "eigenvalues",
    "detect_double_unitary",
    "make_jordan_symplectic",
    "jordan_pair",
    "pair_from_vectors",
    "CoefficientLadder",
    "ExpansionCoefficients",
    "ladder",
    "expansion_t",
    "expansion_eps",
    "classify_stability",
    "predict_branches",
    "UNSTABLE_FORWARD",
    "STABLE_FORWARD",
    "BranchTrack",
    "OracleReport",
    "track",
    "compare",
    "GridSpec",
    "Tolerances",
    "Scenario",
    "load_scenario",
    "parse_scenario",
    "KreinsplitError",
    "InputError",
    "AnalysisError",
    "__version__",
]
