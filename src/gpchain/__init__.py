"""Coherent-state dynamics of anisotropic spin chains and their continuum limit.

The pipeline runs from exact ladder-operator algebra (opalg, fock),
through the classical field equations it induces (symbolmap, models,
latticedyn), to spectral continuum solvers and convergence studies
(continuum, limitlab).  `textform` parses the str() text of expressions;
`cli` exposes the whole thing as the `gpchain` command, and `csvout` makes
the text of its CSV numbers.
"""

from .coeffs import ParamCoeff, RationalComplex
from .continuum import Grid1D
from .limitlab import (
    DegenerateTransformError,
    StudyError,
    TransformCoefficients,
    compute_transform,
    lattice_vs_continuum,
    truncation_study,
)
from .models import (
    CouplingMode,
    HubbardParams,
    XXZParams,
    build_hubbard,
    build_xxz_bosonized,
    derive_eom,
    eqmotannih_reference,
)
from .opalg import Algebra, LadderOp, OperatorExpr, Statistics
from .symbolmap import FieldPoly, naive_symbol, ordering_correction, wick_symbol
from .textform import expr_from_text, poly_from_text

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "CouplingMode",
    "DegenerateTransformError",
    "FieldPoly",
    "Grid1D",
    "HubbardParams",
    "LadderOp",
    "OperatorExpr",
    "ParamCoeff",
    "RationalComplex",
    "Statistics",
    "StudyError",
    "TransformCoefficients",
    "XXZParams",
    "build_hubbard",
    "build_xxz_bosonized",
    "compute_transform",
    "derive_eom",
    "eqmotannih_reference",
    "expr_from_text",
    "lattice_vs_continuum",
    "naive_symbol",
    "ordering_correction",
    "poly_from_text",
    "truncation_study",
    "wick_symbol",
    "__version__",
]
