"""Coherent-state dynamics of anisotropic spin chains and their continuum limit.

The pipeline runs from exact ladder-operator algebra (opalg, fock),
through the classical field equations it induces (symbolmap, models,
latticedyn), to spectral continuum solvers and convergence studies
(continuum, limitlab).  `cli` exposes the whole thing as the `gpchain`
command, whose runners live in `commands`, and `csvout` makes the text
of its CSV numbers.
"""

from importlib import import_module

# each exported name and the module it comes from; a name is imported on
# first use (PEP 562), so `import gpchain` loads no submodule
_EXPORTS = {
    "ParamCoeff": "coeffs",
    "RationalComplex": "coeffs",
    "Grid1D": "continuum",
    "DegenerateTransformError": "limitlab",
    "StudyError": "limitlab",
    "TransformCoefficients": "limitlab",
    "compute_transform": "limitlab",
    "lattice_vs_continuum": "limitlab",
    "truncation_study": "limitlab",
    "CouplingMode": "models",
    "HubbardParams": "models",
    "XXZParams": "models",
    "build_hubbard": "models",
    "build_xxz_bosonized": "models",
    "derive_eom": "models",
    "eqmotannih_reference": "models",
    "Algebra": "opalg",
    "LadderOp": "opalg",
    "OperatorExpr": "opalg",
    "Statistics": "opalg",
    "FieldPoly": "symbolmap",
    "naive_symbol": "symbolmap",
    "ordering_correction": "symbolmap",
    "wick_symbol": "symbolmap",
}

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
    "lattice_vs_continuum",
    "naive_symbol",
    "ordering_correction",
    "truncation_study",
    "wick_symbol",
    "__version__",
]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
