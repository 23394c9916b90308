"""Dense matrix realizations of operator expressions on truncated Fock spaces.

This is the numeric oracle for the symbolic layer: any algebraic identity
between expressions must also hold between their matrices, exactly for
fermions and away from the truncation edge for bosons.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .opalg import OperatorExpr, Statistics

__all__ = [
    "mode_index",
    "ladder_matrices",
    "to_matrix",
    "interior_mask",
    "max_interior_diff",
    "coherent_state",
]


def mode_index(site: int, flavor: int, nsites: int) -> int:
    return flavor * nsites + site


def _kron_chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, mats)


def ladder_matrices(
    nsites: int,
    cutoff: int,
    statistics: Statistics,
    nflavors: int = 1,
) -> list:
    """Annihilation matrix for every mode, ordered by flavor*nsites + site.

    `cutoff` is the largest bosonic occupation kept, so the local dimension
    is cutoff+1.  Fermions use local dimension 2 with Jordan-Wigner sign
    strings, which makes the fermionic realization exact.  The matrices
    are fresh copies the caller may write into.
    """
    return [a.copy() for a in _ladders(nsites, cutoff, statistics, nflavors)]


@lru_cache(maxsize=8)
def _ladders(nsites: int, cutoff: int, statistics: Statistics,
             nflavors: int) -> tuple:
    """ladder_matrices, built once per argument set; the arrays are read-only."""
    nmodes = nflavors * nsites
    if statistics is Statistics.FERMI:
        sm = np.array([[0.0, 1.0], [0.0, 0.0]])
        z = np.diag([1.0, -1.0])
        eye = np.eye(2)
        factors = [[z] * m + [sm] + [eye] * (nmodes - m - 1) for m in range(nmodes)]
    else:
        if cutoff < 1:
            raise ValueError("bosonic cutoff must be at least 1")
        a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
        eye = np.eye(cutoff + 1)
        factors = [[eye] * m + [a] + [eye] * (nmodes - m - 1) for m in range(nmodes)]
    out = tuple(_kron_chain(f) for f in factors)
    for mat in out:
        mat.flags.writeable = False
    return out


def to_matrix(
    expr: OperatorExpr,
    nsites: int,
    cutoff: Optional[int] = None,
    bindings: Optional[Mapping[str, complex]] = None,
    nflavors: Optional[int] = None,
) -> np.ndarray:
    """Realize an expression as a dense complex matrix.

    Sites must lie in [0, nsites).  `bindings` supplies numeric values for
    every parameter appearing in the coefficients.  `cutoff` is the largest
    bosonic occupation kept (default: expression degree + 2); for fermions
    it is ignored (the local dimension is 2).
    """
    if bindings is None:
        bindings = {}
    if cutoff is None:
        cutoff = expr.degree() + 2
    if nflavors is None:
        nflavors = max(expr.flavors(), default=0) + 1
    for s in expr.sites():
        if not 0 <= s < nsites:
            raise ValueError(f"site {s} outside [0, {nsites})")
    for f in expr.flavors():
        if not 0 <= f < nflavors:
            raise ValueError(f"flavor {f} outside [0, {nflavors})")
    ann = _ladders(nsites, cutoff, expr.statistics, nflavors)
    dim = ann[0].shape[0] if ann else 1
    mat = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(dim)
    for word, coeff in expr.terms():
        acc = eye
        for f in word:
            m = mode_index(f.site, f.flavor, nsites)
            factor = ann[m].conj().T if f.dagger else ann[m]
            acc = acc @ factor
        mat += coeff.evaluate(bindings) * acc
    return mat


def interior_mask(
    nsites: int,
    cutoff: int,
    margin: int,
    statistics: Statistics = Statistics.BOSE,
    nflavors: int = 1,
) -> np.ndarray:
    """Boolean mask over basis states with every occupation <= cutoff - margin.

    States selected by this mask are immune to bosonic truncation artifacts
    for operators of degree <= margin.  Fermionic spaces are exact, so the
    mask is all True there.
    """
    nmodes = nflavors * nsites
    if statistics is Statistics.FERMI:
        return np.ones(2**nmodes, dtype=bool)
    dim = (cutoff + 1) ** nmodes
    radix = cutoff + 1
    idx = np.arange(dim)
    occ = np.empty((dim, nmodes), dtype=np.int64)
    for m in range(nmodes):
        # mode 0 is the most significant factor in the kron ordering
        occ[:, m] = (idx // radix ** (nmodes - m - 1)) % radix
    return (occ <= cutoff - margin).all(axis=1)


def max_interior_diff(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> float:
    """Largest entrywise difference restricted to interior columns."""
    d = np.abs(a[:, mask] - b[:, mask])
    return float(d.max()) if d.size else 0.0


def coherent_state(
    phis: Iterable[complex],
    cutoff: int,
) -> np.ndarray:
    """Truncated product coherent state |phi_0> x |phi_1> x ... (bosonic)."""
    vecs = []
    n = np.arange(cutoff + 1)
    lognf = np.cumsum(np.log(np.maximum(n, 1)))
    for phi in phis:
        phi = complex(phi)
        amp = np.exp(-abs(phi) ** 2 / 2) * phi**n / np.exp(lognf / 2)
        vecs.append(amp)
    return _kron_chain(vecs) if vecs else np.ones(1, dtype=complex)
