"""Dense matrix realizations of operator expressions on truncated Fock spaces.

This is the numeric oracle for the symbolic layer: any algebraic identity
between expressions must also hold between their matrices, exactly for
fermions and away from the truncation edge for bosons.  to_matrix builds
each word by index arithmetic, with the bits of the dense ladder product.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Iterable, Mapping, Optional

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


def ladder_matrices(
    nsites: int,
    cutoff: int,
    statistics: Statistics,
    nflavors: int = 1,
) -> list:
    """Annihilation matrix for every mode, ordered by flavor*nsites + site.

    `cutoff` is the largest bosonic occupation kept, so the local dimension
    is cutoff+1.  Fermions use local dimension 2 with Jordan-Wigner sign
    strings, which makes the fermionic realization exact.  Each matrix is
    fresh, scattered from its mode's column table, and equals the
    Kronecker product of the local ladders entry for entry.
    """
    dim, tgt, val = _mode_tables(nsites, cutoff, statistics, nflavors)
    out = [np.zeros((dim, dim)) for _ in tgt]
    for a, t, v in zip(out, tgt[:, 0, :dim], val[:, 0, :dim]):
        a[t % dim, np.arange(dim)] = v  # a dead column puts its zero in row 0
    return out


@lru_cache(maxsize=8)
def _mode_tables(nsites: int, cutoff: int, statistics: Statistics,
                 nflavors: int) -> tuple:
    """(dim, tgt, val), built once per space; the arrays are read-only.

    Column j of mode m's annihilator (d = 0) or creator (d = 1) has its
    one nonzero, val[m, d, j], in row tgt[m, d, j].  A column with none
    points at index dim, a dead slot that points at itself.
    """
    nmodes = nflavors * nsites
    fermi = statistics is Statistics.FERMI
    if not fermi and cutoff < 1:
        raise ValueError("bosonic cutoff must be at least 1")
    radix = 2 if fermi else cutoff + 1
    dim = radix**nmodes
    j = np.arange(dim)
    tgt = np.full((nmodes, 2, dim + 1), dim)
    val = np.zeros((nmodes, 2, dim + 1))
    sign = np.ones(dim)  # the Jordan-Wigner string of the modes before m
    for m in range(nmodes):
        stride = radix ** (nmodes - m - 1)  # mode 0 is the leading digit
        occ = j // stride % radix
        tgt[m, :, :dim] = (np.where(occ > 0, j - stride, dim),
                           np.where(occ < radix - 1, j + stride, dim))
        val[m, :, :dim] = sign * np.sqrt(occ), sign * np.sqrt(occ + 1)
        if fermi:
            sign = np.where(occ > 0, -sign, sign)
    tgt.flags.writeable = val.flags.writeable = False
    return dim, tgt, val


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

    A word is realized from the modes' column tables.  A product of ladder
    matrices has at most one nonzero per column, and column j of acc @ F
    is column tgt[j] of acc times val[j].  So row = row[tgt] and
    amp = amp[tgt] * val, run over the factors left to right, form the
    float products of the dense chain eye @ F1 @ F2 @ ... in its order,
    whose other terms add exact zeros.  Words add in term order, as
    coeff * acc, so the bits equal the dense product's.
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
    dim, tgt, val = _mode_tables(nsites, cutoff, expr.statistics, nflavors)
    mat = np.zeros(dim * dim, dtype=complex)
    cols = np.arange(dim + 1)
    # each column's row, as a flat offset, and value; a dead column takes
    # the dead slot's row 0 and value 0, adding c * 0 as the dense sum does
    eye = cols * dim, np.ones(dim + 1)
    eye[0][dim] = eye[1][dim] = 0
    for word, coeff in expr.terms():
        row, amp = eye
        for f in word:
            m = mode_index(f.site, f.flavor, nsites)
            t = tgt[m, int(f.dagger)]
            row, amp = row[t], amp[t] * val[m, int(f.dagger)]
        mat[row[:dim] + cols[:dim]] += coeff.evaluate(bindings) * amp[:dim]
    return mat.reshape(dim, dim)


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
    return reduce(np.kron, vecs) if vecs else np.ones(1, dtype=complex)
