"""Classical dynamics of the coherent-state field on the lattice.

The fields obey  phi_dot = (i/hbar) P(phi)  where P is the polynomial
right-hand side of  -i hbar phi_dot = P  read off from the operator
equation of motion.  Closed forms for both models are provided, along
with a generic (slow) evaluator driven by FieldPoly objects for
cross-checking.
"""

from __future__ import annotations

import numpy as np

from .models import HubbardParams, XXZParams


def _bond_arrays(p: XXZParams, J_bond, R_bond):
    J_bond = np.full(p.N, p.J0 - p.J1 * p.x_xi) if J_bond is None else J_bond
    R_bond = np.full(p.N, p.R0 - p.R1 * p.x_xi) if R_bond is None else R_bond
    J_bond, R_bond = np.asarray(J_bond, dtype=float), np.asarray(R_bond, dtype=float)
    if J_bond.shape != (p.N,) or R_bond.shape != (p.N,):
        raise ValueError(f"bond arrays must have shape ({p.N},)")
    return J_bond, R_bond


def xxz_rhs(p: XXZParams, symbol_mode: str = "naive", J_bond=None, R_bond=None):
    """RHS function f(t, phi) for the chain; phi has shape (1, N).

    Bond b couples sites b and b+1 (periodic); J_bond[b] defaults to the
    uniform value J0 - J1 x_xi.  In wick mode the linear shift
    +(1/2)(R_b + R_{b-1}) phi_i is added to P, the symbol-ordering
    difference of the quartic terms.
    """
    Jb, Rb = _bond_arrays(p, J_bond, R_bond)
    Jbm = np.roll(Jb, 1)
    Rbm = np.roll(Rb, 1)
    h = np.asarray(p.h, dtype=float)
    s = p.s
    wick = symbol_mode == "wick"
    if not wick and symbol_mode != "naive":
        raise ValueError(f"symbol_mode must be naive or wick, got {symbol_mode!r}")
    scale = 1j / p.hbar

    def f(t, phi):
        u = phi[0]
        up = np.roll(u, -1)
        um = np.roll(u, 1)
        P = s * Jb * up + s * Jbm * um
        P -= s * (Rb + Rbm) * u
        P += (Rb * np.abs(up) ** 2 + Rbm * np.abs(um) ** 2) * u
        P -= h * u
        if wick:
            P += 0.5 * (Rb + Rbm) * u
        return scale * P[None, :]

    return f


def hubbard_rhs(p: HubbardParams):
    """RHS function f(t, phi) for the two-flavor chain; phi has shape (2, N)."""
    U = np.asarray(p.U, dtype=float)
    scale = 1j / p.hbar
    two_t = 2.0 * p.t

    def f(t, phi):
        up = np.roll(phi, -1, axis=1)
        um = np.roll(phi, 1, axis=1)
        other = np.abs(phi[::-1]) ** 2
        P = two_t * (up + um) - U * other * phi
        return scale * P

    return f


def rhs_from_polys(polys, bindings, hbar: float = 1.0, nflavors: int = 1):
    """Generic RHS from per-mode polynomials P with -i hbar phi_dot = P.

    polys maps (site, flavor) -> FieldPoly (or site -> FieldPoly for a
    single flavor).  Slow; meant for cross-checks against the closed
    forms.
    """
    scale = 1j / hbar

    def f(t, phi):
        out = np.zeros_like(phi)
        for key, poly in polys.items():
            site, flavor = key if isinstance(key, tuple) else (key, 0)
            out[flavor, site] = scale * poly.evaluate(phi, bindings)
        return out

    return f


def xxz_observables(phi, p: XXZParams, J_bond=None, R_bond=None) -> dict:
    """Norm and energy of a chain configuration.

    The energy is the classical Hamiltonian whose canonical flow is the
    naive-mode equation of motion:

        E = -2 s sum_b J_b Re(phi_b* phi_{b+1})
            - sum_b R_b (s - n_b)(s - n_{b+1})
            - sum_j h_j (s - n_j)
    """
    u = np.atleast_2d(phi)[0]
    Jb, Rb = _bond_arrays(p, J_bond, R_bond)
    n = np.abs(u) ** 2
    up = np.roll(u, -1)
    npp = np.roll(n, -1)
    h = np.asarray(p.h, dtype=float)
    energy = (
        -2.0 * p.s * np.sum(Jb * np.real(np.conj(u) * up))
        - np.sum(Rb * (p.s - n) * (p.s - npp))
        - np.sum(h * (p.s - n))
    )
    return {"norm": float(np.sum(n)), "energy": float(energy)}


def hubbard_observables(phi, p: HubbardParams) -> dict:
    """Norms (total and per flavor) and energy of a two-flavor configuration.

        E = -2 t sum_{j,kappa} (phi*_{j,kappa} phi_{j+1,kappa} + c.c.)
            + sum_j U_j n_{j,1} n_{j,0}
    """
    phi = np.atleast_2d(phi)
    U = np.asarray(p.U, dtype=float)
    n = np.abs(phi) ** 2
    up = np.roll(phi, -1, axis=1)
    hop = -4.0 * p.t * np.sum(np.real(np.conj(phi) * up))
    inter = np.sum(U * n[1] * n[0])
    return {
        "norm": float(n.sum()),
        "norm_flavor0": float(n[0].sum()),
        "norm_flavor1": float(n[1].sum()),
        "energy": float(hop + inter),
    }
