"""Classical dynamics of the coherent-state field on the lattice.

The fields obey  phi_dot = (i/hbar) P(phi)  where P is the polynomial
right-hand side of  -i hbar phi_dot = P  read off from the operator
equation of motion.  Closed forms for both models are provided, along
with a generic (slow) evaluator driven by FieldPoly objects for
cross-checking.

The chain is periodic.  Every neighbour term gathers through the index
arrays of `_neighbours` (x[ip] is x_{j+1}, x[im] is x_{j-1}); the RHS
factories build those indices and the per-bond coefficient arrays once,
so a call adds only one |phi|^2 and its neighbour gathers to the arithmetic.
"""

from __future__ import annotations

import numpy as np

from .models import HubbardParams, XXZParams


def _neighbours(n: int):
    """Periodic neighbour indices: x[ip] is x_{j+1} and x[im] is x_{j-1}."""
    j = np.arange(n)
    return (j + 1) % n, (j - 1) % n


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
    uniform value J0 - J1 x_xi.  With n_j = |phi_j|^2,

        P_j = s J_j phi_{j+1} + s J_{j-1} phi_{j-1}
              - s (R_j + R_{j-1}) phi_j
              + (R_j n_{j+1} + R_{j-1} n_{j-1}) phi_j - h_j phi_j.

    In wick mode the linear shift +(1/2)(R_j + R_{j-1}) phi_j is added,
    the symbol-ordering difference of the quartic terms.  The neighbour
    indices and the per-bond coefficients are built here, once; each call
    gathers the neighbours of phi and |phi|^2 and does no other setup.
    """
    Jb, Rb = _bond_arrays(p, J_bond, R_bond)
    wick = symbol_mode == "wick"
    if not wick and symbol_mode != "naive":
        raise ValueError(f"symbol_mode must be naive or wick, got {symbol_mode!r}")
    ip, im = _neighbours(p.N)
    Rbm = Rb[im]
    s = p.s
    # Coefficients of phi terms are stored complex: numpy casts a real
    # factor to complex before multiplying a complex array anyway, so the
    # products keep their bits and the call skips the cast.
    sJ, sJm, sR, h, shift = (
        np.asarray(c, dtype=complex)
        for c in (s * Jb, s * Jb[im], s * (Rb + Rbm), p.h, 0.5 * (Rb + Rbm)))
    scale = 1j / p.hbar

    def f(t, phi):
        u = phi[0]
        n = np.abs(u) ** 2
        P = sJ * u[ip] + sJm * u[im]
        P -= sR * u
        P += (Rb * n[ip] + Rbm * n[im]) * u
        P -= h * u
        if wick:
            P += shift * u
        return scale * P[None, :]

    return f


def hubbard_rhs(p: HubbardParams):
    """RHS function f(t, phi) for the two-flavor chain; phi has shape (2, N).

        P_{j,kappa} = 2t (phi_{j+1,kappa} + phi_{j-1,kappa})
                      - U_j n_{j,1-kappa} phi_{j,kappa}
    """
    U = np.asarray(p.U, dtype=float)
    ip, im = _neighbours(p.N)
    scale = 1j / p.hbar
    two_t = 2.0 * p.t

    def f(t, phi):
        other = (np.abs(phi) ** 2)[::-1]
        P = two_t * (phi[:, ip] + phi[:, im]) - U * other * phi
        return scale * P

    return f


def rhs_from_polys(polys, bindings, hbar: float = 1.0):
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
    ip, _ = _neighbours(u.size)
    h = np.asarray(p.h, dtype=float)
    energy = (
        -2.0 * p.s * np.sum(Jb * np.real(np.conj(u) * u[ip]))
        - np.sum(Rb * (p.s - n) * (p.s - n[ip]))
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
    ip, _ = _neighbours(phi.shape[1])
    hop = -4.0 * p.t * np.sum(np.real(np.conj(phi) * phi[:, ip]))
    inter = np.sum(U * n[1] * n[0])
    return {
        "norm": float(n.sum()),
        "norm_flavor0": float(n[0].sum()),
        "norm_flavor1": float(n[1].sum()),
        "energy": float(hop + inter),
    }
