"""Classical dynamics of the coherent-state field on the lattice.

The fields obey  phi_dot = (i/hbar) P(phi)  where P is the polynomial
right-hand side of  -i hbar phi_dot = P  read off from the operator
equation of motion.  Closed forms for both models are provided, along
with a generic (slow) evaluator driven by FieldPoly objects for
cross-checking.

The chain is periodic.  Every neighbour term gathers through the index
arrays of `_neighbours` (x[ip] is x_{j+1}, x[im] is x_{j-1}).  The RHS
factories build those indices, concatenated, and the per-site coefficient
arrays once.  A call makes one gather, x.take(concatenate([ip, im])),
which holds both neighbours of every site; it forms each neighbour
product in one call over both halves and then adds the halves, so every
element sees the same operations, in the same order, as in the np.roll
form the tests keep.
The indices may also split the sites into consecutive rings, each periodic
on its own, so that one call advances several independent chains.
"""

from __future__ import annotations

import numpy as np

from .models import HubbardParams, XXZParams


def _neighbours(n: int, rings=None):
    """Periodic neighbour indices: x[ip] is x_{j+1} and x[im] is x_{j-1}.

    rings, a sequence of sizes summing to n, splits the n sites into
    consecutive rings, each periodic on its own; the default is one ring.
    """
    rings = (n,) if rings is None else tuple(int(r) for r in rings)
    if sum(rings) != n or min(rings) < 1:
        raise ValueError(f"rings {rings} must be positive sizes summing to {n}")
    ips, ims, start = [], [], 0
    for size in rings:
        j = np.arange(size)
        ips.append(start + (j + 1) % size)
        ims.append(start + (j - 1) % size)
        start += size
    return np.concatenate(ips), np.concatenate(ims)


def _bond_arrays(p: XXZParams):
    """The couplings J = J0 - J1 x_xi and R = R0 - R1 x_xi of every bond,
    as per-site arrays: array factors keep the bits of the RHS and energy
    that the golden outputs pin."""
    return (np.full(p.N, p.J0 - p.J1 * p.x_xi, dtype=float),
            np.full(p.N, p.R0 - p.R1 * p.x_xi, dtype=float))


def xxz_rhs(p: XXZParams, symbol_mode: str = "naive", rings=None):
    """RHS function f(t, phi) for the chain; phi has shape (1, N).

    Every bond carries the couplings J = J0 - J1 x_xi and R = R0 - R1 x_xi.
    rings, a tuple of sizes summing to N, splits the N sites into
    consecutive rings, each periodic on its own: the last bond of a ring
    joins its last site to its first.  Every site is updated from its own
    neighbours and coefficients, so each ring's result equals, bit for
    bit, a call on that ring alone.  The default is one ring of N.  With
    n_j = |phi_j|^2,

        P_j = s J (phi_{j+1} + phi_{j-1}) - 2 s R phi_j
              + R (n_{j+1} + n_{j-1}) phi_j - h_j phi_j.

    In wick mode the linear shift +R phi_j is added, the symbol-ordering
    difference of the quartic terms.  The neighbour indices and the
    per-site coefficients are built here, once, and so is the choice of
    terms: when every h_j is zero the call skips the site term, since
    P - 0 phi differs from P only in the sign of an exact zero, or where
    phi is already non-finite.  Each call gathers both neighbours of phi
    in one take, squares the moduli of what it gathered, scales P by
    i/hbar in place, and does no other setup.
    """
    Jb, Rb = _bond_arrays(p)
    wick = symbol_mode == "wick"
    if not wick and symbol_mode != "naive":
        raise ValueError(f"symbol_mode must be naive or wick, got {symbol_mode!r}")
    nb = np.concatenate(_neighbours(p.N, rings))
    N = p.N
    s = p.s
    # Coefficients of phi terms are stored complex: numpy casts a real
    # factor to complex before multiplying a complex array anyway, so the
    # products keep their bits and the call skips the cast.  The
    # neighbour coefficients are doubled to match the one gather.
    sJ2, sR, h, shift = (
        np.asarray(c, dtype=complex)
        for c in (np.tile(s * Jb, 2), s * (2.0 * Rb), p.h, Rb))
    R2 = np.tile(Rb, 2)
    field = any(v != 0.0 for v in p.h)
    scale = 1j / p.hbar

    def f(t, phi):
        u = phi[0]
        g = u.take(nb)  # phi_{j+1}, then phi_{j-1}
        hop = sJ2 * g
        P = hop[:N] + hop[N:]
        P -= sR * u
        pair = R2 * (np.abs(g) ** 2)
        P += (pair[:N] + pair[N:]) * u
        if field:
            P -= h * u
        if wick:
            P += shift * u
        # scale * P into P; P *= scale would swap the operands
        np.multiply(scale, P, out=P)
        return P[None, :]

    return f


def hubbard_rhs(p: HubbardParams):
    """RHS function f(t, phi) for the two-flavor chain; phi has shape (2, N).

        P_{j,kappa} = 2t (phi_{j+1,kappa} + phi_{j-1,kappa})
                      - U_j n_{j,1-kappa} phi_{j,kappa}

    Each call gathers both neighbours of both flavors in one take and
    scales P by i/hbar in place.
    """
    U = np.asarray(p.U, dtype=float)
    nb = np.concatenate(_neighbours(p.N))
    N = p.N
    scale = 1j / p.hbar
    # The hopping factor is stored complex, as xxz_rhs stores its
    # coefficients: the products keep their bits, and P is complex for
    # any phi, so it can be scaled in place.
    two_t = complex(2.0 * p.t)

    def f(t, phi):
        other = (np.abs(phi) ** 2)[::-1]
        g = phi.take(nb, axis=1)  # phi_{j+1}, then phi_{j-1}
        P = two_t * (g[:, :N] + g[:, N:])
        P -= U * other * phi
        np.multiply(scale, P, out=P)
        return P

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


def xxz_observables(phi, p: XXZParams) -> dict:
    """Norm and energy of a chain configuration.

    The energy is the classical Hamiltonian whose canonical flow is the
    naive-mode equation of motion:

        E = -2 s J sum_b Re(phi_b* phi_{b+1})
            - R sum_b (s - n_b)(s - n_{b+1})
            - sum_j h_j (s - n_j)
    """
    u = np.atleast_2d(phi)[0]
    Jb, Rb = _bond_arrays(p)
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
