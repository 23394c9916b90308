"""Spectral solvers for the continuum field equations.

Three right-hand sides appear on the way from the lattice to the GP
equation, all on a periodic interval of length L:

  pretransform: the direct continuum limit of the lattice equation of
      motion, with the grid spacing restored on every second-derivative
      term so the limit can be studied quantitatively;
  precursor: the same equation after rescaling field, space and time,
      carrying small dispersive corrections with an adjustable overall
      scale;
  gp: i u_t = u - u_xx - |u|^2 u - V u, integrated either spectrally
      with RK4 or by a norm-preserving Strang split step.

All three belong to one cubic-dispersive family and share one fused
RHS, which also evolves the rows of an (R, M) array as independent
fields, so a batch of runs on one grid makes one integration.

The GP equation and the coupled two-flavor equation also have Strang
split steps on plain arrays, both through one row-batched kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .models import XXZParams


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid: M points on [0, L)."""

    L: float
    M: int

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L!r}")
        if self.M < 8 or self.M & (self.M - 1):
            raise ValueError(f"M must be a power of two, at least 8, got {self.M!r}")

    @property
    def dx(self) -> float:
        return self.L / self.M

    @property
    def xs(self) -> np.ndarray:
        return np.arange(self.M) * self.dx

    @cached_property
    def k(self) -> np.ndarray:
        """Angular wavenumbers in FFT order; computed once, read-only."""
        return _readonly(2.0 * np.pi * np.fft.fftfreq(self.M, d=self.dx))

    @cached_property
    def _dealias(self) -> np.ndarray:
        idx = np.fft.fftfreq(self.M, d=1.0 / self.M)
        return _readonly(np.abs(idx) <= self.M // 3)

    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask over the wavenumbers; computed once, read-only."""
        return self._dealias


def spectral_derivative(values, grid: Grid1D, order: int = 1) -> np.ndarray:
    vh = np.fft.fft(values)
    return np.fft.ifft((1j * grid.k) ** order * vh)


def _per_row(c):
    """A scalar coefficient, or one value per row shaped (R, 1) to broadcast."""
    a = np.asarray(c)
    return a if a.ndim == 0 else a.reshape(-1, 1)


def _cubic_rhs(grid: Grid1D, scale, lin, d2, cubic, grad=0.0, pair=0.0,
               V=None, dealias: bool = True):
    """du/dt for the cubic-dispersive family shared by every spectral RHS:

        du/dt = scale [ (lin - V) u + d2 u_xx
                        + D( cubic |u|^2 u + grad |u_x|^2 u
                             + pair (u* u_xx + u u*_xx) ) ]

    D is the 2/3-rule dealias filter (the identity when dealias is
    False).  u may be one field of shape (M,) or R independent fields of
    shape (R, M); each coefficient is a scalar or holds one value per
    row.  The nonlinear terms are summed in physical space and filtered
    together (the mask is linear), and the linear part is applied in
    spectral space.  u_x and u_xx do not depend on each other, so they
    share one ifft over a stacked (2, ..., M) array, whose rows come out
    bit-identical to separate calls.  That is one call per dependent
    stage: four FFTs per evaluation with gradients, three when
    grad = pair = 0, and one fewer without dealiasing.
    """
    scale, lin, d2, cubic, grad, pair = (
        _per_row(c) for c in (scale, lin, d2, cubic, grad, pair))
    gradients = bool(np.any(grad != 0) or np.any(pair != 0))
    minus_k2 = -grid.k ** 2
    # i k and -k^2 as one complex (2, M) array; the cast to complex is the
    # one the product with a complex spectrum would make
    derivs = np.stack([1j * grid.k, minus_k2])
    lin_hat = scale * (lin + d2 * minus_k2)
    c_cubic, c_grad, c_pair = scale * cubic, scale * grad, 2.0 * scale * pair
    sV = None if V is None else scale * np.asarray(V, dtype=float)
    mask = grid.dealias_mask().astype(float) if dealias else None

    def f(t, u):
        uh = np.fft.fft(u)
        nl = c_cubic * (u.real ** 2 + u.imag ** 2) * u
        if gradients:
            u_x, u_xx = np.fft.ifft((derivs if u.ndim == 1 else derivs[:, None]) * uh)
            nl += c_grad * (u_x.real ** 2 + u_x.imag ** 2) * u
            # u* u_xx + u u*_xx is real: twice Re(u* u_xx)
            nl += c_pair * (u.real * u_xx.real + u.imag * u_xx.imag)
        if mask is None:
            du = np.fft.ifft(lin_hat * uh) + nl
        else:
            du = np.fft.ifft(lin_hat * uh + mask * np.fft.fft(nl))
        if sV is not None:
            du = du - sV * u
        return du

    return f


def gp_rhs_factory(grid: Grid1D, V=None, linear_offset: float = 1.0,
                   dealias: bool = True):
    """du/dt for  i u_t = offset*u - u_xx - |u|^2 u - V u."""
    return _cubic_rhs(grid, -1j, linear_offset, -1.0, -1.0, V=V, dealias=dealias)


@lru_cache(maxsize=32)
def _propagator(grid: Grid1D, a: float, b: float, dt: float) -> np.ndarray:
    """exp(-i dt (a + b k^2)), built once per grid, dispersion and step size."""
    return _readonly(np.exp(-1j * dt * (a + b * grid.k ** 2)))


def _strang(u, dt: float, grid: Grid1D, potential, a: float, b: float):
    """One Strang step of  i u_t = P(u) u + (a - b d_xx) u  over the rows of u.

    potential maps u to the real P(u) of each row; P depends only on
    |u|, which the phase substeps exp(-i dt P / 2) leave unchanged, so
    they are exact.  The linear substep is a spectral rotation, and the
    norm of every row is conserved to roundoff.  All rows share one FFT
    pair along the last axis.
    """
    half = -0.5j * dt
    u = np.exp(half * potential(u)) * u
    u = np.fft.ifft(_propagator(grid, a, b, dt) * np.fft.fft(u))
    return np.exp(half * potential(u)) * u


def gp_step_splitstep(u, dt: float, grid: Grid1D, V=None,
                      linear_offset: float = 1.0) -> np.ndarray:
    """One Strang step of the GP equation i u_t = (offset - |u|^2 - V) u - u_xx."""
    Varr = 0.0 if V is None else np.asarray(V, dtype=float)
    return _strang(u, dt, grid, lambda w: linear_offset - np.abs(w) ** 2 - Varr,
                   0.0, 1.0)


def gp_norm(values, grid: Grid1D) -> float:
    return float(grid.dx * np.sum(np.abs(values) ** 2))


def gp_energy(values, grid: Grid1D, V=None, linear_offset: float = 1.0) -> float:
    """Conserved energy of the GP flow:

        E = integral |u_x|^2 + offset |u|^2 - |u|^4/2 - V |u|^2
    """
    ux = spectral_derivative(values, grid)
    dens = np.abs(values) ** 2
    e = np.abs(ux) ** 2 + linear_offset * dens - 0.5 * dens ** 2
    if V is not None:
        e = e - np.asarray(V, dtype=float) * dens
    return float(grid.dx * np.sum(e))


def gp_momentum(values, grid: Grid1D) -> float:
    ux = spectral_derivative(values, grid)
    return float(grid.dx * np.sum(np.imag(np.conj(values) * ux)))


def pretransform_rhs_factory(p: XXZParams, grid: Grid1D, spacing: float = 1.0,
                             h_values=None, dealias: bool = True):
    """du/dt for the continuum limit of the lattice equation, term by term:

        i hbar u_t = (-2 J0 + 2 R0) s u - s J0 c^2 u_xx
                     + 2 J1 s x_xi u - 2 R1 s x_xi u
                     - 2 R0 |u|^2 u + 2 R1 x_xi |u|^2 u
                     - 2 R0 c^2 |u_x|^2 u
                     - R0 c^2 (u* u_xx + u u*_xx)
                     - h u

    where c is the grid spacing of the lattice being mimicked.  The
    pair u* u_xx + c.c. enters exactly as written (no trailing u);
    setting J1 = R1 = 0, h = 0 and c -> 0 recovers nothing but the
    nondispersive part, which is the point of the convergence study.
    """
    c2 = spacing * spacing
    if h_values is None:
        if any(v != 0.0 for v in p.h):
            raise ValueError(
                "p.h is nonzero but no h_values profile was given for the grid"
            )
        harr = None
    else:
        harr = np.asarray(h_values, dtype=float)
        if harr.shape != (grid.M,):
            raise ValueError(f"h_values must have shape ({grid.M},)")
    lin = (-2.0 * p.J0 + 2.0 * p.R0) * p.s \
        + 2.0 * p.J1 * p.s * p.x_xi - 2.0 * p.R1 * p.s * p.x_xi
    cubic = -2.0 * p.R0 + 2.0 * p.R1 * p.x_xi
    return _cubic_rhs(
        grid, 1.0 / (1j * p.hbar), lin, -p.s * p.J0 * c2, cubic,
        grad=-2.0 * p.R0 * c2, pair=-p.R0 * c2, V=harr, dealias=dealias,
    )


def precursor_rhs_factory(grid: Grid1D, A, B, V=None, r1_over_r0=0.0,
                          x_xi=0.0, dispersive_scale=1.0, dealias: bool = True):
    """du/dt for the rescaled equation with its dispersive remainder:

        i u_t = u - u_xx - |u|^2 u
                + eps [ (R1/R0) B^-1 x_xi |u|^2 u - B^-2 |u_x|^2 u
                        - (B^-2 / 2A) (u* u_xx + u u*_xx) ]
                - V u

    eps = dispersive_scale; eps = 0 reduces to the GP right-hand side.
    A, B, r1_over_r0, x_xi and eps may each hold one value per row of
    an (R, M) field, whose rows then evolve independently.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if np.any(A <= 0) or np.any(B <= 0):
        raise ValueError(f"A and B must be positive, got A={A!r}, B={B!r}")
    eps = np.asarray(dispersive_scale, dtype=float)
    Bm2 = B ** -2
    c_cubic = np.asarray(r1_over_r0, dtype=float) * x_xi / B
    c_pair = Bm2 / (2.0 * A)
    return _cubic_rhs(
        grid, -1j, 1.0, -1.0, -1.0 + eps * c_cubic,
        grad=-eps * Bm2, pair=-eps * c_pair, V=V, dealias=dealias,
    )


def coupled_gp_step(u, dt: float, grid: Grid1D, t_hop: float, U_values,
                    hbar: float = 1.0) -> np.ndarray:
    """One Strang step for the coupled pair, the rows of a (2, M) array,

        i hbar u_t^(k) = -4 t u^(k) - 2 t u_xx^(k) + U |u^(1-k)|^2 u^(k)

    The cross-phase substep is exact because each flavor's modulus is
    untouched by the other's phase rotation; per-flavor norms are
    conserved to roundoff.
    """
    U = np.asarray(U_values, dtype=float) / hbar
    return _strang(u, dt, grid, lambda w: U * np.abs(w[::-1]) ** 2,
                   -4.0 * t_hop / hbar, 2.0 * t_hop / hbar)


def gp_strang(grid: Grid1D, V=None, linear_offset: float = 1.0):
    """gp_step_splitstep as a step(t, u, h) -> u for integrators.march."""
    return lambda t, u, h: gp_step_splitstep(u, h, grid, V, linear_offset)


def coupled_gp_strang(grid: Grid1D, t_hop: float, U_values, hbar: float = 1.0):
    """coupled_gp_step as a step(t, u, h) -> u over (2, M) arrays, for march."""
    return lambda t, u, h: coupled_gp_step(u, h, grid, t_hop, U_values, hbar)


def coupled_gp_observables(u, grid: Grid1D, t_hop: float, U_values,
                           hbar: float = 1.0) -> dict:
    """Per-flavor norms and the energy of a (2, M) coupled pair."""
    n0, n1 = np.abs(u) ** 2
    d0, d1 = np.abs(spectral_derivative(u, grid)) ** 2
    e = (
        -4.0 * t_hop * (n0 + n1)
        + 2.0 * t_hop * (d0 + d1)
        + np.asarray(U_values, dtype=float) * n0 * n1
    )
    return {
        "norm_flavor0": float(grid.dx * n0.sum()),
        "norm_flavor1": float(grid.dx * n1.sum()),
        "energy": float(grid.dx * e.sum()),
    }


def continuum_observables(u, grid: Grid1D, V=None,
                          linear_offset: float = 1.0) -> dict:
    return {
        "norm": gp_norm(u, grid),
        "energy": gp_energy(u, grid, V, linear_offset),
        "momentum": gp_momentum(u, grid),
    }
