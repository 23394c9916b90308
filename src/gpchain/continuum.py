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
RHS.  It acts on the Fourier coefficients fft(u), so an RK4 run steps
the spectrum and transforms only at its two ends.  It also
evolves the rows of an (R, M) array as independent fields, so a batch
of runs on one grid makes one integration.

The GP equation and the coupled two-flavor equation also have Strang
split steps on plain arrays, both through one row-batched kernel; as
integrators.SplitStep values, march fuses the half phases of
consecutive steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .integrators import SplitStep
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
    """F(t, uh) = d(uh)/dt for the cubic-dispersive family shared by every
    spectral RHS, acting on the Fourier coefficients uh = fft(u) of

        du/dt = scale [ (lin - V) u + d2 u_xx
                        + D( cubic |u|^2 u + grad |u_x|^2 u
                             + pair (u* u_xx + u u*_xx) ) ]

    D is the 2/3-rule dealias filter (the identity when dealias is
    False); the potential term is not filtered.  uh may be one spectrum
    of shape (M,) or R independent spectra of shape (R, M); each
    coefficient is a scalar or holds one value per row.  The linear part
    acts on uh directly.  One ifft over the stacked [1, i k, -k^2] uh
    (plain uh when grad = pair = 0) gives u, u_x and u_xx; the nonlinear
    terms are summed in physical space, and one fft brings them back,
    stacked with V u as a row of its own when V is set.  That is two FFT
    calls per evaluation in every case, so an integrator stepping uh
    leaves physical space only to form the nonlinear products.

    The stacked product and its ifft are written into two work arrays
    kept per shape of uh, so the largest temporaries are not allocated
    afresh on each call; every operation keeps its operands and order,
    so the bits are those of the plain expressions.  The returned array
    is new on every call, since the integrators hold several at once.
    One RHS must therefore not be called from two threads at once.
    """
    scale, lin, d2, cubic, grad, pair = (
        _per_row(c) for c in (scale, lin, d2, cubic, grad, pair))
    gradients = bool(np.any(grad != 0) or np.any(pair != 0))
    minus_k2 = -grid.k ** 2
    # 1, i k and -k^2 as one complex (3, M) array: rows u, u_x and u_xx
    derivs = np.stack([np.ones(grid.M), 1j * grid.k, minus_k2])
    lin_hat = scale * (lin + d2 * minus_k2)
    # the nonlinear sum is formed with its real coefficients; scale and
    # the filter act on its spectrum
    back = scale * grid.dealias_mask() if dealias else scale
    two_pair = 2.0 * pair
    Varr = None if V is None else np.asarray(V, dtype=float)
    work = {}  # per uh.shape: the stacked derivs * uh, and its ifft

    def f(t, uh):
        if gradients:
            if uh.shape not in work:
                work[uh.shape] = (np.empty((3,) + uh.shape, complex),
                                  np.empty((3,) + uh.shape, complex))
            stacked, fields = work[uh.shape]
            np.multiply(derivs if uh.ndim == 1 else derivs[:, None], uh, out=stacked)
            u, u_x, u_xx = np.fft.ifft(stacked, out=fields)
        else:
            u = np.fft.ifft(uh)
        weight = cubic * (u.real ** 2 + u.imag ** 2)
        if gradients:
            weight += grad * (u_x.real ** 2 + u_x.imag ** 2)
        nl = weight * u
        if gradients:
            # u* u_xx + u u*_xx is real: twice Re(u* u_xx)
            nl += two_pair * (u.real * u_xx.real + u.imag * u_xx.imag)
        if Varr is None:
            return lin_hat * uh + back * np.fft.fft(nl)
        nl_hat, v_hat = np.fft.fft(np.stack([nl, Varr * u]))
        return lin_hat * uh + back * nl_hat - scale * v_hat

    return f


def gp_rhs_factory(grid: Grid1D, V=None, dealias: bool = True):
    """F(t, uh) = d(uh)/dt, uh = fft(u), for

        i u_t = u - u_xx - |u|^2 u - V u
    """
    return _cubic_rhs(grid, -1j, 1.0, -1.0, -1.0, V=V, dealias=dealias)


@lru_cache(maxsize=32)
def _propagator(grid: Grid1D, a: float, b: float, dt: float) -> np.ndarray:
    """exp(-i dt (a + b k^2)), built once per grid, dispersion and step size."""
    return _readonly(np.exp(-1j * dt * (a + b * grid.k ** 2)))


def _strang(u, dt: float, grid: Grid1D, potential, a: float, b: float,
            before: float, after: float):
    """Strang substeps of  i u_t = P(u) u + (a - b d_xx) u  over the rows of u.

    Returns K(after) D(dt) K(before) u.  K(tau) u = exp(-i tau P(u)) u
    is a phase substep: P depends only on |u|, which a phase rotation
    leaves unchanged, so K is exact and K(x) K(y) = K(x + y).  D(dt) is
    the linear substep, a spectral rotation.  One Strang step is
    before = after = dt/2; integrators.march fuses the closing K(dt/2)
    of one step with the opening K(dt/2) of the next into one K(dt).  A
    length of 0 skips its substep.  The norm of every row is conserved
    to roundoff, and all rows share one FFT pair along the last axis.
    """
    if before:
        u = np.exp(-1j * before * potential(u)) * u
    if dt:
        u = np.fft.ifft(_propagator(grid, a, b, dt) * np.fft.fft(u))
    if after:
        u = np.exp(-1j * after * potential(u)) * u
    return u


def _halves(dt, before, after):
    """The two phase lengths of a step, dt/2 where not given."""
    return (0.5 * dt if before is None else before,
            0.5 * dt if after is None else after)


def gp_step_splitstep(u, dt: float, grid: Grid1D, V=None,
                      before: float | None = None,
                      after: float | None = None) -> np.ndarray:
    """One Strang step of the GP equation i u_t = u - u_xx - |u|^2 u - V u.

    before and after are the lengths of the two phase substeps (dt/2
    when not given); see _strang.  Without V the phase subtracts
    nothing, which keeps its bits: x - 0.0 is x, -0.0 and NaN included.
    """
    Varr = None if V is None else np.asarray(V, dtype=float)

    def potential(w):
        P = 1.0 - np.abs(w) ** 2
        return P if Varr is None else P - Varr

    return _strang(u, dt, grid, potential, 0.0, 1.0, *_halves(dt, before, after))


def gp_norm(values, grid: Grid1D) -> float:
    return float(grid.dx * np.sum(np.abs(values) ** 2))


def gp_energy(values, grid: Grid1D, V=None) -> float:
    """Conserved energy of the GP flow:

        E = integral |u_x|^2 + |u|^2 - |u|^4/2 - V |u|^2
    """
    ux = spectral_derivative(values, grid)
    dens = np.abs(values) ** 2
    e = np.abs(ux) ** 2 + dens - 0.5 * dens ** 2
    if V is not None:
        e = e - np.asarray(V, dtype=float) * dens
    return float(grid.dx * np.sum(e))


def gp_momentum(values, grid: Grid1D) -> float:
    ux = spectral_derivative(values, grid)
    return float(grid.dx * np.sum(np.imag(np.conj(values) * ux)))


def pretransform_rhs_factory(p: XXZParams, grid: Grid1D, spacing: float = 1.0,
                             h_values=None, dealias: bool = True):
    """F(t, uh) = d(uh)/dt, uh = fft(u), for the continuum limit of the
    lattice equation, term by term:

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
    """F(t, uh) = d(uh)/dt, uh = fft(u), for the rescaled equation with its
    dispersive remainder:

        i u_t = u - u_xx - |u|^2 u
                + eps [ (R1/R0) B^-1 x_xi |u|^2 u - B^-2 |u_x|^2 u
                        - (B^-2 / 2A) (u* u_xx + u u*_xx) ]
                - V u

    eps = dispersive_scale; eps = 0 reduces to the GP right-hand side.
    A, B, r1_over_r0, x_xi and eps may each hold one value per row of
    an (R, M) spectrum, whose rows then evolve independently.
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
                    hbar: float = 1.0, before: float | None = None,
                    after: float | None = None) -> np.ndarray:
    """One Strang step for the coupled pair, the rows of a (2, M) array,

        i hbar u_t^(k) = -4 t u^(k) - 2 t u_xx^(k) + U |u^(1-k)|^2 u^(k)

    The cross-phase substep is exact because each flavor's modulus is
    untouched by the other's phase rotation; per-flavor norms are
    conserved to roundoff.  before and after are the lengths of the two
    phase substeps (dt/2 when not given); see _strang.
    """
    U = np.asarray(U_values, dtype=float) / hbar
    return _strang(u, dt, grid, lambda w: U * np.abs(w[::-1]) ** 2,
                   -4.0 * t_hop / hbar, 2.0 * t_hop / hbar,
                   *_halves(dt, before, after))


def gp_strang(grid: Grid1D, V=None):
    """gp_step_splitstep as a SplitStep for integrators.march, which fuses
    the half phases of consecutive steps."""
    return SplitStep(lambda u, h, before, after: gp_step_splitstep(
        u, h, grid, V, before=before, after=after))


def coupled_gp_strang(grid: Grid1D, t_hop: float, U_values, hbar: float = 1.0):
    """coupled_gp_step as a SplitStep over (2, M) arrays, for march."""
    return SplitStep(lambda u, h, before, after: coupled_gp_step(
        u, h, grid, t_hop, U_values, hbar, before=before, after=after))


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


def continuum_observables(u, grid: Grid1D, V=None) -> dict:
    return {
        "norm": gp_norm(u, grid),
        "energy": gp_energy(u, grid, V),
        "momentum": gp_momentum(u, grid),
    }
