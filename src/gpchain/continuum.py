"""Spectral solvers for the continuum field equations.

Three right-hand sides appear on the way from the lattice to the GP
equation, all on a periodic interval of length L:

  pretransform: the direct continuum limit of the lattice equation of
      motion, with the grid spacing restored on every second-derivative
      term so the limit can be studied quantitatively;
  precursor: the pretransform under the GP rescaling of field, space
      and time, its non-GP remainder scaled by an adjustable factor;
  gp: i u_t = u - u_xx - |u|^2 u - V u, integrated either spectrally
      with RK4 or by a norm-preserving Strang split step.

All three belong to one cubic-dispersive family and share one fused
RHS.  It acts on the Fourier coefficients fft(u), so an RK4 run steps
the spectrum and transforms only at its two ends.  It evolves the rows
of an (R, M) array, or the concatenated spectra of several grids, as
independent fields, so a batch of runs makes one integration.

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
        if not 0 < self.L < np.inf:  # NaN fails too
            raise ValueError(f"L must be positive and finite, got {self.L!r}")
        if (not isinstance(self.M, (int, np.integer))  # a float M has no bits to test
                or self.M < 8 or self.M & (self.M - 1)):
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


def _cubic_rhs(grids: tuple, scale, lin, d2, cubic, grad=0.0, pair=0.0,
               V=None, dealias: bool = True):
    """F(t, uh) = d(uh)/dt for the cubic-dispersive family shared by every
    spectral RHS, acting on the Fourier coefficients uh = fft(u) of

        du/dt = scale [ (lin - V) u + d2 u_xx
                        + D( cubic |u|^2 u + grad |u_x|^2 u
                             + pair (u* u_xx + u u*_xx) ) ]

    D is the 2/3-rule dealias filter (the identity when dealias is
    False); the potential term is not filtered.  The last axis of uh
    concatenates the spectra of the grids, and uh may hold R independent
    rows of them, shaped (R, sum M).  The coefficients broadcast against
    uh as given: a scalar, one value per row shaped (R, 1), or one value
    per wavenumber shaped (sum M,).  The linear part acts on uh
    directly.  Per grid, one ifft of the stacked [1, i k, -k^2] uh (plain
    uh when grad = pair = 0) gives u, u_x and u_xx; the nonlinear terms
    are summed in physical space, and one fft per grid brings them back,
    stacked with V u as a row of its own when V is set: two FFT calls
    per grid per evaluation in every case.

    Every temporary is a work array kept per shape of uh: both FFTs run
    in place, and |u|^2, |u_x|^2, the weight, the Re(u* u_xx) term and
    the back * nl and scale * V u spectra are written into work arrays.
    The linear part and the derivative factors are spread to the shape
    of an (R, M) batch once, since a numpy product that broadcasts
    allocates a buffer.  So an evaluation allocates only the array it
    returns, new on every call since the integrators hold several at
    once, and numpy's buffers for the casts and broadcasts left (a real
    factor times a complex one, a per-row or per-wavenumber coefficient
    over a batch), each freed before du is made.  Every operation keeps
    its operands and order, so each grid's bits are those of the plain
    expressions on it alone.  One RHS must not be called from two
    threads at once.
    """
    sizes = [g.M for g in grids]
    segs = [slice(end - M, end) for M, end in zip(sizes, np.cumsum(sizes))]
    gradients = bool(np.any(grad != 0) or np.any(pair != 0))
    k = np.concatenate([g.k for g in grids])
    minus_k2 = -k ** 2
    # 1, i k and -k^2 as one complex (3, M) array: rows u, u_x and u_xx
    derivs = np.stack([np.ones(k.size), 1j * k, minus_k2])
    lin_hat = scale * (lin + d2 * minus_k2)
    # the nonlinear sum is formed with its real coefficients; scale and
    # the filter act on its spectrum
    back = scale * np.concatenate([g.dealias_mask() for g in grids]) if dealias else scale
    two_pair = 2.0 * pair
    Varr = None if V is None else np.asarray(V, dtype=float)

    @lru_cache(maxsize=None)
    def arrays(shape):  # work arrays for one shape of uh, and what must match it
        def fill(c):  # c spread to the shape, so that no product broadcasts it
            return c if c.ndim == 0 or c.shape == shape else np.broadcast_to(c, shape).copy()

        fields = np.empty(((3,) if gradients else ()) + shape, complex)
        sums = np.empty((1 if Varr is None else 2,) + shape, complex)  # nl, and V u
        return (fields, tuple(fields) if gradients else (fields, None, None),
                [fields[..., s] for s in segs], sums, [sums[..., s] for s in segs],
                tuple(np.empty((3,) + shape)), tuple(map(fill, derivs)) if gradients else (),
                fill(lin_hat))

    def f(t, uh):
        (fields, (u, u_x, u_xx), field_views, sums, sum_views, (a, b, c), factors,
         lin_hat) = arrays(uh.shape)
        for factor, row in zip(factors, fields):
            np.multiply(factor, uh, out=row)
        src = fields if gradients else uh
        for s, out in zip(segs, field_views):
            np.fft.ifft(src[..., s], out=out)
        # cubic |u|^2 in a, then grad |u_x|^2 in b: the real products take
        # a, b and c in turn
        weight = np.multiply(cubic, np.add(np.square(u.real, out=a),
                                           np.square(u.imag, out=b), out=a), out=a)
        if gradients:
            weight += np.multiply(grad, np.add(np.square(u_x.real, out=b),
                                               np.square(u_x.imag, out=c), out=b), out=b)
        nl = np.multiply(weight, u, out=sums[0])
        if gradients:
            # u* u_xx + u u*_xx is real: twice Re(u* u_xx)
            nl += np.multiply(two_pair, np.add(np.multiply(u.real, u_xx.real, out=a),
                                               np.multiply(u.imag, u_xx.imag, out=b),
                                               out=a), out=a)
        if Varr is not None:
            np.multiply(Varr, u, out=sums[1])
        for view in sum_views:
            np.fft.fft(view, out=view)
        # each spectrum takes its factor in place; only du is new
        np.multiply(back, sums[0], out=sums[0])
        if Varr is not None:
            np.multiply(scale, sums[1], out=sums[1])
        du = lin_hat * uh
        du += sums[0]
        if Varr is not None:
            du -= sums[1]
        return du

    return f


_GP = (1, -1, -1)  # (lin, d2, cubic) of the GP equation, i u_t = u - u_xx - |u|^2 u


def gp_rhs_factory(grid: Grid1D, V=None, dealias: bool = True):
    """F(t, uh) = d(uh)/dt, uh = fft(u), for

        i u_t = u - u_xx - |u|^2 u - V u
    """
    return _cubic_rhs((grid,), -1j, *_GP, V=V, dealias=dealias)


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


def _xxz_terms(p: XXZParams, c2=1, num=float):
    """(lin, d2, cubic, grad, pair) at spacing c, c2 = c^2, in num: float, or
    limitlab._exact for the GP rescaling (no division here, so an int stays exact)."""
    J0, J1, R0, R1, s, x = map(num, (p.J0, p.J1, p.R0, p.R1, p.s, p.x_xi))
    lin = (-2 * J0 + 2 * R0) * s + 2 * J1 * s * x - 2 * R1 * s * x
    return lin, -s * J0 * c2, -2 * R0 + 2 * R1 * x, -2 * R0 * c2, -R0 * c2


def pretransform_rhs_factory(p: XXZParams, grid: Grid1D | tuple, spacing=1.0,
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
    With a tuple of grids, spacing and h_values hold one entry per grid;
    an evaluation then makes two FFT calls per grid.
    """
    if not np.all(np.isfinite(spacing)):
        raise ValueError(f"spacing must be finite, got {spacing!r}")
    many = isinstance(grid, tuple)
    if many and not grid:
        raise ValueError("grid must hold at least one Grid1D, got ()")
    grids, spacing, h_values = (grid, spacing, h_values) if many else (
        (grid,), [spacing], None if h_values is None else [h_values])
    if {len(spacing), len(grids if h_values is None else h_values)} != {len(grids)}:
        raise ValueError("need one spacing and one h_values profile per grid")
    if h_values is None and any(v != 0.0 for v in p.h):
        raise ValueError("p.h is nonzero but no h_values profile was given for the grid")
    for g, h in zip(grids, h_values or ()):
        if np.shape(h) != (g.M,):
            raise ValueError(f"h_values must have shape ({g.M},)")
    harr = None if h_values is None else np.concatenate(h_values, dtype=float)
    c2 = np.repeat([c * c for c in spacing], [g.M for g in grids])  # per wavenumber
    return _cubic_rhs(grids, 1.0 / (1j * p.hbar), *_xxz_terms(p, c2), V=harr,
                      dealias=dealias)


def precursor_rhs_factory(tc, grid: Grid1D, V=None, dispersive_scale=1.0,
                          dealias: bool = True):
    """F(t, uh) = d(uh)/dt, uh = fft(u), for the pretransform at spacing 1
    under its GP rescaling tc = limitlab.compute_transform(p), u = A psi,
    x = B xi, t = T tau.  tc holds the table _xxz_terms(p) normalised: lin
    and d2 are GP's 1 and -1, and tc.cubic, tc.grad and tc.pair the rest,
    less GP's (-1, 0, 0), each rounded once here; grad and pair then take
    B^-2 and B^-2 / A from the float A and B.  eps = dispersive_scale
    scales the remainder, V = time_scale h; for the printed table,

        i u_t = u - u_xx - |u|^2 u - V u
                + eps [ (R1/R0) x_xi |u|^2 u - B^-2 |u_x|^2 u
                        - (B^-2 / 2A) (u* u_xx + u u*_xx) ]

    tc may hold one transform per row of an (R, M) spectrum, whose rows
    evolve independently; eps one per row, or per block of R rows as (E, 1).
    A hand-built tc must have A^2 > 0 and B^2 > 0.
    """
    one = hasattr(tc, "A_squared")  # one transform, not a sequence of them
    rows = [tc] if one else list(tc)
    if not rows:
        raise ValueError(f"tc must hold at least one transform, got {tc!r}")
    if not all(t.A_squared > 0 and t.B_squared > 0 for t in rows):  # NaN fails too
        raise ValueError(f"A^2 and B^2 must be positive, got {tc!r}")
    eps = np.asarray(dispersive_scale, dtype=float)
    if not np.all(np.isfinite(eps)):
        raise ValueError(f"dispersive_scale must be finite, got {dispersive_scale!r}")
    cubic, grad, pair, A, B = (np.asarray(c[0] if one else c) for c in zip(
        *((float(t.cubic), float(t.grad), float(t.pair), t.A, t.B) for t in rows)))
    return _cubic_rhs((grid,), -1j, *_GP[:2], _per_row(_GP[2] + eps * cubic),
                      grad=_per_row(eps * (grad * B ** -2)),
                      pair=_per_row(eps * (pair * B ** -2 / A)), V=V, dealias=dealias)


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
