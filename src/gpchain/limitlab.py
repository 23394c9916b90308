"""Quantitative checks of the continuum reduction.

compute_transform evaluates the rescaling that brings the continuum
equation to GP form; the two studies measure, by direct integration,
how fast the continuum equation approaches the lattice (in the grid
spacing) and how fast the rescaled equation approaches GP (in the
truncation ratio 2 R0 / (s J0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import continuum, integrators, latticedyn
from .models import XXZParams


class StudyError(ValueError):
    """A study has no slope to report; it carries the points it recorded."""

    def __init__(self, message, points=()):
        super().__init__(message)
        self.points = list(points)


class DegenerateTransformError(StudyError):
    """The rescaling does not exist."""


@dataclass(frozen=True)
class TransformCoefficients:
    """Squares of the field/space scalings and the time scale.

    Values are exact Fractions (inputs are converted exactly, so
    dyadic parameter choices give exact dyadic results).  B_squared
    and time_scale degenerate to inf when the denominators vanish.
    """

    A_squared: object
    B_squared: object
    time_scale: object
    degenerate: bool

    @property
    def A(self) -> float:
        if self.degenerate or self.A_squared <= 0:
            raise DegenerateTransformError(
                f"A^2 = {self.A_squared} is not positive; no real field rescaling"
            )
        return math.sqrt(self.A_squared)

    @property
    def B(self) -> float:
        if self.degenerate or not (0 < self.B_squared < math.inf):
            raise DegenerateTransformError(
                f"B^2 = {self.B_squared} is not positive and finite"
            )
        return math.sqrt(self.B_squared)


def compute_transform(p: XXZParams) -> TransformCoefficients:
    """A^2 = D s / (2 R0),  B^2 = J0 / D,  time_scale = 1 / (2 A^2 R0),

    with D = -2 J0 + 2 R0 + 2 (J1 - R1) x_xi.  R0 = 0 leaves nothing
    to scale against and raises; D = 0 or J0 = 0 flags the transform
    as degenerate.
    """
    J0, J1 = Fraction(p.J0), Fraction(p.J1)
    R0, R1 = Fraction(p.R0), Fraction(p.R1)
    s, x = Fraction(p.s), Fraction(p.x_xi)
    if R0 == 0:
        raise DegenerateTransformError("R0 = 0: the transform is undefined")
    D = -2 * J0 + 2 * R0 + 2 * (J1 - R1) * x
    A2 = D * s / (2 * R0)
    if D == 0:
        B2 = math.inf if J0 > 0 else (-math.inf if J0 < 0 else math.nan)
    else:
        B2 = J0 / D
    if A2 == 0:
        ts = math.inf
    else:
        ts = 1 / (2 * A2 * R0)
    degenerate = D == 0 or A2 == 0 or B2 == 0
    return TransformCoefficients(A2, B2, ts, bool(degenerate))


def expand_couplings(p: XXZParams, displacements, circumference=None):
    """Per-bond couplings from site positions: J_b = J0 - J1 |x_{b+1} - x_b|.

    Bond b joins sites b and b+1; the wrap bond length is measured
    through the given ring circumference (default N * x_xi, matching a
    uniform ring).  Returns (J_bond, R_bond).
    """
    x = np.asarray(displacements, dtype=float)
    if x.shape != (p.N,):
        raise ValueError(f"displacements must have shape ({p.N},)")
    if circumference is None:
        circumference = p.N * p.x_xi
    d = np.abs(np.diff(x, append=x[0] + circumference))
    return p.J0 - p.J1 * d, p.R0 - p.R1 * d


@dataclass
class ConvergenceReport:
    label: str
    xs: np.ndarray
    errors: np.ndarray
    slope: float
    slope_stderr: float
    points: list
    band: tuple = None
    passed: bool = None


def fit_loglog(xs, errors):
    """Least-squares slope of log(error) vs log(x), with its standard error.

    Every error must be positive and finite; a ValueError names the
    ones that are not.
    """
    xs = np.asarray(xs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    bad = [f"{e!r} at x = {x!r}" for x, e in zip(xs.tolist(), errors.tolist())
           if not (math.isfinite(e) and e > 0)]
    if bad:
        raise ValueError("no log-log slope: errors must be positive and finite, got "
                         + ", ".join(bad))
    lx = np.log(xs)
    ly = np.log(errors)
    if len(lx) < 2:
        raise ValueError("need at least two points for a slope")
    mx = lx.mean()
    sxx = np.sum((lx - mx) ** 2)
    slope = np.sum((lx - mx) * (ly - ly.mean())) / sxx
    resid = ly - (ly.mean() + slope * (lx - mx))
    dof = max(len(lx) - 2, 1)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    return float(slope), float(stderr)


def _finish_report(label, xs, errors, points, band):
    xs = np.asarray(xs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    try:
        slope, stderr = fit_loglog(xs, errors)
    except ValueError as exc:
        raise StudyError(str(exc), points) from exc
    passed = None
    if band is not None:
        passed = bool(band[0] <= slope <= band[1])
    return ConvergenceReport(label, xs, errors, slope, stderr, points, band, passed)


def _l2(weight, values) -> float:
    return math.sqrt(weight * float(np.sum(np.abs(values) ** 2)))


def taylor_check(fn, d1, d2, deltas, xs, band=(2.7, 3.3)) -> ConvergenceReport:
    """Error of the two-term site shift f(x +- delta) ~ f +- delta f' + delta^2/2 f''.

    Third-order convergence in delta is what licenses keeping exactly
    the terms of second order in the spacing.
    """
    xs = np.asarray(xs, dtype=float)
    base = fn(xs)
    errors = []
    points = []
    for d in deltas:
        approx_p = base + d * d1(xs) + 0.5 * d * d * d2(xs)
        approx_m = base - d * d1(xs) + 0.5 * d * d * d2(xs)
        err = max(
            float(np.abs(fn(xs + d) - approx_p).max()),
            float(np.abs(fn(xs - d) - approx_m).max()),
        )
        errors.append(err)
        points.append({"delta": float(d), "error": err})
    return _finish_report("taylor", list(deltas), errors, points, band)


def lattice_vs_continuum(
    p: XXZParams,
    profile,
    sizes,
    L: float,
    t_end: float,
    dt: float,
    grid_refine: int = 4,
    reference: str = "continuum",
    h_profile=None,
    band: tuple = (1.7, 2.3),
) -> ConvergenceReport:
    """Distance between the lattice flow and its continuum-limit equation.

    For each lattice size N the same initial profile is evolved on the
    N-site ring and on a grid_refine-times finer spectral grid carrying
    the continuum equation with spacing c = L/N (RK4 on the spectrum
    fft(u), transformed back at t_end); the discrete L2
    difference at t_end, sampled at the lattice points, is recorded
    against c.  reference="self" instead compares each lattice run
    against itself at half the time step (a pure integrator-error
    measurement, useful as a floor).
    """
    if reference not in ("continuum", "self"):
        raise ValueError(f"reference must be continuum or self, got {reference!r}")

    def worker(N):
        c = L / N
        xs_lat = np.arange(N) * c
        phi0 = np.asarray(profile(xs_lat), dtype=complex)
        h_lat = np.zeros(N) if h_profile is None else np.asarray(h_profile(xs_lat), float)
        p_N = replace(p, N=int(N), h=tuple(h_lat))
        rhs = latticedyn.xxz_rhs(p_N)
        _, states = integrators.integrate_fixed(rhs, phi0[None, :], 0.0, t_end, dt)
        phiT = states[-1][0]
        detail = {"N": int(N), "spacing": c, "skipped": False}
        if reference == "self":
            _, fine = integrators.integrate_fixed(rhs, phi0[None, :], 0.0, t_end, dt / 2)
            detail["error"] = _l2(c, phiT - fine[-1][0])
            return detail
        M = grid_refine * N
        grid = continuum.Grid1D(L, M)
        u0 = np.asarray(profile(grid.xs), dtype=complex)
        h_vals = None if h_profile is None else np.asarray(h_profile(grid.xs), float)
        crhs = continuum.pretransform_rhs_factory(p_N, grid, spacing=c, h_values=h_vals)
        _, uhs = integrators.integrate_fixed(crhs, np.fft.fft(u0), 0.0, t_end, dt)
        uT = np.fft.ifft(uhs[-1])[::grid_refine]
        err = _l2(c, phiT - uT)
        detail["error"] = err
        detail["relative_error"] = err / max(_l2(c, uT), 1e-300)
        return detail

    points = [worker(N) for N in sizes]
    xs = [pt["spacing"] for pt in points]
    errors = [pt["error"] for pt in points]
    label = "continuum-limit" if reference == "continuum" else "lattice-self"
    if reference == "self":
        return ConvergenceReport(
            label, np.asarray(xs), np.asarray(errors),
            slope=float("nan"), slope_stderr=float("nan"),
            points=points, band=None, passed=None,
        )
    return _finish_report(label, xs, errors, points, band)


def truncation_study(
    p: XXZParams,
    s_values,
    profile,
    L: float,
    M: int,
    t_end: float,
    dt: float,
    band: tuple = (0.7, 1.3),
) -> ConvergenceReport:
    """Distance between the rescaled equation and GP vs rho = 2 R0 / (s J0).

    The initial profile is fixed in the original frame and rescaled per
    point (u0 = profile(B xi_centered) / A), so growing s shrinks the
    amplitude the way the transform itself does.  Degenerate points are
    recorded and skipped; with fewer than two usable points left,
    DegenerateTransformError carries the recorded points.  A StudyError
    carries them when the errors admit no log-log slope.  Every usable
    point contributes two rows to one (2S, M) RK4 integration of the
    spectra: its precursor leg, and its GP leg as the same precursor row
    with dispersive_scale = 0.
    """
    grid = continuum.Grid1D(L, M)
    xs_c = grid.xs - L / 2.0
    points = []
    used = []
    for s in s_values:
        s = float(s)
        tc = compute_transform(replace(p, s=s))
        if tc.degenerate or tc.A_squared <= 0 or not (0 < tc.B_squared < math.inf):
            points.append({"s": s, "skipped": True, "reason": "degenerate transform"})
            continue
        detail = {"s": s, "skipped": False, "rho": 2.0 * p.R0 / (s * p.J0),
                  "A": tc.A, "B": tc.B}
        points.append(detail)
        used.append(detail)
    if len(used) < 2:
        raise DegenerateTransformError(
            f"fewer than two usable truncation points ({len(used)} of "
            f"{len(points)})", points)

    A = np.array([pt["A"] for pt in used])
    B = np.array([pt["B"] for pt in used])
    u0 = np.array([profile(b * xs_c) for b in B], dtype=complex) / A[:, None]
    rhs = continuum.precursor_rhs_factory(
        grid, np.tile(A, 2), np.tile(B, 2), V=None,
        r1_over_r0=(p.R1 / p.R0 if p.R0 else 0.0), x_xi=p.x_xi,
        dispersive_scale=np.repeat([1.0, 0.0], len(used)),
    )
    u0_hat = np.fft.fft(u0)
    _, states = integrators.integrate_fixed(
        rhs, np.vstack([u0_hat, u0_hat]), 0.0, t_end, dt)
    up, ug = np.split(np.fft.ifft(states[-1]), 2)
    for detail, a, b, u in zip(used, up, ug, u0):
        detail["error"] = _l2(grid.dx, a - b) / _l2(grid.dx, u)
    xs = [pt["rho"] for pt in used]
    errors = [pt["error"] for pt in used]
    return _finish_report("truncation", xs, errors, points, band)
