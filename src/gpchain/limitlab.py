"""Quantitative checks of the continuum reduction.

compute_transform reads the rescaling to GP form off the continuum
table; the two studies measure, by direct integration,
how fast the continuum equation approaches the lattice (in the grid
spacing) and how fast the rescaled equation approaches GP (in the
truncation ratio 2 R0 / (s J0)).  Each study steps its points together,
the continuum-limit study's spectral legs in one march of their spectra.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

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


class TransformCoefficients(NamedTuple):
    """The GP rescaling u = A psi, x = B xi, t = time_scale tau, and the
    remainder cubic, grad, pair (see compute_transform), as exact Fractions;
    compute_transform returns one only with A^2, B^2 > 0."""

    A_squared: Fraction
    B_squared: Fraction
    time_scale: Fraction
    cubic: Fraction
    grad: Fraction
    pair: Fraction

    @property
    def A(self) -> float:
        return math.sqrt(self.A_squared)

    @property
    def B(self) -> float:
        return math.sqrt(self.B_squared)


def _exact(v):
    """v exactly: an int where it is one, as ints are far cheaper, else a Fraction."""
    n, d = float(v).as_integer_ratio()
    return n if d == 1 else Fraction(n, d)


def compute_transform(p: XXZParams) -> TransformCoefficients:
    """The normalisation of the table continuum._xxz_terms(p) at spacing 1
    to lin = 1, d2 = -1 and grad = -1: A^2 = lin / (-grad) = D s / (2 R0),
    B^2 = -d2 / lin = J0 / D and time_scale = 1 / lin, lin = D s, exact
    for the exact values of the inputs.  The remainder is cubic, grad and
    pair over the field unit -grad = 2 R0, less GP's (-1, 0, 0): (R1/R0)
    x_xi, -1 and -1/2 for the printed table.  The rescaling exists only
    when R0 != 0, A^2 > 0 and B^2 > 0; otherwise DegenerateTransformError
    says which fails.  A^2 is checked first: A^2 != 0 implies lin != 0.
    """
    lin, d2, cubic, grad, pair = continuum._xxz_terms(p, 1, _exact)
    if grad == 0:
        raise DegenerateTransformError("R0 = 0: the transform is undefined")
    A2 = Fraction(lin) / -grad
    if A2 <= 0:
        raise DegenerateTransformError(
            f"A^2 = {A2} is not positive; no real field rescaling")
    B2 = Fraction(-d2) / lin
    if B2 <= 0:
        raise DegenerateTransformError(f"B^2 = {B2} is not positive")
    return TransformCoefficients(A2, B2, 1 / Fraction(lin), Fraction(cubic - grad) / -grad,
                                 Fraction(grad) / -grad, Fraction(pair) / -grad)


class ConvergenceReport(NamedTuple):
    """A study's log-log slope, its points, and whether the slope is in band."""

    slope: float
    slope_stderr: float
    points: list
    passed: bool


def fit_loglog(xs, errors):
    """Least-squares slope of log(error) vs log(x), with its standard error.

    Every x and every error must be positive and finite; a ValueError
    names the ones that are not.
    """
    xs = np.asarray(xs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    bad = [repr(x) for x in xs.tolist() if not (math.isfinite(x) and x > 0)]
    if bad:
        raise ValueError("no log-log slope: x must be positive and finite, got "
                         + ", ".join(bad))
    bad = [f"{e!r} at x = {x!r}" for x, e in zip(xs.tolist(), errors.tolist())
           if not (math.isfinite(e) and e > 0)]
    if bad:
        raise ValueError("no log-log slope: errors must be positive and finite, got "
                         + ", ".join(bad))
    lx = np.log(xs)
    ly = np.log(errors)
    if len(set(lx.tolist())) < 2:  # at one x, sxx is 0 or roundoff: no slope
        raise ValueError("need at least two different x")
    mx = lx.mean()
    sxx = np.sum((lx - mx) ** 2)
    slope = np.sum((lx - mx) * (ly - ly.mean())) / sxx
    resid = ly - (ly.mean() + slope * (lx - mx))
    dof = max(len(lx) - 2, 1)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    return float(slope), float(stderr)


def _finish_report(x_key, points, band):
    """Fit log(error) against log(x_key) over the points not skipped;
    a StudyError carrying the points says why there is no slope."""
    used = [pt for pt in points if not pt["skipped"]]
    try:
        slope, stderr = fit_loglog([pt[x_key] for pt in used],
                                   [pt["error"] for pt in used])
    except ValueError as exc:
        raise StudyError(str(exc), points) from exc
    passed = None if band is None else bool(band[0] <= slope <= band[1])
    return ConvergenceReport(slope, stderr, points, passed)


def _l2(weight, values) -> float:
    return math.sqrt(weight * float(np.sum(np.abs(values) ** 2)))


def lattice_vs_continuum(
    p: XXZParams,
    profile,
    sizes,
    L: float,
    t_end: float,
    dt: float,
    grid_refine: int = 4,
    h_profile=None,
    band: tuple = (1.7, 2.3),
) -> ConvergenceReport:
    """Distance between the lattice flow and its continuum-limit equation.

    For each lattice size N the same initial profile is evolved on the
    N-site ring and on a grid_refine-times finer spectral grid carrying
    the continuum equation with spacing c = L/N; the discrete L2
    difference at t_end, sampled at the lattice points, is recorded
    against c.  The lattice legs of all sizes run as one RK4 march over
    the union of their rings (xxz_rhs with rings=sizes), the spectral
    legs as one over their concatenated spectra fft(u) (two FFT calls
    per grid per evaluation); each final state is split per leg, each
    leg bit for bit as it would run alone.  A blow-up in either march
    raises StudyError carrying the points, none of them with an error.
    """
    if not len(sizes) or not all(isinstance(N, (int, np.integer)) and N > 0 for N in sizes):
        raise ValueError(f"sizes must be one or more positive integers, got {sizes!r}")
    sizes = [int(N) for N in sizes]
    points, phi0, h_lat = [], [], []
    for N in sizes:
        c = L / N
        xs_lat = np.arange(N) * c
        phi0.append(np.asarray(profile(xs_lat), dtype=complex))
        h_lat.append(np.zeros(N) if h_profile is None
                     else np.asarray(h_profile(xs_lat), float))
        points.append({"N": N, "spacing": c, "skipped": False})
    p_all = replace(p, N=sum(sizes), h=tuple(np.concatenate(h_lat)))
    rhs = latticedyn.xxz_rhs(p_all, rings=tuple(sizes))
    try:
        _, states = integrators.integrate_fixed(
            rhs, np.concatenate(phi0)[None, :], 0.0, t_end, dt)
    except integrators.NonFiniteError as exc:
        raise StudyError(f"lattice leg: {exc}", points) from exc
    phiT = np.split(states[-1][0], np.cumsum(sizes)[:-1])

    grids = tuple(continuum.Grid1D(L, grid_refine * N) for N in sizes)
    u0_hat = np.concatenate(
        [np.fft.fft(np.asarray(profile(g.xs), dtype=complex)) for g in grids])
    h_vals = None if h_profile is None else tuple(
        np.asarray(h_profile(g.xs), float) for g in grids)
    crhs = continuum.pretransform_rhs_factory(
        p_all, grids, spacing=[pt["spacing"] for pt in points], h_values=h_vals)
    try:
        _, uhs = integrators.integrate_fixed(crhs, u0_hat, 0.0, t_end, dt)
    except integrators.NonFiniteError as exc:
        raise StudyError(f"continuum legs: {exc}", points) from exc
    uhT = np.split(uhs[-1], grid_refine * np.cumsum(sizes)[:-1])
    for detail, phiT_N, uhT_N in zip(points, phiT, uhT):
        c = detail["spacing"]
        uT = np.fft.ifft(uhT_N)[::grid_refine]
        err = _l2(c, phiT_N - uT)
        detail["error"] = err
        detail["relative_error"] = err / max(_l2(c, uT), 1e-300)

    return _finish_report("spacing", points, band)


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
    amplitude the way the transform itself does.  A point whose transform
    compute_transform refuses is recorded as skipped (R0 = 0 refuses every
    s and raises at once); with fewer than two usable points left,
    DegenerateTransformError carries the recorded points.  A StudyError
    carries them when the errors admit no log-log slope.  Every usable
    point contributes two rows to one (2S, M) RK4 integration of the
    spectra: its precursor leg, and its GP leg as the same precursor row
    with dispersive_scale = 0.  A blow-up of that integration raises
    StudyError carrying the points, none of them with an error.
    """
    grid = continuum.Grid1D(L, M)
    xs_c = grid.xs - L / 2.0
    points = []
    legs = []  # (detail, transform) of each usable point
    for s in s_values:
        s = float(s)
        try:
            tc = compute_transform(replace(p, s=s))
        except DegenerateTransformError:
            if p.R0 == 0:  # undefined at every s: nothing to record
                raise
            points.append({"s": s, "skipped": True, "reason": "degenerate transform"})
            continue
        detail = {"s": s, "skipped": False, "rho": 2.0 * p.R0 / (s * p.J0),
                  "A": tc.A, "B": tc.B}
        points.append(detail)
        legs.append((detail, tc))
    if len(legs) < 2:
        raise DegenerateTransformError(
            f"fewer than two usable truncation points ({len(legs)} of "
            f"{len(points)})", points)

    used, transforms = zip(*legs)
    A = np.array([pt["A"] for pt in used])
    B = np.array([pt["B"] for pt in used])
    u0 = np.array([profile(b * xs_c) for b in B], dtype=complex) / A[:, None]
    rhs = continuum.precursor_rhs_factory(transforms, grid, dispersive_scale=[[1.0], [0.0]])
    u0_hat = np.fft.fft(u0)
    try:
        _, states = integrators.integrate_fixed(
            rhs, np.vstack([u0_hat, u0_hat]), 0.0, t_end, dt)
    except integrators.NonFiniteError as exc:
        raise StudyError(str(exc), points) from exc
    up, ug = np.split(np.fft.ifft(states[-1]), 2)
    for detail, a, b, u in zip(used, up, ug, u0):
        detail["error"] = _l2(grid.dx, a - b) / _l2(grid.dx, u)
    return _finish_report("rho", points, band)
