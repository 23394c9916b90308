import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gpchain import continuum, integrators, latticedyn, limitlab
from gpchain.limitlab import (
    DegenerateTransformError,
    compute_transform,
    fit_loglog,
    lattice_vs_continuum,
    truncation_study,
)
from gpchain.models import XXZParams


def test_transform_worked_example():
    # D = -2 + 4 = 2, A^2 = 2/(2*2) = 1/2, B^2 = 1/2, tau = 1/(2*(1/2)*2)
    tc = compute_transform(XXZParams(N=8, J0=1.0, R0=2.0, s=1.0))
    assert tc.A_squared == Fraction(1, 2)
    assert tc.B_squared == Fraction(1, 2)
    assert tc.time_scale == Fraction(1, 2)
    assert tc.A == pytest.approx(math.sqrt(0.5))
    assert tc.B == pytest.approx(math.sqrt(0.5))


def test_transform_with_gradient_couplings():
    # D = -2 + 2 + 2*(1/2 - 1/4)*(1/2) = 1/4
    tc = compute_transform(
        XXZParams(N=8, J0=1.0, J1=0.5, R0=1.0, R1=0.25, s=1.0, x_xi=0.5))
    assert tc.A_squared == Fraction(1, 8)
    assert tc.B_squared == Fraction(4)
    assert tc.time_scale == Fraction(4)
    assert isinstance(tc.A_squared, Fraction)


def test_transform_negative_branch():
    # D = -4 + 2 = -2, A^2 = -2*4/2 = -4
    with pytest.raises(DegenerateTransformError,
                       match=r"^A\^2 = -4 is not positive; no real field rescaling$"):
        compute_transform(XXZParams(N=8, J0=2.0, R0=1.0, s=4.0))


def test_transform_degenerate_and_undefined():
    for params, message in [
        (dict(R0=0.0), r"R0 = 0: the transform is undefined"),
        # D = 0 gives A^2 = 0, checked before B^2 = J0 / D would divide by it
        (dict(J0=1.0, R0=1.0, s=3.0), r"A\^2 = 0 is not positive; no real field rescaling"),
        (dict(J0=-1.0, R0=1.0), r"B\^2 = -1/4 is not positive"),  # D = 4
        (dict(J0=0.0, R0=2.0), r"B\^2 = 0 is not positive"),
    ]:
        with pytest.raises(DegenerateTransformError, match=f"^{message}$"):
            compute_transform(XXZParams(N=8, **params))


def test_transform_identities_property():
    # either the rescaling exists and satisfies its defining identities
    # exactly, or compute_transform raises, and exactly when it must
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    quarters = st.integers(-8, 8).map(lambda n: n / 4)

    @settings(max_examples=300, deadline=None)
    @given(J0=quarters, J1=quarters, R0=quarters, R1=quarters, x_xi=quarters,
           s=st.integers(1, 16).map(lambda n: n / 4))
    def check(J0, J1, R0, R1, x_xi, s):
        p = XXZParams(N=2, J0=J0, J1=J1, R0=R0, R1=R1, s=s, x_xi=x_xi)
        J0, R0, s = Fraction(J0), Fraction(R0), Fraction(s)
        D = -2 * J0 + 2 * R0 + 2 * (Fraction(J1) - Fraction(R1)) * Fraction(x_xi)
        undefined = R0 == 0 or D * s / (2 * R0) <= 0 or J0 / D <= 0
        try:
            tc = compute_transform(p)
        except DegenerateTransformError:
            assert undefined
            return
        assert not undefined
        A2, B2, ts = tc
        assert all(type(v) is Fraction for v in tc)
        assert A2 * 2 * R0 == D * s
        assert B2 * D == J0
        assert ts * 2 * A2 * R0 == 1
        assert A2 > 0 and B2 > 0

    check()


def test_fit_loglog_recovers_power():
    xs = np.array([0.8, 0.4, 0.2, 0.1])
    slope, stderr = fit_loglog(xs, 3.0 * xs ** 2)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        fit_loglog([1.0], [1.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf")])
def test_fit_loglog_rejects_errors_without_a_logarithm(bad):
    with pytest.raises(ValueError, match=rf"errors must be positive and finite, got "
                                         rf"{bad!r} at x = 0\.4$"):
        fit_loglog([0.8, 0.4, 0.2], [1e-2, bad, 1e-3])


def _taylor_check(fn, d1, d2, deltas, xs, band=(2.7, 3.3)):
    """Error of the two-term site shift f(x +- delta) ~ f +- delta f' + delta^2/2 f''.

    Third-order convergence in delta is what licenses keeping exactly
    the terms of second order in the spacing.
    """
    xs = np.asarray(xs, dtype=float)
    base = fn(xs)
    points = []
    for d in deltas:
        approx_p = base + d * d1(xs) + 0.5 * d * d * d2(xs)
        approx_m = base - d * d1(xs) + 0.5 * d * d * d2(xs)
        err = max(
            float(np.abs(fn(xs + d) - approx_p).max()),
            float(np.abs(fn(xs - d) - approx_m).max()),
        )
        points.append({"delta": float(d), "skipped": False, "error": err})
    return limitlab._finish_report("delta", points, band)


def test_taylor_check_third_order():
    rep = _taylor_check(
        np.sin, np.cos, lambda x: -np.sin(x),
        deltas=[0.1, 0.05, 0.025, 0.0125],
        xs=np.linspace(0.0, 2.0, 41),
    )
    assert 2.7 <= rep.slope <= 3.3
    assert rep.passed is True
    assert len(rep.points) == 4


def _gaussian(x, L):
    return 0.8 * np.exp(-(((x - L / 2) / 2.0) ** 2))


def test_lattice_vs_continuum_second_order():
    L = 8 * np.pi
    p = XXZParams(N=8, J0=1.0, R0=2.0, s=1.0)
    rep = lattice_vs_continuum(
        p, lambda x: _gaussian(x, L), sizes=[32, 64, 128],
        L=L, t_end=0.3, dt=1e-3, grid_refine=4,
    )
    assert rep.passed is True
    assert 1.7 <= rep.slope <= 2.3
    assert np.all(np.diff([pt["error"] for pt in rep.points]) < 0)
    assert rep.points[0]["N"] == 32
    assert rep.points[-1]["relative_error"] < rep.points[0]["relative_error"]


def _lattice_self_errors(p, profile, sizes, L, t_end, dt):
    """Each lattice run against itself at dt / 2: the integrator's error floor."""
    errors = []
    for N in sizes:
        c = L / N
        phi0 = np.asarray(profile(np.arange(N) * c), dtype=complex)[None, :]
        rhs = latticedyn.xxz_rhs(replace(p, N=N, h=None))
        _, coarse = integrators.integrate_fixed(rhs, phi0, 0.0, t_end, dt)
        _, fine = integrators.integrate_fixed(rhs, phi0, 0.0, t_end, dt / 2)
        errors.append(math.sqrt(c * float(np.sum(np.abs(coarse[-1] - fine[-1]) ** 2))))
    return errors


def test_lattice_self_reference_floor():
    L = 8 * np.pi
    p = XXZParams(N=8, J0=1.0, R0=2.0, s=1.0)
    errors = _lattice_self_errors(p, lambda x: _gaussian(x, L), sizes=[32, 64],
                                  L=L, t_end=0.3, dt=1e-3)
    assert max(errors) < 1e-9


def _frozen_study_point(p, profile, N, L, t_end, dt, grid_refine, h_profile):
    """One point of lattice_vs_continuum as it was computed size by size,
    a lattice march and a spectral march per size."""
    c = L / N
    xs_lat = np.arange(N) * c
    phi0 = np.asarray(profile(xs_lat), dtype=complex)
    h_lat = np.zeros(N) if h_profile is None else np.asarray(h_profile(xs_lat), float)
    p_N = replace(p, N=int(N), h=tuple(h_lat))
    rhs = latticedyn.xxz_rhs(p_N)
    _, states = integrators.integrate_fixed(rhs, phi0[None, :], 0.0, t_end, dt)
    phiT = states[-1][0]
    detail = {"N": int(N), "spacing": c, "skipped": False}
    M = grid_refine * N
    grid = continuum.Grid1D(L, M)
    u0 = np.asarray(profile(grid.xs), dtype=complex)
    h_vals = None if h_profile is None else np.asarray(h_profile(grid.xs), float)
    crhs = continuum.pretransform_rhs_factory(p_N, grid, spacing=c, h_values=h_vals)
    _, uhs = integrators.integrate_fixed(crhs, np.fft.fft(u0), 0.0, t_end, dt)
    uT = np.fft.ifft(uhs[-1])[::grid_refine]
    err = limitlab._l2(c, phiT - uT)
    detail["error"] = err
    detail["relative_error"] = err / max(limitlab._l2(c, uT), 1e-300)
    return detail


@pytest.mark.parametrize("h_profile", [None, "cos"])
def test_batched_lattice_legs_match_the_per_size_study(h_profile):
    # one march over the union of the rings and one over the concatenated
    # spectra, with sizes unsorted and repeated, give every point of the
    # size-by-size study bit for bit
    L, t_end, dt = 8 * np.pi, 0.05, 1e-3
    p = XXZParams(N=8, J0=1.0, J1=0.2, R0=2.0, R1=0.1, s=1.0, x_xi=0.3)
    h = None if h_profile is None else (lambda x: 0.3 * np.cos(2 * np.pi * x / L))
    sizes = [64, 32, 64]

    def profile(x):  # a plane wave keeps the field large where the rings wrap
        return _gaussian(x, L) + 0.2 * np.exp(2j * np.pi * x / L)

    rep = lattice_vs_continuum(p, profile, sizes, L=L,
                               t_end=t_end, dt=dt, grid_refine=2, h_profile=h)
    assert [pt["N"] for pt in rep.points] == sizes
    for pt, N in zip(rep.points, sizes):
        want = _frozen_study_point(p, profile, N, L, t_end, dt, 2, h)
        assert list(pt) == list(want)
        for key, value in want.items():
            assert type(pt[key]) is type(value), key
            assert np.float64(pt[key]).tobytes() == np.float64(value).tobytes(), key


def test_continuum_leg_blowup_stops_every_spectral_leg(monkeypatch):
    # the spectral legs are one march, so a blow-up in one grid's segment
    # stops them all and no point records an error
    real = continuum.pretransform_rhs_factory

    def factory(p, grids, **kw):
        f = real(p, grids, **kw)
        start = grids[0].M
        seg = slice(start, start + grids[1].M)  # the N = 64 leg's spectrum

        def rhs(t, uh):
            du = f(t, uh)
            assert np.isfinite(np.delete(du, seg)).all()
            du[seg] = np.nan
            return du

        return rhs

    monkeypatch.setattr(limitlab.continuum, "pretransform_rhs_factory", factory)
    L = 8 * np.pi
    with pytest.raises(limitlab.StudyError) as info:
        lattice_vs_continuum(XXZParams(N=8, J0=1.0, R0=2.0, s=1.0),
                             lambda x: _gaussian(x, L), [32, 64, 128],
                             L=L, t_end=0.01, dt=1e-3)
    assert str(info.value) == "continuum legs: state became non-finite at t=0.001"
    assert info.value.points == [{"N": N, "spacing": L / N, "skipped": False}
                                 for N in (32, 64, 128)]


def test_truncation_study_first_order():
    L = 8 * np.pi
    p = XXZParams(N=8, J0=1.0, R0=2.0, s=1.0)
    rep = truncation_study(
        p, s_values=[40.0, 400.0],
        profile=lambda xi: 0.8 * np.exp(-((xi / 2.0) ** 2)),
        L=L, M=128, t_end=0.3, dt=1e-3,
    )
    assert 0.7 <= rep.slope <= 1.3
    assert rep.passed is True
    assert rep.points[0]["rho"] == pytest.approx(0.1)
    assert rep.points[1]["rho"] == pytest.approx(0.01)
    assert rep.points[0]["A"] > rep.points[0]["B"] * 0  # detail carries A, B
    assert not rep.points[0]["skipped"]


def test_truncation_slope_measures_the_shrinking_amplitude():
    # configs/truncation.json's study, with a linear row (i u_t = u - u_xx)
    # next to each point's precursor and GP rows in one RK4 march.  ACCEPTANCE
    # 7's distance is precursor - GP, but GP is farther still from the
    # linear equation, and both fall as rho: u0 = profile(B xi) / A has an
    # amplitude that falls as 1/A, and with it every nonlinear term.
    p = XXZParams(N=8, J0=1.0, R0=2.0, s=1.0)
    s_values = [40.0, 126.0, 400.0, 1265.0, 4000.0]
    grid = continuum.Grid1D(8 * np.pi, 256)
    xs_c = grid.xs - grid.L / 2.0

    def profile(xi):
        return 0.8 * np.exp(-((xi / 2.0) ** 2))

    models = [replace(p, s=s) for s in s_values]
    tcs = [compute_transform(q) for q in models]
    A, B = np.array([tc.A for tc in tcs]), np.array([tc.B for tc in tcs])
    rho = [2.0 * p.R0 / (s * p.J0) for s in s_values]
    u0 = np.array([profile(b * xs_c) for b in B], dtype=complex) / A[:, None]
    pair = continuum.precursor_rhs_factory(
        models * 2, tcs * 2, grid, dispersive_scale=np.repeat([1.0, 0.0], 5))
    linear = continuum._cubic_rhs((grid,), -1j, 1.0, -1.0, 0.0)
    rhs = lambda t, uh: np.concatenate([pair(t, uh[:10]), linear(t, uh[10:])])
    _, states = integrators.integrate_fixed(rhs, np.fft.fft(np.vstack([u0] * 3)),
                                            0.0, 1.0, 1e-3)
    pre, gp, lin = np.split(np.fft.ifft(states[-1]), 3)
    norm = np.linalg.norm(u0, axis=1)
    pre_gp = np.linalg.norm(pre - gp, axis=1) / norm
    gp_lin = np.linalg.norm(gp - lin, axis=1) / norm
    report = truncation_study(p, s_values, profile, L=grid.L, M=grid.M, t_end=1.0,
                              dt=1e-3)
    assert pre_gp == pytest.approx([pt["error"] for pt in report.points], rel=1e-9)
    assert np.all(gp_lin > pre_gp)
    for errors in (pre_gp, gp_lin):
        assert 0.9 <= fit_loglog(rho, errors)[0] <= 1.1


def test_truncation_study_degenerate_rejected():
    p = XXZParams(N=8, J0=1.0, R0=1.0, s=1.0)  # D = 0 for every s
    with pytest.raises(ValueError):
        truncation_study(
            p, s_values=[10.0, 100.0],
            profile=lambda xi: 0.5 * np.exp(-(xi ** 2)),
            L=8 * np.pi, M=64, t_end=0.1, dt=1e-3,
        )


def test_truncation_batch_matches_points_run_one_at_a_time(monkeypatch):
    # every s gives the same D, so a degenerate point is injected by
    # making one s value's transform raise
    real = limitlab.compute_transform

    def transform(p):
        if p.s == 200.0:
            raise DegenerateTransformError("A^2 = 0 is not positive")
        return real(p)

    monkeypatch.setattr(limitlab, "compute_transform", transform)
    L, M, t_end, dt = 8 * np.pi, 64, 0.05, 1e-3
    p = XXZParams(N=8, J0=1.0, J1=0.1, R0=2.0, R1=0.3, s=1.0, x_xi=0.4)

    def profile(xi):
        return 0.8 * np.exp(-((xi / 2.0) ** 2))

    s_values = [40.0, 200.0, 400.0, 4000.0]
    rep = truncation_study(p, s_values, profile, L=L, M=M, t_end=t_end, dt=dt)
    assert [pt["s"] for pt in rep.points] == s_values
    assert rep.points[1] == {"s": 200.0, "skipped": True,
                             "reason": "degenerate transform"}
    used = [pt for pt in rep.points if not pt["skipped"]]
    assert len(used) == 3

    grid = continuum.Grid1D(L, M)
    xs_c = grid.xs - L / 2.0
    gp = continuum.gp_rhs_factory(grid)
    for pt in used:
        tc = real(replace(p, s=pt["s"]))
        assert (pt["A"], pt["B"]) == (tc.A, tc.B)
        u0 = np.asarray(profile(tc.B * xs_c), dtype=complex) / tc.A
        pre = continuum.precursor_rhs_factory(replace(p, s=pt["s"]), tc, grid)
        _, up = integrators.integrate_fixed(pre, np.fft.fft(u0), 0.0, t_end, dt)
        _, ug = integrators.integrate_fixed(gp, np.fft.fft(u0), 0.0, t_end, dt)
        alone = (np.sqrt(np.sum(np.abs(np.fft.ifft(up[-1]) - np.fft.ifft(ug[-1])) ** 2))
                 / np.sqrt(np.sum(np.abs(u0) ** 2)))
        assert abs(pt["error"] - alone) <= 1e-12 * alone
