import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gpchain import continuum, integrators, limitlab
from gpchain.limitlab import (
    DegenerateTransformError,
    TransformCoefficients,
    compute_transform,
    expand_couplings,
    fit_loglog,
    lattice_vs_continuum,
    taylor_check,
    truncation_study,
)
from gpchain.models import XXZParams


def test_transform_worked_example():
    # D = -2 + 4 = 2, A^2 = 2/(2*2) = 1/2, B^2 = 1/2, tau = 1/(2*(1/2)*2)
    tc = compute_transform(XXZParams(N=8, J0=1.0, R0=2.0, s=1.0))
    assert tc.A_squared == Fraction(1, 2)
    assert tc.B_squared == Fraction(1, 2)
    assert tc.time_scale == Fraction(1, 2)
    assert not tc.degenerate
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
    tc = compute_transform(XXZParams(N=8, J0=2.0, R0=1.0, s=4.0))
    assert tc.A_squared == Fraction(-4)
    assert tc.B_squared == Fraction(-1)
    assert not tc.degenerate
    with pytest.raises(DegenerateTransformError):
        tc.A
    with pytest.raises(DegenerateTransformError):
        tc.B


def test_transform_degenerate_and_undefined():
    tc = compute_transform(XXZParams(N=8, J0=1.0, R0=1.0, s=3.0))
    assert tc.degenerate
    assert tc.B_squared == math.inf
    assert tc.A_squared == 0
    assert tc.time_scale == math.inf
    with pytest.raises(DegenerateTransformError):
        tc.A
    with pytest.raises(DegenerateTransformError):
        compute_transform(XXZParams(N=8, J0=1.0, R0=0.0))


def test_expand_couplings_uniform_ring():
    p = XXZParams(N=4, J0=2.0, J1=0.5, R0=1.0, R1=0.25, x_xi=0.5)
    x = np.arange(4) * 0.5
    Jb, Rb = expand_couplings(p, x)
    assert np.allclose(Jb, 2.0 - 0.5 * 0.5)
    assert np.allclose(Rb, 1.0 - 0.25 * 0.5)
    # a stretched wrap bond shows up only in the last entry
    Jb2, _ = expand_couplings(p, x, circumference=2.5)
    assert np.allclose(Jb2[:-1], Jb[:-1])
    assert Jb2[-1] == pytest.approx(2.0 - 0.5 * 1.0)
    with pytest.raises(ValueError):
        expand_couplings(p, np.zeros(3))


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


def test_taylor_check_third_order():
    rep = taylor_check(
        np.sin, np.cos, lambda x: -np.sin(x),
        deltas=[0.1, 0.05, 0.025, 0.0125],
        xs=np.linspace(0.0, 2.0, 41),
    )
    assert 2.7 <= rep.slope <= 3.3
    assert rep.passed is True
    assert rep.label == "taylor"
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
    assert rep.label == "continuum-limit"
    assert np.all(np.diff(rep.errors) < 0)
    assert rep.points[0]["N"] == 32
    assert rep.points[-1]["relative_error"] < rep.points[0]["relative_error"]


def test_lattice_self_reference_floor():
    L = 8 * np.pi
    p = XXZParams(N=8, J0=1.0, R0=2.0, s=1.0)
    rep = lattice_vs_continuum(
        p, lambda x: _gaussian(x, L), sizes=[32, 64],
        L=L, t_end=0.3, dt=1e-3, reference="self",
    )
    assert math.isnan(rep.slope)
    assert rep.passed is None
    assert max(rep.errors) < 1e-9
    with pytest.raises(ValueError):
        lattice_vs_continuum(p, lambda x: _gaussian(x, L), sizes=[16],
                             L=L, t_end=0.1, dt=1e-3, reference="midpoint")


def test_truncation_study_first_order():
    L = 8 * np.pi
    p = XXZParams(N=8, J0=1.0, R0=2.0, s=1.0)
    rep = truncation_study(
        p, s_values=[40.0, 400.0],
        profile=lambda xi: 0.8 * np.exp(-((xi / 2.0) ** 2)),
        L=L, M=128, t_end=0.3, dt=1e-3,
    )
    assert rep.label == "truncation"
    assert 0.7 <= rep.slope <= 1.3
    assert rep.passed is True
    assert rep.xs[0] == pytest.approx(0.1)
    assert rep.xs[1] == pytest.approx(0.01)
    assert rep.points[0]["A"] > rep.points[0]["B"] * 0  # detail carries A, B
    assert not rep.points[0]["skipped"]


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
    # flagging one s value's transform
    real = limitlab.compute_transform

    def transform(p):
        if p.s == 200.0:
            return TransformCoefficients(Fraction(0), math.inf, math.inf, True)
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
    assert len(rep.errors) == len(used) == 3

    grid = continuum.Grid1D(L, M)
    xs_c = grid.xs - L / 2.0
    gp = continuum.gp_rhs_factory(grid)
    for pt, err in zip(used, rep.errors):
        tc = real(replace(p, s=pt["s"]))
        assert (pt["A"], pt["B"]) == (tc.A, tc.B)
        u0 = np.asarray(profile(tc.B * xs_c), dtype=complex) / tc.A
        pre = continuum.precursor_rhs_factory(
            grid, tc.A, tc.B, r1_over_r0=p.R1 / p.R0, x_xi=p.x_xi)
        _, up = integrators.integrate_fixed(pre, np.fft.fft(u0), 0.0, t_end, dt)
        _, ug = integrators.integrate_fixed(gp, np.fft.fft(u0), 0.0, t_end, dt)
        alone = (np.sqrt(np.sum(np.abs(np.fft.ifft(up[-1]) - np.fft.ifft(ug[-1])) ** 2))
                 / np.sqrt(np.sum(np.abs(u0) ** 2)))
        assert err == pt["error"]
        assert abs(err - alone) <= 1e-12 * alone
