import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from gpchain import continuum, integrators
from gpchain.continuum import (
    Grid1D,
    continuum_observables,
    coupled_gp_observables,
    coupled_gp_step,
    gp_energy,
    gp_momentum,
    gp_norm,
    gp_rhs_factory,
    gp_step_splitstep,
    precursor_rhs_factory,
    pretransform_rhs_factory,
    spectral_derivative,
)
from gpchain.integrators import fixed_steps, integrate_fixed, march
from gpchain.limitlab import DegenerateTransformError, TransformCoefficients, compute_transform
from gpchain.models import XXZParams


def _du(rhs, u):
    """du/dt at t = 0 from a spectral RHS, which acts on the spectrum fft(u)."""
    return np.fft.ifft(rhs(0.0, np.fft.fft(u)))


def _evolve(rhs, u0, t_end, dt):
    """The field at t_end of an RK4 run on the spectrum fft(u0)."""
    _, states = integrate_fixed(rhs, np.fft.fft(u0), 0.0, t_end, dt)
    return np.fft.ifft(states[-1])


def _model(J0=1.0, R0=2.0, s=1.4, **kw):
    """An XXZ model and its GP rescaling."""
    p = XXZParams(N=8, J0=J0, R0=R0, s=s, **kw)
    return p, compute_transform(p)


# a precursor batch's rows: gradient couplings; negative J1 and R1/R0 at
# B^-2 = 1.5625, A = 1.70; and none at B^-2 = 0.25, A = 0.5.  B^-2 / 2A,
# the pair coupling, stays at or below 0.6: it sets how fast RK4 roundoff
# grows, so the 200-step agreement in test_spectral_rk4_matches_physical_
# space_oracle reads 7e-15 at 0.66 and 1e-13 at 0.87 in the same code.
_ROWS = [_model(J0=1.2, R0=1.6, J1=0.5, R1=0.25, x_xi=0.5, s=1.6),
         _model(J0=1.0, R0=1.75125, J1=-0.2, R1=-0.3, x_xi=0.3, s=6.5),
         _model(J0=1.3, R0=1.4625, s=2.25)]


def _precursor_args(rows):
    """(p, tc) of one model, or per-row lists of the first rows of _ROWS."""
    return _ROWS[0] if rows is None else tuple(list(c) for c in zip(*_ROWS[:rows]))


def _random_model(rng, **fixed):
    """A model with J0, J1, R0, R1, x_xi and hbar all nonzero and of either
    sign, drawn until it has a GP rescaling, and that rescaling; fixed
    overrides any of them."""
    while True:
        sign = lambda: float(rng.choice([-1.0, 1.0]))
        kw = dict(J0=float(rng.uniform(0.3, 2.0)), R0=float(rng.uniform(0.3, 3.0)) * sign(),
                  J1=float(rng.uniform(0.1, 1.0)) * sign(),
                  R1=float(rng.uniform(0.1, 1.0)) * sign(),
                  x_xi=float(rng.uniform(0.1, 1.0)) * sign(),
                  s=float(rng.uniform(0.5, 5.0)), hbar=float(rng.uniform(0.5, 2.0)))
        kw.update(fixed)
        try:
            return _model(**kw)
        except DegenerateTransformError:
            pass


def test_grid_validation():
    g = Grid1D(L=10.0, M=64)
    assert g.dx == pytest.approx(10.0 / 64)
    assert g.xs[0] == 0.0 and len(g.xs) == 64
    assert g.k[0] == 0.0
    with pytest.raises(ValueError):
        Grid1D(L=0.0, M=64)
    with pytest.raises(ValueError):
        Grid1D(L=5.0, M=48)
    with pytest.raises(ValueError):
        Grid1D(L=5.0, M=4)


@pytest.mark.parametrize("L", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_grid_length_must_be_positive_and_finite(L):
    # a NaN or infinite L made a NaN or infinite dx
    with pytest.raises(ValueError, match=rf"^L must be positive and finite, got {L!r}$"):
        Grid1D(L=L, M=64)


def test_spectral_derivative_exact_on_modes():
    g = Grid1D(L=2 * np.pi, M=64)
    x = g.xs
    u = np.exp(3j * x)
    d1 = spectral_derivative(u, g)
    d2 = spectral_derivative(u, g, order=2)
    assert np.abs(d1 - 3j * u).max() < 1e-12
    assert np.abs(d2 + 9.0 * u).max() < 1e-11


def test_spectral_derivative_beats_differences():
    g = Grid1D(L=2 * np.pi, M=128)
    x = g.xs
    u = np.exp(np.sin(x))
    exact = np.cos(x) * u
    spec_err = np.abs(spectral_derivative(u, g) - exact).max()
    fd = (np.roll(u, -1) - np.roll(u, 1)) / (2 * g.dx)
    fd_err = np.abs(fd - exact).max()
    assert spec_err < 1e-12
    assert fd_err > 1e3 * spec_err


def test_splitstep_norm_exact():
    g = Grid1D(L=20.0, M=128)
    rng = np.random.default_rng(7)
    u0 = rng.normal(size=g.M) + 1j * rng.normal(size=g.M)
    u = u0
    n0 = gp_norm(u, g)
    for _ in range(500):
        u = gp_step_splitstep(u, 1e-3, g)
    assert abs(gp_norm(u, g) - n0) < 1e-12 * n0


def test_splitstep_is_second_order():
    g = Grid1D(L=16.0, M=64)
    x = g.xs
    u0 = 0.9 * np.exp(-((x - 8.0) / 2.0) ** 2) * np.exp(0.3j * x)
    ref = _evolve(gp_rhs_factory(g, dealias=False), u0, 0.2, 1e-4)
    errs = []
    for dt in (2e-3, 1e-3):
        u = u0
        for _ in range(int(round(0.2 / dt))):
            u = gp_step_splitstep(u, dt, g)
        errs.append(np.abs(u - ref).max())
    ratio = errs[0] / errs[1]
    assert 3.3 < ratio < 4.7


def test_bright_soliton_is_stationary():
    g = Grid1D(L=20 * np.pi, M=512)
    x = g.xs
    u0 = np.sqrt(2.0) / np.cosh(x - g.L / 2)
    uT = _evolve(gp_rhs_factory(g), u0, 1.0, 1e-3)
    drift = np.abs(np.abs(uT) - np.abs(u0)).max()
    assert drift < 1e-8
    assert np.abs(uT - u0).max() < 1e-8


def test_gp_energy_momentum_conserved():
    g = Grid1D(L=32.0, M=128)
    x = g.xs
    u0 = 0.8 * np.exp(-((x - 16.0) / 3.0) ** 2) * np.exp(0.5j * x)
    uT = _evolve(gp_rhs_factory(g), u0, 1.0, 1e-3)
    e0 = gp_energy(u0, g)
    eT = gp_energy(uT, g)
    assert abs(eT - e0) < 1e-8 * max(1.0, abs(e0))
    p0 = gp_momentum(u0, g)
    pT = gp_momentum(uT, g)
    assert abs(pT - p0) < 1e-8 * max(1.0, abs(p0))
    assert abs(p0) > 0.1


def test_momentum_zero_for_real_field():
    g = Grid1D(L=10.0, M=64)
    t = 2 * np.pi * g.xs / g.L
    u = np.cos(t) + 0.3 * np.cos(2 * t) + 0.1
    assert abs(gp_momentum(u, g)) < 1e-13


def test_precursor_eps_zero_matches_gp():
    g = Grid1D(L=25.0, M=128)
    rng = np.random.default_rng(3)
    u = rng.normal(size=g.M) + 1j * rng.normal(size=g.M)
    gp = gp_rhs_factory(g)
    pre = precursor_rhs_factory(*_model(J1=0.3, R1=0.4, x_xi=0.2), g, dispersive_scale=0.0)
    uh = np.fft.fft(u)
    assert np.array_equal(gp(0.0, uh), pre(0.0, uh))


def test_precursor_remainder_is_nonzero_and_linear_in_eps():
    g = Grid1D(L=25.0, M=128)
    x = g.xs
    u = 0.7 / np.cosh(0.4 * (x - 12.5))
    gp = gp_rhs_factory(g)
    p, tc = _model(R1=0.5, x_xi=0.3, s=3.0)
    full = precursor_rhs_factory(p, tc, g, dispersive_scale=1.0)
    half = precursor_rhs_factory(p, tc, g, dispersive_scale=0.5)
    d_full = _du(full, u) - _du(gp, u)
    d_half = _du(half, u) - _du(gp, u)
    assert np.abs(d_full).max() > 1e-4
    assert np.abs(d_full - 2.0 * d_half).max() < 1e-12


def test_precursor_rejects_bad_transform():
    g = Grid1D(L=10.0, M=64)
    p, tc = _model()
    for A2, B2 in ((0, 1), (1, -4), (np.nan, 1.0), (1.0, np.nan)):
        bad = TransformCoefficients(A2, B2, tc.time_scale)
        with pytest.raises(ValueError, match=r"^A\^2 and B\^2 must be positive"):
            precursor_rhs_factory(p, bad, g)
        with pytest.raises(ValueError, match=r"^A\^2 and B\^2 must be positive"):
            precursor_rhs_factory([p, p], [tc, bad], g)


@pytest.mark.parametrize("arg, value, rows", [
    ("spacing", np.nan, None), ("spacing", np.inf, None), ("spacing", -np.inf, None),
    ("spacing", [0.5, np.nan], 2),
    ("dispersive_scale", np.nan, None), ("dispersive_scale", np.inf, None),
    ("dispersive_scale", [1.0, -np.inf], 2),
])
def test_non_finite_spacing_and_dispersive_scale_are_rejected(arg, value, rows):
    # both used to pass, and made a non-finite RHS
    g = Grid1D(L=10.0, M=64)
    if arg == "spacing":
        grid = g if rows is None else (g,) * rows
        call = lambda: pretransform_rhs_factory(_ROWS[0][0], grid, spacing=value)
    else:
        call = lambda: precursor_rhs_factory(*_precursor_args(rows), g,
                                             dispersive_scale=value)
    with pytest.raises(ValueError, match=rf"^{arg} must be finite, got "):
        call()


@pytest.mark.parametrize("dealias", [True, False])
def test_precursor_is_the_pretransform_rescaled(dealias):
    # u = A psi, x = B xi and t = T tau, T = hbar time_scale: (T/A) times the
    # pretransform at spacing 1 on a grid of length B L is the precursor on
    # one of length L, with V = time_scale h for the site field h
    rng = np.random.default_rng(36)
    g = Grid1D(L=8.0 * np.pi, M=128)
    h = 0.3 + 0.1 * np.cos(2 * np.pi * g.xs / g.L)
    smooth = 0.8 * np.exp(-((g.xs - g.L / 2) / 3.0) ** 2) * np.exp(0.5j * g.xs)
    for seed in range(5):
        p, tc = _random_model(rng, h=0.3)
        A, B, T = tc.A, tc.B, p.hbar * float(tc.time_scale)
        pre = pretransform_rhs_factory(p, Grid1D(L=B * g.L, M=g.M), h_values=h,
                                       dealias=dealias)
        rescaled = lambda t, uh: (T / A) * pre(T * t, A * uh)
        gp = precursor_rhs_factory(p, tc, g, V=float(tc.time_scale) * h, dealias=dealias)
        uh = np.fft.fft(_test_field(g, seed))
        _assert_agrees(rescaled(0.0, uh), gp(0.0, uh), tol=1e-12)
        _, pre_states = integrate_fixed(pre, A * np.fft.fft(smooth), 0.0, 0.02 * T, 1e-3 * T)
        _, gp_states = integrate_fixed(gp, np.fft.fft(smooth), 0.0, 0.02, 1e-3)
        assert len(pre_states) == len(gp_states) == 2
        _assert_agrees(pre_states[-1] / A, gp_states[-1], tol=1e-12)


def test_map_keeps_the_hand_formulas_bits_where_R1_x_xi_is_zero(monkeypatch):
    # the floats the precursor's hand formulas gave, sign of zero included,
    # wherever they agree with the map: R1 = 0 or x_xi = 0
    seen = []
    monkeypatch.setattr(continuum, "_cubic_rhs", lambda grids, scale, *c, **kw: seen.append(
        c + (kw["grad"], kw["pair"])))
    rng = np.random.default_rng(7)
    g = Grid1D(L=10.0, M=16)
    for n in range(400):
        # J0 and R0 of one sign, R0 / J0 > 1: D has their sign (the negative
        # branch too) where R1 x_xi = 0
        J0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 10.0))
        p, tc = _random_model(rng, **(dict(R1=0.0) if n % 2 else dict(x_xi=0.0)), J0=J0,
                              R0=J0 * float(rng.uniform(1.05, 4.0)),
                              s=float(rng.uniform(0.1, 5000.0)))
        eps = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 2.0)]))
        precursor_rhs_factory(p, tc, g, dispersive_scale=eps)
        A, B, e = np.asarray(tc.A), np.asarray(tc.B), np.asarray(eps)
        Bm2 = B ** -2
        hand = (1.0, -1.0, -1.0 + e * (np.asarray(p.R1 / p.R0) * p.x_xi / B),
                -e * Bm2, -e * (Bm2 / (2.0 * A)))
        assert [np.float64(c).tobytes() for c in seen.pop()] == [
            np.float64(c).tobytes() for c in hand], (p, eps)


def test_int_inputs_map_to_the_all_fraction_floats(monkeypatch):
    # the map takes integer-valued inputs as ints, which must leave every
    # float it hands _cubic_rhs as an all-Fraction map gives it
    assert type(continuum._exact(400.0)) is int and continuum._exact(-0.0) == 0
    assert continuum._exact(1.5) == Fraction(3, 2)
    # the last two each give other floats through a float map
    models, tcs = zip(_model(J0=1.0, R0=2.0, s=400.0), _model(J0=3.0, R0=5.0, s=7.0),
                      _model(J0=1.0, R0=2.0, J1=0.5, R1=0.25, x_xi=-0.5, s=1.5),
                      _model(J0=1.0, R0=2.0, J1=1.0, R1=-1.0, x_xi=3.0, s=7.0),
                      _model(J0=1.0, R0=5.0, R1=-1.0, x_xi=2.0, s=1265.0))
    g = Grid1D(L=10.0, M=16)

    def coefficients(eps):
        seen = []
        with monkeypatch.context() as m:
            m.setattr(continuum, "_cubic_rhs", lambda grids, scale, *c, **kw: seen.extend(
                np.asarray(v).tobytes() for v in c + (kw["grad"], kw["pair"])))
            precursor_rhs_factory(list(models), list(tcs), g, dispersive_scale=eps)
        return seen

    for eps in (1.0, 0.0, [[1.0], [0.5]]):
        ints = coefficients(eps)
        with monkeypatch.context() as m:
            m.setattr(continuum, "_exact", Fraction)
            assert coefficients(eps) == ints, eps


def test_pretransform_linear_plane_wave():
    # with R0 = 0 and J1 = R1 = 0 only the hopping terms survive, and a
    # plane wave is an eigenmode of the right-hand side
    p = XXZParams(N=64, J0=1.3, R0=0.0, s=0.8, hbar=1.1)
    g = Grid1D(L=16.0, M=64)
    c = 0.25
    rhs = pretransform_rhs_factory(p, g, spacing=c)
    m = 3
    km = 2 * np.pi * m / g.L
    u = np.exp(1j * km * g.xs)
    expect = ((-2.0 * p.J0 * p.s + p.s * p.J0 * c * c * km * km) / (1j * p.hbar)) * u
    assert np.abs(_du(rhs, u) - expect).max() < 1e-12


def test_pretransform_matches_term_by_term_oracle():
    p = XXZParams(N=32, J0=0.9, J1=0.2, R0=0.7, R1=0.1, s=1.4, x_xi=0.3,
                  hbar=0.9)
    g = Grid1D(L=20.0, M=64)
    c = 0.5
    rhs = pretransform_rhs_factory(p, g, spacing=c, dealias=False)
    x = g.xs
    u = (0.6 + 0.1 * np.cos(2 * np.pi * x / g.L)) * np.exp(
        0.4j * np.sin(2 * np.pi * x / g.L))
    ux = spectral_derivative(u, g)
    uxx = spectral_derivative(u, g, order=2)
    lin = (-2 * p.J0 + 2 * p.R0) * p.s + 2 * (p.J1 - p.R1) * p.s * p.x_xi
    P = lin * u
    P += -p.s * p.J0 * c ** 2 * uxx
    P += (-2 * p.R0 + 2 * p.R1 * p.x_xi) * np.abs(u) ** 2 * u
    P += -2 * p.R0 * c ** 2 * np.abs(ux) ** 2 * u
    P += -p.R0 * c ** 2 * (np.conj(u) * uxx + u * np.conj(uxx))
    expect = P / (1j * p.hbar)
    assert np.abs(_du(rhs, u) - expect).max() < 1e-12


def test_pretransform_field_profile():
    p = XXZParams(N=16, J0=1.0, R0=0.5, h=0.3)
    g = Grid1D(L=8.0, M=16)
    with pytest.raises(ValueError):
        pretransform_rhs_factory(p, g)
    harr = np.full(g.M, 0.3)
    rhs = pretransform_rhs_factory(p, g, h_values=harr)
    p0 = XXZParams(N=16, J0=1.0, R0=0.5)
    rhs0 = pretransform_rhs_factory(p0, g)
    u = np.exp(2j * np.pi * g.xs / g.L)
    diff = _du(rhs, u) - _du(rhs0, u)
    assert np.abs(diff - (-0.3 / 1j) * u).max() < 1e-13
    with pytest.raises(ValueError):
        pretransform_rhs_factory(p, g, h_values=np.ones(5))


def test_coupled_norms_and_swap():
    g = Grid1D(L=30.0, M=128)
    x = g.xs
    a = 0.8 / np.cosh(0.5 * (x - 10.0))
    b = 0.6 / np.cosh(0.4 * (x - 20.0)) * np.exp(0.2j * x)
    U = 1.3
    na = gp_norm(a, g)
    nb = gp_norm(b, g)
    f = np.array([a, b])
    swapped = np.array([b, a])
    for _ in range(400):
        f = coupled_gp_step(f, 1e-3, g, t_hop=0.7, U_values=U)
        swapped = coupled_gp_step(swapped, 1e-3, g, t_hop=0.7, U_values=U)
    assert abs(gp_norm(f[0], g) - na) < 1e-12 * na
    assert abs(gp_norm(f[1], g) - nb) < 1e-12 * nb
    # relabeling the flavors commutes with the flow
    assert np.abs(f[0] - swapped[1]).max() < 1e-13
    assert np.abs(f[1] - swapped[0]).max() < 1e-13


def test_coupled_energy_drift_small():
    g = Grid1D(L=30.0, M=128)
    x = g.xs
    f = np.array([0.8 / np.cosh(0.5 * (x - 12.0)),
                  0.7 / np.cosh(0.5 * (x - 18.0))])
    obs0 = coupled_gp_observables(f, g, t_hop=0.5, U_values=1.0)
    for _ in range(1000):
        f = coupled_gp_step(f, 1e-3, g, t_hop=0.5, U_values=1.0)
    obs1 = coupled_gp_observables(f, g, t_hop=0.5, U_values=1.0)
    assert abs(obs1["energy"] - obs0["energy"]) < 1e-5
    assert abs(obs1["norm_flavor0"] - obs0["norm_flavor0"]) < 1e-12


def test_coupled_decouples_at_zero_U():
    g = Grid1D(L=16.0, M=64)
    x = g.xs
    u0 = np.exp(1j * 2 * np.pi * x / g.L)
    f = np.array([u0, np.zeros(g.M)])
    t_hop, dt, n = 0.9, 1e-2, 50
    for _ in range(n):
        f = coupled_gp_step(f, dt, g, t_hop=t_hop, U_values=0.0)
    k1 = 2 * np.pi / g.L
    phase = np.exp(-1j * dt * n * (-4 * t_hop + 2 * t_hop * k1 ** 2))
    assert np.abs(f[0] - phase * u0).max() < 1e-12
    assert np.abs(f[1]).max() == 0.0


# ------------------------------------------- fused Strang steps in march

def _gp_case(g):
    u0 = 1.2 / np.cosh(1.2 * (g.xs - 0.45 * g.L)) * np.exp(0.4j * g.xs)
    V = 0.5 * np.exp(-((g.xs - 0.55 * g.L) / 2.0) ** 2)
    return u0, V


def _two_gaussians(g):
    x = g.xs
    return np.array([0.8 * np.exp(-((x - 12.0) / 3.0) ** 2),
                     0.6 * np.exp(-((x - 18.0) / 3.0) ** 2) * np.exp(0.3j * x)])


def _stepwise(step, u, t_end, dt, every):
    """A loop of whole split steps on march's plan: the unfused run."""
    nfull, rem = fixed_steps(0.0, t_end, dt)
    times, states = [0.0], [u]
    for n in range(1, nfull + 1):
        u = step(u, dt)
        if every and n % every == 0 and n < nfull + bool(rem):  # before the last
            times.append(n * dt)
            states.append(u)
    if rem:
        u = step(u, rem)
    return times + [t_end], states + [u]


@pytest.mark.parametrize("every", [0, 3])
def test_fused_strang_march_matches_whole_steps(every):
    t_end, dt = 0.1, 0.003  # 33 full steps and a short one
    g = Grid1D(L=30.0, M=128)
    u0, V = _gp_case(g)
    times, states = march(continuum.gp_strang(g, V=V), u0, 0.0, t_end, dt,
                          snapshot_every=every)
    want_t, want = _stepwise(lambda u, h: gp_step_splitstep(u, h, g, V), u0,
                             t_end, dt, every)
    # with every = 3: steps 3, 6, ..., 33, the last full one, and both ends
    assert times == want_t and len(states) == len(want) == (13 if every else 2)
    for got, w in zip(states, want):
        _assert_agrees(got, w)

    t_hop, U = 0.5, 1.0 + 0.3 * np.cos(2 * np.pi * g.xs / g.L)
    pair = _two_gaussians(g)
    times, states = march(continuum.coupled_gp_strang(g, t_hop, U), pair, 0.0, t_end,
                          dt, snapshot_every=every)
    want_t, want = _stepwise(lambda u, h: coupled_gp_step(u, h, g, t_hop, U), pair,
                             t_end, dt, every)
    assert times == want_t
    for got, w in zip(states, want):
        _assert_agrees(got[0], w[0])
        _assert_agrees(got[1], w[1])


def _unfused_strang(u, dt, grid, potential, a, b):
    """The split step before its phase substeps could be fused, frozen."""
    half = -0.5j * dt
    u = np.exp(half * potential(u)) * u
    u = np.fft.ifft(np.exp(-1j * dt * (a + b * grid.k ** 2)) * np.fft.fft(u))
    return np.exp(half * potential(u)) * u


@pytest.mark.parametrize("dt", [1e-3, 0.003, 0.35])
def test_default_split_steps_keep_their_bytes(dt):
    assert -1j * (0.5 * dt) == -0.5j * dt
    g = Grid1D(L=30.0, M=128)
    u0, V = _gp_case(g)
    gp_potential = lambda w: 1.0 - np.abs(w) ** 2 - V
    for u in (u0, _two_gaussians(g)):
        want = _unfused_strang(u, dt, g, gp_potential, 0.0, 1.0)
        assert np.array_equal(gp_step_splitstep(u, dt, g, V), want)
        # without a potential the phase once subtracted a zero potential
        want = _unfused_strang(u, dt, g, lambda w: 1.0 - np.abs(w) ** 2 - 0.0, 0.0, 1.0)
        assert gp_step_splitstep(u, dt, g).tobytes() == want.tobytes()
    pair = _two_gaussians(g)
    U, t_hop, hbar = 1.0 + 0.3 * np.cos(2 * np.pi * g.xs / g.L), 0.5, 0.7
    want = _unfused_strang(pair, dt, g, lambda w: U / hbar * np.abs(w[::-1]) ** 2,
                           -4.0 * t_hop / hbar, 2.0 * t_hop / hbar)
    assert np.array_equal(coupled_gp_step(pair, dt, g, t_hop, U, hbar=hbar), want)


class _CountingNumpy:
    """numpy as continuum sees it, counting phase exponentials and FFTs."""

    def __init__(self):
        self.exp_calls = 0
        self.fft = SimpleNamespace(fft=self._counted(np.fft.fft),
                                   ifft=self._counted(np.fft.ifft))
        self.fft_calls = 0

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.fft_calls += 1
            return fn(*args, **kwargs)
        return counted

    def exp(self, *args, **kwargs):
        self.exp_calls += 1
        return np.exp(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("t_end, every, phases, pairs", [
    (0.1, 0, 11, 10),  # n full steps: n + 1 phase substeps
    (0.1, 3, 14, 10),  # and one more at each snapshot, after steps 3, 6 and 9
    (0.1, 5, 12, 10),  # the snapshot after step 10 is the final state
    (0.105, 0, 13, 11),  # a short final step opens and closes on its own
])
def test_fused_march_counts_phase_substeps(monkeypatch, t_end, every, phases, pairs):
    g = Grid1D(L=20.0, M=64)
    u0, V = _gp_case(g)
    steps = (continuum.gp_strang(g, V=V),
             continuum.coupled_gp_strang(g, 0.5, np.full(g.M, 1.0)))
    for step, y0 in zip(steps, (u0, _two_gaussians(g))):
        march(step, y0, 0.0, t_end, 0.01, snapshot_every=every)  # builds the propagators
        counting = _CountingNumpy()
        monkeypatch.setattr(continuum, "np", counting)
        march(step, y0, 0.0, t_end, 0.01, snapshot_every=every)
        monkeypatch.undo()
        assert (counting.exp_calls, counting.fft_calls) == (phases, 2 * pairs)


def test_observable_dicts():
    g = Grid1D(L=12.0, M=64)
    u = np.full(g.M, 0.5 + 0.0j)
    obs = continuum_observables(u, g)
    assert obs["norm"] == pytest.approx(0.25 * g.L)
    # constant field: E = |u|^2 - |u|^4/2 integrated
    assert obs["energy"] == pytest.approx(g.L * (0.25 - 0.5 * 0.0625))
    assert obs["momentum"] == pytest.approx(0.0, abs=1e-14)
    pair = np.array([u, np.full(g.M, 1.0 + 0.0j)])
    cobs = coupled_gp_observables(pair, g, t_hop=0.5, U_values=2.0)
    assert cobs["norm_flavor0"] == pytest.approx(0.25 * g.L)
    assert cobs["norm_flavor1"] == pytest.approx(g.L)
    assert cobs["energy"] == pytest.approx(
        g.L * (-4 * 0.5 * 1.25 + 2.0 * 0.25))


# Reference oracle: the term-by-term right-hand sides the fused
# cubic-dispersive RHS replaced, one FFT pair per derivative and one
# filter per nonlinear term.

def _filtered(values, mask):
    return np.fft.ifft(np.fft.fft(values) * mask)


def _oracle_gp(grid, V=None, dealias=True):
    k2 = grid.k ** 2
    mask = grid.dealias_mask() if dealias else None
    Varr = None if V is None else np.asarray(V, dtype=float)

    def f(t, u):
        u_xx = np.fft.ifft(-k2 * np.fft.fft(u))
        nl = (np.abs(u) ** 2) * u
        if mask is not None:
            nl = _filtered(nl, mask)
        P = u - u_xx - nl
        if Varr is not None:
            P = P - Varr * u
        return -1j * P

    return f


def _oracle_pretransform(p, grid, spacing=1.0, h_values=None, dealias=True):
    k2 = grid.k ** 2
    mask = grid.dealias_mask() if dealias else None
    c2 = spacing * spacing
    harr = None if h_values is None else np.asarray(h_values, dtype=float)
    lin = (-2.0 * p.J0 + 2.0 * p.R0) * p.s \
        + 2.0 * p.J1 * p.s * p.x_xi - 2.0 * p.R1 * p.s * p.x_xi
    cubic = -2.0 * p.R0 + 2.0 * p.R1 * p.x_xi
    scale = 1.0 / (1j * p.hbar)

    def f(t, u):
        u_xx = np.fft.ifft(-k2 * np.fft.fft(u))
        u_x = np.fft.ifft(1j * grid.k * np.fft.fft(u))
        nl = (np.abs(u) ** 2) * u
        grad2 = (np.abs(u_x) ** 2) * u
        pair = np.conj(u) * u_xx + u * np.conj(u_xx)
        if mask is not None:
            nl = _filtered(nl, mask)
            grad2 = _filtered(grad2, mask)
            pair = _filtered(pair, mask)
        P = lin * u - p.s * p.J0 * c2 * u_xx + cubic * nl
        P = P - 2.0 * p.R0 * c2 * grad2 - p.R0 * c2 * pair
        if harr is not None:
            P = P - harr * u
        return scale * P

    return f


def _oracle_precursor(p, tc, grid, V=None, dispersive_scale=1.0, dealias=True):
    k2 = grid.k ** 2
    mask = grid.dealias_mask() if dealias else None
    Varr = None if V is None else np.asarray(V, dtype=float)
    eps = dispersive_scale
    A, B = tc.A, tc.B
    Bm2 = B ** -2
    c_cubic = p.R1 / p.R0 * p.x_xi
    c_pair = Bm2 / (2.0 * A)

    def f(t, u):
        u_xx = np.fft.ifft(-k2 * np.fft.fft(u))
        nl = (np.abs(u) ** 2) * u
        if mask is not None:
            nl = _filtered(nl, mask)
        P = u - u_xx - nl
        if eps:
            u_x = np.fft.ifft(1j * grid.k * np.fft.fft(u))
            grad2 = (np.abs(u_x) ** 2) * u
            pair = np.conj(u) * u_xx + u * np.conj(u_xx)
            if mask is not None:
                grad2 = _filtered(grad2, mask)
                pair = _filtered(pair, mask)
            P = P + eps * (c_cubic * nl - Bm2 * grad2 - c_pair * pair)
        if Varr is not None:
            P = P - Varr * u
        return -1j * P

    return f


def _assert_agrees(got, want, tol=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def _test_field(g, seed):
    rng = np.random.default_rng(seed)
    x = g.xs
    envelope = 0.8 * np.exp(-((x - g.L / 2) / (0.15 * g.L)) ** 2)
    return envelope * np.exp(1j * (0.3 * x + 0.2 * rng.normal(size=g.M)))


@pytest.mark.parametrize("with_V", [False, True])
def test_fused_gp_matches_oracle(with_V):
    g = Grid1D(L=25.0, M=128)
    u = _test_field(g, 1)
    V = 0.3 * np.cos(2 * np.pi * g.xs / g.L) if with_V else None
    for dealias in (True, False):
        got = _du(gp_rhs_factory(g, V=V, dealias=dealias), u)
        want = _oracle_gp(g, V=V, dealias=dealias)(0.0, u)
        _assert_agrees(got, want)


@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
def test_fused_precursor_matches_oracle(eps):
    g = Grid1D(L=25.0, M=128)
    u = _test_field(g, 2)
    V = 0.2 * np.sin(2 * np.pi * g.xs / g.L)
    kw = dict(V=V, dispersive_scale=eps)
    for p, tc in _ROWS:
        _assert_agrees(_du(precursor_rhs_factory(p, tc, g, **kw), u),
                       _oracle_precursor(p, tc, g, **kw)(0.0, u))


@pytest.mark.parametrize("dealias", [True, False])
def test_fused_pretransform_matches_oracle(dealias):
    p = XXZParams(N=32, J0=0.9, J1=0.2, R0=0.7, R1=0.1, s=1.4, x_xi=0.3,
                  hbar=0.9, h=0.25)
    g = Grid1D(L=20.0, M=64)
    u = _test_field(g, 3)
    h = 0.25 + 0.1 * np.cos(2 * np.pi * g.xs / g.L)
    kw = dict(spacing=0.5, h_values=h, dealias=dealias)
    _assert_agrees(_du(pretransform_rhs_factory(p, g, **kw), u),
                   _oracle_pretransform(p, g, **kw)(0.0, u))


def test_fused_rows_are_independent_fields():
    g = Grid1D(L=25.0, M=128)
    u = np.stack([_test_field(g, seed) for seed in (4, 5, 6)])
    eps = [1.0, 0.5, 0.0]
    batch = _du(precursor_rhs_factory(*_precursor_args(3), g, dispersive_scale=eps), u)
    assert batch.shape == (3, g.M)
    for row, (p, tc), e, got in zip(u, _ROWS, eps, batch):
        _assert_agrees(got, _oracle_precursor(p, tc, g, dispersive_scale=e)(0.0, row))


def test_eps_blocks_run_every_row_at_each_scale():
    # an (E, 1) dispersive_scale maps each model once and runs it at each of
    # the E scales: the bytes of the rows listed out, block by block
    g = Grid1D(L=25.0, M=64)
    u = np.stack([_test_field(g, seed) for seed in range(6)])
    models, tcs = _precursor_args(3)
    blocks = precursor_rhs_factory(models, tcs, g, dispersive_scale=[[1.0], [0.0]])
    listed = precursor_rhs_factory(models * 2, tcs * 2, g,
                                   dispersive_scale=np.repeat([1.0, 0.0], 3))
    np.testing.assert_array_equal(_du(blocks, u), _du(listed, u))
    with pytest.raises(ValueError, match="broadcast"):
        precursor_rhs_factory(models, tcs, g, dispersive_scale=[1.0, 0.0])



# Physical-space oracle: the fused RHS as it was when it acted on u itself
# and u_x and u_xx had an ifft call each, five calls per evaluation with
# gradients and three without.

def _five_call_cubic_rhs(grids, scale, lin, d2, cubic, grad=0.0, pair=0.0,
                         V=None, dealias=True):
    (grid,) = grids
    gradients = bool(np.any(grad != 0) or np.any(pair != 0))
    ik = 1j * grid.k
    minus_k2 = -grid.k ** 2
    lin_hat = scale * (lin + d2 * minus_k2)
    c_cubic, c_grad, c_pair = scale * cubic, scale * grad, 2.0 * scale * pair
    sV = None if V is None else scale * np.asarray(V, dtype=float)
    mask = grid.dealias_mask().astype(float) if dealias else None

    def f(t, u):
        uh = np.fft.fft(u)
        nl = c_cubic * (u.real ** 2 + u.imag ** 2) * u
        if gradients:
            u_x = np.fft.ifft(ik * uh)
            u_xx = np.fft.ifft(minus_k2 * uh)
            nl = nl + c_grad * (u_x.real ** 2 + u_x.imag ** 2) * u
            nl = nl + c_pair * (u.real * u_xx.real + u.imag * u_xx.imag)
        if mask is None:
            du = np.fft.ifft(lin_hat * uh) + nl
        else:
            du = np.fft.ifft(lin_hat * uh + mask * np.fft.fft(nl))
        if sV is not None:
            du = du - sV * u
        return du

    return f


def _rhs_pair(monkeypatch, factory, *args, **kw):
    """The factory's RHS on fft(u), and the same factory's RHS over the five-call
    body on u."""
    got = factory(*args, **kw)
    with monkeypatch.context() as m:
        m.setattr(continuum, "_cubic_rhs", _five_call_cubic_rhs)
        want = factory(*args, **kw)
    return got, want


def _rhs_cases(g, rows, with_V, dealias):
    """(factory, args, kwargs) for every spectral RHS on one grid."""
    V = 0.2 * np.sin(2 * np.pi * g.xs / g.L) if with_V else None
    pre = dict(V=V, dealias=dealias)
    p = XXZParams(N=32, J0=0.9, J1=0.2, R0=0.7, R1=0.1, s=1.4, x_xi=0.3,
                  hbar=0.9, h=0.25 if with_V else 0.0)
    h = None if V is None else 0.25 + V
    return [
        (precursor_rhs_factory, (*_precursor_args(rows), g), dict(pre, dispersive_scale=0.0)),
        (precursor_rhs_factory, (*_precursor_args(rows), g), dict(pre, dispersive_scale=1.0)),
        (gp_rhs_factory, (g,), dict(V=V, dealias=dealias)),
        (pretransform_rhs_factory, (p, g),
         dict(spacing=0.5, h_values=h, dealias=dealias)),
    ]


def _field(g, rows, seed):
    if rows is None:
        return _test_field(g, seed)
    return np.stack([_test_field(g, seed + r) for r in range(rows)])


@pytest.mark.parametrize("M", [16, 64, 256])
@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("with_V", [False, True])
@pytest.mark.parametrize("dealias", [True, False])
def test_stacked_rhs_bytes_match_five_call_oracle(monkeypatch, M, rows, with_V, dealias):
    g = Grid1D(L=25.0, M=M)
    u = _field(g, rows, 11)
    for factory, args, kw in _rhs_cases(g, rows, with_V, dealias):
        got, want = _rhs_pair(monkeypatch, factory, *args, **kw)
        _assert_agrees(_du(got, u), want(0.0, u))


def test_stacked_rhs_bytes_property(monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 8), st.sampled_from([None, 1, 2, 5]),
           st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def check(log2_M, rows, seed, with_V, dealias):
        rng = np.random.default_rng(seed)
        g = Grid1D(L=float(rng.uniform(5.0, 40.0)), M=2 ** log2_M)
        shape = (g.M,) if rows is None else (rows, g.M)
        u = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        models = [_random_model(rng) for _ in range(rows or 1)]
        p, tc = models[0] if rows is None else tuple(list(c) for c in zip(*models))
        V = rng.normal(size=g.M) if with_V else None
        got, want = _rhs_pair(
            monkeypatch, precursor_rhs_factory, p, tc, g, V=V,
            dispersive_scale=rng.choice([0.0, float(rng.uniform(0.0, 2.0))]),
            dealias=dealias)
        _assert_agrees(_du(got, u), want(0.0, u))

    check()


def _rk4_cases(g):
    """(rows, factory, args, kwargs) for the spectral RK4 agreement test."""
    x = g.xs
    V = 0.2 * np.sin(2 * np.pi * x / g.L) + 0.1 * np.cos(6 * np.pi * x / g.L)
    p = XXZParams(N=32, J0=0.9, J1=0.2, R0=0.7, R1=0.1, s=1.4, x_xi=0.3,
                  hbar=0.9, h=0.25)
    return {
        "precursor-rows": (3, precursor_rhs_factory, (*_precursor_args(3), g),
                           dict(dispersive_scale=[1.0, 0.5, 0.0])),
        "pretransform-h": (None, pretransform_rhs_factory, (p, g),
                           dict(spacing=0.5, h_values=0.25 + V)),
        "gp-V": (None, gp_rhs_factory, (g,), dict(V=V)),
        "no-dealias": (None, pretransform_rhs_factory, (p, g),
                       dict(spacing=0.5, h_values=0.25 + V, dealias=False)),
    }


@pytest.mark.parametrize("case", ["precursor-rows", "pretransform-h", "gp-V",
                                  "no-dealias"])
def test_spectral_rk4_matches_physical_space_oracle(monkeypatch, case):
    # 200 RK4 steps on the spectrum against 200 on the field over the
    # five-call body.  The test field has modes beyond the 2/3 cutoff, so
    # a V u sent through the dealias filter would show here.
    g = Grid1D(L=25.0, M=64)
    rows, factory, args, kw = _rk4_cases(g)[case]
    u0 = _field(g, rows, 21)
    got, want = _rhs_pair(monkeypatch, factory, *args, **kw)
    _, oracle = integrate_fixed(want, u0, 0.0, 0.2, 1e-3)
    assert len(oracle) == 2
    _assert_agrees(_evolve(got, u0, 0.2, 1e-3), oracle[-1], tol=1e-12)


def _fft_calls(monkeypatch, u, factory, *args, **kw):
    """The fft and ifft calls, by name, of three evaluations of factory's RHS."""
    counted = []

    def counting(fn):
        def call(*args, **kwargs):
            counted.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    fft = SimpleNamespace(**vars(np.fft))
    fft.fft, fft.ifft = counting(np.fft.fft), counting(np.fft.ifft)
    with monkeypatch.context() as m:
        m.setattr(continuum, "np", SimpleNamespace(**dict(vars(np), fft=fft)))
        f = factory(*args, **kw)
        uh = np.fft.fft(u)
        del counted[:]
        for _ in range(3):
            f(0.0, uh)
    return counted


# Each id ends with the FFT calls one evaluation made when the RHS acted
# on u itself, with an fft of u in front and an ifft of the result behind.
@pytest.mark.parametrize("dealias, eps", [
    pytest.param(True, 1.0, id="True-1.0-4"), pytest.param(False, 1.0, id="False-1.0-3"),
    pytest.param(True, 0.0, id="True-0.0-3"), pytest.param(False, 0.0, id="False-0.0-2"),
])
@pytest.mark.parametrize("rows", [None, 3])
def test_rhs_makes_one_fft_call_per_dependent_stage(monkeypatch, dealias, eps, rows):
    # On the spectrum every case has two dependent stages: one ifft to u,
    # u_x and u_xx, and one fft of the nonlinear sum back.
    g = Grid1D(L=25.0, M=64)
    calls = _fft_calls(monkeypatch, _field(g, rows, 12), precursor_rhs_factory,
                       *_precursor_args(rows), g, dispersive_scale=eps, dealias=dealias)
    assert calls == ["ifft", "fft"] * 3


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("rows", [None, 3])
def test_rhs_with_a_potential_makes_two_fft_calls(monkeypatch, dealias, rows):
    # V u goes back through the nonlinear sum's fft as a stacked row of its own
    g = Grid1D(L=25.0, M=64)
    u = _field(g, rows, 13)
    for factory, args, kw in _rhs_cases(g, rows, True, dealias):
        calls = _fft_calls(monkeypatch, u, factory, *args, **kw)
        assert calls == ["ifft", "fft"] * 3, (factory.__name__, kw)


def _merged_case(with_h):
    """A pretransform model, four unsorted grids with a repeat, and per grid a
    spacing and (with_h) a site-field profile."""
    p = XXZParams(N=32, J0=0.9, J1=0.2, R0=0.7, R1=0.1, s=1.4, x_xi=0.3,
                  hbar=0.9, h=0.25 if with_h else 0.0)
    grids = tuple(Grid1D(L=20.0, M=M) for M in (64, 32, 128, 64))
    spacing = [0.5, 0.9, 0.3, 0.7]
    h = tuple(0.25 + 0.1 * np.cos(2 * np.pi * g.xs / g.L + i)
              for i, g in enumerate(grids)) if with_h else None
    return p, grids, spacing, h


@pytest.mark.parametrize("with_h", [False, True])
@pytest.mark.parametrize("dealias", [True, False])
def test_merged_grids_rhs_is_the_concatenation_of_each_grid(with_h, dealias):
    p, grids, spacing, h = _merged_case(with_h)
    uh = np.concatenate([np.fft.fft(_test_field(g, seed))
                         for seed, g in enumerate(grids)])
    rhs = pretransform_rhs_factory(p, grids, spacing=spacing, h_values=h,
                                   dealias=dealias)
    ends = np.cumsum([g.M for g in grids])
    for _ in range(2):  # the second call reuses the work arrays
        got = rhs(0.0, uh)
        assert got.shape == uh.shape
        for i, (g, end) in enumerate(zip(grids, ends)):
            seg = slice(end - g.M, end)
            want = pretransform_rhs_factory(
                p, g, spacing=spacing[i], h_values=None if h is None else h[i],
                dealias=dealias)(0.0, uh[seg])
            assert got[seg].tobytes() == want.tobytes(), (i, g.M)


@pytest.mark.parametrize("with_h", [False, True])
def test_merged_grids_rhs_makes_two_fft_calls_per_grid(monkeypatch, with_h):
    p, grids, spacing, h = _merged_case(with_h)
    u = np.concatenate([_test_field(g, 14) for g in grids])
    calls = _fft_calls(monkeypatch, u, pretransform_rhs_factory, p, grids,
                       spacing=spacing, h_values=h)
    assert calls == (["ifft"] * 4 + ["fft"] * 4) * 3


def test_merged_grids_need_one_spacing_and_profile_per_grid():
    p, grids, spacing, h = _merged_case(True)
    for kw in [dict(spacing=spacing[:3], h_values=h),
               dict(spacing=spacing + [0.1], h_values=h),
               dict(spacing=spacing[:3], h_values=None),
               dict(spacing=spacing, h_values=h[:3]),
               dict(spacing=spacing, h_values=h + h[:1])]:
        with pytest.raises(ValueError, match="one spacing and one h_values profile per grid"):
            pretransform_rhs_factory(p, grids, **kw)
    # the profiles of grids M = 64, 32, 128, 64 in reverse order
    with pytest.raises(ValueError, match=r"h_values must have shape \(32,\)"):
        pretransform_rhs_factory(p, grids, spacing=spacing, h_values=h[::-1])


# The fused RHS as plain expressions, each allocating its result: the
# work arrays must give its bits.

def _plain_cubic_rhs(grids, scale, lin, d2, cubic, grad=0.0, pair=0.0, V=None,
                     dealias=True):
    sizes = [g.M for g in grids]
    segs = [slice(end - M, end) for M, end in zip(sizes, np.cumsum(sizes))]
    gradients = bool(np.any(grad != 0) or np.any(pair != 0))
    k = np.concatenate([g.k for g in grids])
    derivs = np.stack([np.ones(k.size), 1j * k, -k ** 2])
    lin_hat = scale * (lin + d2 * -k ** 2)
    back = scale * np.concatenate([g.dealias_mask() for g in grids]) if dealias else scale
    Varr = None if V is None else np.asarray(V, dtype=float)

    def transform(fn, x):
        return np.concatenate([fn(x[..., s]) for s in segs], axis=-1)

    def f(t, uh):
        rows = (derivs[:, None] if uh.ndim == 2 else derivs) * uh if gradients else uh
        u = transform(np.fft.ifft, rows)
        u, u_x, u_xx = u if gradients else (u, None, None)
        weight = cubic * (u.real ** 2 + u.imag ** 2)
        if gradients:
            weight += grad * (u_x.real ** 2 + u_x.imag ** 2)
        nl = weight * u
        if gradients:
            nl += 2.0 * pair * (u.real * u_xx.real + u.imag * u_xx.imag)
        sums = transform(np.fft.fft, np.stack([nl] if Varr is None else [nl, Varr * u]))
        du = lin_hat * uh + back * sums[0]
        return du if Varr is None else du - scale * sums[1]

    return f


def _signed_zeros(u):
    """u with signed zeros in both parts of some points, to show a swapped
    operand or a changed cast."""
    u = u.copy()
    u.real[..., ::7] = -0.0
    u.imag[..., 3::11] = -0.0
    return u


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("with_V", [False, True])
@pytest.mark.parametrize("dealias", [True, False])
def test_rhs_keeps_the_bits_of_plain_expressions(monkeypatch, rows, with_V, dealias):
    g = Grid1D(L=25.0, M=64)
    uh = _signed_zeros(np.fft.fft(_field(g, rows, 17)))
    for factory, args, kw in _rhs_cases(g, rows, with_V, dealias):
        got = factory(*args, **kw)
        with monkeypatch.context() as m:
            m.setattr(continuum, "_cubic_rhs", _plain_cubic_rhs)
            want = factory(*args, **kw)(0.0, uh)
        for _ in range(2):  # the second call reuses the work arrays
            du = got(0.0, uh)
            assert du.shape == want.shape and du.tobytes() == want.tobytes(), factory.__name__


@pytest.mark.parametrize("with_h", [False, True])
def test_merged_grids_rhs_keeps_the_bits_of_plain_expressions(monkeypatch, with_h):
    p, grids, spacing, h = _merged_case(with_h)
    uh = _signed_zeros(np.concatenate([np.fft.fft(_test_field(g, seed))
                                       for seed, g in enumerate(grids)]))
    got = pretransform_rhs_factory(p, grids, spacing=spacing, h_values=h)
    with monkeypatch.context() as m:
        m.setattr(continuum, "_cubic_rhs", _plain_cubic_rhs)
        want = pretransform_rhs_factory(p, grids, spacing=spacing, h_values=h)(0.0, uh)
    for _ in range(2):
        assert got(0.0, uh).tobytes() == want.tobytes()


def _peak_allocation(call):
    """call()'s result after a warm-up call, and the most memory that
    tracemalloc saw allocated at once during it; numpy reports its data
    and buffer allocations to tracemalloc."""
    call()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def _truncation_rhs():
    """The truncation study's RHS: five points, a precursor row (eps = 1)
    and a GP row (eps = 0) for each, on the (10, 256) spectra it steps."""
    g = Grid1D(L=8.0 * np.pi, M=256)
    models, tcs = zip(*(_model(J1=0.5, R1=0.25, x_xi=0.5, s=s)
                        for s in (40.0, 126.0, 400.0, 1265.0, 4000.0)))
    rhs = precursor_rhs_factory(models, tcs, g, dispersive_scale=[[1.0], [0.0]])
    A = np.array([tc.A for tc in tcs])
    u = np.exp(-((g.xs - g.L / 2) / 2.0) ** 2) / A[:, None]
    return rhs, np.fft.fft(np.vstack([u, u]).astype(complex))


# Headroom over the returned array: tracemalloc's own records and numpy's
# small objects, well below any (M,) float temporary at M = 1024.
_SLACK = 4096


def test_rhs_allocates_only_its_result():
    # the truncation batch, and single grids with V: every temporary is a
    # work array, and the peak is du itself
    g = Grid1D(L=25.0, M=1024)
    V = 0.2 * np.sin(2 * np.pi * g.xs / g.L)
    uh1 = np.fft.fft(_test_field(g, 21))
    for rhs, uh in [_truncation_rhs(),
                    (precursor_rhs_factory(*_ROWS[0], g, V=V), uh1),
                    (gp_rhs_factory(g, V=V), uh1)]:
        du, peak = _peak_allocation(lambda: rhs(0.0, uh))
        assert du.shape == uh.shape
        assert peak <= du.nbytes + _SLACK, (uh.shape, peak, du.nbytes)


def test_rk4_march_step_allocates_only_its_stages_and_result():
    # the step that integrate_fixed makes: its stage inputs and sum of
    # stages are work arrays, so the four RHS results and the new state
    # are all it allocates.  Holding every stage input to the end of the
    # step puts a fresh one in the peak.
    rhs, uh = _truncation_rhs()
    inputs = []

    def f(t, y):
        inputs.append(y)
        return rhs(t, y)

    step = integrators._rk4(f)
    y, peak = _peak_allocation(lambda: step(0.0, uh, 1e-3))
    assert y.shape == uh.shape
    assert peak <= 5 * (y.nbytes + _SLACK), peak
    # both steps handed f uh, then one work array at stages 2 to 4
    assert all(x is uh for x in inputs[::4])
    assert len({id(x) for i, x in enumerate(inputs) if i % 4}) == 1


def test_grid_arrays_cached_read_only():
    g = Grid1D(L=10.0, M=64)
    assert g.k is g.k
    assert g.dealias_mask() is g.dealias_mask()
    assert g.dealias_mask().sum() == 2 * (64 // 3) + 1
    for arr in (g.k, g.dealias_mask()):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert np.array_equal(g.k, 2 * np.pi * np.fft.fftfreq(64, d=g.dx))


# Reference oracle: the two-field coupled split step the row-batched
# Strang kernel replaced, one FFT pair per flavor.

def _oracle_coupled_step(u0, u1, dt, grid, t_hop, U_values, hbar=1.0):
    Uarr = np.asarray(U_values, dtype=float)
    half = -0.5j * dt / hbar
    a0 = np.exp(half * Uarr * np.abs(u1) ** 2) * u0
    a1 = np.exp(half * Uarr * np.abs(u0) ** 2) * u1
    lin = np.exp((-1j * dt / hbar) * (-4.0 * t_hop + 2.0 * t_hop * grid.k ** 2))
    a0 = np.fft.ifft(lin * np.fft.fft(a0))
    a1 = np.fft.ifft(lin * np.fft.fft(a1))
    p0 = np.exp(half * Uarr * np.abs(a1) ** 2)
    p1 = np.exp(half * Uarr * np.abs(a0) ** 2)
    return p0 * a0, p1 * a1


@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_coupled_step_matches_two_field_oracle(hbar):
    g = Grid1D(L=30.0, M=128)
    u = np.array([_test_field(g, 7), _test_field(g, 8)[::-1]])
    U = 1.3 + 0.2 * np.cos(2 * np.pi * g.xs / g.L)
    got = coupled_gp_step(u, 0.01, g, 0.7, U, hbar=hbar)
    assert got.shape == (2, g.M)
    for row, want in zip(got, _oracle_coupled_step(u[0], u[1], 0.01, g, 0.7, U, hbar)):
        _assert_agrees(row, want)
