"""Property tests of the step drivers on random spans and step sizes."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gpchain import continuum  # noqa: E402
from gpchain.integrators import (  # noqa: E402
    fixed_steps, integrate_adaptive, integrate_fixed, march, rk4_step,
)

spans = st.floats(0.0, 20.0, allow_nan=False)
steps = st.floats(0.01, 5.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(t0=st.floats(-10.0, 10.0), span=spans, dt=steps)
def test_march_ends_at_t_end_after_the_planned_steps(t0, span, dt):
    t_end = t0 + span
    taken = []

    def step(t, y, h):
        taken.append((t, h))
        return y + h

    times, states = march(step, np.zeros(1), t0, t_end, dt)
    nfull, rem = fixed_steps(t0, t_end, dt)
    assert len(taken) == nfull + (rem > 0)
    assert [h for _, h in taken[:nfull]] == [dt] * nfull
    assert taken[nfull:] == ([(t0 + nfull * dt, rem)] if rem else [])
    assert times[-1] == t_end
    assert states[-1][0].real == pytest.approx(nfull * dt + rem, rel=1e-12, abs=1e-12)
    # the plan covers the span up to the slack fixed_steps allows: a step
    # count that lands within 1e-9 relative, a remainder below 1e-12
    slack = 1e-9 * max(dt, span) + 1e-12 * max(1.0, abs(t_end))
    assert abs(nfull * dt + rem - span) <= slack


@settings(max_examples=50, deadline=None)
@given(span=st.floats(0.0, 3.0), dt=st.floats(0.01, 0.5), every=st.integers(0, 4))
def test_integrate_fixed_is_march_over_rk4(span, dt, every):
    # time-dependent and nonlinear, so the times handed to the step matter
    def f(t, y):
        return (1j + 0.3 * t) * y - 0.2j * np.abs(y) ** 2 * y

    y0 = np.array([[0.6 + 0.2j, -0.3j, 0.1]])
    times, states = integrate_fixed(f, y0, 0.0, span, dt, snapshot_every=every)
    m_times, m_states = march(lambda t, y, h: rk4_step(f, t, y, h), y0, 0.0, span,
                              dt, snapshot_every=every)
    assert times == m_times
    assert all(np.array_equal(a, b) for a, b in zip(states, m_states))

    nfull, rem = fixed_steps(0.0, span, dt)
    y = y0.astype(complex)
    for n in range(nfull):
        y = rk4_step(f, n * dt, y, dt)
    if rem:
        y = rk4_step(f, nfull * dt, y, rem)
    assert np.array_equal(states[-1], y)


@settings(max_examples=50, deadline=None)
@given(t_end=st.floats(0.0, 3.0), dt=st.floats(0.01, 1.0),
       amp=st.floats(0.1, 1.5), amp2=st.floats(0.1, 1.5),
       mode=st.integers(-7, 7))
def test_strang_adapters_carry_plane_waves_exactly(t_end, dt, amp, amp2, mode):
    # a plane wave keeps |u| constant, so every substep of either split
    # step is exact and the final field pins the time the steps add up
    # to; that the plan reaches t_end is checked above
    grid = continuum.Grid1D(16.0, 32)
    k = 2.0 * np.pi * mode / grid.L
    wave = np.exp(1j * k * grid.xs)
    nfull, rem = fixed_steps(0.0, t_end, dt)
    reached = nfull * dt + rem

    _, states = march(continuum.gp_strang(grid), amp * wave, 0.0, t_end, dt)
    u = states[-1]
    exact = amp * wave * np.exp(-1j * (1.0 + k * k - amp ** 2) * reached)
    assert np.abs(u - exact).max() < 1e-12

    t_hop, U = 0.5, 1.3
    step = continuum.coupled_gp_strang(grid, t_hop, np.full(grid.M, U))
    _, states = march(step, np.stack([amp * wave, amp2 * wave]), 0.0, t_end, dt)
    for got, a, other in zip(states[-1], (amp, amp2), (amp2, amp)):
        omega = -4.0 * t_hop + 2.0 * t_hop * k * k + U * other ** 2
        assert np.abs(got - a * wave * np.exp(-1j * omega * reached)).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(t_end=st.floats(0.01, 4.0), tol=st.sampled_from([1e-4, 1e-6, 1e-8]),
       amp=st.floats(0.1, 1.5))
def test_adaptive_times_increase_to_exactly_t_end(t_end, tol, amp):
    def f(t, y):
        return 1j * y - 0.5j * np.abs(y) ** 2 * y

    times, _ = integrate_adaptive(f, np.full(4, amp, dtype=complex), 0.0, t_end, tol,
                                  dt0=1e-3, snapshot_every=1)
    assert all(a < b for a, b in zip(times, times[1:]))
    assert times[-1] == t_end
