import math

import numpy as np
import pytest

from gpchain.integrators import (
    IntegrationError,
    NonFiniteError,
    SplitStep,
    StepUnderflowError,
    dp45_step,
    fixed_steps,
    integrate_adaptive,
    integrate_fixed,
    march,
    rk4_step,
)


def test_rk4_exact_on_linear_oscillator():
    # dy/dt = i y, y(0) = 1
    f = lambda t, y: 1j * y
    times, states = integrate_fixed(f, np.array([1.0 + 0j]), 0.0, 1.0, 1e-3)
    assert abs(states[-1][0] - np.exp(1j)) < 1e-12
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)


def test_rk4_fourth_order_convergence():
    f = lambda t, y: 1j * np.exp(1j * t) * y  # y' = i e^{it} y
    exact = np.exp(1j * (np.exp(1j) - 1.0) / 1j)  # y = exp(e^{it} - 1), messy on purpose
    exact = np.exp(np.exp(1j) - 1.0)
    errs = []
    dts = [0.1, 0.05, 0.025, 0.0125]
    for dt in dts:
        _, states = integrate_fixed(f, np.array([1.0 + 0j]), 0.0, 1.0, dt)
        errs.append(abs(states[-1][0] - exact))
    slopes = [
        math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(len(dts) - 1)
    ]
    for s in slopes:
        assert 3.7 < s < 4.3


def test_fixed_step_remainder_hits_t_end_exactly():
    f = lambda t, y: np.zeros_like(y)
    times, _ = integrate_fixed(f, np.array([0j]), 0.0, 0.35, 0.1)
    assert times[-1] == pytest.approx(0.35)


def test_snapshots_include_ends():
    f = lambda t, y: -y
    times, states = integrate_fixed(
        f, np.array([1.0 + 0j]), 0.0, 1.0, 0.1, snapshot_every=3
    )
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)
    assert len(times) == len(states)
    assert len(times) > 2


def test_nonfinite_blowup_carries_last_good_state():
    # dy/dt = y^2 blows up at t = 1 for y0 = 1
    f = lambda t, y: y * y
    with pytest.raises(NonFiniteError) as err:
        integrate_fixed(f, np.array([1.0 + 0j]), 0.0, 2.0, 1e-3)
    exc = err.value
    assert exc.y is not None
    assert np.all(np.isfinite(exc.y.view(float)))
    assert exc.states
    assert isinstance(exc, IntegrationError)


def test_dp45_error_estimate_scales():
    f = lambda t, y: 1j * y
    y0 = np.array([1.0 + 0j])
    _, e1 = dp45_step(f, 0.0, y0, 0.1)
    _, e2 = dp45_step(f, 0.0, y0, 0.05)
    # local error estimate of a 5(4) pair drops by ~2^5
    ratio = np.abs(e1).max() / np.abs(e2).max()
    assert 20 < ratio < 50


def test_adaptive_meets_tolerance():
    f = lambda t, y: 1j * y
    for tol in (1e-6, 1e-10):
        times, states = integrate_adaptive(f, np.array([1.0 + 0j]), 0.0, 5.0, tol)
        err = abs(states[-1][0] - np.exp(5j))
        assert err < 200 * tol
    assert times[-1] == pytest.approx(5.0)


def test_adaptive_takes_fewer_steps_at_loose_tolerance():
    calls = {"n": 0}

    def f(t, y):
        calls["n"] += 1
        return 1j * y

    integrate_adaptive(f, np.array([1.0 + 0j]), 0.0, 5.0, 1e-4)
    loose = calls["n"]
    calls["n"] = 0
    integrate_adaptive(f, np.array([1.0 + 0j]), 0.0, 5.0, 1e-12)
    tight = calls["n"]
    assert loose < tight


def test_adaptive_underflow_raises():
    flip = {"sign": 1.0}

    def f(t, y):
        # stage evaluations never agree, so no step is ever small enough
        flip["sign"] = -flip["sign"]
        return np.array([1e12 * flip["sign"] + 0j])

    with pytest.raises(StepUnderflowError) as err:
        integrate_adaptive(f, np.array([0j]), 0.0, 1.0, 1e-10)
    assert err.value.times


def test_adaptive_step_bound_raises_with_the_last_good_state():
    y0 = np.array([1.0 + 0j])
    with pytest.raises(IntegrationError, match="exceeded 3 steps") as err:
        integrate_adaptive(lambda t, y: 1j * y, y0, 0.0, 5.0, 1e-10, dt0=1e-3,
                           max_steps=3)
    exc = err.value
    assert type(exc) is IntegrationError
    assert 0.0 < exc.t < 5.0
    assert np.all(np.isfinite(exc.y.view(float)))
    assert exc.times[0] == 0.0 and np.array_equal(exc.states[0], y0)


def test_shape_preserved_for_2d_states():
    f = lambda t, y: 1j * y
    y0 = np.ones((2, 5), dtype=complex)
    _, states = integrate_fixed(f, y0, 0.0, 0.3, 0.01)
    assert states[-1].shape == (2, 5)
    _, states = integrate_adaptive(f, y0, 0.0, 0.3, 1e-8)
    assert states[-1].shape == (2, 5)


def test_step_functions_do_not_mutate_input():
    f = lambda t, y: 1j * y
    y0 = np.array([1.0 + 0j, 2.0])
    keep = y0.copy()
    rk4_step(f, 0.0, y0, 0.1)
    dp45_step(f, 0.0, y0, 0.1)
    assert np.array_equal(y0, keep)


def test_fixed_steps_plan():
    # a dt that divides the span keeps its step count and adds no final step
    assert fixed_steps(0.0, 1.0, 1e-3) == (1000, 0.0)
    assert fixed_steps(0.0, 0.02, 1e-3) == (20, 0.0)
    n, rem = fixed_steps(0.0, 1.0, 0.3)
    assert n == 3 and rem == pytest.approx(0.1)
    n, rem = fixed_steps(0.0, 1.0, 0.35)
    assert n == 2 and rem == pytest.approx(0.3)
    assert fixed_steps(2.0, 2.0, 0.1) == (0, 0.0)


def _shift_kernel(calls, nan_at=None):
    """A synthetic split kernel, exact in binary floating point at dyadic
    steps: K(tau) y = y + tau, so K(a) K(b) = K(a + b), and D(h) y = (1 + h) y.
    Its nan_at-th call returns NaN."""
    def kernel(y, h, before, after):
        calls.append((h, before, after))
        if len(calls) == nan_at:
            return np.full_like(y, np.nan)
        return (1.0 + h) * (y + before) + after

    return kernel


def test_march_fuses_the_half_phases_of_split_steps():
    calls = []
    dt, every = 0.25, 3
    times, states = march(SplitStep(_shift_kernel(calls)), np.array([1.0 + 0j]),
                          0.0, 2.125, dt, snapshot_every=every)
    # eight full steps and a short one; a step closes at the snapshots
    # after steps 3 and 6, on the last full step and on the short step
    assert calls == [(dt, dt / 2, dt), (dt, 0.0, dt), (dt, 0.0, dt / 2),
                     (dt, dt / 2, dt), (dt, 0.0, dt), (dt, 0.0, dt / 2),
                     (dt, dt / 2, dt), (dt, 0.0, dt / 2),
                     (0.125, 0.0625, 0.0625)]
    assert times == [0.0, 0.75, 1.5, 2.125]
    # the same states as whole steps S(h), with nothing fused
    step = SplitStep(_shift_kernel([]))
    y, want = np.array([1.0 + 0j]), [np.array([1.0 + 0j])]
    for n in range(1, 9):
        y = step(None, y, dt)
        if n in (3, 6):
            want.append(y)
    want.append(step(None, y, 0.125))
    assert all(np.array_equal(a, b) for a, b in zip(states, want))


@pytest.mark.parametrize("every", [0, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_split_step_blowup_carries_the_closed_state(k, every):
    dt = 0.25
    with pytest.raises(NonFiniteError) as err:
        march(SplitStep(_shift_kernel([], nan_at=k)), np.array([1.0 + 0j]), 0.0, 2.0,
              dt, snapshot_every=every)
    exc = err.value
    # the end of step k - 1, and the state of k - 1 whole steps S(dt)
    assert exc.t == (k - 1) * dt
    step = SplitStep(_shift_kernel([]))
    y = np.array([1.0 + 0j])
    for _ in range(k - 1):
        y = step(None, y, dt)
    assert np.array_equal(exc.y, y)
    assert exc.times == [0.0] + [n * dt for n in range(1, k) if every and n % every == 0]
