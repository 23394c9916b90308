import math

import numpy as np
import pytest

from gpchain import integrators, latticedyn
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
from gpchain.latticedyn import hubbard_rhs, xxz_rhs
from gpchain.models import HubbardParams, XXZParams


def test_rk4_exact_on_linear_oscillator():
    # dy/dt = i y, y(0) = 1
    f = lambda t, y: 1j * y
    times, states = integrate_fixed(f, np.array([1.0 + 0j]), 0.0, 1.0, 1e-3)
    assert abs(states[-1][0] - np.exp(1j)) < 1e-12
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)


def test_nan_step_and_tolerance_are_rejected():
    # NaN passed the old "<= 0" checks: a NaN dt died converting the step
    # count to an integer, a NaN tolerance ran into StepUnderflowError
    f = lambda t, y: 1j * y
    y0 = np.array([1.0 + 0j])
    with pytest.raises(ValueError, match=r"^dt must be positive and finite, got nan$"):
        integrate_fixed(f, y0, 0.0, 1.0, math.nan)
    with pytest.raises(ValueError, match=r"^tolerance must be positive, got nan$"):
        integrate_adaptive(f, y0, 0.0, 1.0, math.nan)


def _rotation_step(t, y, h):
    return np.exp(1j * h) * y


# each entry point with (t0, t_end, dt): dt is dt0 for integrate_adaptive
_ENTRY_POINTS = {
    "march": lambda t0, t_end, dt: march(_rotation_step, np.array([1 + 0j]), t0, t_end, dt),
    "integrate_fixed": lambda t0, t_end, dt: integrate_fixed(
        lambda t, y: 1j * y, np.array([1 + 0j]), t0, t_end, dt),
    "integrate_adaptive": lambda t0, t_end, dt: integrate_adaptive(
        lambda t, y: 1j * y, np.array([1 + 0j]), t0, t_end, 1e-8, dt0=dt),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("t0, t_end, dt, message", [
    (0.0, 1.0, math.inf, r"^dt0? must be positive and finite, got inf$"),
    (0.0, 1.0, math.nan, r"^dt0? must be positive and finite, got nan$"),
    (0.0, math.inf, 0.1, r"^t0 and t_end must be finite, got t0=0.0, t_end=inf$"),
    (0.0, math.nan, 0.1, r"^t0 and t_end must be finite, got t0=0.0, t_end=nan$"),
    (math.nan, 1.0, 0.1, r"^t0 and t_end must be finite, got t0=nan, t_end=1.0$"),
    (-math.inf, 1.0, 0.1, r"^t0 and t_end must be finite, got t0=-inf, t_end=1.0$"),
], ids=["dt-inf", "dt-nan", "t_end-inf", "t_end-nan", "t0-nan", "t0-minus-inf"])
def test_non_finite_step_and_times_are_rejected(entry, t0, t_end, dt, message):
    # dt = inf used to hand back the initial state as the state at t_end,
    # t_end = nan a NaN last time or "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=message):
        _ENTRY_POINTS[entry](t0, t_end, dt)


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


def _hubbard_golden_capped():
    rhs, y0 = _hubbard_golden()
    return integrate_adaptive(rhs, y0, 0.0, 0.3, 1e-11, dt0=0.3, snapshot_every=1,
                              max_steps=20)


def _squared_to_its_pole():
    # y' = y^2 from y = 1 blows up at t = 1, where the step size underflows
    return integrate_adaptive(lambda t, y: y * y, np.array([1.0 + 0j]), 0.0, 2.0, 1e-4,
                              snapshot_every=1)


@pytest.mark.parametrize("run, error, accepted, attempts", [
    (_hubbard_golden_capped, IntegrationError, 17, 20),
    (_squared_to_its_pole, StepUnderflowError, 91, 181),
])
def test_adaptive_failures_carry_every_accepted_step(monkeypatch, run, error, accepted,
                                                     attempts):
    # each attempt starts where the last accepted step ended, so the
    # attempts' start times, then the last good t, are the accepted steps
    starts = []
    dp45 = integrators._dp45

    def recording(f, t, y, dt, k1):
        starts.append(t)
        return dp45(f, t, y, dt, k1)

    monkeypatch.setattr(integrators, "_dp45", recording)
    with pytest.raises(IntegrationError) as err:
        run()
    exc = err.value
    assert type(exc) is error
    assert (len(exc.times) - 1, len(starts)) == (accepted, attempts)
    assert exc.times == list(dict.fromkeys(starts + [exc.t]))
    assert len(exc.states) == len(exc.times) and np.array_equal(exc.states[-1], exc.y)


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
    # an f that returns its argument, one that returns a cached array, one
    # that returns a real array for a complex y, and a complex f on a real
    # y, whose step promotes to complex: no step writes into y or into
    # anything f returned, and each matches the frozen bodies below bit
    # for bit, dtype included
    cached = np.array([0.5 - 0.25j, -1.0 + 2.0j])
    z, x = np.array([1.0 + 0.5j, -2.0 + 0j]), np.array([1.0, -2.0])
    for rhs, y0 in ((lambda t, y: y, z), (lambda t, y: cached, z),
                    (lambda t, y: np.abs(y) - 1.0, z), (lambda t, y: 1j * y - cached, x)):
        for step, parent in ((rk4_step, _parent_rk4_step), (dp45_step, _parent_dp45_step)):
            returned = []

            def f(t, y):
                out = rhs(t, y)
                returned.append((out, out.copy()))
                return out

            y = y0.copy()
            keep = y.copy()
            got = step(f, 0.1, y, 0.3)
            assert y.tobytes() == keep.tobytes()
            assert all(out.tobytes() == was.tobytes() for out, was in returned)
            want = parent(rhs, 0.1, keep, 0.3)
            for g, w in zip(got if step is dp45_step else (got,),
                            want if step is dp45_step else (want,)):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


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


def test_zero_length_march_keeps_one_snapshot():
    # the initial state is the final one: both schemes return it once,
    # as integrate_adaptive does, and take no step
    calls = []
    y0 = np.array([1.0 + 0j])
    for step in (lambda t, y, h: calls.append(h) or y, SplitStep(_shift_kernel(calls))):
        times, states = march(step, y0, 2.0, 2.0, 0.1, snapshot_every=1)
        assert times == [2.0] and len(states) == 1
        assert np.array_equal(states[0], y0) and states[0] is not y0
    assert calls == []
    assert integrate_adaptive(lambda t, y: y, y0, 2.0, 2.0, 1e-8)[0] == [2.0]


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


# ------------------------------------------ the parent's bodies, frozen
#
# rk4_step, dp45_step and integrate_adaptive as they were before the steps
# summed in place and Dormand-Prince reused its last stage, and xxz_rhs as
# it was before it skipped a zero site field and scaled in place.  The
# current ones must give the same bits.

def _parent_rk4_step(f, t, y, dt):
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = f(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _parent_xxz_rhs(p, symbol_mode):
    Jb, Rb = latticedyn._bond_arrays(p)
    nb = np.concatenate(latticedyn._neighbours(p.N))
    N = p.N
    sJ2, sR, h, shift = (
        np.asarray(c, dtype=complex)
        for c in (np.tile(p.s * Jb, 2), p.s * (2.0 * Rb), p.h, Rb))
    R2 = np.tile(Rb, 2)
    scale = 1j / p.hbar

    def f(t, phi):
        u = phi[0]
        g = u.take(nb)
        hop = sJ2 * g
        P = hop[:N] + hop[N:]
        P -= sR * u
        pair = R2 * (np.abs(g) ** 2)
        P += (pair[:N] + pair[N:]) * u
        P -= h * u
        if symbol_mode == "wick":
            P += shift * u
        return scale * P[None, :]

    return f


_PARENT_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_PARENT_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_PARENT_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_PARENT_DP_B4 = (
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
    -92097 / 339200, 187 / 2100, 1 / 40,
)


def _parent_dp45_step(f, t, y, dt):
    ks = []
    for i in range(7):
        yi = y
        for a, k in zip(_PARENT_DP_A[i], ks):
            yi = yi + (dt * a) * k
        ks.append(f(t + _PARENT_DP_C[i] * dt, yi))
    y5 = y
    err = np.zeros_like(y)
    for b5, b4, k in zip(_PARENT_DP_B5, _PARENT_DP_B4, ks):
        if b5:
            y5 = y5 + (dt * b5) * k
        err = err + (dt * (b5 - b4)) * k
    return y5, err


def _parent_integrate_adaptive(f, y0, t0, t_end, tol, dt0=None, snapshot_every=0):
    span = t_end - t0
    y = np.array(y0, dtype=complex, copy=True)
    t = float(t0)
    times = [t]
    states = [y.copy()]
    dt = dt0 if dt0 else span / 100.0
    accepted = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end:
            last = dt >= t_end - t
            dt = min(dt, t_end - t)
            y_new, err = _parent_dp45_step(f, t, y, dt)
            if not np.all(np.isfinite(y_new.view(float))):
                dt *= 0.2
                continue
            scale = tol * (1.0 + np.abs(y).max())
            ratio = np.abs(err).max() / scale
            if ratio <= 1.0:
                t = t_end if last else t + dt
                y = y_new
                accepted += 1
                if snapshot_every and accepted % snapshot_every == 0 and t < t_end:
                    times.append(t)
                    states.append(y.copy())
                grow = 0.9 * (max(ratio, 1e-16)) ** (-0.2)
                dt *= min(5.0, max(0.2, grow))
            else:
                dt *= max(0.2, 0.9 * ratio ** (-0.2))
    times.append(t)
    states.append(y.copy())
    return times, states


def _counted(f):
    calls = []

    def g(t, y):
        calls.append(t)
        return f(t, y)

    return g, calls


def _same_run(got, want):
    (t1, s1), (t2, s2) = got, want
    assert np.array(t1).tobytes() == np.array(t2).tobytes()
    assert len(s1) == len(s2)
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(s1, s2))


def _hubbard_golden():
    """The Hubbard golden run's chain and initial state (N = 16)."""
    x = np.arange(16.0)
    y0 = np.stack([(0.8 * np.exp(-(((x - 6.0) / 1.5) ** 2))).astype(complex),
                   (0.6 * np.exp(-(((x - 10.0) / 1.5) ** 2))).astype(complex)])
    return hubbard_rhs(HubbardParams(N=16, t=1.0, U=2.0)), y0


def _blows_up_past_10(t, y):
    # finite only while every |y| stays below 10: a large step gives a
    # non-finite y5 and is retried at a fifth of its size
    return np.where(np.abs(y) < 10.0, -y, np.inf)


def _time_dependent(t, y):
    return 1j * np.cos(3.0 * t) * y - 0.2 * t * (np.abs(y) ** 2) * y


@pytest.mark.parametrize("every", [0, 1])
def test_adaptive_rejections_match_the_parent_bit_for_bit(every):
    rhs, y0 = _hubbard_golden()
    new, new_calls = _counted(rhs)
    old, old_calls = _counted(rhs)
    got = integrate_adaptive(new, y0, 0.0, 0.3, 1e-11, dt0=0.3, snapshot_every=every)
    want = _parent_integrate_adaptive(old, y0, 0.0, 0.3, 1e-11, dt0=0.3,
                                      snapshot_every=every)
    _same_run(got, want)
    # 40 attempts, of which 3 rejected: 7 RHS calls each before, and
    # 1 + 6 per attempt now that the last stage is the next first
    assert len(old_calls) == 280
    assert len(new_calls) == 1 + 6 * 40 == 241
    if every:
        assert len(got[0]) == 38  # 37 accepted steps and the start


@pytest.mark.parametrize("every", [0, 1])
@pytest.mark.parametrize("f, y0, t_end, tol, dt0", [
    (_blows_up_past_10, np.array([1.0 + 0j, 0.5 - 0.5j]), 20.0, 1e-8, 20.0),
    (_time_dependent, np.array([1.0 + 0.2j, -0.3 + 0.7j, 0.1 + 0j]), 3.0, 1e-7, 0.5),
    (lambda t, y: y * y, np.array([1.0 + 0j]), 0.9, 1e-9, 0.4),
])
def test_adaptive_matches_the_parent_bit_for_bit(f, y0, t_end, tol, dt0, every):
    new, new_calls = _counted(f)
    old, old_calls = _counted(f)
    got = integrate_adaptive(new, y0, 0.0, t_end, tol, dt0=dt0, snapshot_every=every)
    want = _parent_integrate_adaptive(old, y0, 0.0, t_end, tol, dt0=dt0,
                                      snapshot_every=every)
    _same_run(got, want)
    attempts = len(old_calls) // 7
    assert len(old_calls) == 7 * attempts
    assert len(new_calls) == 1 + 6 * attempts
    if f is _blows_up_past_10:
        # the first attempts blew up and were retried from t = 0, which
        # made the first stage again each time; now it is made once
        assert old_calls.count(0.0) > 1 and new_calls.count(0.0) == 1


@pytest.mark.parametrize("every", [0, 1])
def test_fixed_march_never_writes_what_f_returned(every):
    # the march reuses its stage and sum arrays from step to step: f that
    # returns its argument, a view of it, a cached array or a real array
    # for a complex y must still give the bits of the parent's fresh sums
    y0 = np.array([[1.0 + 0.5j, -2.0 + 0j, 0.25 - 1.0j]])
    cached = np.array([[0.5 - 0.25j, -1.0 + 2.0j, 0.0 + 0.75j]])
    for f in (lambda t, y: y, lambda t, y: y[:, ::-1], lambda t, y: cached,
              lambda t, y: np.abs(y) - 1.0):
        got = integrate_fixed(f, y0, 0.0, 0.35, 0.1, snapshot_every=every)
        want = march(lambda t, y, h: _parent_rk4_step(f, t, y, h), y0, 0.0, 0.35, 0.1,
                     snapshot_every=every)
        _same_run(got, want)
    assert np.array_equal(cached, [[0.5 - 0.25j, -1.0 + 2.0j, 0.0 + 0.75j]])


def test_fixed_makes_four_rhs_calls_per_step():
    f, calls = _counted(lambda t, y: 1j * y)
    integrate_fixed(f, np.array([1.0 + 0j]), 0.0, 0.35, 0.1)
    assert len(calls) == 4 * 4  # three full steps and the short one


@pytest.mark.parametrize("every", [0, 1])
def test_fixed_matches_the_parent_bit_for_bit(every):
    rng = np.random.default_rng(19)
    n = 24
    p = XXZParams(N=n, J0=0.8, J1=0.1, R0=0.6, R1=0.07, s=1.3, x_xi=0.3,
                  h=tuple(rng.uniform(-0.5, 0.5, n)), hbar=0.7)
    y0 = 0.4 * (rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n)))
    # the wick chain with a site field, and the naive chain without one,
    # whose RHS skips the field term that the parent's subtracts
    free = XXZParams(N=n, J0=0.8, J1=0.1, R0=0.6, R1=0.07, s=1.3, x_xi=0.3, hbar=0.7)
    for f, parent_f in ((xxz_rhs(p, "wick"), _parent_xxz_rhs(p, "wick")),
                        (xxz_rhs(free), _parent_xxz_rhs(free, "naive")),
                        (_time_dependent, _time_dependent)):
        got = integrate_fixed(f, y0, 0.0, 0.37, 0.01, snapshot_every=every)
        want = march(lambda t, y, h: _parent_rk4_step(parent_f, t, y, h), y0, 0.0, 0.37,
                     0.01, snapshot_every=every)
        _same_run(got, want)
    for _ in range(20):
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        t, dt = rng.uniform(-2.0, 2.0, 2)
        got = rk4_step(_time_dependent, t, y, dt)
        assert got.tobytes() == _parent_rk4_step(_time_dependent, t, y, dt).tobytes()
        for g, w in zip(dp45_step(_time_dependent, t, y, dt),
                        _parent_dp45_step(_time_dependent, t, y, dt)):
            assert g.tobytes() == w.tobytes()
