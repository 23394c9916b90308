"""Time steppers: classic RK4 and adaptive Dormand-Prince 5(4).

Both integrate dy/dt = f(t, y) for complex numpy arrays of any shape.
Step functions are pure.  march, the one fixed-step driver, runs RK4 or
any step(t, y, h); it fuses the adjacent half phases of consecutive
Strang split steps (SplitStep).  integrate_adaptive has its own
controller.  Both collect snapshots and convert blow-ups into typed
errors carrying the last good state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class IntegrationError(RuntimeError):
    """Base for stepping failures; carries the last good (t, y) and snapshots."""

    def __init__(self, message, t=None, y=None, times=None, states=None):
        super().__init__(message)
        self.t = t
        self.y = y
        self.times = times or []
        self.states = states or []


class NonFiniteError(IntegrationError):
    """The state or its derivative stopped being finite."""


class StepUnderflowError(IntegrationError):
    """The adaptive controller drove the step below the resolvable size."""


def rk4_step(f, t, y, dt):
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = f(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def fixed_steps(t0, t_end, dt):
    """Plan a fixed-step march from t0 to t_end: (full steps, final step).

    The full steps number round(span / dt) when that lands on t_end to
    1e-9 relative, and floor(span / dt) otherwise.  The final step is
    what is left to t_end, or 0.0 when that is below 1e-12 relative, so
    a march that takes both ends at exactly t_end.
    """
    span = t_end - t0
    nfull = int(round(span / dt))
    if abs(nfull * dt - span) > 1e-9 * max(dt, abs(span)):
        nfull = int(span / dt)
    rem = t_end - (t0 + nfull * dt)
    return nfull, (rem if rem > 1e-12 * max(1.0, abs(t_end)) else 0.0)


@dataclass(frozen=True)
class SplitStep:
    """A Strang split step S(h) = K(h/2) D(h) K(h/2) that march can fuse.

    kernel(y, h, before, after) returns K(after) D(h) K(before) y, where
    K(tau) is a phase substep with K(a) K(b) = K(a + b) on any state and
    D(h) is the linear substep; a length of 0 skips that substep.  Called
    as step(t, y, h), it takes one whole step S(h).
    """

    kernel: Callable

    def __call__(self, t, y, h):
        return self.kernel(y, h, 0.5 * h, 0.5 * h)


def march(step, y0, t0, t_end, dt, snapshot_every=0):
    """Apply y <- step(t, y, h) from t0 to exactly t_end; returns (times, states).

    This is the one fixed-step loop: RK4 (integrate_fixed) and the
    Strang split steps run through it.  The steps follow fixed_steps,
    so a dt that does not divide the span ends with one short step.
    Snapshots always include the initial and final state; with
    snapshot_every = n > 0, every n-th full step is kept as well.  A
    non-finite state raises NonFiniteError carrying the last finite
    (t, y) and the snapshots so far.

    A SplitStep's closing half phase and the next step's opening one
    are fused, since S(h)^n = K(h/2) [D(h) K(h)]^(n-1) D(h) K(h/2):
    n full steps make n + 1 phase substeps and n linear ones.  A step
    closes with K(h/2) at a snapshot, on the last full step and on the
    short final step, and the step after a close opens with K(h/2).
    The states handed back, snapshots and errors alike, are closed: a
    blow-up after an open state undoes its pending half phase with
    K(-dt/2).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if t_end < t0:
        raise ValueError(f"t_end {t_end!r} before t0 {t0!r}")
    y = np.array(y0, dtype=complex, copy=True)
    t = float(t0)
    times = [t]
    states = [y.copy()]
    nfull, rem = fixed_steps(t0, t_end, dt)
    kernel = step.kernel if isinstance(step, SplitStep) else None
    pending = False  # y carries the next split step's opening K(dt/2)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nfull + 1 + bool(rem)):
            full = n <= nfull
            h = dt if full else rem
            snap = snapshot_every and n % snapshot_every == 0 and n < nfull
            fuse = kernel is not None and n < nfull and not snap
            if kernel is None:
                y_new = step(t, y, h)
            else:
                y_new = kernel(y, h, 0.0 if pending else 0.5 * h,
                               h if fuse else 0.5 * h)
            t_new = t0 + n * dt if full else t_end
            if not np.all(np.isfinite(y_new.view(float))):
                if pending:
                    y = kernel(y, 0.0, -0.5 * dt, 0.0)
                raise NonFiniteError(
                    f"state became non-finite at t={t_new:.6g}",
                    t=t, y=y, times=times, states=states,
                )
            t, y = t_new, y_new
            pending = fuse
            if snap:
                times.append(t)
                states.append(y.copy())
    times.append(float(t_end))  # the plan lands on t_end to 1e-9 relative
    states.append(y.copy())
    return times, states


def integrate_fixed(f, y0, t0, t_end, dt, snapshot_every=0):
    """March RK4 on dy/dt = f(t, y) from t0 to t_end; see march."""
    return march(lambda t, y, h: rk4_step(f, t, y, h), y0, t0, t_end, dt,
                 snapshot_every=snapshot_every)


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
    -92097 / 339200, 187 / 2100, 1 / 40,
)


def dp45_step(f, t, y, dt):
    """One Dormand-Prince step; returns (y5, error_estimate_array)."""
    ks = []
    for i in range(7):
        yi = y
        for a, k in zip(_DP_A[i], ks):
            yi = yi + (dt * a) * k
        ks.append(f(t + _DP_C[i] * dt, yi))
    y5 = y
    err = np.zeros_like(y)
    for b5, b4, k in zip(_DP_B5, _DP_B4, ks):
        if b5:
            y5 = y5 + (dt * b5) * k
        err = err + (dt * (b5 - b4)) * k
    return y5, err


def integrate_adaptive(f, y0, t0, t_end, tol, dt0=None, snapshot_every=0,
                       max_steps=10_000_000):
    """Adaptive Dormand-Prince march; returns (times, states).

    tol acts as both absolute and relative tolerance.  snapshot_every
    counts accepted steps.  The step that reaches t_end ends at exactly
    t_end.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if t_end < t0:
        raise ValueError(f"t_end {t_end!r} before t0 {t0!r}")
    span = t_end - t0
    y = np.array(y0, dtype=complex, copy=True)
    t = float(t0)
    times = [t]
    states = [y.copy()]
    if span == 0:
        return times, states
    dt = dt0 if dt0 else span / 100.0
    accepted = 0
    total = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end:
            total += 1
            if total > max_steps:
                raise IntegrationError(
                    f"exceeded {max_steps} steps", t=t, y=y, times=times, states=states
                )
            last = dt >= t_end - t
            dt = min(dt, t_end - t)
            if dt < 1e-14 * span:
                raise StepUnderflowError(
                    f"step size underflow at t={t:.6g}",
                    t=t, y=y, times=times, states=states,
                )
            y_new, err = dp45_step(f, t, y, dt)
            if not np.all(np.isfinite(y_new.view(float))):
                dt *= 0.2
                continue
            scale = tol * (1.0 + np.abs(y).max())
            ratio = np.abs(err).max() / scale
            if ratio <= 1.0:
                t = t_end if last else t + dt  # t + dt may round past t_end
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
