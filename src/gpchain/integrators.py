"""Time steppers: classic RK4, adaptive Dormand-Prince 5(4) and Strang.

All integrate complex numpy arrays of any shape.  Step functions write
only into arrays they allocated, never into y or into an array f
returned.  Their sums run in place, in arrays of the result type of y
and f's first stage, and keep the bits of the sums as written, since
only single additions swap operands.  An RK4 march keeps its stage
inputs and its sum of stages in work arrays allocated at its first
step, so that each step allocates only its result; f must therefore
not keep its argument past the call.
One loop, _drive, collects the snapshots, ends at exactly t_end and
hands blow-ups on as typed errors carrying the last good state.  The
schemes are generators of accepted steps: march's fixed plan of RK4 (4
RHS calls per step) or of Strang split steps, whose adjacent half
phases it fuses (SplitStep), and integrate_adaptive's Dormand-Prince
controller (6 RHS calls per attempt, plus one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class IntegrationError(RuntimeError):
    """Base for stepping failures; carries the last good (t, y) and snapshots."""

    def __init__(self, message, t=None, y=None):
        super().__init__(message)
        self.t = t
        self.y = y
        self.times = []  # the snapshots so far, filled in by _drive
        self.states = []


class NonFiniteError(IntegrationError):
    """The state or its derivative stopped being finite."""


class StepUnderflowError(IntegrationError):
    """The adaptive controller drove the step below the resolvable size."""


def _spare(stage, k):
    """stage, unless the stage k that f returned is it or a view of it:
    None then, so that the step writes into nothing f returned."""
    return None if stage is not None and (k is stage or k.base is stage) else stage


def _rk4(f):
    """A classic RK4 step on f, step(t, y, dt) = y + (dt/6) (k1 + 2 k2 + 2 k3 + k4).

    The seven sums keep their order.  The stage inputs, then 2 k3, go
    into one work array, and the sum of the stages into another, both of
    the result type of y and k1 and of y's shape; the step allocates
    them on its first call with that type and shape and reuses them at
    every later one, so that a step allocates only its result.  No array
    that f returned is written: once f returns the work array or a view
    of it (its argument), the rest of the step allocates in its place.
    The next stage or step writes into f's argument, so f must not keep
    it past the call.
    """
    work = {}
    # bound once, and out passed by position: on a small array the lookup
    # and the out keyword of each of a step's 13 calls cost about what
    # its sum does
    mul, plus = np.multiply, np.add

    def step(t, y, dt):
        k1 = f(t, y)
        key = (np.result_type(y, k1), y.shape)
        stage, acc = work.get(key) or work.setdefault(
            key, (np.empty(y.shape, key[0]), np.empty(y.shape, key[0])))
        half = 0.5 * dt
        k2 = f(t + half, plus(mul(half, k1, stage), y, stage))
        stage = _spare(stage, k2)
        k3 = f(t + half, plus(mul(half, k2, stage), y, stage))
        stage = _spare(stage, k3)
        k4 = f(t + dt, plus(mul(dt, k3, stage), y, stage))
        stage = _spare(stage, k4)
        acc = plus(mul(2.0, k2, acc), k1, acc)
        acc = plus(acc, mul(2.0, k3, stage), acc)
        acc = plus(acc, k4, acc)
        y_new = mul(dt / 6.0, acc)
        return plus(y_new, y, y_new)

    return step


def rk4_step(f, t, y, dt):
    """One classic RK4 step: y + (dt/6) (k1 + 2 k2 + 2 k3 + k4); see _rk4."""
    return _rk4(f)(t, y, dt)


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


def _drive(steps, y0, t0, t_end, snapshot_every):
    """The one stepping loop: runs steps(t0, y0, keep) to t_end; returns (times, states).

    steps yields each accepted step as (t, y, last), last on the one that
    reaches t_end.  Snapshots always include the initial state and the
    final one at exactly t_end, one snapshot when t_end == t0; with
    snapshot_every = n > 0, every n-th step before the last is kept as
    well, and keep(m) tells a scheme whether step m is an n-th one.  An
    IntegrationError out of steps leaves carrying the snapshots so far.
    """
    if not (abs(t0) < np.inf and abs(t_end) < np.inf):  # NaN fails too
        raise ValueError(f"t0 and t_end must be finite, got t0={t0!r}, t_end={t_end!r}")
    if t_end < t0:
        raise ValueError(f"t_end {t_end!r} before t0 {t0!r}")
    y = np.array(y0, dtype=complex, copy=True)
    times, states = [float(t0)], [y.copy()]
    if t_end == t0:
        return times, states
    keep = lambda n: snapshot_every and n % snapshot_every == 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for n, (t, y, last) in enumerate(steps(float(t0), y, keep), 1):
                if keep(n) and not last:
                    times.append(t)
                    states.append(y.copy())
    except IntegrationError as exc:
        exc.times, exc.states = times, states
        raise
    times.append(float(t_end))  # a fixed plan lands on t_end to 1e-9 relative
    states.append(y.copy())
    return times, states


def march(step, y0, t0, t_end, dt, snapshot_every=0):
    """Apply y <- step(t, y, h) from t0 to exactly t_end; returns (times, states).

    RK4 (integrate_fixed) and the Strang split steps take this fixed
    plan, driven by _drive.  The steps follow fixed_steps, so a dt that
    does not divide the span ends with one short step.  A non-finite
    state raises NonFiniteError carrying the last finite (t, y).

    A SplitStep's closing half phase and the next step's opening one
    are fused, since S(h)^n = K(h/2) [D(h) K(h)]^(n-1) D(h) K(h/2):
    n full steps make n + 1 phase substeps and n linear ones.  A step
    closes with K(h/2) at a snapshot, on the last full step and on the
    short final step, and the step after a close opens with K(h/2).
    The states handed back, snapshots and errors alike, are closed: a
    blow-up after an open state undoes its pending half phase with
    K(-dt/2).
    """
    if not 0 < dt < np.inf:  # NaN fails too
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    kernel = step.kernel if isinstance(step, SplitStep) else None
    def steps(t, y, keep):
        nfull, rem = fixed_steps(t0, t_end, dt)
        count = nfull + bool(rem)
        pending = False  # y carries the next split step's opening K(dt/2)
        for n in range(1, count + 1):
            full = n <= nfull
            h = dt if full else rem
            fuse = kernel is not None and n < nfull and not keep(n)
            if kernel is None:
                y_new = step(t, y, h)
            else:
                y_new = kernel(y, h, 0.0 if pending else 0.5 * h,
                               h if fuse else 0.5 * h)
            t_new = t0 + n * dt if full else t_end
            if not np.isfinite(y_new).all():
                if pending:
                    y = kernel(y, 0.0, -0.5 * dt, 0.0)
                raise NonFiniteError(f"state became non-finite at t={t_new:.6g}", t, y)
            t, y, pending = t_new, y_new, fuse
            yield t, y, n == count

    return _drive(steps, y0, t0, t_end, snapshot_every)


def integrate_fixed(f, y0, t0, t_end, dt, snapshot_every=0):
    """March RK4 on dy/dt = f(t, y) from t0 to t_end; see march."""
    return march(_rk4(f), y0, t0, t_end, dt, snapshot_every=snapshot_every)


# Dormand-Prince 5(4) tableau.  It is first same as last: the seventh
# stage's row of A equals the weights of y5, so its stage is f(t + dt, y5).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
    -92097 / 339200, 187 / 2100, 1 / 40,
)
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))


def _stage_sum(y, dt, coeffs, ks, dtype, mul=np.multiply, plus=np.add):
    """y + (dt c_1) k_1 + (dt c_2) k_2 + ..., summed left to right in place
    and skipping the zero coefficients: the first term is made in a new
    array of dtype, which takes y and then each later term."""
    acc = None
    for c, k in zip(coeffs, ks):
        if c:
            term = mul(dt * c, k, np.empty(y.shape, dtype) if acc is None else None)
            acc = plus(term, y, term) if acc is None else plus(acc, term, acc)
    return acc


def _dp45(f, t, y, dt, k1):
    """One Dormand-Prince step from k1 = f(t, y); returns (y5, err, k7).

    k7 = f(t + dt, y5) is the seventh stage and the next step's k1.  Its
    input is y5 itself: the tableau's row adds a (dt * 0) k2 term, which
    can change only the sign of an exact zero, and k7 enters only err.
    Six RHS calls per step.  Its 27 sums keep their order and, as in
    RK4's, run in place in arrays of the result type of y and k1.
    """
    dtype = np.result_type(y, k1)
    ks = [k1]
    for i in range(1, 6):
        ks.append(f(t + _DP_C[i] * dt, _stage_sum(y, dt, _DP_A[i], ks, dtype)))
    y5 = _stage_sum(y, dt, _DP_B5, ks, dtype)
    ks.append(f(t + dt, y5))
    err = np.zeros(y.shape, dtype)
    for e, k in zip(_DP_E, ks):
        err += (dt * e) * k
    return y5, err, ks[6]


def dp45_step(f, t, y, dt):
    """One Dormand-Prince step, seven RHS calls; returns (y5, error_estimate_array)."""
    y5, err, _ = _dp45(f, t, y, dt, f(t, y))
    return y5, err


def integrate_adaptive(f, y0, t0, t_end, tol, dt0=None, snapshot_every=0,
                       max_steps=10_000_000):
    """Adaptive Dormand-Prince march; returns (times, states).

    tol acts as both absolute and relative tolerance.  snapshot_every
    counts accepted steps, which _drive keeps as it does march's.  The
    step that reaches t_end ends at exactly t_end.  An accepted step
    hands its last stage, f(t + dt, y5), on as the next step's first,
    and a rejected or non-finite step keeps its first stage, so a run
    makes 1 + 6 * attempts RHS calls.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if dt0 and not 0 < dt0 < np.inf:  # 0 or None: span / 100
        raise ValueError(f"dt0 must be positive and finite, got {dt0!r}")
    span = t_end - t0
    def steps(t, y, keep):
        dt = dt0 if dt0 else span / 100.0
        total = 0
        k1 = None  # f(t, y), made at the first attempt and then kept
        scale = tol * (1.0 + np.abs(y).max())
        while t < t_end:
            total += 1
            if total > max_steps:
                raise IntegrationError(f"exceeded {max_steps} steps", t, y)
            last = dt >= t_end - t
            dt = min(dt, t_end - t)
            if dt < 1e-14 * span:
                raise StepUnderflowError(f"step size underflow at t={t:.6g}", t, y)
            if k1 is None:
                k1 = f(t, y)
            y_new, err, k7 = _dp45(f, t, y, dt, k1)
            if not np.isfinite(y_new).all():
                dt *= 0.2
                continue
            ratio = np.abs(err).max() / scale
            if ratio <= 1.0:
                t = t_end if last else t + dt  # t + dt may round past t_end
                y, k1 = y_new, k7
                scale = tol * (1.0 + np.abs(y).max())
                yield t, y, not t < t_end
                grow = 0.9 * (max(ratio, 1e-16)) ** (-0.2)
                dt *= min(5.0, max(0.2, grow))
            else:
                dt *= max(0.2, 0.9 * ratio ** (-0.2))

    return _drive(steps, y0, t0, t_end, snapshot_every)
