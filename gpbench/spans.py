"""Spans recorded from outside gpchain, around its public functions.

A Tracer swaps wrappers into the gpchain modules for the duration of
one traced job and keeps every span (name, start, end, parent) in
memory.  Nothing inside gpchain is edited: each wrapper replaces a
module attribute, so calls made through the module (`latticedyn.xxz_rhs`,
`models.derive_eom`, the module's own global lookups) are recorded.
The right-hand sides returned by the RHS factories are wrapped too, and
continuum's `np` is replaced by a view of numpy whose fft/ifft are
wrapped, so FFTs are counted only where continuum makes them.

Spans assume one thread, which holds because every study runs with
study.threads = 1.
"""

from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np

RHS_SPANS = ("latticedyn.rhs", "continuum.rhs")

# (module, attribute, span name); factories return an RHS that is traced
# under the span name, the function itself is not.
_CALLS = (
    ("gpchain.config", "load_config", "config"),
    ("gpchain.config", "validate_config", "config"),
    ("gpchain.integrators", "integrate_fixed", "integrators"),
    ("gpchain.integrators", "integrate_adaptive", "integrators"),
    ("gpchain.continuum", "gp_step_splitstep", "continuum.splitstep"),
    ("gpchain.continuum", "coupled_gp_step", "continuum.splitstep"),
    ("gpchain.continuum", "continuum_observables", "continuum.observables"),
    ("gpchain.continuum", "coupled_gp_observables", "continuum.observables"),
    ("gpchain.continuum", "gp_norm", "continuum.observables"),
    ("gpchain.continuum", "gp_energy", "continuum.observables"),
    ("gpchain.continuum", "gp_momentum", "continuum.observables"),
    ("gpchain.limitlab", "lattice_vs_continuum", "limitlab"),
    ("gpchain.limitlab", "truncation_study", "limitlab"),
    ("gpchain.models", "derive_eom", "models.derive_eom"),
    ("gpchain.models", "build_xxz_bosonized", "models.build"),
    ("gpchain.models", "build_hubbard_hop", "models.build"),
    ("gpchain.models", "build_hubbard_interaction", "models.build"),
    ("gpchain.models", "build_hubbard", "models.build"),
    ("gpchain.models", "xxz_commutator_reference", "models.reference"),
    ("gpchain.models", "hubbard_commutator_reference", "models.reference"),
    ("gpchain.models", "eqmotannih_reference", "models.reference"),
    ("gpchain.models", "verify_jordan_wigner", "models.jordan_wigner"),
    ("gpchain.models", "verify_statistics_independence", "models.statistics"),
    ("gpchain.symbolmap", "naive_symbol", "symbolmap.symbol"),
    ("gpchain.symbolmap", "wick_symbol", "symbolmap.symbol"),
    ("gpchain.symbolmap", "ordering_correction", "symbolmap.symbol"),
    ("gpchain.fock", "to_matrix", "fock.to_matrix"),
)
_FACTORIES = (
    ("gpchain.latticedyn", "xxz_rhs", "latticedyn.rhs"),
    ("gpchain.latticedyn", "hubbard_rhs", "latticedyn.rhs"),
    ("gpchain.continuum", "gp_rhs_factory", "continuum.rhs"),
    ("gpchain.continuum", "pretransform_rhs_factory", "continuum.rhs"),
    ("gpchain.continuum", "precursor_rhs_factory", "continuum.rhs"),
)

# Per-layer metrics of one traced job: (name, unit, better).
LAYER_METRICS = (
    ("latticedyn.rhs.calls", "count", "lower"),
    ("latticedyn.rhs.self_s", "s", "lower"),
    ("latticedyn.rhs.us_per_call", "us", "lower"),
    ("continuum.rhs.calls", "count", "lower"),
    ("continuum.rhs.self_s", "s", "lower"),
    ("continuum.fft.calls", "count", "lower"),
    ("continuum.fft.self_s", "s", "lower"),
    ("continuum.fft_per_rhs", "ratio", "lower"),
    ("continuum.splitstep.calls", "count", "lower"),
    ("continuum.splitstep.self_s", "s", "lower"),
    ("continuum.observables.self_s", "s", "lower"),
    ("integrators.calls", "count", "lower"),
    ("integrators.rhs_calls", "count", "lower"),
    ("integrators.self_s", "s", "lower"),
    ("limitlab.points", "count", "lower"),
    ("limitlab.points_used_ratio", "ratio", "higher"),
    ("limitlab.self_s", "s", "lower"),
    ("models.derive_eom.calls", "count", "lower"),
    ("models.derive_eom.self_s", "s", "lower"),
    ("models.derive_eom.ms_per_call", "ms", "lower"),
    ("models.build.self_s", "s", "lower"),
    ("models.reference.self_s", "s", "lower"),
    ("symbolmap.symbol.self_s", "s", "lower"),
    ("models.jordan_wigner.self_s", "s", "lower"),
    ("models.statistics.self_s", "s", "lower"),
    ("fock.to_matrix.calls", "count", "lower"),
    ("fock.to_matrix.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("config.validate_s", "s", "lower"),
)
# Reported once per run, from the pairs of untraced and traced jobs.
OVERHEAD_METRIC = ("trace.overhead_frac", "ratio", "lower")


class _NumpyView:
    """numpy as seen by one module: every attribute of numpy, with overrides."""

    def __init__(self, overrides: dict):
        self.__dict__.update(vars(np))
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    """Spans of one job, kept in memory until summarize() is called."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.points = 0
        self.points_used = 0
        self._saved = []

    def reset(self) -> None:
        del self.spans[:]
        del self._stack[:]
        self.points = 0
        self.points_used = 0

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)

        return traced

    def _wrap_factory(self, name: str, factory):
        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return traced_factory

    def _wrap_study(self, fn):
        traced = self.wrap("limitlab", fn)

        def counted(*args, **kwargs):
            report = traced(*args, **kwargs)
            self.points += len(report.points)
            self.points_used += sum(1 for pt in report.points if not pt.get("skipped"))
            return report

        return counted

    def _replace(self, module_name: str, attr: str, make_wrapper) -> None:
        """Bind a wrapper wherever a gpchain module holds the original function."""
        orig = getattr(sys.modules[module_name], attr)
        new = make_wrapper(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gpchain" and not mod_name.startswith("gpchain."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._saved.append((mod, key, orig))
                    setattr(mod, key, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in _CALLS:
            wrapper = self._wrap_study if name == "limitlab" else functools.partial(
                self.wrap, name)
            self._replace(module_name, attr, wrapper)
        for module_name, attr, name in _FACTORIES:
            self._replace(module_name, attr, functools.partial(self._wrap_factory, name))
        fft = types.SimpleNamespace(**vars(np.fft))
        fft.fft = self.wrap("continuum.fft", np.fft.fft)
        fft.ifft = self.wrap("continuum.fft", np.fft.ifft)
        continuum = sys.modules["gpchain.continuum"]
        self._saved.append((continuum, "np", continuum.np))
        continuum.np = _NumpyView({"fft": fft})

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._saved):
            setattr(mod, key, orig)
        del self._saved[:]


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, parent) in enumerate(spans)]


def check_tree(spans, tol: float = 1e-9) -> list:
    """Problems with a job's span tree; an empty list means it is sound.

    Every span but the root (index 0) has an earlier parent whose
    interval contains it, no self time is negative, and the self times
    of all spans add up to the root's duration.
    """
    problems = []
    if not spans or spans[0][3] != -1:
        return ["span 0 is not a root"]
    for i, (name, start, end, parent) in enumerate(spans[1:], 1):
        if not 0 <= parent < i:
            problems.append(f"span {i} ({name}) has parent {parent}")
            continue
        pstart, pend = spans[parent][1], spans[parent][2]
        if start < pstart or end > pend:
            problems.append(f"span {i} ({name}) lies outside its parent")
    selfs = self_times(spans)
    if min(selfs) < -tol:
        problems.append(f"negative self time {min(selfs):.3g} s")
    root = spans[0][2] - spans[0][1]
    if abs(sum(selfs) - root) > tol * max(1.0, len(spans)):
        problems.append(f"self times sum to {sum(selfs)!r}, root lasts {root!r}")
    return problems


def _per_call(total: float, calls: int, scale: float) -> float:
    return total / calls * scale if calls else 0.0


def summarize(spans, points: int, points_used: int, output_bytes: int) -> dict:
    """Per-layer metrics of one traced job whose root span is the CLI call."""
    selfs = self_times(spans)
    calls = {}
    self_s = {}
    rhs_in_driver = 0
    fft_in_rhs = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        pname = spans[parent][0] if parent >= 0 else None
        if name in RHS_SPANS and pname == "integrators":
            rhs_in_driver += 1
        elif name == "continuum.fft" and pname == "continuum.rhs":
            fft_in_rhs += 1

    def n(key):
        return calls.get(key, 0)

    def s(key):
        return self_s.get(key, 0.0)

    return {
        "latticedyn.rhs.calls": n("latticedyn.rhs"),
        "latticedyn.rhs.self_s": s("latticedyn.rhs"),
        "latticedyn.rhs.us_per_call": _per_call(s("latticedyn.rhs"), n("latticedyn.rhs"), 1e6),
        "continuum.rhs.calls": n("continuum.rhs"),
        "continuum.rhs.self_s": s("continuum.rhs"),
        "continuum.fft.calls": n("continuum.fft"),
        "continuum.fft.self_s": s("continuum.fft"),
        "continuum.fft_per_rhs": _per_call(fft_in_rhs, n("continuum.rhs"), 1.0),
        "continuum.splitstep.calls": n("continuum.splitstep"),
        "continuum.splitstep.self_s": s("continuum.splitstep"),
        "continuum.observables.self_s": s("continuum.observables"),
        "integrators.calls": n("integrators"),
        "integrators.rhs_calls": rhs_in_driver,
        "integrators.self_s": s("integrators"),
        "limitlab.points": points,
        "limitlab.points_used_ratio": _per_call(points_used, points, 1.0),
        "limitlab.self_s": s("limitlab"),
        "models.derive_eom.calls": n("models.derive_eom"),
        "models.derive_eom.self_s": s("models.derive_eom"),
        "models.derive_eom.ms_per_call": _per_call(
            s("models.derive_eom"), n("models.derive_eom"), 1e3),
        "models.build.self_s": s("models.build"),
        "models.reference.self_s": s("models.reference"),
        "symbolmap.symbol.self_s": s("symbolmap.symbol"),
        "models.jordan_wigner.self_s": s("models.jordan_wigner"),
        "models.statistics.self_s": s("models.statistics"),
        "fock.to_matrix.calls": n("fock.to_matrix"),
        "fock.to_matrix.self_s": s("fock.to_matrix"),
        "cli.self_s": s("cli"),
        "cli.output_bytes": output_bytes,
        "config.validate_s": s("config"),
    }
