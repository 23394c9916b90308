"""The runners behind the `gpchain` command: verify-derivation, simulate, study.

`cli.main` validates the config and imports this module only for a real
run, so a dry run or a config error never loads numpy or the library.
Each runner takes the validated config and the output directory, writes
its files there and returns the exit code (see `cli`).  Outputs are
plain CSV and JSON, written without timestamps so reruns are
byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import config as config_mod
from . import continuum, csvout, integrators, latticedyn, limitlab, models
from .config import ConfigError


def _finite_or_null(value):
    """value with each non-finite float in it made None, which JSON writes as null."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: str, payload: dict) -> None:
    """Strict JSON (RFC 8259): NaN and infinities are written as null."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_csv(path: str, header, blocks) -> None:
    """Write the header line, then each piece of finished CSV text."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(blocks)


# ---------------------------------------------------------------- profiles

def _read_profile_file(section: str, path: str) -> np.ndarray:
    """The complex samples of a .npy file, or of CSV columns re[,im]."""
    try:
        if path.endswith(".npy"):
            data = np.load(path)
        else:
            raw = np.loadtxt(path, delimiter=",", ndmin=2)
            data = raw[:, 0] + 1j * raw[:, 1] if raw.shape[1] >= 2 else raw[:, 0]
        data = np.asarray(data).astype(complex).ravel()
    except (OSError, EOFError, ValueError, TypeError) as exc:
        raise ConfigError(f"{section}.path: cannot read {path}: {exc}") from exc
    if not np.isfinite(data).all():
        raise ConfigError(f"{section}.path: {path} holds non-finite values")
    return data


def _make_profile(cfg: dict, section: str, length: float, default_center: float):
    """Turn a profile section of cfg into a callable over positions."""
    opts = cfg[section]
    kind = opts.get("profile", "zero")
    amp = float(opts.get("amplitude", 1.0))
    width = float(opts.get("width", length / 8.0))
    center = float(opts.get("center", default_center))
    if kind == "zero":
        return lambda x: np.zeros(np.shape(x), dtype=complex)
    if kind == "uniform":
        val = complex(opts.get("value", 1.0))
        return lambda x: np.full(np.shape(x), val, dtype=complex)
    if kind == "gaussian":
        return lambda x: (
            amp * np.exp(-(((np.asarray(x, float) - center) / width) ** 2))
        ).astype(complex)
    if kind == "plane-wave":
        mode = int(opts.get("mode", 1))
        return lambda x: amp * np.exp(2j * np.pi * mode * np.asarray(x, float) / length)
    if kind == "sech-soliton":
        eta = float(opts.get("eta", 1.0))
        return lambda x: (
            math.sqrt(2.0) * eta / np.cosh(eta * (np.asarray(x, float) - center))
        ).astype(complex)
    if kind == "file":
        path = opts["path"]
        arr = _read_profile_file(section, path)

        def from_file(x):
            if np.size(x) != arr.size:
                raise ConfigError(
                    f"{section}.path: {path} has {arr.size} samples, need {np.size(x)}"
                )
            return arr.copy()

        return from_file
    raise ConfigError(f"unknown profile {kind!r}")


# ---------------------------------------------------------- verify command

def _run_verify(cfg: dict, out_dir: str) -> int:
    ver = cfg["verify"]
    checks = [
        {"name": name, "passed": bool(passed), "detail": detail}
        for name, passed, detail in models.derivation_checks(
            ver["N"], ver["site"], ver["jw_sites"])
    ]
    status = "ok" if all(c["passed"] for c in checks) else "failed"
    lines = [
        f"{'ok  ' if c['passed'] else 'FAIL'} {c['name']}  {c['detail']}"
        for c in checks
    ]
    lines.append(f"overall: {status}")
    with open(os.path.join(out_dir, "verify_report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_json(
        os.path.join(out_dir, "verify_summary.json"),
        {"command": "verify-derivation", "status": status, "checks": checks},
    )
    print("\n".join(lines))
    return 0 if status == "ok" else 1


# -------------------------------------------------------- simulate command

# floats (re and im) formatted per block of trajectory rows; a block holds whole
# snapshots, at least one, and the file's work arrays grow with it (about 2 MB
# at 16384).  Against the writer before the work arrays, the 72 snapshots of 512
# rows of a dense 256-site two-flavor RK45 run were written 8-10% / 11-12% /
# 12-18% faster with blocks of 8192 / 16384 / 32768 floats (two runs of 40 writes
# interleaved in one process with the older writer, on a 2-core Xeon VM): each
# block pays format_g17's ~60 numpy calls once.
_BLOCK_VALUES = 16384


def _lines(lead, mid, cells, work=None):
    """CSV lines lead mid re,im as text, one per complex value.

    cells is format_g17's (..., 2, WIDTH) result for the re and im of the
    values; lead and mid are cells whose leading axes broadcast to its
    leading axes; work is the csvout.Workspace of the file, if it is
    written in blocks.
    """
    # re and im are adjacent cells: their free last slots take "," and the newline
    cells[..., 0, -1] = ord(",")
    cells[..., 1, -1] = ord("\n")
    return csvout.lines(lead, mid, cells.reshape(*cells.shape[:-2], -1), work=work)


def _trajectory_blocks(times, states):
    """trajectory.csv's rows, one per time, site and flavor, in blocks of whole
    snapshots, each stacked and formatted in the file's one workspace."""
    nflavors, nsites = np.shape(states[0])
    rows = nflavors * nsites
    mid = csvout.cells(f",{site},{flavor}," for flavor in range(nflavors)
                       for site in range(nsites))
    stamps = csvout.cells(map(_fmt, times))  # packed: fewer NULs in each line
    step = max(1, _BLOCK_VALUES // (2 * rows))
    work = csvout.Workspace()
    for first in range(0, len(times), step):
        batch = states[first:first + step]
        snaps = np.stack(batch, out=work("snaps", (len(batch), nflavors, nsites), complex))
        cells = csvout.format_g17(snaps.view(np.float64), work)
        yield from _lines(stamps[first:first + len(batch), None], mid,
                          cells.reshape(len(batch), rows, 2, -1), work)


class _Simulation(NamedTuple):
    """What one equation brings to a simulate run."""

    u0: np.ndarray  # the initial field: (F, N) on the lattice, (M,) or (2, M) on a grid
    advance: Callable  # RHS f(t, y); with scheme strang, a step(t, y, h)
    observe: Callable  # field -> dict of observables
    grid: continuum.Grid1D = None  # where field.csv is written; None: trajectory.csv
    spectral: bool = False  # advance acts on the spectrum fft(u)
    extra: dict = None  # further run_summary.json entries


def _lattice_profile(cfg, section, N):
    return _make_profile(cfg, section, float(N), N / 2.0)(np.arange(N, dtype=float))


def _xxz_lattice(cfg, p):
    return _Simulation(
        _lattice_profile(cfg, "initial", p.N)[None, :],
        latticedyn.xxz_rhs(p, symbol_mode=cfg["integrator"]["symbol_mode"]),
        lambda phi: latticedyn.xxz_observables(phi, p))


def _hubbard_lattice(cfg, p):
    return _Simulation(
        np.stack([_lattice_profile(cfg, sec, p.N) for sec in ("initial", "initial2")]),
        latticedyn.hubbard_rhs(p), lambda phi: latticedyn.hubbard_observables(phi, p))


def _grid_setup(cfg):
    """The grid, the initial field on it and the potential (None when zero or unread)."""
    grid = continuum.Grid1D(float(cfg["grid"]["L"]), int(cfg["grid"]["M"]))
    u0 = _make_profile(cfg, "initial", grid.L, grid.L / 2.0)(grid.xs)
    if cfg.get("potential", {}).get("profile", "zero") == "zero":
        return grid, u0, None
    V = _make_profile(cfg, "potential", grid.L, grid.L / 2.0)(grid.xs)
    return grid, u0, np.real(V)


def _pretransform(cfg, p):
    grid, u0, V = _grid_setup(cfg)
    rhs = continuum.pretransform_rhs_factory(
        p, grid, spacing=float(cfg["spacing"]), h_values=V)
    return _Simulation(u0, rhs, lambda u: {
        "norm": continuum.gp_norm(u, grid),
        "momentum": continuum.gp_momentum(u, grid),
    }, grid, spectral=True)


def _precursor(cfg, p):
    grid, u0, V = _grid_setup(cfg)
    tc = limitlab.compute_transform(p)
    rhs = continuum.precursor_rhs_factory(
        tc, grid, V=V, dispersive_scale=float(cfg["dispersive_scale"]))
    transform = {"A": tc.A, "B": tc.B, "time_scale": float(tc.time_scale)}
    return _Simulation(u0, rhs, lambda u: continuum.continuum_observables(u, grid, V=V),
                       grid, spectral=True, extra={"transform": transform})


def _gp(cfg, p):
    grid, u0, V = _grid_setup(cfg)
    return _Simulation(u0, continuum.gp_strang(grid, V=V),
                       lambda u: continuum.continuum_observables(u, grid, V=V), grid)


def _coupled_gp(cfg, p):
    grid, u0, _ = _grid_setup(cfg)
    u1 = _make_profile(cfg, "initial2", grid.L, grid.L / 2.0)(grid.xs)
    U = p.U[0]  # config requires one uniform value
    return _Simulation(
        np.stack([u0, u1]), continuum.coupled_gp_strang(grid, p.t, U, hbar=p.hbar),
        lambda u: continuum.coupled_gp_observables(u, grid, p.t, U, hbar=p.hbar), grid)


_SIMULATIONS = {
    "xxz-lattice": _xxz_lattice,
    "hubbard-lattice": _hubbard_lattice,
    "pretransform": _pretransform,
    "precursor": _precursor,
    "gp": _gp,
    "coupled-gp": _coupled_gp,
}


def _integrate(sim: _Simulation, integ: dict):
    """Step u0, or its spectrum fft(u0) for a spectral equation; returns (times, states)."""
    y0 = np.fft.fft(sim.u0) if sim.spectral else sim.u0
    t_end, dt = float(integ["t_end"]), float(integ["dt"])
    every = int(integ["snapshot_every"])
    if integ["scheme"] == "rk45":
        return integrators.integrate_adaptive(
            sim.advance, y0, 0.0, t_end, float(integ["tolerance"]),
            dt0=dt, snapshot_every=every)
    drive = integrators.march if integ["scheme"] == "strang" else integrators.integrate_fixed
    return drive(sim.advance, y0, 0.0, t_end, dt, snapshot_every=every)


def _run_simulate(cfg: dict, out_dir: str) -> int:
    eq = cfg["equation"]
    integ = cfg["integrator"]
    p = config_mod.model_params(cfg) if "model" in cfg else None
    try:
        sim = _SIMULATIONS[eq](cfg, p)
    except limitlab.DegenerateTransformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = {
        "command": "simulate", "equation": eq, "status": "ok",
        "t_end": float(integ["t_end"]), "dt": float(integ["dt"]),
        "scheme": integ["scheme"], **(sim.extra or {}),
    }
    try:
        times, states = _integrate(sim, integ)
    except integrators.IntegrationError as exc:
        summary.update(status="failed", failure=str(exc), last_finite_t=exc.t)
        times, states = exc.times, exc.states  # the snapshots so far
        if exc.t > times[-1]:  # and the last finite state after them
            times, states = times + [exc.t], states + [exc.y]
    with np.errstate(over="ignore", invalid="ignore"):  # a blown-up state gives inf or nan
        final = np.fft.ifft(states[-1]) if sim.spectral else states[-1]
        summary["initial_observables"] = sim.observe(sim.u0)
        summary["final_observables"] = sim.observe(final)
    if sim.grid is None:  # every snapshot
        _write_csv(os.path.join(out_dir, "trajectory.csv"),
                   ("time", "site", "flavor", "re", "im"), _trajectory_blocks(times, states))
    else:  # only the final field, one block of rows per flavor
        final = np.ascontiguousarray(np.atleast_2d(final), dtype=complex)
        flavors = csvout.cells(f",{flavor}," for flavor in range(len(final)))
        work = csvout.Workspace()  # the positions and the values formatted in one call
        xs, values = np.split(csvout.format_g17(np.concatenate(
            [sim.grid.xs, final.view(np.float64)], axis=None), work), [sim.grid.M])
        _write_csv(os.path.join(out_dir, "field.csv"), ("xi", "flavor", "re", "im"),
                   _lines(xs, flavors[:, None], values.reshape(*final.shape, 2, -1), work))
    _write_json(os.path.join(out_dir, "run_summary.json"), summary)
    print(f"simulate {eq}: {summary['status']}")
    return 0 if summary["status"] == "ok" else 1


# ----------------------------------------------------------- study command

def _run_study(cfg: dict, out_dir: str) -> int:
    study = cfg["study"]
    kind = study["kind"]
    p = config_mod.model_params(cfg)
    L = float(study["L"])
    band = (float(study["slope_min"]), float(study["slope_max"]))

    if kind == "continuum-limit":
        profile = _make_profile(cfg, "study", L, L / 2.0)  # reads only the profile keys
        run = lambda: limitlab.lattice_vs_continuum(
            p, profile, study["sizes"], L, float(study["t_end"]), float(study["dt"]),
            grid_refine=int(study["grid_refine"]), band=band,
        )
        columns = ("spacing", "N", "error")
    else:
        profile = _make_profile(cfg, "study", L, 0.0)
        run = lambda: limitlab.truncation_study(
            p, study["s_values"], profile, L, int(study["M"]),
            float(study["t_end"]), float(study["dt"]), band=band,
        )
        columns = ("s", "rho", "error", "skipped")
    failure = {}
    try:
        report = run()
    except limitlab.StudyError as exc:
        # a blow-up or no slope to fit: the summary still records the points
        # and why it failed, and a point the study did not reach has no error
        print(f"error: {exc}", file=sys.stderr)
        failure = {"failure": str(exc)}
        report = limitlab.ConvergenceReport(None, None, exc.points, False)

    # "%.17g" prints a bool as 1 or 0, an int as itself, and a missing value as nan
    _write_csv(os.path.join(out_dir, "study.csv"), columns,
               [(",".join(_fmt(pt.get(c, math.nan)) for c in columns) + "\n").encode()
                for pt in report.points])
    _write_json(
        os.path.join(out_dir, "study_summary.json"),
        {
            "command": "study", "kind": kind, "slope": report.slope,
            "slope_stderr": report.slope_stderr, "band": list(band),
            "passed": report.passed, "points": report.points, **failure,
        },
    )
    if report.slope is None:
        return 1
    verdict = "pass" if report.passed else "FAIL"
    print(
        f"study {kind}: slope {report.slope:.4f} "
        f"(band {band[0]:.2f}..{band[1]:.2f}) {verdict}"
    )
    return 0 if report.passed else 1


# the runner of each command
RUNNERS = {
    "verify-derivation": _run_verify,
    "simulate": _run_simulate,
    "study": _run_study,
}
