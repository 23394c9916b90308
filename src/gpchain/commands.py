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
from . import (continuum, csvout, fock, integrators, latticedyn, limitlab, models,
               symbolmap)
from .config import ConfigError
from .models import CouplingMode, Statistics
from .opalg import Algebra


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
    """Write the header line, then each block of finished CSV lines (bytes)."""
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
        return np.asarray(data).astype(complex).ravel()
    except (OSError, EOFError, ValueError, TypeError) as exc:
        raise ConfigError(f"{section}.path: cannot read {path}: {exc}") from exc


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
    N = ver["N"]
    p = models.XXZParams(N=N)
    sites = range(N) if ver["site"] is None else [int(ver["site"]) % N]
    checks = []

    def record(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": str(detail)})

    # the symbolic chain's equation at the middle site and its reference are
    # derived once and read by every check below that needs them
    H = models.build_xxz_bosonized(p, CouplingMode.SYMBOLIC)
    mid = N // 2
    eom_mid = models.derive_eom(H, mid)
    ref_mid = models.xxz_commutator_reference(p, mid, CouplingMode.SYMBOLIC)
    ok = all(
        (eom_mid == ref_mid) if site == mid else (
            models.derive_eom(H, site)
            == models.xxz_commutator_reference(p, site, CouplingMode.SYMBOLIC))
        for site in sites
    )
    record("chain-commutator-all-sites", ok, f"N={N}")

    He = models.build_xxz_bosonized(p, CouplingMode.EXPANDED)
    ok = models.derive_eom(He, mid) == models.xxz_commutator_reference(
        p, mid, CouplingMode.EXPANDED
    )
    record("chain-commutator-expanded", ok, f"site={mid}")

    ref_printed = models.xxz_commutator_reference(
        p, mid, CouplingMode.SYMBOLIC, reversed_pairs=True
    )
    gap = ref_printed.normal_order() - ref_mid
    corr = symbolmap.ordering_correction(ref_printed)
    ok = gap.degree() <= 1 and symbolmap.naive_symbol(gap) == corr
    record("printed-order-accounting", ok, f"correction = {corr}")

    merged = models.isotropy_merge(symbolmap.naive_symbol(eom_mid))
    ok = merged == models.eqmotannih_reference(p, mid)
    record("merged-equation-of-motion", ok, f"site={mid}")

    p3 = models.XXZParams(N=3, J0=1.0, R0=0.7, s=1.0, h=(0.2, -0.1, 0.4))
    H3 = models.build_xxz_bosonized(p3, CouplingMode.SYMBOLIC)
    bind = models.xxz_bindings(p3)
    cutoff, margin = 4, 2
    alg3 = Algebra(Statistics.BOSE, 3)
    Hm = fock.to_matrix(H3, 3, cutoff, bind)
    mask = fock.interior_mask(3, cutoff, margin)
    dev = 0.0
    for site in range(3):
        a_m = fock.to_matrix(alg3.a(site), 3, cutoff, bind)
        comm = Hm @ a_m - a_m @ Hm
        eom_m = fock.to_matrix(models.derive_eom(H3, site), 3, cutoff, bind)
        dev = max(dev, fock.max_interior_diff(comm, eom_m, mask))
    record("matrix-oracle", dev <= 1e-10, f"max deviation {dev:.3e}")

    jw = models.verify_jordan_wigner(ver["jw_sites"])
    record(
        "jordan-wigner-identity",
        jw.identity_holds and jw.max_deviation <= 1e-12,
        f"nsites={jw.nsites}, max deviation {jw.max_deviation:.3e}",
    )

    stat = models.verify_statistics_independence(p, mid, bose_eom=eom_mid)
    record(
        "statistics-independence-linear",
        stat.linear_equal,
        "cubic sector also equal" if stat.equal else "cubic sector differs",
    )

    ph = models.HubbardParams(N=5)
    ok = True
    for stats in (Statistics.BOSE, Statistics.FERMI):
        parts = (("hop", models.build_hubbard_hop(ph, statistics=stats)),
                 ("interaction", models.build_hubbard_interaction(ph, statistics=stats)))
        for flavor in (0, 1):
            for part, H in parts:
                ref = models.hubbard_commutator_reference(ph, 2, flavor, part, statistics=stats)
                ok &= models.derive_eom(H, 2, flavor=flavor) == ref
    record("hubbard-commutators", ok, "hop and interaction, both statistics")

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
# snapshots, at least one.  It bounds csvout's temporary arrays, while larger
# blocks spread numpy's per-call cost over more values.
_BLOCK_VALUES = 2048


def _lines(lead, mid, values):
    """CSV lines lead mid re,im, one per complex value, as bytes."""
    cells = csvout.format_g17(np.concatenate([values.real, values.imag]))
    return csvout.lines(lead, mid, cells[:values.size], b",", cells[values.size:], b"\n")


def _trajectory_output(times, states):
    """Every snapshot, one row per time, site and flavor."""
    nflavors, nsites = np.shape(states[0])
    rows = nflavors * nsites
    mid = csvout.cells(f",{site},{flavor}," for flavor in range(nflavors)
                       for site in range(nsites))
    stamps = csvout.format_g17(times)
    step = max(1, _BLOCK_VALUES // (2 * rows))

    def blocks():
        for first in range(0, len(times), step):
            snaps = np.asarray(states[first:first + step]).ravel()
            count = snaps.size // rows
            yield _lines(np.repeat(stamps[first:first + count], rows, axis=0),
                         np.tile(mid, (count, 1)), snaps)

    return "trajectory.csv", ("time", "site", "flavor", "re", "im"), blocks()


def _field_output(grid):
    """Only the final field, one block of rows per flavor."""
    def output(times, states):
        final = np.atleast_2d(states[-1])
        nflavors = len(final)
        lead = np.tile(csvout.format_g17(grid.xs), (nflavors, 1))
        mid = np.repeat(csvout.cells(f",{flavor}," for flavor in range(nflavors)),
                        grid.M, axis=0)
        return "field.csv", ("xi", "flavor", "re", "im"), [_lines(lead, mid, final.ravel())]

    return output


class _Simulation(NamedTuple):
    """What one equation brings to a simulate run."""

    y0: np.ndarray  # (F, N) on the lattice, (M,) or (2, M) on a grid, or fft(u0) for RK4
    advance: Callable  # RHS f(t, y); with scheme strang, a step(t, y, h)
    observe: Callable  # state -> dict of observables
    output: Callable  # (times, states) -> (file name, header, blocks of CSV bytes)
    extra: dict = None  # further run_summary.json entries


def _lattice_profile(cfg, section, N):
    return _make_profile(cfg, section, float(N), N / 2.0)(np.arange(N, dtype=float))


def _xxz_lattice(cfg, p):
    return _Simulation(
        _lattice_profile(cfg, "initial", p.N)[None, :],
        latticedyn.xxz_rhs(p, symbol_mode=cfg["integrator"]["symbol_mode"]),
        lambda phi: latticedyn.xxz_observables(phi, p), _trajectory_output)


def _hubbard_lattice(cfg, p):
    return _Simulation(
        np.stack([_lattice_profile(cfg, sec, p.N) for sec in ("initial", "initial2")]),
        latticedyn.hubbard_rhs(p),
        lambda phi: latticedyn.hubbard_observables(phi, p), _trajectory_output)


def _grid_setup(cfg):
    """The grid, the initial field on it and the potential (None when zero or unread)."""
    grid = continuum.Grid1D(float(cfg["grid"]["L"]), int(cfg["grid"]["M"]))
    u0 = _make_profile(cfg, "initial", grid.L, grid.L / 2.0)(grid.xs)
    if cfg.get("potential", {}).get("profile", "zero") == "zero":
        return grid, u0, None
    V = _make_profile(cfg, "potential", grid.L, grid.L / 2.0)(grid.xs)
    return grid, u0, np.real(V)


def _gp_observer(grid, V):
    return lambda u: continuum.continuum_observables(u, grid, V=V)


def _spectral(u0, rhs, observe, grid, extra=None):
    """A run whose RHS acts on the spectrum fft(u).

    RK4 steps the spectrum fft(u0) and transforms back only to observe
    and write the field.
    """
    output = _field_output(grid)
    uh0 = np.fft.fft(u0)
    # the initial observables come from u0 itself, not from ifft(fft(u0))
    field = lambda uh: u0 if uh is uh0 else np.fft.ifft(uh)
    return _Simulation(uh0, rhs, lambda uh: observe(field(uh)),
                       lambda times, states: output(times, [field(states[-1])]), extra)


def _pretransform(cfg, p):
    grid, u0, V = _grid_setup(cfg)
    rhs = continuum.pretransform_rhs_factory(
        p, grid, spacing=float(cfg["spacing"]), h_values=V)
    return _spectral(u0, rhs, lambda u: {
        "norm": continuum.gp_norm(u, grid),
        "momentum": continuum.gp_momentum(u, grid),
    }, grid)


def _precursor(cfg, p):
    grid, u0, V = _grid_setup(cfg)
    tc = limitlab.compute_transform(p)
    A, B = tc.A, tc.B
    rhs = continuum.precursor_rhs_factory(
        grid, A, B, V=V, r1_over_r0=p.R1 / p.R0, x_xi=p.x_xi,
        dispersive_scale=float(cfg["dispersive_scale"]),
    )
    transform = {"A": A, "B": B, "time_scale": float(tc.time_scale)}
    return _spectral(u0, rhs, _gp_observer(grid, V), grid,
                     {"transform": transform})


def _gp(cfg, p):
    grid, u0, V = _grid_setup(cfg)
    return _Simulation(u0, continuum.gp_strang(grid, V=V), _gp_observer(grid, V),
                       _field_output(grid))


def _coupled_gp(cfg, p):
    grid, u0, _ = _grid_setup(cfg)
    u1 = _make_profile(cfg, "initial2", grid.L, grid.L / 2.0)(grid.xs)
    U_values = np.full(grid.M, p.U[0])
    return _Simulation(
        np.stack([u0, u1]),
        continuum.coupled_gp_strang(grid, p.t, U_values, hbar=p.hbar),
        lambda u: continuum.coupled_gp_observables(u, grid, p.t, U_values, hbar=p.hbar),
        _field_output(grid))


_SIMULATIONS = {
    "xxz-lattice": _xxz_lattice,
    "hubbard-lattice": _hubbard_lattice,
    "pretransform": _pretransform,
    "precursor": _precursor,
    "gp": _gp,
    "coupled-gp": _coupled_gp,
}


def _integrate(sim: _Simulation, integ: dict):
    t_end, dt = float(integ["t_end"]), float(integ["dt"])
    every = int(integ["snapshot_every"])
    if integ["scheme"] == "rk45":
        return integrators.integrate_adaptive(
            sim.advance, sim.y0, 0.0, t_end, float(integ["tolerance"]),
            dt0=dt, snapshot_every=every)
    drive = integrators.march if integ["scheme"] == "strang" else integrators.integrate_fixed
    return drive(sim.advance, sim.y0, 0.0, t_end, dt, snapshot_every=every)


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
        summary["initial_observables"] = sim.observe(sim.y0)
        summary["final_observables"] = sim.observe(states[-1])
    name, header, blocks = sim.output(times, states)
    _write_csv(os.path.join(out_dir, name), header, blocks)
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
        header = ("spacing", "N", "error")
        row = lambda pt: (_fmt(pt["spacing"]), str(pt["N"]), _fmt(pt.get("error", math.nan)))
    else:
        profile = _make_profile(cfg, "study", L, 0.0)
        run = lambda: limitlab.truncation_study(
            p, study["s_values"], profile, L, int(study["M"]),
            float(study["t_end"]), float(study["dt"]), band=band,
        )
        header = ("s", "rho", "error", "skipped")
        row = lambda pt: (
            (_fmt(pt["s"]), "nan", "nan", "1") if pt.get("skipped")
            else (_fmt(pt["s"]), _fmt(pt["rho"]), _fmt(pt.get("error", math.nan)), "0"))
    failure = {}
    try:
        report = run()
    except limitlab.StudyError as exc:
        # a blow-up or no slope to fit: the summary still records the points
        # and why it failed, and a point the study did not reach has no error
        print(f"error: {exc}", file=sys.stderr)
        failure = {"failure": str(exc)}
        report = limitlab.ConvergenceReport(kind, [], [], None, None, exc.points,
                                            band, False)

    _write_csv(os.path.join(out_dir, "study.csv"), header,
               [(",".join(row(pt)) + "\n").encode() for pt in report.points])
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
