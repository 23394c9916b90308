"""Command-line front end: gpchain verify-derivation | simulate | study.

Exit codes: 0 success, 1 a check/run failed (derivation mismatch,
convergence slope outside its band, non-finite blow-up), 2 bad usage
or configuration.  Outputs are plain CSV and JSON, written without
timestamps so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import config as config_mod
from . import continuum, fock, integrators, latticedyn, limitlab, models, symbolmap
from .config import ConfigError
from .models import CouplingMode, Statistics
from .opalg import Algebra


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------- profiles

def _make_profile(opts: dict, length: float, default_center: float):
    """Turn an initial-condition section into a callable over positions."""
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
        if path.endswith(".npy"):
            data = np.load(path)
        else:
            raw = np.loadtxt(path, delimiter=",", ndmin=2)
            data = raw[:, 0] + 1j * raw[:, 1] if raw.shape[1] >= 2 else raw[:, 0]
        arr = np.asarray(data).astype(complex).ravel()

        def from_file(x):
            if np.size(x) != arr.size:
                raise ConfigError(
                    f"initial data file {path} has {arr.size} samples, need {np.size(x)}"
                )
            return arr.copy()

        return from_file
    raise ConfigError(f"unknown profile {kind!r}")


def _make_potential(opts: dict, length: float):
    kind = opts.get("profile", "zero")
    if kind == "zero":
        return None
    prof = _make_profile(opts, length, length / 2.0)
    return lambda x: np.real(prof(x))


# ---------------------------------------------------------- verify command

def _run_verify(cfg: dict, out_dir: str) -> int:
    ver = cfg["verify"]
    N = ver["N"]
    p = models.XXZParams(N=N)
    sites = range(N) if ver["site"] is None else [int(ver["site"]) % N]
    checks = []

    def record(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": str(detail)})

    H = models.build_xxz_bosonized(p, CouplingMode.SYMBOLIC)
    ok = all(
        models.derive_eom(H, site)
        == models.xxz_commutator_reference(p, site, CouplingMode.SYMBOLIC)
        for site in sites
    )
    record("chain-commutator-all-sites", ok, f"N={N}")

    He = models.build_xxz_bosonized(p, CouplingMode.EXPANDED)
    mid = N // 2
    ok = models.derive_eom(He, mid) == models.xxz_commutator_reference(
        p, mid, CouplingMode.EXPANDED
    )
    record("chain-commutator-expanded", ok, f"site={mid}")

    ref_printed = models.xxz_commutator_reference(
        p, mid, CouplingMode.SYMBOLIC, reversed_pairs=True
    )
    ref_canon = models.xxz_commutator_reference(p, mid, CouplingMode.SYMBOLIC)
    gap = ref_printed.normal_order() - ref_canon
    corr = symbolmap.ordering_correction(ref_printed)
    ok = gap.degree() <= 1 and symbolmap.naive_symbol(gap) == corr
    record("printed-order-accounting", ok, f"correction = {corr}")

    merged = models.isotropy_merge(symbolmap.naive_symbol(models.derive_eom(H, mid)))
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

    stat = models.verify_statistics_independence(p)
    record(
        "statistics-independence-linear",
        stat.linear_equal,
        "cubic sector also equal" if stat.equal else "cubic sector differs",
    )

    ph = models.HubbardParams(N=5)
    ok = True
    for stats in (Statistics.BOSE, Statistics.FERMI):
        Hh = models.build_hubbard_hop(ph, statistics=stats)
        Hu = models.build_hubbard_interaction(ph, statistics=stats)
        for flavor in (0, 1):
            if models.derive_eom(Hh, 2, flavor=flavor) != models.hubbard_commutator_reference(
                ph, 2, flavor, "hop", statistics=stats
            ):
                ok = False
            if models.derive_eom(Hu, 2, flavor=flavor) != models.hubbard_commutator_reference(
                ph, 2, flavor, "interaction", statistics=stats
            ):
                ok = False
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

def _lattice_rows(times, fields):
    rows = []
    for ti, t in enumerate(times):
        snap = fields[ti]
        for flavor in range(snap.shape[0]):
            for site in range(snap.shape[1]):
                z = snap[flavor, site]
                rows.append((_fmt(t), str(site), str(flavor), _fmt(z.real), _fmt(z.imag)))
    return rows


def _field_rows(grid, fields_by_flavor):
    rows = []
    for flavor, vals in enumerate(fields_by_flavor):
        for i, xi in enumerate(grid.xs):
            z = vals[i]
            rows.append((_fmt(xi), str(flavor), _fmt(z.real), _fmt(z.imag)))
    return rows


def _integrate_checked(rhs, y0, integ):
    if integ["scheme"] == "rk45":
        return integrators.integrate_adaptive(
            rhs, y0, 0.0, float(integ["t_end"]), float(integ["tolerance"]),
            dt0=float(integ["dt"]), snapshot_every=int(integ["snapshot_every"]),
        )
    return integrators.integrate_fixed(
        rhs, y0, 0.0, float(integ["t_end"]), float(integ["dt"]),
        snapshot_every=int(integ["snapshot_every"]),
    )


def _march_splitstep(step, fields, dt, t_end):
    """Apply step(fields, h) from t = 0 to exactly t_end; returns (fields, failure).

    The steps follow integrators.fixed_steps, so a dt that does not
    divide t_end ends with one short step.  On a non-finite field the
    last finite fields are returned with a failure message.
    """
    nfull, rem = integrators.fixed_steps(0.0, t_end, dt)
    for h in [dt] * nfull + ([rem] if rem else []):
        new = step(fields, h)
        if not all(np.all(np.isfinite(f.values.view(float))) for f in new):
            return fields, f"field became non-finite at t={new[0].time:.6g}"
        fields = new
    return fields, None


def _uniform_scalar_U(p) -> float:
    vals = set(p.U)
    if len(vals) != 1:
        raise ConfigError("this equation needs a single uniform model.U")
    return vals.pop()


def _run_simulate(cfg: dict, out_dir: str) -> int:
    eq = cfg["equation"]
    integ = cfg["integrator"]
    p = config_mod.model_params(cfg)
    summary = {
        "command": "simulate", "equation": eq, "status": "ok",
        "t_end": float(integ["t_end"]), "dt": float(integ["dt"]),
        "scheme": integ["scheme"],
    }
    failure = None

    if eq in ("xxz-lattice", "hubbard-lattice"):
        N = p.N
        prof = _make_profile(cfg["initial"], float(N), N / 2.0)
        sites = np.arange(N, dtype=float)
        if eq == "xxz-lattice":
            phi0 = prof(sites)[None, :]
            rhs = latticedyn.xxz_rhs(p, symbol_mode=integ["symbol_mode"])
            obs = lambda phi: latticedyn.xxz_observables(phi, p)
        else:
            prof2 = _make_profile(cfg["initial2"], float(N), N / 2.0)
            phi0 = np.stack([prof(sites), prof2(sites)])
            rhs = latticedyn.hubbard_rhs(p)
            obs = lambda phi: latticedyn.hubbard_observables(phi, p)
        try:
            times, states = _integrate_checked(rhs, phi0, integ)
        except integrators.IntegrationError as exc:
            failure = str(exc)
            times, states = exc.times, exc.states
        summary["initial_observables"] = obs(phi0)
        summary["final_observables"] = obs(states[-1])
        _write_csv(
            os.path.join(out_dir, "trajectory.csv"),
            ("time", "site", "flavor", "re", "im"),
            _lattice_rows(times, states),
        )

    else:
        grid = continuum.Grid1D(float(cfg["grid"]["L"]), int(cfg["grid"]["M"]))
        prof = _make_profile(cfg["initial"], grid.L, grid.L / 2.0)
        u0 = prof(grid.xs)
        pot = _make_potential(cfg["potential"], grid.L)
        V = None if pot is None else pot(grid.xs)
        dt = float(integ["dt"])
        t_end = float(integ["t_end"])

        if eq == "gp":
            fields, failure = _march_splitstep(
                lambda fs, h: (continuum.gp_step_splitstep(fs[0], h, grid, V=V),),
                (continuum.ContinuumField(u0.copy()),), dt, t_end)
            finals = [fields[0].values]
            summary["initial_observables"] = continuum.continuum_observables(
                continuum.ContinuumField(u0), grid, V=V)
            summary["final_observables"] = continuum.continuum_observables(
                fields[0], grid, V=V)
        elif eq == "coupled-gp":
            Uval = _uniform_scalar_U(p)
            U_values = np.full(grid.M, Uval)
            prof2 = _make_profile(cfg["initial2"], grid.L, grid.L / 2.0)
            u1 = prof2(grid.xs)
            fields, failure = _march_splitstep(
                lambda fs, h: continuum.coupled_gp_step(fs, h, grid, p.t, U_values,
                                                        hbar=p.hbar),
                (continuum.ContinuumField(u0.copy()),
                 continuum.ContinuumField(u1.copy())), dt, t_end)
            finals = [f.values for f in fields]
            summary["initial_observables"] = continuum.coupled_gp_observables(
                (continuum.ContinuumField(u0), continuum.ContinuumField(u1)),
                grid, p.t, U_values, hbar=p.hbar)
            summary["final_observables"] = continuum.coupled_gp_observables(
                fields, grid, p.t, U_values, hbar=p.hbar)
        else:
            if eq == "pretransform":
                if any(v != 0.0 for v in p.h):
                    raise ConfigError(
                        "pretransform takes its site field from the potential "
                        "section; set model.h to zero"
                    )
                rhs = continuum.pretransform_rhs_factory(
                    p, grid, spacing=float(cfg["spacing"]), h_values=V)
            else:
                tc = limitlab.compute_transform(p)
                try:
                    A, B = tc.A, tc.B
                except limitlab.DegenerateTransformError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                r1r0 = p.R1 / p.R0 if p.R0 else 0.0
                rhs = continuum.precursor_rhs_factory(
                    grid, A, B, V=V, r1_over_r0=r1r0, x_xi=p.x_xi,
                    dispersive_scale=float(cfg["dispersive_scale"]),
                )
                summary["transform"] = {
                    "A": A, "B": B, "time_scale": float(tc.time_scale),
                }
            try:
                times, states = _integrate_checked(rhs, u0, integ)
            except integrators.IntegrationError as exc:
                failure = str(exc)
                times, states = exc.times, exc.states
            finals = [states[-1]]
            if eq == "pretransform":
                summary["initial_observables"] = {
                    "norm": continuum.gp_norm(u0, grid),
                    "momentum": continuum.gp_momentum(u0, grid),
                }
                summary["final_observables"] = {
                    "norm": continuum.gp_norm(finals[0], grid),
                    "momentum": continuum.gp_momentum(finals[0], grid),
                }
            else:
                summary["initial_observables"] = continuum.continuum_observables(
                    continuum.ContinuumField(u0), grid, V=V)
                summary["final_observables"] = continuum.continuum_observables(
                    continuum.ContinuumField(finals[0]), grid, V=V)

        _write_csv(
            os.path.join(out_dir, "field.csv"),
            ("xi", "flavor", "re", "im"),
            _field_rows(grid, finals),
        )

    if failure is not None:
        summary["status"] = "failed"
        summary["failure"] = failure
    _write_json(os.path.join(out_dir, "run_summary.json"), summary)
    print(f"simulate {eq}: {summary['status']}")
    return 0 if failure is None else 1


# ----------------------------------------------------------- study command

def _run_study(cfg: dict, out_dir: str) -> int:
    study = cfg["study"]
    kind = study["kind"]
    p = config_mod.model_params(cfg)
    L = float(study["L"])
    prof_spec = {
        k: study[k]
        for k in ("profile", "amplitude", "width", "center", "mode", "eta", "value")
        if k in study
    }
    band = (float(study["slope_min"]), float(study["slope_max"]))

    if kind == "continuum-limit":
        profile = _make_profile(prof_spec, L, L / 2.0)
        report = limitlab.lattice_vs_continuum(
            p, profile, study["sizes"], L, float(study["t_end"]), float(study["dt"]),
            grid_refine=int(study["grid_refine"]), band=band,
        )
        rows = [
            (_fmt(pt["spacing"]), str(pt["N"]), _fmt(pt["error"]))
            for pt in report.points
        ]
        header = ("spacing", "N", "error")
    else:
        profile = _make_profile(prof_spec, L, 0.0)
        report = limitlab.truncation_study(
            p, study["s_values"], profile, L, int(study["M"]),
            float(study["t_end"]), float(study["dt"]), band=band,
        )
        rows = []
        for pt in report.points:
            if pt.get("skipped"):
                rows.append((_fmt(pt["s"]), "nan", "nan", "1"))
            else:
                rows.append((_fmt(pt["s"]), _fmt(pt["rho"]), _fmt(pt["error"]), "0"))
        header = ("s", "rho", "error", "skipped")

    _write_csv(os.path.join(out_dir, "study.csv"), header, rows)
    _write_json(
        os.path.join(out_dir, "study_summary.json"),
        {
            "command": "study", "kind": kind, "slope": report.slope,
            "slope_stderr": report.slope_stderr, "band": list(band),
            "passed": report.passed, "points": report.points,
        },
    )
    verdict = "pass" if report.passed else "FAIL"
    print(
        f"study {kind}: slope {report.slope:.4f} "
        f"(band {band[0]:.2f}..{band[1]:.2f}) {verdict}"
    )
    return 0 if report.passed else 1


# ------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpchain",
        description="Spin-chain coherent-state dynamics and its continuum limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("verify-derivation", "run the symbolic and matrix consistency checks"),
        ("simulate", "integrate one of the lattice or continuum equations"),
        ("study", "run a convergence study and check its slope"),
    ):
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output directory (default: current)")
        sp.add_argument("--threads", type=int, default=0,
                        help="accepted and ignored: studies run in one thread")
        sp.add_argument("--dry-run", action="store_true",
                        help="print the resolved plan and exit")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = config_mod.load_config(args.config) if args.config else {}
        cfg = config_mod.validate_config(raw, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or cfg.get("out") or "."

    if args.dry_run:
        plan = {"command": args.command, "out": out_dir, "config": cfg}
        print(json.dumps(plan, indent=2, sort_keys=True))
        return 0

    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.command == "verify-derivation":
            return _run_verify(cfg, out_dir)
        if args.command == "simulate":
            return _run_simulate(cfg, out_dir)
        return _run_study(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
