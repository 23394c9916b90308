"""End-to-end acceptance checks.

Each test prints one verdict line of the form

    ACCEPTANCE n (name): PASS

before asserting, so a full run leaves a readable scoreboard even when
individual assertions fire.
"""

import time

import numpy as np

from gpchain import continuum, fock, integrators, latticedyn, limitlab
from gpchain.coeffs import ParamCoeff
from gpchain.models import (
    CouplingMode,
    XXZParams,
    build_xxz_bosonized,
    derive_eom,
    eqmotannih_reference,
    isotropy_merge,
    verify_jordan_wigner,
    verify_statistics_independence,
    xxz_bindings,
    xxz_commutator_reference,
)
from gpchain.opalg import Algebra, Statistics
from gpchain.symbolmap import FieldPoly, naive_symbol, ordering_correction


def _verdict(capsys, n, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_1_symbolic_derivation(capsys):
    t0 = time.perf_counter()
    p = XXZParams(N=7)
    H = build_xxz_bosonized(p, CouplingMode.SYMBOLIC)
    exact = all(
        derive_eom(H, i) == xxz_commutator_reference(p, i, CouplingMode.SYMBOLIC)
        for i in range(p.N)
    )
    He = build_xxz_bosonized(p, CouplingMode.EXPANDED)
    exact = exact and derive_eom(He, 3) == xxz_commutator_reference(
        p, 3, CouplingMode.EXPANDED
    )
    elapsed = time.perf_counter() - t0
    ok = exact and elapsed < 10.0
    assert _verdict(capsys, 1, "symbolic-derivation", ok, f"{elapsed:.2f}s")
    assert exact
    assert elapsed < 10.0


def test_criterion_2_printed_form_accounting(capsys):
    p = XXZParams(N=7)
    H = build_xxz_bosonized(p)
    merged_ok = all(
        isotropy_merge(naive_symbol(derive_eom(H, i))) == eqmotannih_reference(p, i)
        for i in (0, 3, 6)
    )
    i = 3
    printed = xxz_commutator_reference(p, i, reversed_pairs=True)
    half = ParamCoeff.rational(1, 2)
    expect = FieldPoly.phi(i).scale(
        half * ParamCoeff.symbol(f"R[{i},{i + 1}]")
        + half * ParamCoeff.symbol(f"R[{i},{i - 1}]")
    )
    corr_ok = ordering_correction(printed) == expect
    ok = merged_ok and corr_ok
    assert _verdict(capsys, 2, "printed-form-accounting", ok)
    assert merged_ok
    assert corr_ok


def test_criterion_3_matrix_oracle(capsys):
    t0 = time.perf_counter()
    p3 = XXZParams(N=3, J0=1.0, R0=0.7, s=1.0, h=(0.2, -0.1, 0.4))
    H3 = build_xxz_bosonized(p3)
    bind = xxz_bindings(p3)
    cutoff, margin = 4, 2
    alg = Algebra(Statistics.BOSE, 3)
    Hm = fock.to_matrix(H3, 3, cutoff, bind)
    mask = fock.interior_mask(3, cutoff, margin)
    dev = 0.0
    for site in range(3):
        am = fock.to_matrix(alg.a(site), 3, cutoff, bind)
        eom = fock.to_matrix(derive_eom(H3, site), 3, cutoff, bind)
        dev = max(dev, fock.max_interior_diff(Hm @ am - am @ Hm, eom, mask))
    jw_dev = max(verify_jordan_wigner(n).max_deviation for n in (2, 3, 4))
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-10 and jw_dev <= 1e-12 and elapsed < 60.0
    assert _verdict(capsys, 3, "matrix-oracle", ok,
                    f"bose {dev:.2e}, jw {jw_dev:.2e}, {elapsed:.1f}s")
    assert dev <= 1e-10
    assert jw_dev <= 1e-12
    assert elapsed < 60.0


def test_criterion_4_lattice_conservation(capsys):
    t0 = time.perf_counter()
    p = XXZParams(N=256, J0=1.0, R0=1.0, s=1.0)
    sites = np.arange(p.N, dtype=float)
    phi0 = (0.5 * np.exp(-(((sites - 128.0) / 16.0) ** 2))
            * np.exp(0.1j * sites))[None, :]
    rhs = latticedyn.xxz_rhs(p)
    _, states = integrators.integrate_fixed(rhs, phi0, 0.0, 10.0, 1e-3)
    o0 = latticedyn.xxz_observables(phi0, p)
    o1 = latticedyn.xxz_observables(states[-1], p)
    norm_drift = abs(o1["norm"] - o0["norm"])
    energy_drift = abs(o1["energy"] - o0["energy"])

    grid = continuum.Grid1D(20 * np.pi, 512)
    u0 = np.sqrt(2.0) / np.cosh(grid.xs - grid.L / 2)
    u, step = u0, continuum.gp_strang(grid)
    for _ in range(1000):
        u = step(None, u, 1e-3)
    gp0 = continuum.gp_norm(u0, grid)
    gp_drift = abs(continuum.gp_norm(u, grid) - gp0) / gp0

    cgrid = continuum.Grid1D(30.0, 256)
    x = cgrid.xs
    pair = np.array([0.8 / np.cosh(0.5 * (x - 10.0)),
                     0.6 / np.cosh(0.5 * (x - 20.0))])
    c0 = continuum.coupled_gp_observables(pair, cgrid, 0.5, 1.0)
    step = continuum.coupled_gp_strang(cgrid, 0.5, 1.0)
    for _ in range(1000):
        pair = step(None, pair, 1e-3)
    c1 = continuum.coupled_gp_observables(pair, cgrid, 0.5, 1.0)
    coupled_drift = max(
        abs(c1["norm_flavor0"] - c0["norm_flavor0"]) / c0["norm_flavor0"],
        abs(c1["norm_flavor1"] - c0["norm_flavor1"]) / c0["norm_flavor1"],
    )
    elapsed = time.perf_counter() - t0
    ok = (norm_drift < 1e-8 and energy_drift < 1e-6 and gp_drift < 1e-12
          and coupled_drift < 1e-10 and elapsed < 300.0)
    assert _verdict(
        capsys, 4, "lattice-conservation", ok,
        f"norm {norm_drift:.2e}, energy {energy_drift:.2e}, "
        f"gp {gp_drift:.2e}, coupled {coupled_drift:.2e}, {elapsed:.0f}s")
    assert norm_drift < 1e-8
    assert energy_drift < 1e-6
    assert gp_drift < 1e-12
    assert coupled_drift < 1e-10
    assert elapsed < 300.0


def test_criterion_5_soliton_stationarity(capsys):
    t0 = time.perf_counter()
    grid = continuum.Grid1D(20 * np.pi, 512)
    u0 = np.sqrt(2.0) / np.cosh(grid.xs - grid.L / 2)
    rhs = continuum.gp_rhs_factory(grid)
    _, states = integrators.integrate_fixed(rhs, np.fft.fft(u0), 0.0, 1.0, 1e-3)
    drift = float(np.abs(np.abs(np.fft.ifft(states[-1])) - np.abs(u0)).max())
    elapsed = time.perf_counter() - t0
    ok = drift < 1e-6 and elapsed < 60.0
    assert _verdict(capsys, 5, "soliton-stationarity", ok,
                    f"amplitude drift {drift:.2e}, {elapsed:.1f}s")
    assert drift < 1e-6
    assert elapsed < 60.0


def test_criterion_6_continuum_limit_slope(capsys):
    t0 = time.perf_counter()
    L = 8 * np.pi
    p = XXZParams(N=8, J0=1.0, R0=2.0, s=1.0)
    rep = limitlab.lattice_vs_continuum(
        p, lambda x: 0.8 * np.exp(-(((x - L / 2) / 2.0) ** 2)),
        sizes=[32, 64, 128, 256], L=L, t_end=0.5, dt=1e-3,
        grid_refine=4,
    )
    elapsed = time.perf_counter() - t0
    spacings = np.array([pt["spacing"] for pt in rep.points])
    ok = (len(spacings) >= 4 and 1.7 <= rep.slope <= 2.3 and elapsed < 600.0)
    assert _verdict(capsys, 6, "continuum-limit-slope", ok,
                    f"slope {rep.slope:.3f}, {elapsed:.1f}s")
    assert len(spacings) >= 4
    assert np.allclose(spacings[:-1] / spacings[1:], 2.0)  # dyadic spacings
    assert 1.7 <= rep.slope <= 2.3
    assert elapsed < 600.0


def test_criterion_7_truncation_slope(capsys):
    t0 = time.perf_counter()
    p = XXZParams(N=8, J0=1.0, R0=2.0, s=1.0)
    rep = limitlab.truncation_study(
        p, s_values=[40.0, 126.0, 400.0, 1265.0, 4000.0],
        profile=lambda xi: 0.8 * np.exp(-((xi / 2.0) ** 2)),
        L=8 * np.pi, M=256, t_end=1.0, dt=1e-3,
    )
    rhos = [pt["rho"] for pt in rep.points if not pt["skipped"]]
    decades = np.log10(max(rhos) / min(rhos))
    elapsed = time.perf_counter() - t0
    ok = decades >= 2.0 and 0.7 <= rep.slope <= 1.3 and elapsed < 600.0
    assert _verdict(capsys, 7, "truncation-slope", ok,
                    f"slope {rep.slope:.3f} over {decades:.1f} decades, "
                    f"{elapsed:.1f}s")
    assert decades >= 2.0
    assert 0.7 <= rep.slope <= 1.3
    assert elapsed < 600.0


def test_criterion_8_statistics_report(capsys):
    rep = verify_statistics_independence(XXZParams(N=7))
    diff_emitted = isinstance(rep.diff, FieldPoly)
    cubic_recorded = isinstance(rep.cubic_diff, FieldPoly)
    ok = rep.linear_equal and diff_emitted and cubic_recorded
    detail = ("cubic sector equal" if rep.equal
              else f"cubic sector differs: {rep.cubic_diff}")
    assert _verdict(capsys, 8, "statistics-report", ok, detail)
    assert rep.linear_equal
    assert diff_emitted
    assert cubic_recorded
    # the quartic (cubic-in-fields) disagreement is recorded, not judged
