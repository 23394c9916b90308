import json
import math
import os

import numpy as np
import pytest

from gpchain import fock, models
from gpchain.coeffs import ParamCoeff
from gpchain.models import (
    CouplingMode,
    HubbardParams,
    XXZParams,
    build_hubbard,
    build_hubbard_hop,
    build_hubbard_interaction,
    build_xxz_bosonized,
    derive_eom,
    eqmotannih_reference,
    hubbard_commutator_reference,
    isotropy_merge,
    verify_jordan_wigner,
    verify_statistics_independence,
    xxz_bindings,
    xxz_commutator_reference,
)
from gpchain.opalg import Algebra, Statistics
from gpchain.symbolmap import FieldPoly, naive_symbol, ordering_correction


def test_params_validation():
    p = XXZParams(N=4, h=0.3)
    assert p.h == (0.3,) * 4
    with pytest.raises(ValueError):
        XXZParams(N=1)
    with pytest.raises(ValueError):
        XXZParams(N=4, s=0.0)
    with pytest.raises(ValueError):
        XXZParams(N=4, h=(1.0, 2.0))
    hp = HubbardParams(N=3, U=2.0)
    assert hp.U == (2.0, 2.0, 2.0)


@pytest.mark.parametrize("cls", [XXZParams, HubbardParams])
@pytest.mark.parametrize("hbar, message", [
    (math.inf, "hbar must be finite, got inf"), (math.nan, "hbar must be finite, got nan"),
    (0.0, "hbar must be positive, got 0.0"), (-1.0, "hbar must be positive, got -1.0"),
])
def test_both_parameter_classes_check_hbar_alike(cls, hbar, message):
    # HubbardParams accepted an infinite or NaN hbar
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(N=3, hbar=hbar)


@pytest.mark.parametrize("cls, field", [(XXZParams, "h"), (HubbardParams, "U")])
def test_per_site_field_is_one_value_or_one_per_site(cls, field):
    assert getattr(cls(N=3, **{field: 2}), field) == (2.0, 2.0, 2.0)
    assert getattr(cls(N=3, **{field: [1, 2, 3]}), field) == (1.0, 2.0, 3.0)
    with pytest.raises(ValueError,
                       match=rf"^{field} must have one entry per site \(3\), got 2$"):
        cls(N=3, **{field: [1.0, 2.0]})
    with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
        cls(N=3, **{field: [1.0, math.inf, 2.0]})
    with pytest.raises(ValueError, match=r"^need at least 2 sites, got N=1$"):
        cls(N=1)


def test_hamiltonian_is_self_adjoint():
    p = XXZParams(N=5)
    for mode in (CouplingMode.SYMBOLIC, CouplingMode.EXPANDED):
        H = build_xxz_bosonized(p, mode)
        # real couplings: adjoint only transposes words
        assert H.adjoint() == H
    hp = HubbardParams(N=4)
    assert build_hubbard(hp).adjoint() == build_hubbard(hp)


def test_eom_matches_reference_every_site():
    p = XXZParams(N=6)
    H = build_xxz_bosonized(p, CouplingMode.SYMBOLIC)
    for site in range(p.N):
        assert derive_eom(H, site) == xxz_commutator_reference(
            p, site, CouplingMode.SYMBOLIC
        )


@pytest.mark.parametrize("mode", list(CouplingMode))
def test_eom_matches_reference_every_site_n256(mode):
    # the derivation touches only the words on each site's mode, so the whole
    # ring stays cheap
    p = XXZParams(N=256)
    H = build_xxz_bosonized(p, mode)
    for site in range(p.N):
        assert derive_eom(H, site) == xxz_commutator_reference(p, site, mode)


def _xxz_oracle(p, mode, statistics):
    """build_xxz_bosonized as one H = H - term per term."""
    alg = Algebra(statistics, p.N)
    s = ParamCoeff.symbol("s")
    half = ParamCoeff.rational(1, 2)
    H = alg.zero()
    for j in range(p.N):
        for sigma in (1, -1):
            k = (j + sigma) % p.N
            Jc = models._coupling("J", k, j, mode)
            Rc = models._coupling("R", k, j, mode)
            hop = alg.ad(j) * alg.a(k) + alg.ad(k) * alg.a(j)
            H = H - hop.scale(half * s * Jc)
            dens = (alg.identity().scale(s) - alg.number(k)) * (
                alg.identity().scale(s) - alg.number(j)
            )
            H = H - dens.scale(half * Rc)
    for j in range(p.N):
        hj = ParamCoeff.symbol(f"h[{j}]")
        H = H - (alg.identity().scale(s) - alg.number(j)).scale(hj)
    return H


def _hubbard_hop_oracle(p, statistics):
    alg = Algebra(statistics, p.N)
    t = ParamCoeff.symbol("t")
    H = alg.zero()
    for kappa in (0, 1):
        for j in range(p.N):
            for sigma in (1, -1):
                k = (j + sigma) % p.N
                hop = alg.ad(j, kappa) * alg.a(k, kappa) + alg.ad(k, kappa) * alg.a(j, kappa)
                H = H - hop.scale(t)
    return H


def _hubbard_interaction_oracle(p, statistics):
    alg = Algebra(statistics, p.N)
    H = alg.zero()
    for j in range(p.N):
        Uj = ParamCoeff.symbol(f"U[{j}]")
        H = H + (alg.number(j, 1) * alg.number(j, 0)).scale(Uj)
    return H


@pytest.mark.parametrize("N", [2, 3, 5, 16])
@pytest.mark.parametrize("statistics", list(Statistics))
def test_builders_equal_term_by_term_oracles(N, statistics):
    p = XXZParams(N=N)
    for mode in CouplingMode:
        assert build_xxz_bosonized(p, mode, statistics) == _xxz_oracle(p, mode, statistics)
    ph = HubbardParams(N=N)
    assert build_hubbard_hop(ph, statistics) == _hubbard_hop_oracle(ph, statistics)
    assert build_hubbard_interaction(ph, statistics) == _hubbard_interaction_oracle(
        ph, statistics)


def _xxz_reference_oracle(p, site, mode, reversed_pairs, statistics):
    """xxz_commutator_reference as sums and products of one-operator sums."""
    N = p.N
    i = site % N
    ip, im = (i + 1) % N, (i - 1) % N
    alg = Algebra(statistics, N)
    s = ParamCoeff.symbol("s")
    half = ParamCoeff.rational(1, 2)

    def J(a, b):
        return models._coupling("J", a, b, mode)

    def R(a, b):
        return models._coupling("R", a, b, mode)

    out = alg.zero()
    out = out + alg.a(ip).scale(half * s * (J(ip, i) + J(i, ip)))
    out = out + alg.a(im).scale(half * s * (J(im, i) + J(i, im)))
    out = out - alg.a(i).scale(half * s * (R(i, ip) + R(i, im)))
    out = out - alg.a(i).scale(half * s * (R(ip, i) + R(im, i)))
    out = out + (alg.number(ip) * alg.a(i)).scale(half * R(ip, i))
    out = out + (alg.number(im) * alg.a(i)).scale(half * R(im, i))
    if reversed_pairs:
        out = out + (alg.a(ip) * alg.ad(ip) * alg.a(i)).scale(half * R(i, ip))
        out = out + (alg.a(im) * alg.ad(im) * alg.a(i)).scale(half * R(i, im))
    else:
        out = out + (alg.number(ip) * alg.a(i)).scale(half * R(i, ip))
        out = out + (alg.number(im) * alg.a(i)).scale(half * R(i, im))
    out = out - alg.a(i).scale(ParamCoeff.symbol(f"h[{i}]"))
    return out


def _hubbard_reference_oracle(p, site, flavor, part, statistics):
    """hubbard_commutator_reference as products of one-operator sums."""
    i = site % p.N
    alg = Algebra(statistics, p.N)
    if part == "hop":
        two_t = ParamCoeff.rational(2) * ParamCoeff.symbol("t")
        return (alg.a(i + 1, flavor) + alg.a(i - 1, flavor)).scale(two_t)
    other = 1 - flavor
    word = alg.a(i, flavor) * alg.ad(i, other) * alg.a(i, other)
    return word.scale(-ParamCoeff.symbol(f"U[{i}]"))


@pytest.mark.parametrize("N", [2, 3, 5, 16])
@pytest.mark.parametrize("statistics", list(Statistics))
def test_references_equal_product_form_oracles(N, statistics):
    p = XXZParams(N=N)
    for mode in CouplingMode:
        for reversed_pairs in (False, True):
            for site in range(N):
                assert xxz_commutator_reference(
                    p, site, mode, reversed_pairs, statistics
                ) == _xxz_reference_oracle(p, site, mode, reversed_pairs, statistics)
    ph = HubbardParams(N=N)
    for site in range(N):
        for flavor in (0, 1):
            for part in ("hop", "interaction"):
                assert hubbard_commutator_reference(
                    ph, site, flavor, part, statistics
                ) == _hubbard_reference_oracle(ph, site, flavor, part, statistics)


def test_builders_and_references_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 24), st.sampled_from(list(Statistics)),
           st.sampled_from(list(CouplingMode)), st.data())
    def check(N, statistics, mode, data):
        site = data.draw(st.integers(0, N - 1), label="site")
        flavor = data.draw(st.integers(0, 1), label="flavor")
        p = XXZParams(N=N)
        H = build_xxz_bosonized(p, mode, statistics)
        assert H == _xxz_oracle(p, mode, statistics)
        ref = xxz_commutator_reference(p, site, mode, statistics=statistics)
        assert ref == _xxz_reference_oracle(p, site, mode, False, statistics)
        assert derive_eom(H, site) == ref
        ph = HubbardParams(N=N)
        for part, build, oracle in (
            ("hop", build_hubbard_hop, _hubbard_hop_oracle),
            ("interaction", build_hubbard_interaction, _hubbard_interaction_oracle),
        ):
            H = build(ph, statistics)
            assert H == oracle(ph, statistics)
            ref = hubbard_commutator_reference(ph, site, flavor, part, statistics)
            assert ref == _hubbard_reference_oracle(ph, site, flavor, part, statistics)
            assert derive_eom(H, site, flavor) == ref

    check()


def test_derive_eom_names_a_missing_site_before_a_missing_flavor():
    for stats in Statistics:
        alg = Algebra(stats)
        # site 0 holds only flavor 1 and site 1 only flavor 0; odd words under Fermi
        H = alg.number(0, 1) + alg.number(1, 0) + alg.a(1)
        with pytest.raises(ValueError, match="^site 5 does not occur in the Hamiltonian$"):
            derive_eom(H, 5, flavor=3)
        with pytest.raises(ValueError, match="^flavor 3 does not occur in the Hamiltonian$"):
            derive_eom(H, 0, flavor=3)
        with pytest.raises(ValueError, match="^site 0 does not occur"):
            derive_eom(alg.scalar(2), 0)
        # site 0 and flavor 0 both occur, though no word holds the mode (0, 0)
        assert derive_eom(H, 0) == H.commutator(alg.a(0))


def test_eom_matches_reference_expanded_mode():
    p = XXZParams(N=5)
    H = build_xxz_bosonized(p, CouplingMode.EXPANDED)
    for site in (0, 2, 4):
        assert derive_eom(H, site) == xxz_commutator_reference(
            p, site, CouplingMode.EXPANDED
        )


def test_eom_small_ring_n2():
    # the smallest ring folds both neighbors onto one site and still matches
    p = XXZParams(N=2)
    H = build_xxz_bosonized(p)
    for site in (0, 1):
        assert derive_eom(H, site) == xxz_commutator_reference(p, site)


def test_reversed_pair_accounting():
    p = XXZParams(N=7)
    i = 3
    printed = xxz_commutator_reference(p, i, reversed_pairs=True)
    canon = xxz_commutator_reference(p, i)
    gap = printed.normal_order() - canon
    assert gap.degree() == 1
    half = ParamCoeff.rational(1, 2)
    expect = FieldPoly.phi(i).scale(
        half * ParamCoeff.symbol(f"R[{i},{i + 1}]")
        + half * ParamCoeff.symbol(f"R[{i},{i - 1}]")
    )
    assert naive_symbol(gap) == expect
    assert ordering_correction(printed) == expect


def test_merged_equation_reference():
    p = XXZParams(N=8)
    H = build_xxz_bosonized(p)
    for site in (0, 3, 7):
        merged = isotropy_merge(naive_symbol(derive_eom(H, site)))
        assert merged == eqmotannih_reference(p, site)


def test_matrix_oracle_commutator():
    p = XXZParams(N=3, J0=0.9, J1=0.1, R0=0.6, R1=0.05, s=1.3, x_xi=0.2,
                  h=(0.2, -0.3, 0.1))
    bind = xxz_bindings(p)
    cutoff, margin = 4, 2
    alg = Algebra(Statistics.BOSE, p.N)
    for mode in (CouplingMode.SYMBOLIC, CouplingMode.EXPANDED):
        H = build_xxz_bosonized(p, mode)
        Hm = fock.to_matrix(H, p.N, cutoff, bind)
        mask = fock.interior_mask(p.N, cutoff, margin)
        for site in range(p.N):
            am = fock.to_matrix(alg.a(site), p.N, cutoff, bind)
            comm = Hm @ am - am @ Hm
            eom = fock.to_matrix(derive_eom(H, site), p.N, cutoff, bind)
            assert fock.max_interior_diff(comm, eom, mask) < 1e-10


def test_matrix_oracle_hubbard_fermi():
    p = HubbardParams(N=3, t=0.8, U=(0.5, 1.0, -0.3))
    bind = models.hubbard_bindings(p)
    H = build_hubbard(p)
    Hm = fock.to_matrix(H, p.N, bindings=bind, nflavors=2)
    alg = Algebra(Statistics.FERMI, p.N)
    for site in range(p.N):
        for flavor in (0, 1):
            am = fock.to_matrix(alg.a(site, flavor), p.N, bindings=bind, nflavors=2)
            comm = Hm @ am - am @ Hm
            eom = fock.to_matrix(derive_eom(H, site, flavor), p.N,
                                 bindings=bind, nflavors=2)
            assert np.abs(comm - eom).max() < 1e-12


def test_hubbard_commutator_references():
    p = HubbardParams(N=5)
    for stats in (Statistics.BOSE, Statistics.FERMI):
        Hh = build_hubbard_hop(p, statistics=stats)
        Hu = build_hubbard_interaction(p, statistics=stats)
        for flavor in (0, 1):
            assert derive_eom(Hh, 2, flavor=flavor) == hubbard_commutator_reference(
                p, 2, flavor, "hop", statistics=stats
            )
            assert derive_eom(Hu, 2, flavor=flavor) == hubbard_commutator_reference(
                p, 2, flavor, "interaction", statistics=stats
            )


def test_hubbard_hop_reference_shape():
    p = HubbardParams(N=5)
    ref = hubbard_commutator_reference(p, 1, 0, "hop")
    # 2t a_{i+1} + 2t a_{i-1}
    assert ref.num_terms() == 2
    two_t = ParamCoeff.rational(2) * ParamCoeff.symbol("t")
    alg = Algebra(Statistics.FERMI, p.N)
    assert ref == (alg.a(2, 0) + alg.a(0, 0)).scale(two_t)


def test_statistics_independence_report():
    p = XXZParams(N=6)
    rep = verify_statistics_independence(p)
    assert rep.linear_equal
    # the quartic sector picks up Fermi signs; record whatever it says
    assert rep.cubic_diff is not None
    # a caller's own Bose equation of motion gives the same report
    eb = derive_eom(build_xxz_bosonized(p, CouplingMode.SYMBOLIC, Statistics.BOSE), p.N // 2)
    assert verify_statistics_independence(p, bose_eom=eb) == rep


def test_jordan_wigner_identity():
    for n in (2, 3, 4):
        rep = verify_jordan_wigner(n)
        assert rep.identity_holds
        assert rep.max_deviation <= 1e-12
        assert rep.sz_deviation <= 1e-12


def test_bindings_cover_all_parameters():
    p = XXZParams(N=4, h=0.1)
    H = build_xxz_bosonized(p, CouplingMode.SYMBOLIC)
    bind = xxz_bindings(p)
    missing = H.parameters() - set(bind)
    assert not missing
    He = build_xxz_bosonized(p, CouplingMode.EXPANDED)
    assert not He.parameters() - set(bind)


def _golden_check_names(golden):
    path = os.path.join(os.path.dirname(__file__), "data", golden, "verify_summary.json")
    with open(path) as fh:
        return [check["name"] for check in json.load(fh)["checks"]]


def test_derivation_checks_pass_in_report_order():
    checks = {name: (passed, detail) for name, passed, detail in models.derivation_checks(5)}
    assert list(checks) == _golden_check_names("verify_default")
    assert list(checks) == _golden_check_names("verify_n10")
    for name, (passed, _) in checks.items():
        assert passed, name
    assert checks["chain-commutator-all-sites"][1] == "N=5"
    assert checks["chain-commutator-expanded"][1] == "site=2"
    assert checks["jordan-wigner-identity"][1].startswith("nsites=4,")
    one_site = {name: (passed, detail) for name, passed, detail in models.derivation_checks(
        5, site=7, jw_sites=2)}
    assert list(one_site) == list(checks)
    assert all(passed for passed, _ in one_site.values())
    assert one_site["jordan-wigner-identity"][1].startswith("nsites=2,")


def test_derivation_checks_flag_only_a_tampered_hubbard_interaction(monkeypatch):
    real = models.build_hubbard_interaction
    monkeypatch.setattr(models, "build_hubbard_interaction",
                        lambda *a, **k: real(*a, **k) + real(*a, **k))
    failed = [name for name, passed, _ in models.derivation_checks(5) if not passed]
    assert failed == ["hubbard-commutators"]
