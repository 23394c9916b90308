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
    translate,
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


def test_translation_equivariance():
    p = XXZParams(N=6)
    H = build_xxz_bosonized(p)
    eom2 = derive_eom(H, 2)
    eom4 = derive_eom(H, 4)
    assert translate(eom2, 2, p.N) == eom4
    poly2 = naive_symbol(eom2)
    assert translate(poly2, 2, p.N) == naive_symbol(eom4)


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
