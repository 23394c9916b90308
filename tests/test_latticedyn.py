import numpy as np
import pytest

from gpchain import latticedyn, models
from gpchain.integrators import integrate_adaptive, integrate_fixed
from gpchain.latticedyn import (
    hubbard_observables,
    hubbard_rhs,
    rhs_from_polys,
    xxz_observables,
    xxz_rhs,
)
from gpchain.models import (
    CouplingMode,
    HubbardParams,
    XXZParams,
    build_hubbard,
    build_xxz_bosonized,
    derive_eom,
    hubbard_bindings,
    xxz_bindings,
)
from gpchain.symbolmap import naive_symbol, wick_symbol


def _random_state(rng, nflavors, nsites):
    re = rng.standard_normal((nflavors, nsites))
    im = rng.standard_normal((nflavors, nsites))
    return 0.3 * (re + 1j * im)


def test_xxz_rhs_matches_symbolic_eom():
    """The vectorized right-hand side is the symbolic commutator, evaluated."""
    p = XXZParams(N=5, J0=0.8, J1=0.1, R0=0.6, R1=0.07, s=1.2, x_xi=0.3,
                  h=(0.1, -0.2, 0.0, 0.3, 0.05), hbar=1.4)
    H = build_xxz_bosonized(p, CouplingMode.EXPANDED)
    polys = {j: naive_symbol(derive_eom(H, j)) for j in range(p.N)}
    slow = rhs_from_polys(polys, xxz_bindings(p), hbar=p.hbar)
    fast = xxz_rhs(p)
    rng = np.random.default_rng(0)
    for _ in range(4):
        phi = _random_state(rng, 1, p.N)
        assert np.abs(fast(0.0, phi) - slow(0.0, phi)).max() < 1e-12


def test_xxz_rhs_wick_mode_adds_correction():
    # wick mode follows the Wick symbol of the annihilator-first commutator
    # writing, which exceeds the naive reading by (1/2)(R_b + R_{b-1}) phi_i
    p = XXZParams(N=5, J0=0.8, R0=0.6, s=1.2)
    polys = {
        j: wick_symbol(
            models.xxz_commutator_reference(
                p, j, CouplingMode.EXPANDED, reversed_pairs=True
            )
        )
        for j in range(p.N)
    }
    slow = rhs_from_polys(polys, xxz_bindings(p), hbar=p.hbar)
    fast = xxz_rhs(p, symbol_mode="wick")
    rng = np.random.default_rng(1)
    phi = _random_state(rng, 1, p.N)
    assert np.abs(fast(0.0, phi) - slow(0.0, phi)).max() < 1e-12
    naive = xxz_rhs(p)
    assert np.abs(fast(0.0, phi) - naive(0.0, phi)).max() > 1e-6


def test_hubbard_rhs_matches_symbolic_eom():
    p = HubbardParams(N=4, t=0.9, U=(0.5, 1.5, -0.2, 0.8), hbar=0.7)
    H = build_hubbard(p, statistics=models.Statistics.BOSE)
    polys = {
        (j, f): naive_symbol(derive_eom(H, j, flavor=f))
        for j in range(p.N)
        for f in (0, 1)
    }
    slow = rhs_from_polys(polys, hubbard_bindings(p), hbar=p.hbar)
    fast = hubbard_rhs(p)
    rng = np.random.default_rng(2)
    phi = _random_state(rng, 2, p.N)
    assert np.abs(fast(0.0, phi) - slow(0.0, phi)).max() < 1e-12


def test_norm_and_energy_conserved():
    p = XXZParams(N=32, J0=1.0, R0=0.5, s=1.0)
    rng = np.random.default_rng(3)
    phi0 = _random_state(rng, 1, p.N)
    _, states = integrate_fixed(xxz_rhs(p), phi0, 0.0, 2.0, 1e-3)
    o0 = xxz_observables(phi0, p)
    o1 = xxz_observables(states[-1], p)
    assert abs(o1["norm"] - o0["norm"]) < 1e-10
    assert abs(o1["energy"] - o0["energy"]) < 1e-8


def test_wick_flow_still_conserves_norm():
    # the correction is a site-dependent linear phase; norm survives
    p = XXZParams(N=16, J0=1.0, R0=0.7, s=1.0)
    rng = np.random.default_rng(4)
    phi0 = _random_state(rng, 1, p.N)
    _, states = integrate_fixed(xxz_rhs(p, symbol_mode="wick"), phi0, 0.0, 1.0, 1e-3)
    assert abs(xxz_observables(states[-1], p)["norm"]
               - xxz_observables(phi0, p)["norm"]) < 1e-10


def test_hubbard_conservation_and_swap_symmetry():
    p = HubbardParams(N=16, t=1.0, U=0.8)
    rng = np.random.default_rng(5)
    phi0 = _random_state(rng, 2, p.N)
    _, states = integrate_fixed(hubbard_rhs(p), phi0, 0.0, 1.0, 1e-3)
    o0 = hubbard_observables(phi0, p)
    o1 = hubbard_observables(states[-1], p)
    assert abs(o1["norm_flavor0"] - o0["norm_flavor0"]) < 1e-10
    assert abs(o1["norm_flavor1"] - o0["norm_flavor1"]) < 1e-10
    assert abs(o1["energy"] - o0["energy"]) < 1e-8
    # swapping the flavors commutes with the flow
    _, swapped = integrate_fixed(hubbard_rhs(p), phi0[::-1], 0.0, 1.0, 1e-3)
    assert np.abs(swapped[-1] - states[-1][::-1]).max() < 1e-12


def test_integrate_adaptive_scheme_close_to_fixed():
    p = XXZParams(N=8, J0=1.0, R0=0.4)
    rng = np.random.default_rng(6)
    phi0 = _random_state(rng, 1, p.N)
    _, fixed = integrate_fixed(xxz_rhs(p), phi0, 0.0, 1.0, 5e-4)
    _, adap = integrate_adaptive(xxz_rhs(p), phi0, 0.0, 1.0, 1e-10, dt0=1e-3)
    assert np.abs(fixed[-1] - adap[-1]).max() < 1e-7


def test_trajectory_snapshots():
    p = XXZParams(N=6)
    rng = np.random.default_rng(7)
    phi0 = _random_state(rng, 1, p.N)
    times, states = integrate_fixed(xxz_rhs(p), phi0, 0.0, 1.0, 0.01,
                                    snapshot_every=20)
    assert len(times) == len(states) >= 5
    assert np.stack(states).shape[1:] == (1, p.N)
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)


# ------------------------------------------------ bitwise np.roll oracle
#
# The closed forms as first written, with np.roll for every neighbour.
# The gather-indexed RHSes and observables must reproduce them bit for bit.

def _roll_xxz_rhs(p, symbol_mode="naive"):
    Jb, Rb = latticedyn._bond_arrays(p)
    Jbm = np.roll(Jb, 1)
    Rbm = np.roll(Rb, 1)
    h = np.asarray(p.h, dtype=float)
    s = p.s
    wick = symbol_mode == "wick"
    scale = 1j / p.hbar

    def f(t, phi):
        u = phi[0]
        up = np.roll(u, -1)
        um = np.roll(u, 1)
        P = s * Jb * up + s * Jbm * um
        P -= s * (Rb + Rbm) * u
        P += (Rb * np.abs(up) ** 2 + Rbm * np.abs(um) ** 2) * u
        P -= h * u
        if wick:
            P += 0.5 * (Rb + Rbm) * u
        return scale * P[None, :]

    return f


def _roll_hubbard_rhs(p):
    U = np.asarray(p.U, dtype=float)
    scale = 1j / p.hbar
    two_t = 2.0 * p.t

    def f(t, phi):
        up = np.roll(phi, -1, axis=1)
        um = np.roll(phi, 1, axis=1)
        other = np.abs(phi[::-1]) ** 2
        P = two_t * (up + um) - U * other * phi
        return scale * P

    return f


def _roll_xxz_energy(phi, p):
    u = np.atleast_2d(phi)[0]
    Jb, Rb = latticedyn._bond_arrays(p)
    n = np.abs(u) ** 2
    npp = np.roll(n, -1)
    h = np.asarray(p.h, dtype=float)
    return float(
        -2.0 * p.s * np.sum(Jb * np.real(np.conj(u) * np.roll(u, -1)))
        - np.sum(Rb * (p.s - n) * (p.s - npp))
        - np.sum(h * (p.s - n)))


def _roll_hubbard_energy(phi, p):
    U = np.asarray(p.U, dtype=float)
    n = np.abs(phi) ** 2
    hop = -4.0 * p.t * np.sum(np.real(np.conj(phi) * np.roll(phi, -1, axis=1)))
    return float(hop + np.sum(U * n[1] * n[0]))


def _assert_xxz_bitwise(p, phi):
    for mode in ("naive", "wick"):
        got = xxz_rhs(p, mode)(0.0, phi)
        want = _roll_xxz_rhs(p, mode)(0.0, phi)
        assert np.array_equal(got, want), mode
    assert xxz_observables(phi, p)["energy"] == _roll_xxz_energy(phi, p)


def _assert_hubbard_bitwise(p, phi):
    assert np.array_equal(hubbard_rhs(p)(0.0, phi), _roll_hubbard_rhs(p)(0.0, phi))
    assert hubbard_observables(phi, p)["energy"] == _roll_hubbard_energy(phi, p)


@pytest.mark.parametrize("n", [2, 3, 16, 256])
def test_rhs_bitwise_equal_to_roll_oracle(n):
    rng = np.random.default_rng(100 + n)
    # uniform bonds, no field, hbar = 1
    _assert_xxz_bitwise(XXZParams(N=n, J0=1.0, R0=1.0, s=1.0), _random_state(rng, 1, n))
    # gradient couplings, a site field and hbar != 1
    p = XXZParams(N=n, J0=0.8, J1=0.1, R0=0.6, R1=0.07, s=1.3, x_xi=0.3,
                  h=tuple(rng.uniform(-0.5, 0.5, n)), hbar=0.7)
    _assert_xxz_bitwise(p, _random_state(rng, 1, n))
    # uniform and non-uniform U
    phi2 = _random_state(rng, 2, n)
    _assert_hubbard_bitwise(HubbardParams(N=n, t=1.0, U=2.0), phi2)
    _assert_hubbard_bitwise(
        HubbardParams(N=n, t=0.9, U=tuple(rng.uniform(-1.0, 2.0, n)), hbar=1.7), phi2)


def test_rhs_bitwise_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.booleans())
    def check(n, seed, uniform):
        rng = np.random.default_rng(seed)
        if uniform:
            p = XXZParams(N=n, h=float(rng.normal()))
        else:
            J0, J1, R0, R1, x_xi = rng.normal(size=5)
            p = XXZParams(N=n, J0=float(J0), J1=float(J1), R0=float(R0), R1=float(R1),
                          s=float(rng.uniform(0.5, 3.0)), x_xi=float(x_xi),
                          h=tuple(rng.normal(size=n)), hbar=float(rng.uniform(0.3, 2.0)))
        _assert_xxz_bitwise(p, _random_state(rng, 1, n))
        U = float(rng.normal()) if uniform else tuple(rng.normal(size=n))
        _assert_hubbard_bitwise(HubbardParams(N=n, t=float(rng.normal()), U=U,
                                              hbar=float(rng.uniform(0.3, 2.0))),
                                _random_state(rng, 2, n))

    check()


# ------------------------------------------------------ rings of the sites

def _parent_neighbours(n):
    j = np.arange(n)
    return (j + 1) % n, (j - 1) % n


@pytest.mark.parametrize("n", [2, 3, 16, 256])
def test_default_rings_are_one_periodic_chain(n):
    for got, want in zip(latticedyn._neighbours(n), _parent_neighbours(n)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for got, want in zip(latticedyn._neighbours(n, (n,)), _parent_neighbours(n)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rings", [(8, 8, 16), (2, 32)])
@pytest.mark.parametrize("symbol_mode", ["naive", "wick"])
def test_ring_union_rhs_is_the_concatenation_of_each_ring(rings, symbol_mode):
    rng = np.random.default_rng(sum(rings))
    n = sum(rings)
    p = XXZParams(N=n, J0=0.8, J1=0.15, R0=0.6, R1=0.07, s=1.3, x_xi=0.3,
                  h=tuple(rng.uniform(-0.5, 0.5, n)), hbar=0.7)
    phi = _random_state(rng, 1, n)
    got = xxz_rhs(p, symbol_mode, rings=rings)(0.0, phi)
    parts, start = [], 0
    for size in rings:
        ring = slice(start, start + size)
        p_ring = XXZParams(N=size, J0=p.J0, J1=p.J1, R0=p.R0, R1=p.R1, s=p.s,
                           x_xi=p.x_xi, h=p.h[ring], hbar=p.hbar)
        parts.append(xxz_rhs(p_ring, symbol_mode)(0.0, phi[:, ring]))
        start += size
    want = np.concatenate(parts, axis=1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_rings_must_cover_the_sites():
    for rings in [(8, 7), (8, 9), (16, 0)]:
        with pytest.raises(ValueError, match="rings"):
            xxz_rhs(XXZParams(N=16), rings=rings)
