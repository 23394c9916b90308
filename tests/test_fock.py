import random

import numpy as np
import pytest

from gpchain import fock
from gpchain.coeffs import ParamCoeff
from gpchain.opalg import Algebra, LadderOp, Statistics

B = Algebra(Statistics.BOSE)
F = Algebra(Statistics.FERMI)


def test_single_mode_bose_matrix():
    mat = fock.to_matrix(B.ad(0), nsites=1, cutoff=2)
    expect = np.zeros((3, 3))
    expect[1, 0] = 1.0
    expect[2, 1] = np.sqrt(2.0)
    assert np.allclose(mat, expect)


def test_bose_ccr_holds_on_interior():
    ann = fock.ladder_matrices(2, cutoff=4, statistics=Statistics.BOSE)
    mask = fock.interior_mask(2, cutoff=4, margin=1)
    for a in ann:
        comm = a @ a.conj().T - a.conj().T @ a
        eye = np.eye(a.shape[0])
        assert fock.max_interior_diff(comm, eye, mask) < 1e-12


def test_fermi_car_exact_everywhere():
    ann = fock.ladder_matrices(3, cutoff=1, statistics=Statistics.FERMI)
    dim = ann[0].shape[0]
    assert dim == 8
    for i, a in enumerate(ann):
        for j, b in enumerate(ann):
            anti = a @ b.conj().T + b.conj().T @ a
            expect = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.abs(anti - expect).max() < 1e-14
            assert np.abs(a @ b + b @ a).max() < 1e-14


def test_to_matrix_number_operator():
    n = fock.to_matrix(B.number(0), nsites=1, cutoff=3)
    assert np.allclose(n, np.diag([0, 1, 2, 3]))


def test_to_matrix_evaluates_bindings():
    expr = B.ad(0).scale(ParamCoeff.symbol("J[0,1]"))
    mat = fock.to_matrix(expr, nsites=1, cutoff=1, bindings={"J[0,1]": 2.5})
    assert mat[1, 0] == 2.5


def test_normal_order_preserves_matrix():
    rng = random.Random(42)
    for trial in range(60):
        fermi = trial % 2 == 1
        alg = F if fermi else B
        nsites = rng.randrange(1, 4)
        expr = alg.zero()
        for _ in range(rng.randrange(1, 4)):
            word = [
                LadderOp(rng.random() < 0.5, rng.randrange(nsites), 0)
                for _ in range(rng.randrange(0, 5))
            ]
            expr = expr + alg.from_word(word, ParamCoeff.rational(rng.randrange(-2, 3)))
        deg = max(expr.degree(), 1)
        cutoff = deg + 2
        m1 = fock.to_matrix(expr, nsites, cutoff)
        m2 = fock.to_matrix(expr.normal_order(), nsites, cutoff)
        stats = Statistics.FERMI if fermi else Statistics.BOSE
        mask = fock.interior_mask(nsites, cutoff, margin=deg, statistics=stats)
        assert fock.max_interior_diff(m1, m2, mask) < 1e-10


def test_mode_ordering_flavor_major():
    # flavor 1 modes come after all flavor 0 modes
    assert fock.mode_index(0, 0, nsites=3) == 0
    assert fock.mode_index(2, 0, nsites=3) == 2
    assert fock.mode_index(0, 1, nsites=3) == 3


def test_coherent_state_is_approximate_eigenstate():
    phi = 0.4 + 0.2j
    cutoff = 18
    vec = fock.coherent_state([phi], cutoff)
    a = fock.ladder_matrices(1, cutoff, Statistics.BOSE)[0]
    resid = a @ vec - phi * vec
    # truncation tail only; tight for small |phi|
    assert np.linalg.norm(resid) < 1e-10
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-10


def test_coherent_state_expectation_matches_symbol():
    phis = [0.3 - 0.1j, 0.2j]
    cutoff = 16
    vec = fock.coherent_state(phis, cutoff)
    expr = B.ad(0) * B.a(1)
    mat = fock.to_matrix(expr, nsites=2, cutoff=cutoff)
    expect = np.vdot(vec, mat @ vec)
    assert abs(expect - np.conj(phis[0]) * phis[1]) < 1e-10


def _kron_oracle_matrix(expr, nsites, cutoff):
    """expr as a matrix from explicit Kronecker products of the local ladders."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
    eye = np.eye(cutoff + 1)
    dim = (cutoff + 1) ** nsites
    mat = np.zeros((dim, dim), dtype=complex)
    for word, coeff in expr.terms():
        acc = np.eye(dim)
        for f in word:
            local = [eye] * nsites
            local[f.site] = a.T if f.dagger else a
            op = local[0]
            for m in local[1:]:
                op = np.kron(op, m)
            acc = acc @ op
        mat += coeff.evaluate({}) * acc
    return mat


def test_to_matrix_reuses_one_read_only_ladder_set():
    # verify-derivation's matrix oracle realizes several expressions on
    # the same 3-site, cutoff-4 Bose space
    exprs = [B.ad(0) * B.a(1) + B.ad(1) * B.a(0), B.number(2) * B.number(2),
             B.ad(2) * B.ad(0) * B.a(1) * B.a(1)]
    fock._ladders.cache_clear()
    mats = [fock.to_matrix(e, 3, 4) for e in exprs]
    info = fock._ladders.cache_info()
    assert (info.misses, info.hits) == (1, len(exprs) - 1)
    for e, m in zip(exprs, mats):
        assert np.abs(m - _kron_oracle_matrix(e, 3, 4)).max() < 1e-12
    cached = fock._ladders(3, 4, Statistics.BOSE, 1)
    for a in cached:
        with pytest.raises(ValueError):
            a[0, 1] = 7.0
    # ladder_matrices hands out copies, so writing one leaves the cache alone
    copies = fock.ladder_matrices(3, 4, Statistics.BOSE)
    copies[0][0, 1] = 7.0
    assert cached[0][0, 1] == 0.0
    assert fock.ladder_matrices(3, 4, Statistics.BOSE)[0][0, 1] == 0.0
    assert np.array_equal(fock.to_matrix(exprs[0], 3, 4), mats[0])
