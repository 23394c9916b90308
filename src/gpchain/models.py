"""Lattice Hamiltonians and their symbolic equations of motion.

Two models are provided: the spin chain in its ladder-operator form
(anisotropic nearest-neighbour exchange J, density coupling R, on-site
field h, spin magnitude s), and a two-flavor Hubbard chain.  Both live
on a periodic ring of N sites.

The key derived object is derive_eom(H, i): the normal-ordered
commutator [H, a_i], i.e. the right-hand side of  -i*hbar d/dt a_i = [H, a_i].
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fock
from .coeffs import ParamCoeff
from .opalg import Algebra, LadderOp, OperatorExpr, Statistics
from .symbolmap import FieldFactor, FieldPoly, naive_symbol


class CouplingMode(Enum):
    """How bond couplings enter the symbolic Hamiltonian."""

    SYMBOLIC = "symbolic"    # one parameter J[p,q] per ordered bond
    EXPANDED = "expanded"    # first-order form J0 - J1 x_xi, uniform bonds


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class XXZParams:
    """Parameters of the anisotropic chain in ladder form."""

    N: int = 8
    J0: float = 1.0
    J1: float = 0.0
    R0: float = 1.0
    R1: float = 0.0
    s: float = 1.0
    hbar: float = 1.0
    x_xi: float = 0.0
    h: tuple = None

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError(f"need at least 2 sites, got N={self.N!r}")
        if self.s <= 0:
            raise ValueError(f"spin magnitude must be positive, got s={self.s!r}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar!r}")
        for name in ("J0", "J1", "R0", "R1", "s", "hbar", "x_xi"):
            _require_finite(name, getattr(self, name))
        h = self.h
        if h is None:
            h = (0.0,) * self.N
        elif isinstance(h, (int, float)):
            h = (float(h),) * self.N
        else:
            h = tuple(float(v) for v in h)
            if len(h) != self.N:
                raise ValueError(f"h must have one entry per site ({self.N}), got {len(h)}")
        for v in h:
            _require_finite("h", v)
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class HubbardParams:
    """Parameters of the two-flavor Hubbard ring."""

    N: int = 8
    t: float = 1.0
    U: tuple = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError(f"need at least 2 sites, got N={self.N!r}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar!r}")
        _require_finite("t", self.t)
        U = self.U
        if isinstance(U, (int, float)):
            U = (float(U),) * self.N
        else:
            U = tuple(float(v) for v in U)
            if len(U) != self.N:
                raise ValueError(f"U must have one entry per site ({self.N}), got {len(U)}")
        for v in U:
            _require_finite("U", v)
        object.__setattr__(self, "U", U)


_HALF = ParamCoeff.rational(1, 2)


def _coupling(base: str, p: int, q: int, mode: CouplingMode) -> ParamCoeff:
    if mode is CouplingMode.SYMBOLIC:
        return ParamCoeff.symbol(f"{base}[{p},{q}]")
    return (
        ParamCoeff.symbol(f"{base}0")
        - ParamCoeff.symbol(f"{base}1") * ParamCoeff.symbol("x_xi")
    )


def build_xxz_bosonized(
    p: XXZParams,
    mode: CouplingMode = CouplingMode.SYMBOLIC,
    statistics: Statistics = Statistics.BOSE,
) -> OperatorExpr:
    """The chain Hamiltonian in ladder form on a periodic ring.

    H = -(1/2) sum_{sigma,j} [ J_{j+sigma,j} s (ad_j a_{j+sigma} + ad_{j+sigma} a_j)
                               + R_{j+sigma,j} (s - n_{j+sigma})(s - n_j) ]
        - sum_j h_j (s - n_j)

    Hop products are emitted in normal order; for bosons that form is
    canonically identical to the annihilator-first writing, and for
    fermions it is the reading consistent with the commutators the
    model is meant to produce (the annihilator-first writing would
    cancel identically under anticommutation).
    """
    alg = Algebra(statistics, p.N)
    s = ParamCoeff.symbol("s")

    def terms():
        for j in range(p.N):
            for sigma in (1, -1):
                k = (j + sigma) % p.N
                Jc = _coupling("J", k, j, mode)
                Rc = _coupling("R", k, j, mode)
                hop = alg.ad(j) * alg.a(k) + alg.ad(k) * alg.a(j)
                yield -hop.scale(_HALF * s * Jc)
                dens = (alg.identity().scale(s) - alg.number(k)) * (
                    alg.identity().scale(s) - alg.number(j)
                )
                yield -dens.scale(_HALF * Rc)
        for j in range(p.N):
            hj = ParamCoeff.symbol(f"h[{j}]")
            yield -(alg.identity().scale(s) - alg.number(j)).scale(hj)

    return alg.zero().add_all(terms())


def build_hubbard_hop(p: HubbardParams, statistics: Statistics = Statistics.FERMI) -> OperatorExpr:
    """H1 = -t sum_{sigma,j,kappa} (ad_{j,kappa} a_{j+sigma,kappa} + ad_{j+sigma,kappa} a_{j,kappa})."""
    alg = Algebra(statistics, p.N)
    t = ParamCoeff.symbol("t")
    return alg.zero().add_all(
        -(alg.ad(j, kappa) * alg.a(k, kappa) + alg.ad(k, kappa) * alg.a(j, kappa)).scale(t)
        for kappa in (0, 1)
        for j in range(p.N)
        for k in ((j + 1) % p.N, (j - 1) % p.N)
    )


def build_hubbard_interaction(p: HubbardParams, statistics: Statistics = Statistics.FERMI) -> OperatorExpr:
    """H2 = sum_j U_j n_{j,1} n_{j,0}."""
    alg = Algebra(statistics, p.N)
    return alg.zero().add_all(
        (alg.number(j, 1) * alg.number(j, 0)).scale(ParamCoeff.symbol(f"U[{j}]"))
        for j in range(p.N)
    )


def build_hubbard(p: HubbardParams, statistics: Statistics = Statistics.FERMI) -> OperatorExpr:
    return build_hubbard_hop(p, statistics) + build_hubbard_interaction(p, statistics)


def derive_eom(H: OperatorExpr, site: int, flavor: int = 0) -> OperatorExpr:
    """[H, a_{site,flavor}], normal ordered: the RHS of -i*hbar da/dt = [H, a].

    Only the words of H that can fail to commute with a = a_{site,flavor}
    enter the commutator: those that contain the mode (flavor, site), and
    under Fermi statistics every odd-length word, since w a - a w = 2 w a
    for an odd w that does not touch the mode.  A word without the mode
    commutes with a under Bose statistics, and so does an even one under
    Fermi statistics; constants always do.  The result equals
    H.commutator(a) exactly.

    The site (and flavor, where applicable) must occur in H.
    """
    if site not in H.sites():
        raise ValueError(f"site {site} does not occur in the Hamiltonian")
    flavors = H.flavors()
    if flavors and flavor not in flavors:
        raise ValueError(f"flavor {flavor} does not occur in the Hamiltonian")
    fermi = H.fermi
    part = H.filter_words(lambda w: (fermi and len(w) % 2 == 1) or any(
        f.site == site and f.flavor == flavor for f in w))
    return part.commutator(Algebra(H.statistics).a(site, flavor))


def xxz_commutator_reference(
    p: XXZParams,
    site: int,
    mode: CouplingMode = CouplingMode.SYMBOLIC,
    reversed_pairs: bool = False,
    statistics: Statistics = Statistics.BOSE,
) -> OperatorExpr:
    """Closed-form [H, a_i] for the chain, written term by term.

    With reversed_pairs=False every quartic appears with its density
    factor in normal order; this equals derive_eom exactly.  With
    reversed_pairs=True the two quartics carried over from the second
    sigma branch keep an annihilator-first density factor (a a†
    instead of ad a), which is the same expression one commutation
    away; its Wick and naive symbols then differ by the ordering
    correction (1/2)(R[i,i+1] + R[i,i-1]) phi_i.
    """
    N = p.N
    i = site % N
    ip, im = (i + 1) % N, (i - 1) % N
    alg = Algebra(statistics, N)
    s = ParamCoeff.symbol("s")

    def J(a, b):
        return _coupling("J", a, b, mode)

    def R(a, b):
        return _coupling("R", a, b, mode)

    out = alg.zero()
    out = out + alg.a(ip).scale(_HALF * s * (J(ip, i) + J(i, ip)))
    out = out + alg.a(im).scale(_HALF * s * (J(im, i) + J(i, im)))
    out = out - alg.a(i).scale(_HALF * s * (R(i, ip) + R(i, im)))
    out = out - alg.a(i).scale(_HALF * s * (R(ip, i) + R(im, i)))
    out = out + (alg.number(ip) * alg.a(i)).scale(_HALF * R(ip, i))
    out = out + (alg.number(im) * alg.a(i)).scale(_HALF * R(im, i))
    if reversed_pairs:
        out = out + (alg.a(ip) * alg.ad(ip) * alg.a(i)).scale(_HALF * R(i, ip))
        out = out + (alg.a(im) * alg.ad(im) * alg.a(i)).scale(_HALF * R(i, im))
    else:
        out = out + (alg.number(ip) * alg.a(i)).scale(_HALF * R(i, ip))
        out = out + (alg.number(im) * alg.a(i)).scale(_HALF * R(i, im))
    out = out - alg.a(i).scale(ParamCoeff.symbol(f"h[{i}]"))
    return out


def hubbard_commutator_reference(
    p: HubbardParams,
    site: int,
    flavor: int,
    part: str = "hop",
    statistics: Statistics = Statistics.FERMI,
) -> OperatorExpr:
    """Closed-form [H1, a_{i,kappa}] or [H2, a_{i,kappa}]."""
    N = p.N
    i = site % N
    alg = Algebra(statistics, N)
    if part == "hop":
        t = ParamCoeff.symbol("t")
        two_t = ParamCoeff.rational(2) * t
        return (alg.a(i + 1, flavor) + alg.a(i - 1, flavor)).scale(two_t)
    if part == "interaction":
        Ui = ParamCoeff.symbol(f"U[{i}]")
        other = 1 - flavor
        word = alg.a(i, flavor) * alg.ad(i, other) * alg.a(i, other)
        return word.scale(-Ui)
    raise ValueError(f"part must be 'hop' or 'interaction', got {part!r}")


def eqmotannih_reference(p: XXZParams, site: int) -> FieldPoly:
    """The classical equation of motion at a site, with merged bond couplings.

    Returns the polynomial P_i in  -i*hbar d/dt phi_i = P_i:

        P_i = s J(i,i+1) phi_{i+1} + s J(i-1,i) phi_{i-1}
              - s (R(i,i+1) + R(i-1,i)) phi_i
              + (R(i,i+1) |phi_{i+1}|^2 + R(i-1,i) |phi_{i-1}|^2) phi_i
              - h_i phi_i

    where J(p,q) is the symbol J[min,max] for the bond (isotropic merge).
    """
    N = p.N
    i = site % N
    ip, im = (i + 1) % N, (i - 1) % N

    def bond(base, a, b):
        lo, hi = sorted((a, b))
        return ParamCoeff.symbol(f"{base}[{lo},{hi}]")

    s = ParamCoeff.symbol("s")
    out = FieldPoly.phi(ip).scale(s * bond("J", i, ip))
    out = out + FieldPoly.phi(im).scale(s * bond("J", im, i))
    out = out - FieldPoly.phi(i).scale(s * (bond("R", i, ip) + bond("R", im, i)))
    dens_p = FieldPoly.phi_star(ip) * FieldPoly.phi(ip)
    dens_m = FieldPoly.phi_star(im) * FieldPoly.phi(im)
    out = out + (dens_p.scale(bond("R", i, ip)) + dens_m.scale(bond("R", im, i))) * FieldPoly.phi(i)
    out = out - FieldPoly.phi(i).scale(ParamCoeff.symbol(f"h[{i}]"))
    return out


_PAIR_SYM = re.compile(r"^([JR])\[(-?\d+),(-?\d+)\]$")


def isotropy_merge(obj):
    """Rename J[p,q]/R[p,q] with p > q to J[q,p]/R[q,p].

    Valid when the couplings are symmetric in their indices; works on
    OperatorExpr and FieldPoly alike.
    """
    mapping = {}
    for name in obj.parameters():
        m = _PAIR_SYM.match(name)
        if m:
            a, b = int(m.group(2)), int(m.group(3))
            if a > b:
                mapping[name] = f"{m.group(1)}[{b},{a}]"
    return obj.rename_params(mapping) if mapping else obj


_SITE_SYM = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[(-?\d+)(?:,(-?\d+))?\]$")


def translate(expr, delta: int, nsites: int):
    """Shift all sites (and site-indexed parameters) by delta, mod nsites."""
    mapping = {}
    for name in expr.parameters():
        m = _SITE_SYM.match(name)
        if not m:
            continue
        base, a, b = m.group(1), int(m.group(2)), m.group(3)
        if b is None:
            mapping[name] = f"{base}[{(a + delta) % nsites}]"
        else:
            mapping[name] = f"{base}[{(a + delta) % nsites},{(int(b) + delta) % nsites}]"
    shifted = expr.rename_params(mapping) if mapping else expr
    if isinstance(shifted, OperatorExpr):
        moved = [
            (
                tuple(
                    LadderOp(f.dagger, (f.site + delta) % nsites, f.flavor)
                    for f in word
                ),
                coeff,
            )
            for word, coeff in shifted.terms()
        ]
        return OperatorExpr(shifted.statistics, moved)
    if isinstance(shifted, FieldPoly):
        moved = [
            (
                [
                    (FieldFactor(f.conj, (f.site + delta) % nsites, f.flavor), exp)
                    for f, exp in mono
                ],
                coeff,
            )
            for mono, coeff in shifted.terms()
        ]
        return FieldPoly(moved)
    raise TypeError(f"cannot translate {type(expr).__name__}")


def xxz_bindings(p: XXZParams) -> dict:
    """Numeric values for every symbol the chain Hamiltonian can contain.

    Pair couplings get their uniform-spacing values J0 - J1 x_xi
    (displacements enter only through the bond length, which is x_xi
    on every bond of a uniform ring).
    """
    out = {
        "s": p.s,
        "hbar": p.hbar,
        "J0": p.J0,
        "J1": p.J1,
        "R0": p.R0,
        "R1": p.R1,
        "x_xi": p.x_xi,
    }
    Jval = p.J0 - p.J1 * p.x_xi
    Rval = p.R0 - p.R1 * p.x_xi
    for j in range(p.N):
        out[f"h[{j}]"] = p.h[j]
        for k in ((j + 1) % p.N, (j - 1) % p.N):
            out[f"J[{j},{k}]"] = Jval
            out[f"R[{j},{k}]"] = Rval
    return out


def hubbard_bindings(p: HubbardParams) -> dict:
    out = {"t": p.t, "hbar": p.hbar}
    for j in range(p.N):
        out[f"U[{j}]"] = p.U[j]
    return out


@dataclass(frozen=True)
class JordanWignerReport:
    """Numerical check of the spin-to-fermion dictionary on an open chain."""

    nsites: int
    identity_holds: bool
    max_deviation: float
    sz_deviation: float
    swapped_product_deviation: float


def verify_jordan_wigner(nsites: int, tol: float = 1e-12) -> JordanWignerReport:
    """Check S+_j S-_{j+sigma} = ad_j a_{j+sigma} and S^z_j = n_j - 1/2.

    Spin 1/2 is the hard-core boson (Matsubara and Matsuda, Prog. Theor.
    Phys. 16, 569, 1956), so S-_j is the bosonic annihilator of
    fock.ladder_matrices at cutoff 1 (basis index 0 is down), S+_j its
    transpose and S^z_j = S+_j S-_j - 1/2.  The fermionic side carries
    the string convention built into fock.ladder_matrices.
    Nearest-neighbour pairs are taken without wrap-around, since the
    string makes the dictionary an open-chain statement.
    swapped_product_deviation reports how far the annihilator-first
    pairing S-_j S+_{j+sigma} is from a_{j+sigma} ad_j; it is not part
    of the identity check.
    """
    if not 2 <= nsites <= 6:
        raise ValueError(f"nsites must be in 2..6, got {nsites}")
    eye = np.eye(2 ** nsites)
    Sm = fock.ladder_matrices(nsites, 1, Statistics.BOSE)
    Sp = [m.T for m in Sm]
    Sz = [up @ down - 0.5 * eye for up, down in zip(Sp, Sm)]
    ann = fock.ladder_matrices(nsites, 1, Statistics.FERMI)
    cre = [m.conj().T for m in ann]

    dev = 0.0
    for j in range(nsites - 1):
        dev = max(dev, np.abs(Sp[j] @ Sm[j + 1] - cre[j] @ ann[j + 1]).max())
    for j in range(1, nsites):
        dev = max(dev, np.abs(Sp[j] @ Sm[j - 1] - cre[j] @ ann[j - 1]).max())
    sz_dev = 0.0
    for j in range(nsites):
        sz_dev = max(sz_dev, np.abs(Sz[j] - (cre[j] @ ann[j] - 0.5 * eye)).max())

    swapped = 0.0
    for j in range(nsites - 1):
        swapped = max(swapped, np.abs(Sm[j] @ Sp[j + 1] - ann[j + 1] @ cre[j]).max())

    worst = max(dev, sz_dev)
    return JordanWignerReport(
        nsites=nsites,
        identity_holds=bool(worst <= tol),
        max_deviation=float(worst),
        sz_deviation=float(sz_dev),
        swapped_product_deviation=float(swapped),
    )


@dataclass(frozen=True)
class StatisticsReport:
    """Bose vs Fermi comparison of the chain equation of motion at one site."""

    site: int
    equal: bool
    linear_equal: bool
    diff: FieldPoly
    cubic_diff: FieldPoly


def verify_statistics_independence(p: XXZParams, site: int = None) -> StatisticsReport:
    """Compare the naive symbols of derive_eom under Bose and Fermi statistics.

    The quadratic (hopping and field) sector of H produces identical
    linear terms either way; the density-density quartics pick up
    reordering signs under anticommutation, so the cubic terms may
    differ.  The report carries the full difference and its cubic part.
    """
    i = p.N // 2 if site is None else site % p.N
    eb = derive_eom(build_xxz_bosonized(p, CouplingMode.SYMBOLIC, Statistics.BOSE), i)
    ef = derive_eom(build_xxz_bosonized(p, CouplingMode.SYMBOLIC, Statistics.FERMI), i)
    nb = naive_symbol(eb)
    nf = naive_symbol(ef)
    diff = nb - nf
    return StatisticsReport(
        site=i,
        equal=diff.is_zero(),
        linear_equal=nb.filter_degree(1) == nf.filter_degree(1),
        diff=diff,
        cubic_diff=diff.filter_degree(3),
    )
