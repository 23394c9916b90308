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
from .symbolmap import FieldPoly, naive_symbol, ordering_correction


class CouplingMode(Enum):
    """How bond couplings enter the symbolic Hamiltonian."""

    SYMBOLIC = "symbolic"    # one parameter J[p,q] per ordered bond
    EXPANDED = "expanded"    # first-order form J0 - J1 x_xi, uniform bonds


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_ring(p, finite, field: str) -> None:
    """Check p's N and hbar, that hbar and the scalars named in finite are
    finite, and its per-site field, which becomes a tuple of N floats: a
    number, or None for 0, is one value for every site."""
    if not isinstance(p.N, int) or p.N < 2:
        raise ValueError(f"need at least 2 sites, got N={p.N!r}")
    if p.hbar <= 0:
        raise ValueError(f"hbar must be positive, got {p.hbar!r}")
    for name in (*finite, "hbar"):
        _require_finite(name, getattr(p, name))
    values = getattr(p, field)
    if values is None or isinstance(values, (int, float)):
        values = (float(values or 0.0),) * p.N
    else:
        values = tuple(float(v) for v in values)
        if len(values) != p.N:
            raise ValueError(
                f"{field} must have one entry per site ({p.N}), got {len(values)}")
    for v in values:
        _require_finite(field, v)
    object.__setattr__(p, field, values)


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
        if self.s <= 0:
            raise ValueError(f"spin magnitude must be positive, got s={self.s!r}")
        _check_ring(self, ("J0", "J1", "R0", "R1", "s", "x_xi"), "h")


@dataclass(frozen=True)
class HubbardParams:
    """Parameters of the two-flavor Hubbard ring."""

    N: int = 8
    t: float = 1.0
    U: tuple = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        _check_ring(self, ("t",), "U")


_HALF = ParamCoeff.rational(1, 2)


def _coupling(base: str, p: int, q: int, mode: CouplingMode) -> ParamCoeff:
    if mode is CouplingMode.SYMBOLIC:
        return ParamCoeff.symbol(f"{base}[{p},{q}]")
    return (
        ParamCoeff.symbol(f"{base}0")
        - ParamCoeff.symbol(f"{base}1") * ParamCoeff.symbol("x_xi")
    )


def _ladder(nsites: int, flavor: int = 0):
    """The creators and the annihilators of one flavor, indexed by site."""
    return (
        [LadderOp(True, j, flavor) for j in range(nsites)],
        [LadderOp(False, j, flavor) for j in range(nsites)],
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

    Terms are emitted as raw words, as the formula writes them (n_k n_j
    is ad_k a_k ad_j a_j; the density product gives four terms), and the
    OperatorExpr constructor puts them into canonical form.  Hop
    products are written in normal order; for bosons that form is
    canonically identical to the annihilator-first writing, and for
    fermions it is the reading consistent with the commutators the
    model is meant to produce (the annihilator-first writing would
    cancel identically under anticommutation).
    """
    N = p.N
    ad, a = _ladder(N)
    s = ParamCoeff.symbol("s")
    s2 = s * s

    def terms():
        for j in range(N):
            for sigma in (1, -1):
                k = (j + sigma) % N
                hop = -(_HALF * s * _coupling("J", k, j, mode))
                yield (ad[j], a[k]), hop
                yield (ad[k], a[j]), hop
                # -(1/2) R (s - n_k)(s - n_j)
                half_R = _HALF * _coupling("R", k, j, mode)
                s_half_R = s * half_R
                yield (), -(s2 * half_R)
                yield (ad[j], a[j]), s_half_R
                yield (ad[k], a[k]), s_half_R
                yield (ad[k], a[k], ad[j], a[j]), -half_R
        for j in range(N):
            hj = ParamCoeff.symbol(f"h[{j}]")
            yield (), -(s * hj)
            yield (ad[j], a[j]), hj

    return OperatorExpr(statistics, terms())


def build_hubbard_hop(p: HubbardParams, statistics: Statistics = Statistics.FERMI) -> OperatorExpr:
    """H1 = -t sum_{sigma,j,kappa} (ad_{j,kappa} a_{j+sigma,kappa} + ad_{j+sigma,kappa} a_{j,kappa}).

    Terms are emitted as raw words that the constructor puts into canonical form.
    """
    N = p.N
    minus_t = -ParamCoeff.symbol("t")

    def terms():
        for kappa in (0, 1):
            ad, a = _ladder(N, kappa)
            for j in range(N):
                for k in ((j + 1) % N, (j - 1) % N):
                    yield (ad[j], a[k]), minus_t
                    yield (ad[k], a[j]), minus_t

    return OperatorExpr(statistics, terms())


def build_hubbard_interaction(p: HubbardParams, statistics: Statistics = Statistics.FERMI) -> OperatorExpr:
    """H2 = sum_j U_j n_{j,1} n_{j,0}.

    Terms are emitted as raw words that the constructor puts into canonical form.
    """
    ad0, a0 = _ladder(p.N, 0)
    ad1, a1 = _ladder(p.N, 1)
    return OperatorExpr(statistics, (
        ((ad1[j], a1[j], ad0[j], a0[j]), ParamCoeff.symbol(f"U[{j}]"))
        for j in range(p.N)
    ))


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

    The site (and flavor, where applicable) must occur in H.  A word on
    the mode shows both, so H is scanned again only when the filter met
    none, to tell whether one of them is missing.
    """
    fermi = H.fermi
    on_mode = False

    def keep(w):
        nonlocal on_mode
        for f in w:
            if f.site == site and f.flavor == flavor:
                on_mode = True
                return True
        return fermi and len(w) % 2 == 1

    part = H.filter_words(keep)
    if not on_mode:
        if site not in H.sites():
            raise ValueError(f"site {site} does not occur in the Hamiltonian")
        flavors = H.flavors()
        if flavors and flavor not in flavors:
            raise ValueError(f"flavor {flavor} does not occur in the Hamiltonian")
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
    correction (1/2)(R[i,i+1] + R[i,i-1]) phi_i.  Canonical form
    applies no commutation relation, so those words stay as written.
    """
    N = p.N
    i = site % N
    ip, im = (i + 1) % N, (i - 1) % N
    a_i, a_p, a_m = LadderOp(False, i), LadderOp(False, ip), LadderOp(False, im)
    ad_p, ad_m = LadderOp(True, ip), LadderOp(True, im)
    s = ParamCoeff.symbol("s")

    def J(a, b):
        return _coupling("J", a, b, mode)

    def R(a, b):
        return _coupling("R", a, b, mode)

    return OperatorExpr(statistics, [
        ((a_p,), _HALF * s * (J(ip, i) + J(i, ip))),
        ((a_m,), _HALF * s * (J(im, i) + J(i, im))),
        ((a_i,), -(_HALF * s * (R(i, ip) + R(i, im)))),
        ((a_i,), -(_HALF * s * (R(ip, i) + R(im, i)))),
        ((ad_p, a_p, a_i), _HALF * R(ip, i)),
        ((ad_m, a_m, a_i), _HALF * R(im, i)),
        ((a_p, ad_p, a_i) if reversed_pairs else (ad_p, a_p, a_i), _HALF * R(i, ip)),
        ((a_m, ad_m, a_i) if reversed_pairs else (ad_m, a_m, a_i), _HALF * R(i, im)),
        ((a_i,), -ParamCoeff.symbol(f"h[{i}]")),
    ])


def hubbard_commutator_reference(
    p: HubbardParams,
    site: int,
    flavor: int,
    part: str = "hop",
    statistics: Statistics = Statistics.FERMI,
) -> OperatorExpr:
    """Closed-form [H1, a_{i,kappa}] or [H2, a_{i,kappa}], as raw words."""
    N = p.N
    i = site % N
    if part == "hop":
        two_t = ParamCoeff.rational(2) * ParamCoeff.symbol("t")
        return OperatorExpr(statistics, [
            ((LadderOp(False, (i + 1) % N, flavor),), two_t),
            ((LadderOp(False, (i - 1) % N, flavor),), two_t),
        ])
    if part == "interaction":
        other = 1 - flavor
        word = (LadderOp(False, i, flavor), LadderOp(True, i, other), LadderOp(False, i, other))
        return OperatorExpr(statistics, [(word, -ParamCoeff.symbol(f"U[{i}]"))])
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


def verify_jordan_wigner(nsites: int, tol: float = 1e-12) -> JordanWignerReport:
    """Check S+_j S-_{j+sigma} = ad_j a_{j+sigma} and S^z_j = n_j - 1/2.

    Spin 1/2 is the hard-core boson (Matsubara and Matsuda, Prog. Theor.
    Phys. 16, 569, 1956), so S-_j is the bosonic annihilator of
    fock.ladder_matrices at cutoff 1 (basis index 0 is down), S+_j its
    transpose and S^z_j = S+_j S-_j - 1/2.  The fermionic side carries
    the string convention built into fock.ladder_matrices.
    Nearest-neighbour pairs are taken without wrap-around, since the
    string makes the dictionary an open-chain statement.
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

    worst = max(dev, sz_dev)
    return JordanWignerReport(
        nsites=nsites,
        identity_holds=bool(worst <= tol),
        max_deviation=float(worst),
        sz_deviation=float(sz_dev),
    )


@dataclass(frozen=True)
class StatisticsReport:
    """Bose vs Fermi comparison of the chain equation of motion at one site."""

    site: int
    equal: bool
    linear_equal: bool
    diff: FieldPoly
    cubic_diff: FieldPoly


def verify_statistics_independence(
    p: XXZParams, site: int = None, bose_eom: OperatorExpr = None
) -> StatisticsReport:
    """Compare the naive symbols of derive_eom under Bose and Fermi statistics.

    The quadratic (hopping and field) sector of H produces identical
    linear terms either way; the density-density quartics pick up
    reordering signs under anticommutation, so the cubic terms may
    differ.  The report carries the full difference and its cubic part.
    A caller that has already derived the Bose side, derive_eom of the
    symbolic Bose chain at the report's site, passes it as bose_eom;
    otherwise that chain is built here.
    """
    i = p.N // 2 if site is None else site % p.N
    eb = bose_eom
    if eb is None:
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


def derivation_checks(N: int, site: int = None, jw_sites: int = 4):
    """Yield (name, passed, detail) for each check of verify-derivation, in order.

    The symbolic N-site chain meets its reference at every site, or at
    `site` alone; the other checks read its middle site, whose equation
    and reference are derived once.  jw_sites sizes the Jordan-Wigner space.
    """
    p = XXZParams(N=N)
    sites = range(N) if site is None else [int(site) % N]
    H = build_xxz_bosonized(p, CouplingMode.SYMBOLIC)
    mid = N // 2
    eom_mid = derive_eom(H, mid)
    ref_mid = xxz_commutator_reference(p, mid, CouplingMode.SYMBOLIC)
    ok = all(
        (eom_mid == ref_mid) if i == mid else (
            derive_eom(H, i) == xxz_commutator_reference(p, i, CouplingMode.SYMBOLIC))
        for i in sites
    )
    yield "chain-commutator-all-sites", ok, f"N={N}"

    He = build_xxz_bosonized(p, CouplingMode.EXPANDED)
    ok = derive_eom(He, mid) == xxz_commutator_reference(p, mid, CouplingMode.EXPANDED)
    yield "chain-commutator-expanded", ok, f"site={mid}"

    ref_printed = xxz_commutator_reference(p, mid, CouplingMode.SYMBOLIC, reversed_pairs=True)
    gap = ref_printed.normal_order() - ref_mid
    corr = ordering_correction(ref_printed)
    ok = gap.degree() <= 1 and naive_symbol(gap) == corr
    yield "printed-order-accounting", ok, f"correction = {corr}"

    merged = isotropy_merge(naive_symbol(eom_mid))
    yield "merged-equation-of-motion", merged == eqmotannih_reference(p, mid), f"site={mid}"

    p3 = XXZParams(N=3, J0=1.0, R0=0.7, s=1.0, h=(0.2, -0.1, 0.4))
    H3 = build_xxz_bosonized(p3, CouplingMode.SYMBOLIC)
    bind = xxz_bindings(p3)
    cutoff, margin = 4, 2
    alg3 = Algebra(Statistics.BOSE, 3)
    Hm = fock.to_matrix(H3, 3, cutoff, bind)
    mask = fock.interior_mask(3, cutoff, margin)
    dev = 0.0
    for i in range(3):
        a_m = fock.to_matrix(alg3.a(i), 3, cutoff, bind)
        comm = Hm @ a_m - a_m @ Hm
        eom_m = fock.to_matrix(derive_eom(H3, i), 3, cutoff, bind)
        dev = max(dev, fock.max_interior_diff(comm, eom_m, mask))
    yield "matrix-oracle", dev <= 1e-10, f"max deviation {dev:.3e}"

    jw = verify_jordan_wigner(jw_sites)
    yield ("jordan-wigner-identity", jw.identity_holds,
           f"nsites={jw.nsites}, max deviation {jw.max_deviation:.3e}")

    stat = verify_statistics_independence(p, mid, bose_eom=eom_mid)
    yield ("statistics-independence-linear", stat.linear_equal,
           "cubic sector also equal" if stat.equal else "cubic sector differs")

    ph = HubbardParams(N=5)
    ok = True
    for stats in (Statistics.BOSE, Statistics.FERMI):
        parts = (("hop", build_hubbard_hop(ph, statistics=stats)),
                 ("interaction", build_hubbard_interaction(ph, statistics=stats)))
        for flavor in (0, 1):
            for part, H in parts:
                ref = hubbard_commutator_reference(ph, 2, flavor, part, statistics=stats)
                ok &= derive_eom(H, 2, flavor=flavor) == ref
    yield "hubbard-commutators", ok, "hop and interaction, both statistics"
