"""The Galois side: conductors, epsilon magnitudes, and adjoint gamma factors.

The adjoint representation of a scenario splits into a toral summand
(the complexified character lattice) and a root summand (one monomial
representation per root orbit).  Only absolute values are computed, so a
gamma factor reduces to a conductor and two L-factor magnitudes.

The root summand is the product over root orbits of the epsilon
magnitudes of their tame-induction conductors (Gross-Reeder); it never
reads the break term of the automorphic side, so a wrong conductor shows
up as an UNEQUAL verdict.  The final assembler divides the product of the
summands by the component-group order (the full coinvariants of the
cocharacter lattice).  That order and the two L-factor orders of the toral
summand are fields of :class:`fdc.galois_roots.TorusLatticeData`, read
there each time; the records here keep only the values computed from them.

Every rational here is a reduced integer pair (numerator, denominator):
each conductor, the toral rational and the prefactor.  The exponents are
summed in integers over a common denominator.
"""

from __future__ import annotations

import math
from typing import Tuple

from .galois_roots import (
    GaloisFrame,
    GRootDatum,
    HoweFiltration,
    TorusLatticeData,
)
from .qexact import Frozen, PrimePower, QMonomial, Ratio, exp_q, lowest_terms


# -- characters and conductors -----------------------------------------------------


def conductor_tame_induction(degree: int, depth: Ratio) -> Ratio:
    """Conductor of a tame induction, along an extension of the given
    degree, of a ramified character of the given depth n/d (0 means tamely
    ramified): degree * (1 + depth), the depth measured with the base
    valuation, in lowest terms.  (d + n)/d is in lowest terms with n/d, so
    only the degree can share a factor with d."""
    n, d = depth
    return lowest_terms(degree * (d + n), d)


def eps_abs(num: int, pp: PrimePower, den: int = 1) -> QMonomial:
    """|epsilon| = q^(c/2) for the conductor c = num / den (den > 0), in
    the level-zero, self-dual normalization."""
    if num < 0:
        raise ValueError("conductor must be nonnegative")
    return exp_q(num, pp, 2 * den)


# -- the two adjoint summands --------------------------------------------------------


class ToralGamma(Frozen):
    __slots__ = ("monomial", "rational")

    def __init__(self, monomial: QMonomial, rational: Ratio) -> None:
        object.__setattr__(self, "monomial", monomial)
        object.__setattr__(self, "rational", rational)


def toral_gamma_abs(torus: TorusLatticeData, dim_sa: int, pp: PrimePower) -> ToralGamma:
    """|gamma| of the toral summand: exp_q((dim S + dim M)/2) times
    |L(0)|^-1 / (q^dim(M) |L(1)|^-1), the Frobenius coinvariant order of M
    over the twisted fixed order of its dual."""
    return ToralGamma(
        monomial=exp_q(dim_sa + torus.rank_m, pp, 2),
        rational=lowest_terms(torus.m_frob_coinvariants, torus.special_fiber_order),
    )


class RootGamma(Frozen):
    __slots__ = ("monomial", "orbit_conductors")

    def __init__(self, monomial: QMonomial,
                 orbit_conductors: Tuple[Tuple[str, Ratio], ...]) -> None:
        object.__setattr__(self, "monomial", monomial)
        object.__setattr__(self, "orbit_conductors", orbit_conductors)


def root_gamma_abs(filtration: HoweFiltration, pp: PrimePower) -> RootGamma:
    """|gamma| of the root summand, one conductor per orbit, in orbit order.

    Every inducing character is ramified, of depth the orbit's break
    (``HoweFiltration.orbit_breaks``), or 0 for an orbit of the
    nonpositive part, which has none; so the L-factors are trivial and the
    answer is the product of the orbits' epsilon magnitudes.  The conductor
    of a direct sum is the sum of the conductors, so that product is the
    one epsilon magnitude of the summed conductor, added up in integers over
    the common denominator.  No check is lost by taking it once: each
    conductor is at least its orbit degree, which is positive, because
    loading refuses nonpositive depths other than the marker.
    """
    conductors = tuple(
        (o.orbit_id, conductor_tame_induction(o.degree, (0, 1) if r is None else r))
        for o, r in filtration.orbit_breaks)
    den = math.lcm(*(d for _, (_, d) in conductors))
    total = sum(n * (den // d) for _, (n, d) in conductors)
    return RootGamma(monomial=eps_abs(total, pp, den),
                     orbit_conductors=conductors)


# -- the assembled Galois side ----------------------------------------------------


class GaloisSide(Frozen):
    __slots__ = ("monomial", "prefactor", "toral", "root")

    def __init__(self, monomial: QMonomial, prefactor: Ratio, toral: ToralGamma,
                 root: RootGamma) -> None:
        object.__setattr__(self, "monomial", monomial)
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(self, "toral", toral)
        object.__setattr__(self, "root", root)


def galois_side(datum: GRootDatum, frame: GaloisFrame, filtration: HoweFiltration,
                torus: TorusLatticeData) -> GaloisSide:
    """Assembled Galois-side value: (toral gamma * root gamma) divided by
    the component-group order (the full cocharacter coinvariants, finite by
    ellipticity).  The three orders of the prefactor are read from the
    torus: |L(0)|^-1 over q^dim(M) |L(1)|^-1 times the component-group
    order."""
    toral = toral_gamma_abs(torus, datum.rank, frame.pp)
    root = root_gamma_abs(filtration, frame.pp)
    return GaloisSide(
        monomial=toral.monomial * root.monomial,
        prefactor=lowest_terms(torus.m_frob_coinvariants,
                               torus.special_fiber_order * torus.cochar_full_coinvariants),
        toral=toral,
        root=root,
    )
