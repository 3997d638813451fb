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
cocharacter lattice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .galois_roots import (
    DepthValue,
    GaloisFrame,
    GRootDatum,
    HoweFiltration,
    OrbitInfo,
    TorusLatticeData,
)
from .qexact import PrimePower, QMonomial, RationalLike, exp_q

_ZERO = Fraction(0)


# -- characters and conductors -----------------------------------------------------


def conductor_tame_induction(degree: int, depth: Fraction) -> Fraction:
    """Conductor of a tame induction, along an extension of the given
    degree, of a ramified character of the given depth (0 means tamely
    ramified): degree * (1 + depth), the depth measured with the base
    valuation."""
    return Fraction(degree * (depth.denominator + depth.numerator), depth.denominator)


def eps_abs(cond: RationalLike, pp: PrimePower) -> QMonomial:
    """|epsilon| = q^(cond/2) in the level-zero, self-dual normalization."""
    if cond < 0:
        raise ValueError("conductor must be nonnegative")
    return exp_q(Fraction(cond.numerator, 2 * cond.denominator), pp)


def psi_depth(theta_depth: DepthValue) -> Fraction:
    """Depth of the inducing character of a root summand: equal to the
    orbit's positive depth, and exactly 0 on the nonpositive part, the
    one depth value that is a string (the ``NONPOSITIVE`` marker)."""
    return _ZERO if isinstance(theta_depth, str) else theta_depth


# -- the two adjoint summands --------------------------------------------------------


@dataclass(frozen=True)
class ToralGamma:
    monomial: QMonomial
    rational: Fraction
    l0_inverse: int          # |L(0)|^-1 = coinvariant order of Frobenius on M
    l1_inverse_twisted: int  # q^dim(M) |L(1)|^-1 = twisted fixed order


def toral_gamma_abs(torus: TorusLatticeData, dim_sa: int, pp: PrimePower) -> ToralGamma:
    """|gamma| of the toral summand: exp_q((dim S + dim M)/2) times
    (Frobenius coinvariants of M) / (twisted fixed points of its dual)."""
    mono = exp_q(Fraction(dim_sa + torus.rank_m, 2), pp)
    return ToralGamma(
        monomial=mono,
        rational=Fraction(torus.m_frob_coinvariants, torus.special_fiber_order),
        l0_inverse=torus.m_frob_coinvariants,
        l1_inverse_twisted=torus.special_fiber_order,
    )


@dataclass(frozen=True)
class RootGamma:
    monomial: QMonomial
    orbit_conductors: Tuple[Tuple[str, Fraction], ...]


def root_gamma_abs(filtration: HoweFiltration, orbits: Sequence[OrbitInfo],
                   pp: PrimePower) -> RootGamma:
    """|gamma| of the root summand.

    Every inducing character is ramified (depth equal to the orbit's break,
    zero on the nonpositive part), so the L-factors are trivial and the
    answer is the product of the orbits' epsilon magnitudes.  The conductor
    of a direct sum is the sum of the conductors, so that product is the
    one epsilon magnitude of the summed conductor, added up in integers over
    the common denominator.  No check is lost by taking it once: each
    conductor is at least its orbit degree, which is positive, because
    loading refuses nonpositive depths other than the marker.
    """
    conductors = tuple(
        (o.orbit_id, conductor_tame_induction(o.degree, psi_depth(filtration.depth_of_orbit(o))))
        for o in orbits)
    den = math.lcm(*(c.denominator for _, c in conductors))
    total = sum(c.numerator * (den // c.denominator) for _, c in conductors)
    return RootGamma(monomial=eps_abs(Fraction(total, den), pp),
                     orbit_conductors=conductors)


# -- the assembled Galois side ----------------------------------------------------


@dataclass(frozen=True)
class GaloisSide:
    monomial: QMonomial
    prefactor: Fraction
    toral: ToralGamma
    root: RootGamma
    component_order: int


def galois_side(datum: GRootDatum, frame: GaloisFrame, filtration: HoweFiltration,
                orbits: Sequence[OrbitInfo], torus: TorusLatticeData) -> GaloisSide:
    """Assembled Galois-side value: (toral gamma * root gamma) divided by
    the component-group order (the full cocharacter coinvariants, finite by
    ellipticity)."""
    toral = toral_gamma_abs(torus, datum.rank, frame.pp)
    root = root_gamma_abs(filtration, orbits, frame.pp)
    comp = torus.cochar_full_coinvariants
    return GaloisSide(
        monomial=toral.monomial * root.monomial,
        prefactor=toral.rational / comp,
        toral=toral,
        root=root,
        component_order=comp,
    )
