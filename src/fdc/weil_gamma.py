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

The exponents are summed in integers; a ``Fraction`` is built once for
each conductor, for the toral rational and for the prefactor, the values
whose type is ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple

from .galois_roots import (
    GaloisFrame,
    GRootDatum,
    HoweFiltration,
    OrbitInfo,
    TorusLatticeData,
)
from .qexact import Frozen, PrimePower, QMonomial, RationalLike, exp_q

_ZERO = Fraction(0)


# -- characters and conductors -----------------------------------------------------


def conductor_tame_induction(degree: int, depth: Fraction) -> Fraction:
    """Conductor of a tame induction, along an extension of the given
    degree, of a ramified character of the given depth (0 means tamely
    ramified): degree * (1 + depth), the depth measured with the base
    valuation."""
    return Fraction(degree * (depth.denominator + depth.numerator), depth.denominator)


def eps_abs(cond: RationalLike, pp: PrimePower, den: int = 1) -> QMonomial:
    """|epsilon| = q^(c/2) for the conductor c = cond / den (den > 0), in
    the level-zero, self-dual normalization."""
    if cond < 0:
        raise ValueError("conductor must be nonnegative")
    return exp_q(cond.numerator, pp, 2 * cond.denominator * den)


# -- the two adjoint summands --------------------------------------------------------


class ToralGamma(Frozen):
    """``l0_inverse`` is |L(0)|^-1, the coinvariant order of Frobenius on M;
    ``l1_inverse_twisted`` is q^dim(M) |L(1)|^-1, the twisted fixed order."""

    __slots__ = ("monomial", "rational", "l0_inverse", "l1_inverse_twisted")

    def __init__(self, monomial: QMonomial, rational: Fraction, l0_inverse: int,
                 l1_inverse_twisted: int) -> None:
        object.__setattr__(self, "monomial", monomial)
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "l0_inverse", l0_inverse)
        object.__setattr__(self, "l1_inverse_twisted", l1_inverse_twisted)


def toral_gamma_abs(torus: TorusLatticeData, dim_sa: int, pp: PrimePower) -> ToralGamma:
    """|gamma| of the toral summand: exp_q((dim S + dim M)/2) times
    (Frobenius coinvariants of M) / (twisted fixed points of its dual)."""
    return ToralGamma(
        monomial=exp_q(dim_sa + torus.rank_m, pp, 2),
        rational=Fraction(torus.m_frob_coinvariants, torus.special_fiber_order),
        l0_inverse=torus.m_frob_coinvariants,
        l1_inverse_twisted=torus.special_fiber_order,
    )


class RootGamma(Frozen):
    __slots__ = ("monomial", "orbit_conductors")

    def __init__(self, monomial: QMonomial,
                 orbit_conductors: Tuple[Tuple[str, Fraction], ...]) -> None:
        object.__setattr__(self, "monomial", monomial)
        object.__setattr__(self, "orbit_conductors", orbit_conductors)


def root_gamma_abs(filtration: HoweFiltration, orbits: Sequence[OrbitInfo],
                   pp: PrimePower) -> RootGamma:
    """|gamma| of the root summand.

    Every inducing character is ramified, of depth the orbit's break
    (:meth:`HoweFiltration.orbit_breaks`), or 0 for an orbit of the
    nonpositive part, which has none; so the L-factors are trivial and the
    answer is the product of the orbits' epsilon magnitudes.  The conductor
    of a direct sum is the sum of the conductors, so that product is the
    one epsilon magnitude of the summed conductor, added up in integers over
    the common denominator.  No check is lost by taking it once: each
    conductor is at least its orbit degree, which is positive, because
    loading refuses nonpositive depths other than the marker.
    """
    breaks = filtration.orbit_breaks()
    conductors = tuple(
        (o.orbit_id, conductor_tame_induction(o.degree, breaks.get(o.orbit_id, _ZERO)))
        for o in orbits)
    den = math.lcm(*(c.denominator for _, c in conductors))
    total = sum(c.numerator * (den // c.denominator) for _, c in conductors)
    return RootGamma(monomial=eps_abs(total, pp, den),
                     orbit_conductors=conductors)


# -- the assembled Galois side ----------------------------------------------------


class GaloisSide(Frozen):
    __slots__ = ("monomial", "prefactor", "toral", "root", "component_order")

    def __init__(self, monomial: QMonomial, prefactor: Fraction, toral: ToralGamma,
                 root: RootGamma, component_order: int) -> None:
        object.__setattr__(self, "monomial", monomial)
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(self, "toral", toral)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "component_order", component_order)


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
        prefactor=Fraction(toral.l0_inverse, toral.l1_inverse_twisted * comp),
        toral=toral,
        root=root,
        component_order=comp,
    )
