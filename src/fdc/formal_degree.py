"""The automorphic side: exact formal degrees from scenario combinatorics.

Two evaluation routes are provided.  The general route takes opaque
depth-zero inputs (a dimension and a stabilizer index) and evaluates the
closed formula

    dim(rho) / index * exp_q( dim(G)/2 + dim(reductive quotient)/2
                              + (1/2) sum_i r_i (|R_{i+1}| - |R_i|) ).

The depth data enter only through the Howe filtration, read here as it is:
its breaks r_0 < ... < r_{d-1} and its layers (``HoweFiltration.layers``,
layer 0 the nonpositive part, layer i + 1 the orbits of depth r_i).  The
Heisenberg quotients live at the half-breaks s_i = r_i / 2.  dim(G) is
rank + |R|, since the orbit degrees sum to |R|.

The regular route derives the depth-zero contribution from the torus
lattice: the prefactor is the reciprocal of the special-fiber torus order,
and the quotient dimension term degrades to the quotient rank.  The
regular result is produced in both published prefactor normalizations
(special-fiber order versus full point index); their ratio is the
Kottwitz-style component index and is reported, never silently dropped.

The module also exposes the intermediate quantities of the derivation:
per-step Heisenberg dimensions, the volume-normalization exponent
assembled from torsor point counts, and the same exponent from the
closed length identity, so that the two routes can be compared.  The
torsor-count assembly sums the one length kernel,
:func:`fdc.mp_filtration.twice_length_to`; the master-length-identity
suite of ``tests/lemmas.py`` takes the identity's left side from the same
kernel and checks it against sum([k_a : k] * f(a)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from .galois_roots import GRootDatum, HoweFiltration, TorusLatticeData
from .mp_filtration import JumpAssignment, jump_length_at, twice_length_to
from .qexact import Frozen, PrimePower, QMonomial, RationalLike, exp_q


# -- the depth layers and depth-zero data ------------------------------------------


def break_term(filtration: HoweFiltration) -> Fraction:
    """(1/2) sum_i r_i (|R_{i+1}| - |R_i|), the wild part of the exponent,
    with |R_{i+1}| - |R_i| the degree sum of layer i + 1, summed in integers
    over the common denominator of the breaks."""
    breaks = filtration.breaks
    den = math.lcm(*(r.denominator for r in breaks))
    num = sum(r.numerator * (den // r.denominator) * sum(o.degree for o in layer)
              for r, layer in zip(breaks, filtration.layers[1:]))
    return Fraction(num, 2 * den)


def depth_zero_quotient_dim(filtration: HoweFiltration, jumps: JumpAssignment,
                            rank_m: int) -> int:
    """Dimension of the depth-zero reductive quotient: quotient rank plus
    the roots of the zeroth level whose torsor passes through 0."""
    return rank_m + sum(jump_length_at(o, jumps, 0) for o in filtration.layers[0])


class DepthZeroData(Frozen):
    """Either the regular marker or opaque (dim rho, stabilizer index)."""

    __slots__ = ("regular", "dim_rho", "stab_index")

    def __init__(self, regular: bool, dim_rho: Optional[Fraction] = None,
                 stab_index: Optional[int] = None) -> None:
        object.__setattr__(self, "regular", regular)
        object.__setattr__(self, "dim_rho", dim_rho)
        object.__setattr__(self, "stab_index", stab_index)

    @staticmethod
    def regular_marker() -> "DepthZeroData":
        return DepthZeroData(True)

    @staticmethod
    def opaque(dim_rho: RationalLike, stab_index: int) -> "DepthZeroData":
        dim_rho = Fraction(dim_rho)
        if dim_rho <= 0 or stab_index <= 0:
            raise ValueError("opaque depth-zero data must be positive")
        return DepthZeroData(False, dim_rho, stab_index)


# -- elementary degree formulas ---------------------------------------------------


def compact_induction_degree(dim_tau: QMonomial, vol_k: QMonomial) -> QMonomial:
    """Degree of a compact induction: inducing dimension over subgroup volume."""
    if not dim_tau.is_positive or not vol_k.is_positive:
        raise ValueError("dimension and volume must be positive")
    return dim_tau / vol_k


def heisenberg_indices(filtration: HoweFiltration, jumps: JumpAssignment,
                       pp: PrimePower) -> List[QMonomial]:
    """The abelian quotient orders [J^{i+1} : J^{i+1}_+], one per break:
    exp_q of the total jump length of layer i + 1 at s_i = r_i / 2."""
    out: List[QMonomial] = []
    for r, layer in zip(filtration.breaks, filtration.layers[1:]):
        s = Fraction(r.numerator, 2 * r.denominator)
        out.append(exp_q(sum(jump_length_at(o, jumps, s) for o in layer), pp))
    return out


def heisenberg_dims(indices: List[QMonomial]) -> List[QMonomial]:
    """Dimensions of the per-step Heisenberg representations: the square
    roots of the quotient orders :func:`heisenberg_indices` gives
    (half-integral p-exponents are legal)."""
    return [QMonomial(idx.pp, idx.coeff, idx.pexp / 2) for idx in indices]


def general_degree(datum: GRootDatum, filtration: HoweFiltration, dz: DepthZeroData,
                   dim_g0_red: int, pp: PrimePower) -> Tuple[QMonomial, Fraction]:
    """Formal degree from opaque depth-zero data.

    Returns (monomial, rational prefactor) with the monomial
    exp_q(dim(G)/2 + dim_g0_red/2 + break term) and prefactor
    dim(rho) / stabilizer index.
    """
    expo = Fraction(datum.rank + len(datum.roots) + dim_g0_red, 2) + break_term(filtration)
    return exp_q(expo, pp), Fraction(dz.dim_rho, dz.stab_index)


# -- the regular route -------------------------------------------------------------


class RegularDegree(Frozen):
    """Exact regular formal degree with both prefactor normalizations.

    monomial carries the exponential part; the two prefactors divide it by
    the special-fiber torus order and by the full point index respectively.
    Their ratio (the Kottwitz-style fixed-point count on the inertia
    coinvariants) is recorded; a value other than 1 marks the documented
    normalization discrepancy between the two published forms.
    """

    __slots__ = ("monomial", "special_fiber_order", "full_point_index", "discrepancy")

    def __init__(self, monomial: QMonomial, special_fiber_order: int,
                 full_point_index: int, discrepancy: int) -> None:
        object.__setattr__(self, "monomial", monomial)
        object.__setattr__(self, "special_fiber_order", special_fiber_order)
        object.__setattr__(self, "full_point_index", full_point_index)
        object.__setattr__(self, "discrepancy", discrepancy)


def regular_degree(datum: GRootDatum, filtration: HoweFiltration, torus: TorusLatticeData,
                   pp: PrimePower) -> RegularDegree:
    """Formal degree of a regular scenario, from the torus lattice alone.

    The exponent is dim(G)/2 + rank(M)/2 + sum_i s_i (|R_{i+1}| - |R_i|)
    with s_i = r_i/2; the prefactor is the reciprocal special-fiber order
    |det(qF - 1)| or the reciprocal full point index, which is the
    special-fiber order times the Kottwitz fixed count.
    """
    expo = Fraction(datum.rank + len(datum.roots) + torus.rank_m, 2) + break_term(filtration)
    return RegularDegree(
        monomial=exp_q(expo, pp),
        special_fiber_order=torus.special_fiber_order,
        full_point_index=torus.full_point_index,
        discrepancy=torus.kottwitz_fixed_order,
    )


# -- volume normalization: the two assemblies of one exponent ----------------------


def volume_exponent_raw(filtration: HoweFiltration, jumps: JumpAssignment,
                        dim_quot: int) -> Fraction:
    """Exponent of the inverse volume assembly by torsor point count:
    (the depth-zero quotient dimension, :func:`depth_zero_quotient_dim`,
    plus the sum over each layer i + 1 of :func:`twice_length_to` at s_i) / 2,
    summed in integers."""
    twice = dim_quot
    for r, layer in zip(filtration.breaks, filtration.layers[1:]):
        s = Fraction(r.numerator, 2 * r.denominator)
        twice += sum(twice_length_to(o, jumps, s) for o in layer)
    return Fraction(twice, 2)


def volume_exponent_closed(filtration: HoweFiltration, dim_quot: int) -> Fraction:
    """The same exponent from the closed length identity: half the
    depth-zero Levi length plus the break term."""
    return Fraction(dim_quot, 2) + break_term(filtration)
