"""The automorphic side: exact formal degrees from scenario combinatorics.

One closed formula, :func:`regular_degree`, gives the q-part of the degree,

    exp_q( dim(G)/2 + dim_quot/2 + (1/2) sum_i r_i (|R_{i+1}| - |R_i|) ).

The depth data enter only through the Howe filtration, read here as it is:
its breaks r_0 < ... < r_{d-1} and its layers (``HoweFiltration.layers``,
layer 0 the nonpositive part, layer i + 1 the orbits of depth r_i).  The
Heisenberg quotients live at the half-breaks s_i = r_i / 2.  dim(G) is
rank + |R|, since the orbit degrees sum to |R|.

The caller chooses the depth-zero term and the prefactor.  For regular
depth-zero data dim_quot is the rank of the torus lattice M, and the
prefactor is the reciprocal special-fiber torus order or the reciprocal
full point index, the two published normalizations; their ratio is the
Kottwitz-style component index.  All three are orders of
:class:`fdc.galois_roots.TorusLatticeData`, read there by the caller.  For
opaque depth-zero data (a dimension and a stabilizer index) dim_quot is
the dimension of the depth-zero reductive quotient and the prefactor is
dim(rho) / index.

Neither form builds the compact induction itself: both evaluate the
closed form of its degree, dim(tau) / vol(K).

The module also exposes the intermediate quantities of the derivation:
per-step Heisenberg dimensions, the volume-normalization exponent
assembled from torsor point counts, and the same exponent from the
closed length identity, so that the two assemblies can be compared.  The
torsor-count assembly sums the one length kernel,
:func:`fdc.mp_filtration.twice_length_to`; the master-length-identity
suite of ``tests/lemmas.py`` takes the identity's left side from the same
kernel and checks it against sum([k_a : k] * f(a)).

Every rational here is an integer pair (numerator, denominator): the
break term comes with the filtration (``HoweFiltration.break_sum``, summed
over the common denominator of the breaks), the halved breaks s_i are
passed on as numerator and denominator, and the two volume exponents are
returned in lowest terms, so they compare as tuples.
"""

from __future__ import annotations

from typing import List, Optional

from .galois_roots import GRootDatum, HoweFiltration
from .mp_filtration import JumpAssignment, jump_length_at, twice_length_to
from .qexact import Frozen, PrimePower, QMonomial, Ratio, exp_q, lowest_terms


# -- the depth layers and depth-zero data ------------------------------------------


def depth_zero_quotient_dim(filtration: HoweFiltration, jumps: JumpAssignment,
                            rank_m: int) -> int:
    """Dimension of the depth-zero reductive quotient: quotient rank plus
    the roots of the zeroth level whose torsor passes through 0."""
    return rank_m + sum(jump_length_at(o, jumps, 0) for o in filtration.layers[0])


class DepthZeroData(Frozen):
    """Either the regular marker or opaque (dim rho, stabilizer index), dim
    rho a reduced pair (numerator, denominator)."""

    __slots__ = ("regular", "dim_rho", "stab_index")

    def __init__(self, regular: bool, dim_rho: Optional[Ratio] = None,
                 stab_index: Optional[int] = None) -> None:
        object.__setattr__(self, "regular", regular)
        object.__setattr__(self, "dim_rho", dim_rho)
        object.__setattr__(self, "stab_index", stab_index)

    @staticmethod
    def regular_marker() -> "DepthZeroData":
        return DepthZeroData(True)

    @staticmethod
    def opaque(dim_rho: Ratio, stab_index: int) -> "DepthZeroData":
        if dim_rho[0] <= 0 or stab_index <= 0:
            raise ValueError("opaque depth-zero data must be positive")
        return DepthZeroData(False, dim_rho, stab_index)


# -- the Heisenberg quotients ------------------------------------------------------


def heisenberg_indices(filtration: HoweFiltration, jumps: JumpAssignment,
                       pp: PrimePower) -> List[QMonomial]:
    """The abelian quotient orders [J^{i+1} : J^{i+1}_+], one per break:
    exp_q of the total jump length of layer i + 1 at s_i = r_i / 2."""
    return [exp_q(sum(jump_length_at(o, jumps, n, 2 * d) for o in layer), pp)
            for (n, d), layer in zip(filtration.breaks, filtration.layers[1:])]


def heisenberg_dims(indices: List[QMonomial]) -> List[QMonomial]:
    """Dimensions of the per-step Heisenberg representations: the square
    roots of the quotient orders :func:`heisenberg_indices` gives
    (half-integral p-exponents are legal).  Halving n/d stays in lowest
    terms as (n/2)/d for even n (then d is odd) and as n/(2d) for odd n."""
    out: List[QMonomial] = []
    for idx in indices:
        n, d = idx.pexp_num, idx.pexp_den
        n, d = (n // 2, d) if n % 2 == 0 else (n, 2 * d)
        out.append(QMonomial(idx.pp, idx.coeff_num, idx.coeff_den, n, d))
    return out


# -- the degree --------------------------------------------------------------------


def regular_degree(datum: GRootDatum, filtration: HoweFiltration, dim_quot: int,
                   pp: PrimePower) -> QMonomial:
    """The q-part of the formal degree: exp_q(dim(G)/2 + dim_quot/2 +
    sum_i s_i (|R_{i+1}| - |R_i|)) with s_i = r_i/2.  ``dim_quot`` is
    rank(M) for regular depth-zero data and the depth-zero quotient
    dimension (:func:`depth_zero_quotient_dim`) for opaque data."""
    num, den = filtration.break_sum
    return exp_q((datum.rank + len(datum.roots) + dim_quot) * den + num, pp, 2 * den)


# -- volume normalization: the two assemblies of one exponent ----------------------


def volume_exponent_raw(filtration: HoweFiltration, jumps: JumpAssignment,
                        dim_quot: int) -> Ratio:
    """Exponent of the inverse volume assembly by torsor point count:
    (the depth-zero quotient dimension, :func:`depth_zero_quotient_dim`,
    plus the sum over each layer i + 1 of :func:`twice_length_to` at s_i) / 2,
    summed in integers and returned in lowest terms."""
    twice = dim_quot
    for (n, d), layer in zip(filtration.breaks, filtration.layers[1:]):
        twice += sum(twice_length_to(o, jumps, n, 2 * d) for o in layer)
    return lowest_terms(twice, 2)


def volume_exponent_closed(filtration: HoweFiltration, dim_quot: int) -> Ratio:
    """The same exponent from the closed length identity, in lowest terms:
    half the depth-zero Levi length plus the break term.  At dim_quot = 0
    it is the break term, (1/2) sum_i r_i (|R_{i+1}| - |R_i|)."""
    num, den = filtration.break_sum
    return lowest_terms(dim_quot * den + num, 2 * den)
