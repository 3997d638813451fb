"""Jump torsors and the length bookkeeping of filtrations.

Filtration indices live in the Bruhat-Tits extension of the rationals:
each index is either r, or r+ (infinitesimally above r), or infinity.
The jump set of a root orbit is a torsor under (1/e)Z, recorded by a
single offset; the length of a filtration step at t is the orbit's
residue degree when t lies in the torsor and zero otherwise.

Torsor points in an interval are counted in closed form, and
:func:`twice_length_to` is the one length kernel: the volume exponent of
``verify`` sums it, and the master length identity of ``tests/lemmas.py``
takes its left side from it.

The module also supplies concavity checking for functions on R u {0},
step functions attached to admissible depth sequences, the interpolation
chain between two admissible sequences, and the resulting exact order of a
filtration quotient as a power of q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .galois_roots import GRootDatum, HoweFiltration, OrbitInfo
from .qexact import Frozen, PrimePower, QMonomial, RationalLike, Value, exp_q


# -- extended indices ----------------------------------------------------------


class Infinity:
    """The one infinite value: the top index of a filtration here, an
    infinite group order in the tests' lattice route.  It lies above every
    index and absorbs addition."""

    _instance: Optional["Infinity"] = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is INFINITY

    def __add__(self, other) -> "Infinity":
        return self

    def __radd__(self, other) -> "Infinity":
        return self

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = Infinity()


class ExtIndex(Value):
    """Index r or r+ in the extended totally ordered index set.

    Ordering: r < r+ < s for r < s; INFINITY is maximal.  Addition follows
    the Bruhat-Tits convention r+ + s = (r+s)+.
    """

    __slots__ = ("r", "plus")

    def __init__(self, r: Fraction, plus: bool = False) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "plus", plus)

    def __lt__(self, other: "ExtIndexLike") -> bool:
        if other is INFINITY:
            return True
        return (self.r, self.plus) < (other.r, other.plus)  # False < True

    def __le__(self, other: "ExtIndexLike") -> bool:
        return self < other or self == other

    def __add__(self, other: "ExtIndexLike") -> "ExtIndexLike":
        if other is INFINITY:
            return INFINITY
        return ExtIndex(self.r + other.r, self.plus or other.plus)


ExtIndexLike = Union[ExtIndex, Infinity]


def at(r: RationalLike) -> ExtIndex:
    return ExtIndex(Fraction(r), False)


def just_above(r: RationalLike) -> ExtIndex:
    return ExtIndex(Fraction(r), True)


def as_ext(x: Union[RationalLike, ExtIndexLike]) -> ExtIndexLike:
    if x is INFINITY or isinstance(x, ExtIndex):
        return x
    return at(x)


# -- jump assignments ------------------------------------------------------------


class JumpAssignment(Frozen):
    """Per-orbit offsets of the jump torsors, canonicalized into [0, 1/e).

    The jump set of orbit a is offset + (1/e)Z; negation sends the torsor
    of a to minus the torsor of -a, which forces offset(-a) = -offset(a)
    modulo (1/e)Z.  That symmetry is validated against the orbit list.
    """

    __slots__ = ("offsets",)

    def __init__(self, offsets: Mapping[str, Fraction]) -> None:
        object.__setattr__(self, "offsets", offsets)  # orbit_id -> canonical offset

    @staticmethod
    def build(offsets: Mapping[str, RationalLike], orbits: Sequence[OrbitInfo]) -> "JumpAssignment":
        by_id = {o.orbit_id: o for o in orbits}
        if set(offsets.keys()) != set(by_id.keys()):
            raise ValueError("jump offsets must cover exactly the orbits")
        canon: Dict[str, Fraction] = {}
        for oid, val in offsets.items():
            # n/d mod 1/e is ((n e) mod d) / (d e)
            e, n, d = by_id[oid].e, val.numerator, val.denominator
            canon[oid] = Fraction(n * e % d, d * e)
        for oid, o in by_id.items():
            a, b = canon[oid], canon[o.negation_id]
            # e (a + b) = e (na db + nb da) / (da db) must be an integer
            if (a.numerator * b.denominator + b.numerator * a.denominator) * o.e \
                    % (a.denominator * b.denominator):
                raise ValueError("offsets of %s and %s are not negation-symmetric"
                                 % (oid, o.negation_id))
        return JumpAssignment(canon)

    def offset(self, orbit: OrbitInfo) -> Fraction:
        return self.offsets[orbit.orbit_id]

    def contains(self, orbit: OrbitInfo, t: RationalLike) -> bool:
        """Whether t lies in offset + (1/e)Z: for t = n/d and offset a/b,
        t - offset = (n b - a d) / (d b) lies in (1/e)Z exactly when d b
        divides e (n b - a d)."""
        off = self.offsets[orbit.orbit_id]
        n, d, a, b = t.numerator, t.denominator, off.numerator, off.denominator
        return (n * b - a * d) * orbit.e % (d * b) == 0


def jump_length_at(orbit: OrbitInfo, jumps: JumpAssignment, t: RationalLike) -> int:
    """Length of the one-step filtration quotient of the orbit space at t:
    the residue degree if t lies in the jump torsor, else 0."""
    return orbit.f if jumps.contains(orbit, t) else 0


def count_torsor_points(orbit: OrbitInfo, jumps: JumpAssignment,
                        lo: ExtIndexLike, hi: ExtIndexLike) -> int:
    """Number of torsor points t with lo <= t < hi (extended endpoints)."""
    return _torsor_point_count(jumps.offset(orbit), orbit.e, lo, hi)


def _torsor_point_count(off: Fraction, e: int, lo: ExtIndexLike, hi: ExtIndexLike) -> int:
    """Number of points t of off + (1/e)Z with lo <= t < hi.

    The points at or above an index x are off + k/e for
    k >= ``_first_point(off, e, x)``, so the points in [lo, hi) are those with
    ``_first_point(off, e, lo) <= k < _first_point(off, e, hi)``: one floor
    division per endpoint, however many points lie between.
    """
    if hi is INFINITY or lo is INFINITY:
        raise ValueError("unbounded interval")
    return max(0, _first_point(off, e, hi) - _first_point(off, e, lo))


def _first_point(off: Fraction, e: int, x: ExtIndex) -> int:
    """The least k with off + k/e >= x in the extended order.

    For x = r, off + k/e >= r exactly when k >= e (r - off), so k is the
    ceiling of e (r - off); for x = r+, off + k/e > r exactly when
    k > e (r - off), so k is its floor plus one.
    """
    r = x.r
    num = e * (r.numerator * off.denominator - off.numerator * r.denominator)
    den = r.denominator * off.denominator
    return num // den + 1 if x.plus else -(-num // den)


def twice_length_to(orbit: OrbitInfo, jumps: JumpAssignment, t: RationalLike) -> int:
    """Twice the length of the orbit space from 0 to t with both endpoints
    weighted one half: 2 f #(torsor points in (0, t)) + len(0) + len(t).

    This is the left side of the master length identity for one orbit; the
    volume exponent by torsor point count sums it over each layer, so the
    identity's randomized suite checks the code ``verify`` runs.
    """
    return (2 * orbit.f * count_torsor_points(orbit, jumps, just_above(0), at(t))
            + jump_length_at(orbit, jumps, 0) + jump_length_at(orbit, jumps, t))


# -- concave functions -----------------------------------------------------------


def is_concave(f: Mapping[Tuple[int, ...], Union[RationalLike, ExtIndexLike]],
               datum: GRootDatum) -> bool:
    """Test f(sum a_i) <= sum f(a_i) over families in R u {0} landing in R u {0}.

    Minimal family costs are computed by relaxation over chains whose
    partial sums stay inside R u {0}; for root systems any family admits
    such a reordering, so |R| + 1 relaxation rounds decide concavity at the
    supported scale (rank <= 4).
    """
    zero = tuple([0] * datum.rank)
    points: List[Tuple[int, ...]] = sorted(datum.roots) + [zero]
    fv: Dict[Tuple[int, ...], ExtIndexLike] = {}
    for pt in points:
        if pt not in f:
            raise ValueError("f is not defined at %s" % (pt,))
        fv[pt] = as_ext(f[pt])
    # sums of pairs that stay inside the domain
    sums = []
    for u in points:
        for w in points:
            s = tuple(x + y for x, y in zip(u, w))
            if s in fv:
                sums.append((u, w, s))
    cost: Dict[Tuple[int, ...], ExtIndexLike] = dict(fv)
    for _ in range(len(datum.roots) + 1):
        changed = False
        for u, w, s in sums:
            cand = cost[u] + fv[w]
            if cand < cost[s]:
                cost[s] = cand
                changed = True
        if not changed:
            break
    else:
        # still relaxing after |R|+1 rounds: a negative-cost cycle exists
        return False
    # relaxed to a fixed point: a family beats f(s) exactly when it lowered s
    return all(cost[pt] == fv[pt] for pt in points)


# -- admissible sequences --------------------------------------------------------


TORAL_KEY = "0"  # the toral point, beside the orbit ids, in functions on R u {0}
IndexFunction = Mapping[str, Union[RationalLike, ExtIndexLike]]  # orbit ids and TORAL_KEY


def is_admissible(rvec: Sequence[RationalLike]) -> bool:
    """Initial constant block, then values between half the block and their
    successor: exists j with r_0 = ... = r_j >= 0 and r_j/2 <= r_{j+1} <= ... <= r_d."""
    rs = [Fraction(x) for x in rvec]
    if not rs or rs[0] < 0:
        return False
    j = 0
    while j < len(rs) and rs[j] == rs[0]:
        j += 1
    rest = rs[j:]  # what follows the initial constant block
    return (not rest or rest[0] >= rs[0] / 2) and all(a <= b for a, b in zip(rest, rest[1:]))


def _step_function(filtration: HoweFiltration, seq: Sequence[Fraction]) -> Dict[str, Fraction]:
    """Value seq[0] on the zeroth level and the toral point, seq[i] on the
    i-th layer of the Levi chain."""
    out = {o.orbit_id: r for r, layer in zip(seq, filtration.layers) for o in layer}
    out[TORAL_KEY] = seq[0]
    return out


def f_from_sequence(filtration: HoweFiltration, rvec: Sequence[RationalLike],
                    datum: GRootDatum, orbits: Sequence[OrbitInfo]) -> Dict[str, Fraction]:
    """Step function of an admissible sequence along the Levi chain.

    The result is checked concave, as the admissibility bound guarantees.
    """
    rs = [Fraction(x) for x in rvec]
    if len(rs) != filtration.d + 1:
        raise ValueError("sequence length %d does not match the chain (%d)"
                         % (len(rs), filtration.d + 1))
    if not is_admissible(rs):
        raise ValueError("sequence %s is not admissible" % (rs,))
    out = _step_function(filtration, rs)
    root_fn: Dict[Tuple[int, ...], Fraction] = {tuple([0] * datum.rank): rs[0]}
    for o in orbits:
        for root in o.members:
            root_fn[root] = out[o.orbit_id]
    if not is_concave(root_fn, datum):
        raise AssertionError("step function of an admissible sequence must be concave")
    return out


def mp_chain(rvec: Sequence[RationalLike], svec: Sequence[RationalLike]) -> List[Tuple[Fraction, ...]]:
    """Interpolating chain between weakly increasing admissible sequences.

    Steps are s^{(j)}_i = min(s_i, r_i + j*r_0); each adjacent pair is
    verified to satisfy the one-step condition
    s'_i <= min(s_i, ..., s_d) + min(s) that the abelian-quotient
    isomorphism needs, and every step is verified weakly increasing
    admissible, the two given sequences among them.
    """
    rs = [Fraction(x) for x in rvec]
    ss = [Fraction(x) for x in svec]
    if not rs or len(rs) != len(ss):
        raise ValueError("sequences must be nonempty and of equal length")
    for r, s in zip(rs, ss):
        if not (0 < r <= s):
            raise ValueError("need 0 < r_i <= s_i < infinity")
    r0 = rs[0]
    # the most steps of r_0 any coordinate needs: the largest ceil((s_i - r_i) / r_0)
    nsteps = max(-(-(s - r) // r0) for r, s in zip(rs, ss))
    chain = [tuple(min(s, r + j * r0) for r, s in zip(rs, ss)) for j in range(nsteps + 1)]
    assert chain[0] == tuple(rs) and chain[-1] == tuple(ss)
    validate_chain(chain)
    return chain


def validate_chain(chain: Sequence[Tuple[Fraction, ...]]) -> None:
    """Check a chain certificate: every step weakly increasing admissible,
    adjacent pairs within the one-step window of the abelian-quotient
    isomorphism."""
    if not chain:
        raise ValueError("empty chain")
    for seq in chain:
        if any(b < a for a, b in zip(seq, seq[1:])) or not is_admissible(seq):
            raise ValueError("chain step %s is not weakly increasing admissible" % (seq,))
    for prev, nxt in zip(chain, chain[1:]):
        lo = min(prev)
        for i in range(len(prev)):
            if not (prev[i] <= nxt[i] <= min(prev[i:]) + lo):
                raise ValueError("chain pair violates the one-step condition at %d" % i)


# -- quotient orders -------------------------------------------------------------


def quotient_order(f: IndexFunction, g: IndexFunction, jumps: JumpAssignment,
                   orbits: Sequence[OrbitInfo], toral_rank: int, toral_e: int, pp: PrimePower,
                   chain: Optional[Sequence[Tuple[Fraction, ...]]] = None,
                   filtration: Optional[HoweFiltration] = None) -> QMonomial:
    """Exact order of the filtration quotient between f and g, as exp_q.

    Each orbit contributes its residue degree per torsor point in
    [f(a), g(a)); the toral point contributes the rank per value-group
    point of the splitting field in [f(0), g(0)).  The pair must either
    start at the uniform index 0+ (where the isomorphism needs no chain)
    or come with a chain certificate from :func:`mp_chain` whose endpoint
    step functions reproduce f and g on the given filtration.
    """
    keys = {o.orbit_id for o in orbits} | {TORAL_KEY}
    if set(f.keys()) != keys or set(g.keys()) != keys:
        raise ValueError("functions must be defined on the orbits and the toral point")
    fx = {k: as_ext(f[k]) for k in keys}
    gx = {k: as_ext(g[k]) for k in keys}
    for k in keys:
        if gx[k] is INFINITY:
            raise ValueError("infinite upper cut-off at %s" % k)
        if gx[k] < fx[k]:
            raise ValueError("need f <= g pointwise (violated at %s)" % k)
    if any(fx[k] != just_above(0) for k in keys):
        if chain is None or filtration is None:
            raise ValueError("a start other than 0+ needs a chain certificate "
                             "and the Levi filtration")
        lo = _step_function(filtration, chain[0])
        hi = _step_function(filtration, chain[-1])
        if any(as_ext(lo[k]) != fx[k] or as_ext(hi[k]) != gx[k] for k in keys):
            raise ValueError("chain certificate does not connect f to g")
        validate_chain(list(chain))
    total = sum(o.f * count_torsor_points(o, jumps, fx[o.orbit_id], gx[o.orbit_id])
                for o in orbits)
    total += toral_rank * _torsor_point_count(Fraction(0), toral_e, fx[TORAL_KEY], gx[TORAL_KEY])
    return exp_q(total, pp)
