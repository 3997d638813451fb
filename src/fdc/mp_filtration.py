"""Jump torsors, primed sums, and the length bookkeeping of filtrations.

Filtration indices live in the Bruhat-Tits extension of the rationals:
each index is either r, or r+ (infinitesimally above r), or infinity.
The jump set of a root orbit is a torsor under (1/e)Z, recorded by a
single offset; the length of a filtration step at t is the orbit's
residue degree when t lies in the torsor and zero otherwise.

Three summation devices drive everything downstream:

* the primed sum, which counts interval endpoints with half weight and is
  therefore additive under concatenation of closed intervals;
* the periodic-sum identity, which evaluates a primed sum of an even
  periodic jump function over [0, s] as a proportion of one period; and
* the master length identity, which says that for an even function f on a
  negation-closed orbit set, the count of torsor points weighted by
  residue degrees collapses to sum([k_a : k] * f(a)) independently of the
  offsets.

The module also supplies concavity checking for functions on R u {0},
step functions attached to admissible depth sequences, the interpolation
chain between two admissible sequences, and the resulting exact order of a
filtration quotient as a power of q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .galois_roots import GRootDatum, HoweFiltration, OrbitInfo
from .qexact import PrimePower, QMonomial, RationalLike, exp_q
from .zlattice import INFINITY, Infinity


# -- extended indices ----------------------------------------------------------


@dataclass(frozen=True, order=False)
class ExtIndex:
    """Index r or r+ in the extended totally ordered index set.

    Ordering: r < r+ < s for r < s; INFINITY (the sentinel from ``zlattice``)
    is maximal.  Addition follows the Bruhat-Tits convention r+ + s = (r+s)+.
    """

    r: Fraction
    plus: bool = False

    def key(self) -> Tuple[Fraction, int]:
        return (self.r, 1 if self.plus else 0)

    def __lt__(self, other: "ExtIndexLike") -> bool:
        if other is INFINITY:
            return True
        return self.key() < other.key()

    def __le__(self, other: "ExtIndexLike") -> bool:
        return self < other or self == other

    def __add__(self, other: "ExtIndexLike") -> "ExtIndexLike":
        if other is INFINITY:
            return INFINITY
        return ExtIndex(self.r + other.r, self.plus or other.plus)

    def __str__(self) -> str:
        return "%s+" % self.r if self.plus else str(self.r)


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


@dataclass(frozen=True)
class JumpAssignment:
    """Per-orbit offsets of the jump torsors, canonicalized into [0, 1/e).

    The jump set of orbit a is offset + (1/e)Z; negation sends the torsor
    of a to minus the torsor of -a, which forces offset(-a) = -offset(a)
    modulo (1/e)Z.  That symmetry is validated against the orbit list.
    """

    offsets: Mapping[str, Fraction]  # orbit_id -> canonical offset

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


# -- discretely supported functions and primed sums ------------------------------


@dataclass(frozen=True)
class JumpFunction:
    """Discretely supported function on Q: a finite part plus periodic parts.

    finite maps points to values; each periodic part (offset, period, value)
    contributes value at offset + period*Z.  Evaluation sums contributions.
    """

    finite: Tuple[Tuple[Fraction, Fraction], ...] = ()
    periodic: Tuple[Tuple[Fraction, Fraction, Fraction], ...] = ()

    @staticmethod
    def build(finite: Mapping[RationalLike, RationalLike] = (),
              periodic: Iterable[Tuple[RationalLike, RationalLike, RationalLike]] = ()) -> "JumpFunction":
        fin = tuple(sorted((Fraction(k), Fraction(v)) for k, v in dict(finite).items()))
        per = []
        for off, lam, val in periodic:
            lam = Fraction(lam)
            if lam <= 0:
                raise ValueError("period must be positive")
            per.append((Fraction(off) % lam, lam, Fraction(val)))
        return JumpFunction(fin, tuple(sorted(per)))

    @staticmethod
    def indicator_lattice(step: RationalLike, value: RationalLike = 1,
                          offset: RationalLike = 0) -> "JumpFunction":
        return JumpFunction.build({}, [(offset, step, value)])

    def __call__(self, t: RationalLike) -> Fraction:
        t = Fraction(t)
        total = Fraction(0)
        for point, val in self.finite:
            if point == t:
                total += val
        for off, lam, val in self.periodic:
            if (t - off) % lam == 0:
                total += val
        return total

    def support_in(self, a: Fraction, b: Fraction) -> List[Fraction]:
        """Potential support points in the closed interval [a, b]."""
        pts = {point for point, _ in self.finite if a <= point <= b}
        for off, lam, _ in self.periodic:
            k = (a - off) / lam
            k0 = k.numerator // k.denominator
            t = off + k0 * lam
            while t < a:
                t += lam
            while t <= b:
                pts.add(t)
                t += lam
        return sorted(pts)


def primed_sum(h: JumpFunction, a: RationalLike, b: RationalLike) -> Fraction:
    """Sum of h over [a, b] with endpoints weighted one half.

    Degenerate intervals [a, a] count the single point with full weight
    (both endpoint terms fire), which is what concatenation additivity
    requires.
    """
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise ValueError("interval endpoints out of order")
    total = Fraction(1, 2) * (h(a) + h(b))
    for t in h.support_in(a, b):
        if a < t < b:
            total += h(t)
    return total


def periodic_sum_value(lam0: RationalLike, h: JumpFunction, s: RationalLike) -> Fraction:
    """Closed form (s / lam0) * primed_sum(h, [0, lam0]) for even periodic h.

    Requires s to be a positive half-multiple of the period.  Evenness and
    periodicity are declared properties; they are spot-verified on the
    support of one period, and a violation is an error.
    """
    lam0, s = Fraction(lam0), Fraction(s)
    if lam0 <= 0:
        raise ValueError("period must be positive")
    if s <= 0 or (2 * s / lam0).denominator != 1:
        raise ValueError("s = %s is not a positive half-multiple of %s" % (s, lam0))
    for t in h.support_in(-lam0, 2 * lam0):
        if h(t) != h(-t):
            raise ValueError("function is not even at t = %s" % t)
        if h(t) != h(t + lam0):
            raise ValueError("function is not %s-periodic at t = %s" % (lam0, t))
    return (s / lam0) * primed_sum(h, 0, lam0)


# -- orbit length sums -----------------------------------------------------------


OrbitFn = Mapping[str, Fraction]  # orbit_id (and "0" for the toral point) -> value

TORAL_KEY = "0"


def master_length_identity(orbit_subset: Sequence[OrbitInfo], f: OrbitFn,
                           jumps: JumpAssignment) -> Tuple[Fraction, Fraction]:
    """Both sides of the length identity for an even f on a negation-closed set.

    lhs = interior length + half the boundary lengths at 0 and at f(a);
    rhs = sum of [k_a : k] * f(a).  The identity holds whenever each f(a)
    is a half-multiple of the valuation lattice (1/e)Z; hypotheses are
    validated and violations raise.  Orbits with f(a) = 0 contribute zero
    to both sides (the degenerate interval is treated as empty).
    """
    ids = {o.orbit_id for o in orbit_subset}
    by_id = {o.orbit_id: o for o in orbit_subset}
    for o in orbit_subset:
        if o.negation_id not in ids:
            raise ValueError("orbit set is not closed under negation at %s" % o.orbit_id)
        if Fraction(f[o.orbit_id]) != Fraction(f[o.negation_id]):
            raise ValueError("f is not even at orbit %s" % o.orbit_id)
        val = Fraction(f[o.orbit_id])
        if val < 0:
            raise ValueError("f must be nonnegative")
        if (val * 2 * o.e).denominator != 1:
            raise ValueError("f(%s) = %s is not in (1/2e)Z (e = %d)"
                             % (o.orbit_id, val, o.e))
    lhs = Fraction(0)
    rhs = Fraction(0)
    for o in orbit_subset:
        val = Fraction(f[o.orbit_id])
        if val == 0:
            continue
        interior = o.f * count_torsor_points(o, jumps, just_above(0), at(val))
        lhs += interior
        lhs += Fraction(jump_length_at(o, jumps, 0), 2)
        lhs += Fraction(jump_length_at(o, jumps, val), 2)
        rhs += o.degree * val
    return lhs, rhs


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
    for u, w, s in sums:
        if cost[u] + fv[w] < fv[s]:
            return False
    return True


# -- admissible sequences --------------------------------------------------------


def is_admissible(rvec: Sequence[RationalLike]) -> bool:
    """Initial constant block, then values between half the block and their
    successor: exists j with r_0 = ... = r_j >= 0 and r_j/2 <= r_{j+1} <= ... <= r_d."""
    rs = [Fraction(x) for x in rvec]
    if not rs or rs[0] < 0:
        return False
    j = 0
    while j + 1 < len(rs) and rs[j + 1] == rs[0]:
        j += 1
    tail = rs[j:]
    if len(tail) >= 2:
        if tail[1] < rs[0] / 2:
            return False
        for a, b in zip(tail[1:], tail[2:]):
            if b < a:
                return False
    return True


def f_from_sequence(filtration: HoweFiltration, rvec: Sequence[RationalLike],
                    datum: GRootDatum, orbits: Sequence[OrbitInfo]) -> Dict[str, Fraction]:
    """Step function of an admissible sequence along the Levi chain.

    Value r_0 on the zeroth level and the toral point, r_i on the i-th
    layer.  The result is checked concave, as the admissibility bound
    guarantees.
    """
    rs = [Fraction(x) for x in rvec]
    if len(rs) != filtration.d + 1:
        raise ValueError("sequence length %d does not match the chain (%d)"
                         % (len(rs), filtration.d + 1))
    if not is_admissible(rs):
        raise ValueError("sequence %s is not admissible" % (rs,))
    out: Dict[str, Fraction] = {TORAL_KEY: rs[0]}
    for o in orbits:
        layer = filtration.layer_of_orbit(o)
        out[o.orbit_id] = rs[layer] if layer > 0 else rs[0]
    root_fn: Dict[Tuple[int, ...], Fraction] = {tuple([0] * datum.rank): rs[0]}
    by_id = {o.orbit_id: o for o in orbits}
    for oid, val in out.items():
        if oid == TORAL_KEY:
            continue
        for root in by_id[oid].members:
            root_fn[root] = val
    if not is_concave(root_fn, datum):
        raise AssertionError("step function of an admissible sequence must be concave")
    return out


def mp_chain(rvec: Sequence[RationalLike], svec: Sequence[RationalLike]) -> List[Tuple[Fraction, ...]]:
    """Interpolating chain between weakly increasing admissible sequences.

    Steps are s^{(j)}_i = min(s_i, r_i + j*r_0); each adjacent pair is
    verified to satisfy the one-step condition
    s'_i <= min(s_i, ..., s_d) + min(s) that the abelian-quotient
    isomorphism needs, and every step is verified weakly increasing
    admissible.
    """
    rs = [Fraction(x) for x in rvec]
    ss = [Fraction(x) for x in svec]
    if len(rs) != len(ss):
        raise ValueError("sequences must have equal length")
    for r, s in zip(rs, ss):
        if not (0 < r <= s):
            raise ValueError("need 0 < r_i <= s_i < infinity")
    for seq in (rs, ss):
        if any(b < a for a, b in zip(seq, seq[1:])):
            raise ValueError("sequences must be weakly increasing")
        if not is_admissible(seq):
            raise ValueError("sequence %s is not admissible" % (seq,))
    r0 = rs[0]
    gaps = [(s - r) / r0 for r, s in zip(rs, ss)]
    nsteps = 0
    for gp in gaps:
        k = -((-gp.numerator) // gp.denominator)  # ceil
        nsteps = max(nsteps, k)
    chain: List[Tuple[Fraction, ...]] = []
    for j in range(nsteps + 1):
        step = tuple(min(s, r + j * r0) for r, s in zip(rs, ss))
        chain.append(step)
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


def _ext_of(fn: Mapping[str, Union[RationalLike, ExtIndexLike]], key: str) -> ExtIndexLike:
    return as_ext(fn[key])


def quotient_order(f: Mapping[str, Union[RationalLike, ExtIndexLike]],
                   g: Mapping[str, Union[RationalLike, ExtIndexLike]],
                   jumps: JumpAssignment,
                   orbits: Sequence[OrbitInfo],
                   toral_rank: int,
                   toral_e: int,
                   pp: PrimePower,
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
    for k in keys:
        fe, ge = _ext_of(f, k), _ext_of(g, k)
        if ge is not INFINITY and ge < fe:
            raise ValueError("need f <= g pointwise (violated at %s)" % k)
    uniform_start = all(_ext_of(f, k) == just_above(0) for k in keys)
    if not uniform_start:
        if chain is None:
            raise ValueError("missing chain certificate for a non-depth-zero start")
        if filtration is None:
            raise ValueError("a chain certificate needs the Levi filtration")
        # Endpoints of the certificate must reproduce f and g.
        def expand(seq: Tuple[Fraction, ...]) -> Dict[str, Fraction]:
            vals: Dict[str, Fraction] = {TORAL_KEY: seq[0]}
            for o in orbits:
                layer = filtration.layer_of_orbit(o)
                vals[o.orbit_id] = seq[layer] if layer > 0 else seq[0]
            return vals
        lo, hi = expand(chain[0]), expand(chain[-1])
        if any(as_ext(lo[k]) != _ext_of(f, k) for k in keys) or \
           any(as_ext(hi[k]) != _ext_of(g, k) for k in keys):
            raise ValueError("chain certificate does not connect f to g")
        validate_chain(list(chain))
    total = Fraction(0)
    for o in orbits:
        fe, ge = _ext_of(f, o.orbit_id), _ext_of(g, o.orbit_id)
        if ge is INFINITY:
            raise ValueError("infinite upper cut-off on orbit %s" % o.orbit_id)
        total += o.f * count_torsor_points(o, jumps, fe, ge)
    fe, ge = _ext_of(f, TORAL_KEY), _ext_of(g, TORAL_KEY)
    if ge is INFINITY:
        raise ValueError("infinite upper toral cut-off")
    total += toral_rank * _torsor_point_count(Fraction(0), toral_e, fe, ge)
    return exp_q(total, pp)

