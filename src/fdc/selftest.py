"""Randomized property suites behind the selftest subcommand, and the
lemma code only they check.

Each suite returns the number of checks performed and raises on the first
violation.  The oracles are deliberately primitive: direct coset
enumeration for lattice quotients, direct primed summation for the
periodic identity, synthetic orbit systems with arbitrary offsets for the
length identity.

Three summation devices of the paper's length bookkeeping live here:

* the primed sum, which counts interval endpoints with half weight and is
  therefore additive under concatenation of closed intervals;
* the periodic-sum identity, which evaluates a primed sum of an even
  periodic jump function over [0, s] as a proportion of one period; and
* the master length identity, which says that for an even function f on a
  negation-closed orbit set, the count of torsor points weighted by
  residue degrees collapses to sum([k_a : k] * f(a)) independently of the
  offsets.  Its left side is the length kernel
  :func:`fdc.mp_filtration.twice_length_to` that ``verify`` sums into the
  volume exponent, so the identity's suite checks that code; its right
  side shares nothing with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

from .chi_data import verify_base_change
from .compare import VERDICT_UNEQUAL, run_compare
from .galois_roots import OrbitInfo
from .mp_filtration import JumpAssignment, twice_length_to
from .qexact import RationalLike
from .scenario import _random_chi, generate_scenario, generator_templates
from .weil_gamma import conductor_tame_induction
from .zlattice import (
    coinvariants_order,
    fg_fixed_order,
    group_coinvariants,
    identity_matrix,
    invariant_sublattice,
    mat_mul,
    mat_transpose,
    restrict_endomorphism,
)


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


# -- the master length identity --------------------------------------------------


OrbitFn = Mapping[str, Fraction]  # orbit_id -> value


def master_length_identity(orbit_subset: Sequence[OrbitInfo], f: OrbitFn,
                           jumps: JumpAssignment) -> Tuple[Fraction, Fraction]:
    """Both sides of the length identity for an even f on a negation-closed set.

    lhs = interior length + half the boundary lengths at 0 and at f(a),
    from :func:`twice_length_to`; rhs = sum of [k_a : k] * f(a).  The
    identity holds whenever each f(a) is a half-multiple of the valuation
    lattice (1/e)Z; hypotheses are validated and violations raise.  Orbits
    with f(a) = 0 contribute zero to both sides (the degenerate interval is
    treated as empty).
    """
    ids = {o.orbit_id for o in orbit_subset}
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
    vals = [(o, Fraction(f[o.orbit_id])) for o in orbit_subset]
    twice = sum(twice_length_to(o, jumps, val) for o, val in vals if val)
    return Fraction(twice, 2), sum((o.degree * val for o, val in vals), Fraction(0))


# -- synthetic orbit systems for the length identity -------------------------


def synthetic_orbits(rng: random.Random, max_pairs: int = 6,
                     max_e: int = 6, max_roots: int = 24) -> List[OrbitInfo]:
    """Fabricated orbit records with consistent (e, f, degree) and negation
    links; the members are placeholders (never consulted by the sums)."""
    orbits: List[OrbitInfo] = []
    n_pairs = rng.randint(1, max_pairs)
    tag = 0
    total = 0
    for _ in range(n_pairs):
        e = rng.randint(1, max_e)
        f = rng.randint(1, 3)
        degree = e * f
        if total + 2 * degree > max_roots and orbits:
            break
        total += 2 * degree
        symmetric = rng.random() < 0.5
        if symmetric:
            oid = "s%d" % tag
            orbits.append(OrbitInfo(
                orbit_id=oid, members=frozenset({(tag,)}), representative=(tag,),
                stabilizer=frozenset({0}), degree=degree, e=e, f=f,
                symmetric=True, ramified=bool(rng.random() < 0.5), negation_id=oid))
            tag += 1
        else:
            oid_a, oid_b = "a%d" % tag, "a%d" % (tag + 1)
            for oid, other in ((oid_a, oid_b), (oid_b, oid_a)):
                orbits.append(OrbitInfo(
                    orbit_id=oid, members=frozenset({(tag,)}), representative=(tag,),
                    stabilizer=frozenset({0}), degree=degree, e=e, f=f,
                    symmetric=False, ramified=None, negation_id=other))
                tag += 1
    return orbits


def random_jumps(rng: random.Random, orbits: Sequence[OrbitInfo]) -> JumpAssignment:
    offsets: Dict[str, Fraction] = {}
    done: Set[str] = set()
    for o in orbits:
        if o.orbit_id in done:
            continue
        if o.symmetric:
            offsets[o.orbit_id] = rng.choice((Fraction(0), Fraction(1, 2 * o.e)))
            done.add(o.orbit_id)
        else:
            t = Fraction(rng.randint(0, 4 * o.e - 1), 4 * o.e)
            offsets[o.orbit_id] = t
            offsets[o.negation_id] = -t
            done.add(o.orbit_id)
            done.add(o.negation_id)
    return JumpAssignment.build(offsets, orbits)


def suite_master_identity(rng: random.Random, n: int) -> int:
    checks = 0
    for _ in range(n):
        orbits = synthetic_orbits(rng)
        jumps = random_jumps(rng, orbits)
        f: Dict[str, Fraction] = {}
        for o in orbits:
            if o.orbit_id in f:
                continue
            val = Fraction(rng.randint(1, 8 * o.e), 2 * o.e)
            f[o.orbit_id] = val
            f[o.negation_id] = val
        lhs, rhs = master_length_identity(orbits, f, jumps)
        if lhs != rhs:
            raise AssertionError("length identity fails: %s != %s (orbits %s)"
                                 % (lhs, rhs, [(o.orbit_id, o.e, o.f) for o in orbits]))
        checks += 1
    return checks


def suite_periodic_sum(rng: random.Random, n: int) -> int:
    checks = 0
    for _ in range(n):
        lam0 = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        parts = []
        for _k in range(rng.randint(1, 3)):
            denom = rng.randint(1, 4)
            off = Fraction(rng.randint(0, 4 * denom), 4 * denom) * lam0 % lam0
            val = Fraction(rng.randint(1, 5))
            parts.append((off, lam0, val))
            parts.append(((-off) % lam0, lam0, val))
        h = JumpFunction.build({}, parts)
        s = Fraction(rng.randint(1, 8)) * lam0 / 2
        closed = periodic_sum_value(lam0, h, s)
        direct = primed_sum(h, 0, s)
        if closed != direct:
            raise AssertionError("periodic sum fails at lam0=%s s=%s: %s != %s"
                                 % (lam0, s, closed, direct))
        checks += 1
    return checks


# -- lattice identities --------------------------------------------------------


def _random_unimodular(rng: random.Random, rank: int) -> Tuple[List[List[int]], List[List[int]]]:
    """A random product U of elementary matrices, together with U^-1."""
    u = identity_matrix(rank)
    uinv = identity_matrix(rank)
    for _ in range(rng.randint(0, 4)):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        # U <- U E with E: col_j += c * col_i; then U^-1 <- E^-1 U^-1, whose
        # row op is row_i -= c * row_j.
        for r_ in range(rank):
            u[r_][j] += c * u[r_][i]
        uinv[i] = [x - c * y for x, y in zip(uinv[i], uinv[j])]
    return u, uinv


def _conjugated_action(rng: random.Random, action: Dict[int, List[List[int]]],
                       rank: int) -> Dict[int, List[List[int]]]:
    u, uinv = _random_unimodular(rng, rank)
    return {g: mat_mul(mat_mul(u, m), uinv) for g, m in action.items()}


def suite_lattice_identity(rng: random.Random, n: int) -> int:
    """Coinvariant factorization |(X^I)_F| * |(X_I)^F| = |X_Gamma| on random
    elliptic lattices with group action, all three orders computed by
    separate routes."""
    templates = generator_templates()
    checks = 0
    while checks < n:
        tpl = rng.choice(templates)
        inertia = frozenset(rng.choice(tpl.inertia_choices))
        group = tpl.group
        frob_candidates = group.quotient_generators(group.elements, inertia)
        if not frob_candidates:
            continue
        frob = rng.choice(frob_candidates)
        action = _conjugated_action(rng, dict(tpl.action), tpl.rank)
        # Conjugates of a homomorphism are one, so M(g)^-T = M(g^-1)^T.
        dual = {g: mat_transpose(action[group.inv(g)]) for g in group.elements}
        dual_gens = [dual[a] for a in sorted(inertia)]
        dual_all = [dual[a] for a in group.elements]
        dual_frob = dual[frob]
        full = group_coinvariants(tpl.rank, dual_all)
        if full.free_rank:
            raise AssertionError("template action lost ellipticity")
        basis = invariant_sublattice(tpl.rank, dual_gens)
        f_inv = restrict_endomorphism(dual_frob, basis) if basis else []
        first = coinvariants_order(f_inv)
        coinv_i = group_coinvariants(tpl.rank, dual_gens, endo=dual_frob)
        second = fg_fixed_order(coinv_i)
        if first * second != full.order:
            raise AssertionError("coinvariant factorization fails: %s * %s != %s"
                                 % (first, second, full.order))
        checks += 1
    return checks


def _det3(m: Sequence[Sequence[int]]) -> int:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def suite_snf_oracle(rng: random.Random, n: int) -> int:
    """coinvariants_order against direct subgroup enumeration in (Z/D)^3."""
    checks = 0
    while checks < n:
        f = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        fm1 = [[f[i][j] - (i == j) for j in range(3)] for i in range(3)]
        d = abs(_det3(fm1))
        if not (0 < d <= 50):
            continue
        gens = [tuple(fm1[i][j] % d for i in range(3)) for j in range(3)]
        subgroup = {(0, 0, 0)}
        frontier = [(0, 0, 0)]
        while frontier:
            x = frontier.pop()
            for gvec in gens:
                y = tuple((a + b) % d for a, b in zip(x, gvec))
                if y not in subgroup:
                    subgroup.add(y)
                    frontier.append(y)
        oracle = d ** 3 // len(subgroup)
        got = coinvariants_order(f)
        if got != oracle:
            raise AssertionError("coinvariants oracle fails on %s: %s != %s"
                                 % (f, got, oracle))
        checks += 1
    return checks


# -- index-ratio law (finite abelian models) -------------------------------------


def _span(base: Tuple[int, int], gens: Sequence[Tuple[int, int]]) -> FrozenSet[Tuple[int, int]]:
    m, n = base
    out = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ((x[0] + g[0]) % m, (x[1] + g[1]) % n)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return frozenset(out)


def suite_index_ratio(rng: random.Random, n: int) -> int:
    """[MH : NH] = [M : N] / [M n H : N n H] by direct coset counting on
    Z/m x Z/n."""
    checks = 0
    while checks < n:
        m = rng.randint(2, 12)
        nn = rng.randint(2, 12)
        base = (m, nn)
        rand_elem = lambda: (rng.randrange(m), rng.randrange(nn))
        h = _span(base, [rand_elem() for _ in range(rng.randint(1, 2))])
        mm = _span(base, [rand_elem() for _ in range(rng.randint(1, 2))])
        sub_n = _span(base, [rng.choice(sorted(mm)) for _ in range(rng.randint(1, 2))])
        mh = _span(base, sorted(mm | h))
        nh = _span(base, sorted(sub_n | h))
        lhs = len(mh) // len(nh)
        rhs_num = len(mm) // len(sub_n)
        rhs_den = len(mm & h) // len(sub_n & h)
        if lhs * rhs_den != rhs_num:
            raise AssertionError("index-ratio law fails on %s" % (base,))
        checks += 1
    return checks


def conductor_induction_general(disc_val: int, f: int, dim: int,
                                cond_sub: RationalLike) -> Fraction:
    """Conductor of an induced representation: discriminant valuation times
    dimension plus residue degree times the conductor upstairs."""
    if disc_val < 0 or f <= 0 or dim < 0 or Fraction(cond_sub) < 0:
        raise ValueError("inputs must be nonnegative (f positive)")
    return Fraction(disc_val * dim) + f * Fraction(cond_sub)


def suite_conductors() -> int:
    """The general induction formula specializes to the tame shortcut for
    every tame (e, f) up to 6 and depth in (1/e)Z up to 4."""
    checks = 0
    for e in range(1, 7):
        for f in range(1, 7):
            degree = e * f
            for k in range(0, 4 * e + 1):
                depth = Fraction(k, e)
                lhs = conductor_tame_induction(degree, depth)
                rhs = conductor_induction_general(degree - f, f, 1, 1 + e * depth)
                if lhs != rhs:
                    raise AssertionError("conductor mismatch at e=%d f=%d depth=%s"
                                         % (e, f, depth))
                checks += 1
    return checks


# -- end-to-end scenario suites ---------------------------------------------------


def suite_scenarios(rng: random.Random, n: int) -> int:
    checks = 0
    for _ in range(n):
        scen = generate_scenario(rng)
        report = run_compare(scen)
        if report.verdict == VERDICT_UNEQUAL:
            raise AssertionError("UNEQUAL verdict on generated scenario %s" % scen.name)
        checks += 1
    return checks


def suite_chi(rng: random.Random, n: int) -> int:
    checks = 0
    guard = 0
    while checks < n:
        guard += 1
        if guard > 50 * (n + 1):
            raise AssertionError("chi suite failed to draw enough instances")
        scen = generate_scenario(rng)
        chi = scen.chi if scen.chi is not None else _random_chi(rng, scen.datum, scen.frame)
        if chi is None:
            continue
        subgroups = scen.frame.group.all_subgroups()
        sub = rng.choice(subgroups)
        report = verify_base_change(chi, sub, scen.datum, scen.frame)
        if not report.ok:
            raise AssertionError("base change fails on %s at H=%s: w=%s %s != %s"
                                 % (scen.name, sorted(sub), report.witness,
                                    report.lhs, report.rhs))
        checks += 1
    return checks
