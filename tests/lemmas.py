"""Randomized property suites that the tests run, the lemma code only they
check, and what several tests read off the package's records (the levels
of a Howe filtration, the two sides of a base-change comparison).

Each suite returns the number of checks performed and raises on the first
violation.  The oracles are deliberately primitive: direct coset
enumeration for lattice quotients, direct primed summation for the
periodic identity, synthetic orbit systems with arbitrary offsets for the
length identity.

The lattice route to the torus orders lives here too: a saturated basis
of X^I, the restricted Frobenius and its Bareiss determinants, and the
coinvariants of the cocharacter lattice over the group's generators.
``verify`` reads the X^I orders from traces and the cocharacter orders
from one Smith form (:func:`fdc.galois_roots.torus_lattice_data`); the
lattice-identity suite checks every field of that against this route.

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

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from fdc.chi_data import (BaseChange, cocycle, compatible_choices, r_chi_values,
                           verify_base_change)
from fdc.compare import VERDICT_UNEQUAL, run_compare
from fdc.galois_roots import (
    GaloisFrame,
    GRootDatum,
    HoweFiltration,
    OrbitInfo,
    TorusLatticeData,
    torus_lattice_data,
)
from fdc.mp_filtration import INFINITY, Infinity, JumpAssignment, twice_length_to
from fdc.qexact import PrimePower, RationalLike
from fdc.scenario import _chi_menus, _random_chi, generate_scenario, generator_templates
from fdc.weil_gamma import conductor_tame_induction
from fdc.zlattice import (
    Matrix,
    SmithForm,
    Vector,
    frobenius_orders,
    identity_matrix,
    kernel_basis,
    mat_copy,
    mat_mul,
    mat_shape,
    mat_sub,
    mat_transpose,
    mat_vec,
    smith_normal_form,
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


# -- the lattice route to the torus orders ---------------------------------------


def mat_scale(a: Sequence[Sequence[int]], c: int) -> Matrix:
    return [[c * x for x in row] for row in a]


def det(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n, m = mat_shape(a)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    mat = mat_copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def coinvariants_order(f: Sequence[Sequence[int]]) -> Union[int, Infinity]:
    """Order of coker(F - 1 : Z^n -> Z^n); INFINITY when det(F - 1) = 0.

    This is |det(F - 1)| when nonzero, the standard count of Frobenius
    coinvariants of a lattice.
    """
    n, m = mat_shape(f)
    if n != m:
        raise ValueError("endomorphism must be square")
    if n == 0:
        return 1
    d = det(mat_sub(f, identity_matrix(n)))
    return INFINITY if d == 0 else abs(d)


def twisted_fixed_order(f: Sequence[Sequence[int]], q: int) -> int:
    """|det(q*F - 1)|: the number of Frobenius-fixed points of the twisted
    torus with cocharacter data (M, F) over the field with q elements."""
    n, m = mat_shape(f)
    if n != m:
        raise ValueError("endomorphism must be square")
    if n == 0:
        return 1
    d = det(mat_sub(mat_scale(f, q), identity_matrix(n)))
    if d == 0:
        raise ValueError("det(qF - 1) = 0; the fixed-point group is infinite")
    return abs(d)


def invariant_sublattice(rank: int, action_gens: Sequence[Sequence[Sequence[int]]]) -> List[Vector]:
    """Deterministic basis of the saturated sublattice fixed by every
    generator (kernel of the stacked (g - 1) matrices)."""
    if not action_gens:
        return [tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)]
    eye = identity_matrix(rank)
    stacked: Matrix = []
    for m in action_gens:
        stacked.extend(mat_sub(mat_copy(m), eye))
    return kernel_basis(stacked)


def solve(form: SmithForm, b: Sequence[int]) -> Optional[Vector]:
    """One integer solution x of A x = b, for the matrix A of the Smith form
    U A V = D, or None when b is outside the column lattice: (U b)_i must be
    divisible by d_i below the rank and zero beyond, and then x = V z with
    z_i = (U b)_i / d_i below the rank."""
    if len(b) != len(form.d):
        raise ValueError("dimension mismatch")
    ub = mat_vec(form.u, b)
    diag, rank = form.diagonal, form.rank
    if any(ub[i] % diag[i] for i in range(rank)) or any(ub[rank:]):
        return None
    return mat_vec(form.v, [ub[i] // diag[i] for i in range(rank)])


def restrict_endomorphism(f: Sequence[Sequence[int]], basis: Sequence[Vector]) -> Matrix:
    """Matrix of F on the sublattice spanned by basis (F must preserve it)."""
    if not basis:
        return []
    form = smith_normal_form([[b[i] for b in basis] for i in range(len(basis[0]))])
    out_cols: List[Vector] = []
    for b in basis:
        sol = solve(form, mat_vec(f, b))
        if sol is None:
            raise ValueError("endomorphism does not preserve the sublattice")
        out_cols.append(sol)
    return mat_transpose(out_cols)


def lattice_is_elliptic(rank: int, action: Mapping[int, Matrix],
                        frame: GaloisFrame) -> bool:
    """Ellipticity by the lattice route: no nonzero vector is fixed by the
    generators of the frame group acting on Z^rank."""
    group = frame.group
    gens = group.generating_set(group.elements)
    return not invariant_sublattice(rank, [action[a] for a in gens])


def lattice_torus_data(datum: GRootDatum, frame: GaloisFrame) -> TorusLatticeData:
    """The torus lattice data by the lattice route: a saturated basis of
    X^I, the Frobenius restricted to it and its two Bareiss determinants,
    |X_{*,Gamma}| as the product of the Smith diagonal of the relations of
    all the group's generators on the cocharacter lattice, and the
    Frobenius-fixed order of its inertia coinvariants.  The datum's action
    must be an elliptic homomorphism."""
    group, n = frame.group, datum.rank
    inertia_gens = group.generating_set(frame.inertia)

    def relations(gens: Sequence[int]) -> List[Vector]:
        """The columns of M(g^-1)^T - 1 for each g in gens."""
        eye = identity_matrix(n)
        return [col for a in gens
                for col in zip(*mat_sub(mat_transpose(datum.action[group.inv(a)]), eye))]

    basis = invariant_sublattice(n, [datum.action[a] for a in inertia_gens])
    f_m = restrict_endomorphism(datum.action[frame.frobenius], basis)
    full = smith_normal_form(mat_transpose(relations(group.generating_set(group.elements))))
    if full.rank < n:
        raise ValueError("coinvariant group is infinite")
    _, fixed = frobenius_orders(n, relations(inertia_gens),
                                mat_transpose(datum.action[group.inv(frame.frobenius)]))
    return TorusLatticeData(
        rank_m=len(basis),
        special_fiber_order=twisted_fixed_order(f_m, frame.q),
        m_frob_coinvariants=coinvariants_order(f_m),
        cochar_full_coinvariants=math.prod(full.diagonal),
        kottwitz_fixed_order=fixed,
    )


# -- lattice identities --------------------------------------------------------


def _random_unimodular(rng: random.Random, rank: int) -> Tuple[List[List[int]], List[List[int]]]:
    """A random product U of four elementary matrices, each adding c = 1 or
    2 times column i to column j != i, together with U^-1.  With every c
    positive, U has nonnegative entries whose sum grows at each step, so
    U is never the identity.  Rank 1 has no such step and returns the
    identity."""
    u = identity_matrix(rank)
    uinv = identity_matrix(rank)
    for _ in range(4 if rank > 1 else 0):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((1, 2))
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
    separate lattice routes, and every field of ``torus_lattice_data``
    (traces for the X^I orders, one Smith form for the cocharacter ones)
    against the lattice route.  The residue prime is the first of the
    template's primes that is prime to |I|."""
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
        p = next(p for p in tpl.primes if len(inertia) % p)
        frame = GaloisFrame(group, inertia, frob, PrimePower(p, 1))
        # Conjugates of a homomorphism are one, and the roots play no part.
        if not lattice_is_elliptic(tpl.rank, action, frame):
            raise AssertionError("template action lost ellipticity")
        datum = GRootDatum(tpl.rank, action, frozenset(), group)
        lattice = lattice_torus_data(datum, frame)
        traced = torus_lattice_data(datum, frame)
        if traced != lattice:
            raise AssertionError("torus data disagree: traces %s, lattice %s"
                                 % (traced, lattice))
        first, second = lattice.m_frob_coinvariants, lattice.kottwitz_fixed_order
        if first * second != lattice.cochar_full_coinvariants:
            raise AssertionError("coinvariant factorization fails: %s * %s != %s"
                                 % (first, second, lattice.cochar_full_coinvariants))
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
        chi = scen.chi if scen.chi is not None else _random_chi(
            rng, scen.datum, scen.frame, scen.orbits,
            _chi_menus(scen.datum, scen.frame, scen.orbits))
        if chi is None:
            continue
        subgroups = scen.frame.group.all_subgroups()
        sub = rng.choice(subgroups)
        base = BaseChange(chi, scen.datum, scen.frame, scen.orbits)
        witness = verify_base_change(base, sub)
        if witness is not None:
            raise AssertionError("base change fails on %s at H=%s: w=%s %s != %s"
                                 % ((scen.name, sorted(sub), witness)
                                    + base_change_sides(base, sub, witness)))
        checks += 1
    return checks


# -- what the tests read off the package's records -------------------------------


def filtration_levels(filtration: HoweFiltration) -> List[FrozenSet[Vector]]:
    """R_0 <= ... <= R_d of a Howe filtration: the running unions of the
    members of its layers."""
    out: List[FrozenSet[Vector]] = []
    level: FrozenSet[Vector] = frozenset()
    for layer in filtration.layers:
        level = level.union(*(o.members for o in layer))
        out.append(level)
    return out


def base_change_sides(base: BaseChange, sub: FrozenSet[int], w: int) -> Tuple[tuple, tuple]:
    """The two cocycles :func:`verify_base_change` compares, at w in ``sub``:
    the top one over its rebuilt outer section, and the restricted one."""
    datum, frame = base.datum, base.frame
    top_u, low = compatible_choices(base.choices, sub, datum, frame)
    return (cocycle(base.top, top_u, [w], datum, frame.group)[w],
            r_chi_values(base.chi, low, [w], datum, frame, within=sub)[w])
