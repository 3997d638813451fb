"""Finite Galois frames, tame field invariants, and root data with action.

A frame is a finite quotient of the absolute Galois group: a finite group
with a designated normal inertia subgroup, an element playing Frobenius
(its image must generate the cyclic quotient), and the residue prime power.
Subgroups stand for field extensions; indices give degrees, ramification
and residue degrees, and (by tameness) discriminant valuations.

A root datum is a lattice with a frame action and a stable symmetric set of
roots; ellipticity (no nonzero invariant vectors) is enforced at
construction because every downstream lattice count silently requires it.

The Howe filtration extracts from per-orbit character depths the increasing
chain of Levi-closed root subsets together with its breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .qexact import PrimePower
from .zlattice import (
    INFINITY,
    FgAbelianGroup,
    Matrix,
    Vector,
    coinvariants_order,
    fg_fixed_order,
    group_coinvariants,
    invariant_sublattice,
    is_unimodular,
    kernel_basis,
    mat_eq,
    mat_mul,
    mat_transpose,
    mat_vec,
    restrict_endomorphism,
    twisted_fixed_order,
)

NONPOSITIVE = "nonpositive"
DepthValue = Union[Fraction, str]  # a positive rational or the NONPOSITIVE marker


# -- finite groups as multiplication tables ----------------------------------


class FiniteGroup:
    """A finite group on elements 0..n-1 given by its multiplication table.

    Element 0 is the identity.  The table is validated (identity, inverses,
    associativity) at construction; groups here are tiny, so the cubic
    associativity check is cheap.
    """

    def __init__(self, table: Sequence[Sequence[int]], check: bool = True):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        if check:
            self._validate()
        self._inverse = [next(j for j in range(self.order) if self.table[i][j] == 0)
                         for i in range(self.order)]

    def _validate(self) -> None:
        n = self.order
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise ValueError("malformed multiplication table")
        if any(self.table[0][j] != j or self.table[j][0] != j for j in range(n)):
            raise ValueError("element 0 is not an identity")
        for i in range(n):
            if all(self.table[i][j] != 0 for j in range(n)):
                raise ValueError("element %d has no inverse" % i)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValueError("multiplication table is not associative")

    # mult / inv / conj -------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self._inverse[i]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul(x, g)
            k += 1
        return k

    @property
    def elements(self) -> range:
        return range(self.order)

    # subgroup machinery -------------------------------------------------

    def subgroup_generated(self, gens: Sequence[int]) -> FrozenSet[int]:
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.mul(x, g), self.mul(x, self.inv(g))):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return frozenset(seen)

    def is_subgroup(self, h: FrozenSet[int]) -> bool:
        if 0 not in h:
            return False
        return all(self.mul(a, b) in h for a in h for b in h)

    def right_cosets(self, h: FrozenSet[int],
                     ambient: Optional[Iterable[int]] = None) -> List[FrozenSet[int]]:
        """Right cosets H\\A inside a subgroup A containing H (the whole group
        by default), ordered by their minimal element."""
        out: List[FrozenSet[int]] = []
        seen: set = set()
        # Scanning in increasing order meets each coset first at its minimum.
        for g in (sorted(ambient) if ambient is not None else self.elements):
            if g not in seen:
                coset = frozenset(self.mul(x, g) for x in h)
                seen |= coset
                out.append(coset)
        return out

    def quotient_generators(self, ambient: Iterable[int],
                            normal: FrozenSet[int]) -> List[int]:
        """Elements of the subgroup A whose class generates A/N, for N normal
        in A, in increasing order: those of order |A|/|N| modulo N."""
        ambient = sorted(ambient)
        quotient_size = len(ambient) // len(normal)
        out = []
        for g in ambient:
            k, x = 1, g
            while x not in normal:
                x = self.mul(x, g)
                k += 1
            if k == quotient_size:
                out.append(g)
        return out

    def double_cosets(self, k: FrozenSet[int], h: FrozenSet[int]) -> List[FrozenSet[int]]:
        """Double cosets K\\G/H, ordered by their minimal element."""
        out: List[FrozenSet[int]] = []
        covered: set = set()
        for g in self.elements:
            if g in covered:
                continue
            dc = frozenset(self.mul(self.mul(a, g), b) for a in k for b in h)
            covered |= dc
            out.append(dc)
        return sorted(out, key=min)

    def all_subgroups(self) -> List[FrozenSet[int]]:
        """Every subgroup, by closure of generator subsets; fine for tiny groups."""
        found = {frozenset([0])}
        frontier = [frozenset([0])]
        while frontier:
            h = frontier.pop()
            for g in self.elements:
                if g in h:
                    continue
                bigger = self.subgroup_generated(sorted(h | {g}))
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    # constructors --------------------------------------------------------

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)], check=False)

    @staticmethod
    def from_permutations(gens: Sequence[Sequence[int]]) -> Tuple["FiniteGroup", List[Tuple[int, ...]]]:
        """Group generated by permutations (lists of images on 0..m-1).

        Elements are numbered in BFS discovery order from the identity,
        applying the generators in the order given; the identity is 0.
        Returns the group and the permutation realizing each element index.
        """
        if not gens:
            raise ValueError("no generators")
        deg = len(gens[0])
        if any(len(g) != deg or sorted(g) != list(range(deg)) for g in gens):
            raise ValueError("malformed permutation generators")
        ident = tuple(range(deg))
        elems: List[Tuple[int, ...]] = [ident]
        index = {ident: 0}
        queue = [ident]
        while queue:
            cur = queue.pop(0)
            for g in gens:
                nxt = tuple(g[cur[i]] for i in range(deg))  # g after cur
                if nxt not in index:
                    index[nxt] = len(elems)
                    elems.append(nxt)
                    queue.append(nxt)
        n = len(elems)
        table = [[0] * n for _ in range(n)]
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                comp = tuple(a[b[x]] for x in range(deg))  # (a after b)
                table[i][j] = index[comp]
        return FiniteGroup(table, check=False), elems


# -- frames and field invariants ----------------------------------------------


@dataclass(frozen=True)
class GaloisFrame:
    """Finite Galois quotient: group, normal inertia subgroup, Frobenius, q.

    Invariants: the quotient by inertia is cyclic and generated by the image
    of the Frobenius element, and |inertia| is coprime to p (tameness).

    A frame may live on a designated carrier subgroup of the indexing
    group (used when restricting to a subframe); by default the carrier is
    the whole group.  Element indices are shared with the ambient group so
    that characters and sections restrict literally.
    """

    group: FiniteGroup
    inertia: FrozenSet[int]
    frobenius: int
    pp: PrimePower
    carrier: Optional[FrozenSet[int]] = None

    def __post_init__(self) -> None:
        g = self.group
        car = self.carrier_set
        if not g.is_subgroup(car):
            raise ValueError("carrier is not a subgroup")
        if not self.inertia <= car or not g.is_subgroup(self.inertia):
            raise ValueError("inertia is not a subgroup of the carrier")
        if not all(g.conj(x, h) in self.inertia for x in car for h in self.inertia):
            raise ValueError("inertia is not normal in the carrier")
        if len(self.inertia) % self.pp.p == 0:
            raise ValueError("wild frame: p divides |inertia|")
        if self.frobenius not in car:
            raise ValueError("frobenius is not a carrier element")
        gen = self.subgroup_with_inertia(self.frobenius)
        if len(gen) != len(car):
            raise ValueError("Frobenius image does not generate the quotient by inertia")

    @property
    def carrier_set(self) -> FrozenSet[int]:
        return self.carrier if self.carrier is not None else frozenset(self.group.elements)

    @property
    def order(self) -> int:
        return len(self.carrier_set)

    def subgroup_with_inertia(self, g0: int) -> FrozenSet[int]:
        return self.group.subgroup_generated(sorted(self.inertia) + [g0])

    @property
    def q(self) -> int:
        return self.pp.q


@dataclass(frozen=True)
class FieldInvariants:
    degree: int
    e: int
    f: int
    disc_valuation: int

    def __post_init__(self) -> None:
        if self.degree != self.e * self.f:
            raise ValueError("degree != e*f")
        if self.disc_valuation != self.degree - self.f:
            raise ValueError("tame discriminant valuation must be degree - f")


def field_invariants(frame: GaloisFrame, subgroup: FrozenSet[int]) -> FieldInvariants:
    """Invariants of the extension fixed by the subgroup.

    e is the inertia index [I : I n H], f the residue degree, and the
    discriminant valuation is degree - f (valid by tameness).
    """
    g = frame.group
    if not g.is_subgroup(subgroup) or not subgroup <= frame.carrier_set:
        raise ValueError("not a subgroup of the frame carrier")
    meet = frame.inertia & subgroup
    e = len(frame.inertia) // len(meet)
    degree = frame.order // len(subgroup)
    if degree % e:
        raise ValueError("inconsistent frame: e does not divide the degree")
    return FieldInvariants(degree=degree, e=e, f=degree // e, disc_valuation=degree - degree // e)


def relative_field_invariants(frame: GaloisFrame, outer: FrozenSet[int],
                              inner: FrozenSet[int]) -> FieldInvariants:
    """Invariants of the extension between two nested fixed fields (inner <= outer)."""
    g = frame.group
    if not inner <= outer:
        raise ValueError("inner subgroup must lie in the outer one")
    if not (g.is_subgroup(inner) and g.is_subgroup(outer)):
        raise ValueError("not subgroups")
    e = len(frame.inertia & outer) // len(frame.inertia & inner)
    degree = len(outer) // len(inner)
    return FieldInvariants(degree=degree, e=e, f=degree // e, disc_valuation=degree - degree // e)


# -- root data ----------------------------------------------------------------


def root_key(v: Sequence[int]) -> str:
    return ",".join(str(x) for x in v)


def parse_root_key(s: str) -> Vector:
    return tuple(int(x) for x in s.split(","))


@dataclass(frozen=True)
class GRootDatum:
    """Character lattice with frame action and a stable symmetric root set.

    The action maps every group element to a matrix in GL(rank, Z); roots
    are nonzero lattice vectors with R = -R and Gamma.R = R.  Ellipticity
    (no nonzero invariant vectors) is checked at construction.
    """

    rank: int
    action: Mapping[int, Matrix]  # element index -> matrix on X^*
    roots: FrozenSet[Vector]

    def __post_init__(self) -> None:
        for g, m in self.action.items():
            if len(m) != self.rank or any(len(row) != self.rank for row in m):
                raise ValueError("action matrix for element %d has wrong shape" % g)
            if not is_unimodular(m):
                raise ValueError("action matrix for element %d is not in GL(Z)" % g)
        zero = tuple([0] * self.rank)
        if zero in self.roots:
            raise ValueError("0 is not allowed as a root")
        for r in self.roots:
            if tuple(-x for x in r) not in self.roots:
                raise ValueError("root set is not symmetric: missing -%s" % (r,))

    def check_against_frame(self, frame: GaloisFrame) -> None:
        g = frame.group
        car = sorted(frame.carrier_set)
        if set(self.action.keys()) != set(g.elements):
            raise ValueError("action must be defined on every group element")
        for a in g.elements:
            for b in g.elements:
                if not mat_eq(mat_mul(self.action[a], self.action[b]),
                              self.action[g.mul(a, b)]):
                    raise ValueError("action is not a homomorphism at (%d, %d)" % (a, b))
        for r in self.roots:
            for a in car:
                if mat_vec(self.action[a], r) not in self.roots:
                    raise ValueError("root set is not stable under element %d" % a)
        fixed = invariant_sublattice(self.rank, [self.action[a] for a in car])
        if fixed:
            raise ValueError("datum is not elliptic: invariant vectors exist")

    def act(self, g: int, v: Sequence[int]) -> Vector:
        return mat_vec(self.action[g], v)

    @property
    def dim_ga(self) -> int:
        """Dimension of the ambient group: toral rank plus number of roots."""
        return self.rank + len(self.roots)


@dataclass(frozen=True)
class OrbitInfo:
    """One Galois orbit of roots with its stabilizer field invariants."""

    orbit_id: str
    members: FrozenSet[Vector]
    representative: Vector  # lexicographically minimal member
    stabilizer: FrozenSet[int]
    degree: int  # [k_alpha : k] = orbit size
    e: int
    f: int
    symmetric: bool
    ramified: Optional[bool]  # meaningful only when symmetric
    negation_id: str

    @property
    def size(self) -> int:
        return len(self.members)


def classify_orbits(datum: GRootDatum, frame: GaloisFrame) -> List[OrbitInfo]:
    """Partition the roots into frame orbits, with symmetry classification.

    A symmetric orbit contains the negative of each member; it is ramified
    exactly when some inertia element carries a root to its negative (the
    relative extension of the plus-minus field is then ramified quadratic).
    """
    g = frame.group
    car = sorted(frame.carrier_set)
    seen: Dict[Vector, str] = {}
    orbits: List[OrbitInfo] = []
    orbit_members: Dict[str, FrozenSet[Vector]] = {}
    for root in sorted(datum.roots):
        if root in seen:
            continue
        members = frozenset(datum.act(a, root) for a in car)
        rep = min(members)
        oid = root_key(rep)
        for m in members:
            seen[m] = oid
        orbit_members[oid] = members
    for oid, members in sorted(orbit_members.items(), key=lambda kv: parse_root_key(kv[0])):
        rep = min(members)
        stab = frozenset(a for a in car if datum.act(a, rep) == rep)
        inv = field_invariants(frame, stab)
        if inv.degree != len(members):
            raise ValueError("orbit size does not match the stabilizer index")
        neg = tuple(-x for x in rep)
        symmetric = neg in members
        ramified: Optional[bool] = None
        if symmetric:
            ramified = any(datum.act(a, rep) == neg for a in frame.inertia)
        if neg not in seen:
            raise ValueError("root set is not closed under negation within the frame")
        neg_id = seen[neg]
        orbits.append(OrbitInfo(
            orbit_id=oid, members=members, representative=rep, stabilizer=stab,
            degree=inv.degree, e=inv.e, f=inv.f, symmetric=symmetric,
            ramified=ramified, negation_id=neg_id))
    return orbits


def orbit_map(orbits: Sequence[OrbitInfo]) -> Dict[str, OrbitInfo]:
    return {o.orbit_id: o for o in orbits}


# -- the Howe filtration -------------------------------------------------------


@dataclass(frozen=True)
class HoweFiltration:
    """Increasing chain of root subsets R_0 <= ... <= R_d with its breaks.

    levels[i] is R_i as a set of roots; breaks are the distinct positive
    depths r_0 < ... < r_{d-1}; total is r_d (the full character depth).
    Orbits in levels[i+1] - levels[i] have depth breaks[i]; orbits in
    levels[0] are the nonpositive-depth part.
    """

    levels: Tuple[FrozenSet[Vector], ...]
    breaks: Tuple[Fraction, ...]
    total: Fraction

    @property
    def d(self) -> int:
        return len(self.breaks)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(lv) for lv in self.levels)

    def layer_sizes(self) -> List[int]:
        """|R_{i+1}| - |R_i| for each break index i."""
        return [len(self.levels[i + 1]) - len(self.levels[i]) for i in range(self.d)]

    def rvec(self) -> Tuple[Fraction, ...]:
        """The depth sequence (r_0, ..., r_d) with r_d the total depth."""
        return tuple(list(self.breaks) + [self.total])

    def svec(self) -> Tuple[Fraction, ...]:
        return tuple(r / 2 for r in self.rvec())

    def layer_of_orbit(self, orbit: OrbitInfo) -> int:
        """0 for the nonpositive part, i+1 when the orbit enters at break i."""
        rep = orbit.representative
        for i, lv in enumerate(self.levels):
            if rep in lv:
                return i
        raise KeyError("orbit %s not covered by the filtration" % orbit.orbit_id)

    def depth_of_orbit(self, orbit: OrbitInfo) -> DepthValue:
        layer = self.layer_of_orbit(orbit)
        return NONPOSITIVE if layer == 0 else self.breaks[layer - 1]


def _span_closure(vectors: Sequence[Vector], candidates: FrozenSet[Vector]) -> FrozenSet[Vector]:
    """Roots among the candidates lying in the rational span of the vectors.

    The span is its own double orthogonal, so a candidate lies in it exactly
    when it is orthogonal to the integer kernel of the vectors taken as rows.
    """
    if not vectors:
        return frozenset()
    perp = kernel_basis([list(v) for v in vectors])
    return frozenset(c for c in candidates
                     if all(sum(x * y for x, y in zip(c, w)) == 0 for w in perp))


def howe_filtration(datum: GRootDatum, frame: GaloisFrame,
                    theta_depths: Mapping[str, DepthValue],
                    theta_total_depth: Fraction) -> HoweFiltration:
    """Build the depth filtration of the root system from per-orbit depths.

    The nonpositive-depth orbits form R_0; the distinct positive depths,
    sorted increasingly, are the breaks, and each level accumulates the
    orbits up to that depth.  Each level must be rationally closed in R
    (the Levi condition): the span of R_i meets R exactly in R_i.
    """
    orbits = classify_orbits(datum, frame)
    by_id = orbit_map(orbits)
    if set(theta_depths.keys()) != set(by_id.keys()):
        raise ValueError("depth map must cover exactly the orbits; got %s, want %s"
                         % (sorted(theta_depths), sorted(by_id)))
    total = Fraction(theta_total_depth)
    if total < 0:
        raise ValueError("total depth must be >= 0")
    depths: Dict[str, DepthValue] = {}
    for oid, val in theta_depths.items():
        if val == NONPOSITIVE:
            depths[oid] = NONPOSITIVE
        else:
            val = Fraction(val)
            if val <= 0:
                raise ValueError("positive depth expected for orbit %s "
                                 "(use the nonpositive marker otherwise)" % oid)
            if val > total:
                raise ValueError("depth %s of orbit %s exceeds the total depth %s"
                                 % (val, oid, total))
            depths[oid] = val
    for oid, o in by_id.items():
        if depths[oid] != depths[o.negation_id]:
            raise ValueError("depth map is not negation-invariant at orbit %s" % oid)

    positive = sorted({v for v in depths.values() if v != NONPOSITIVE})
    level0 = frozenset(r for oid, o in by_id.items() if depths[oid] == NONPOSITIVE
                       for r in o.members)
    levels = [level0]
    for r in positive:
        new = frozenset(rt for oid, o in by_id.items() if depths[oid] == r
                        for rt in o.members)
        levels.append(levels[-1] | new)
    if positive and positive[-1] > total:
        raise ValueError("largest break exceeds the total depth")
    # Levi closure of every proper level.
    for i, lv in enumerate(levels):
        closure = _span_closure(sorted(lv), datum.roots)
        if closure != lv:
            extra = sorted(closure - lv)
            raise ValueError(
                "level %d is not rationally closed in R: span also contains %s"
                % (i, extra))
    return HoweFiltration(levels=tuple(levels), breaks=tuple(positive), total=total)


@dataclass(frozen=True)
class TorusLatticeData:
    """Every lattice invariant of the torus both sides of the comparison use.

    M is the inertia-fixed part of the character lattice with the restricted
    Frobenius; its twisted fixed-point count |det(qF - 1)| is the order of
    the special-fiber torus.  On the cocharacter side we carry the full
    coinvariant group, the inertia coinvariants with their Frobenius, and
    the Frobenius-fixed count of the latter (the Kottwitz-style component
    index separating the two published prefactor normalizations).
    """

    rank: int
    m_basis: Tuple[Vector, ...]
    m_frobenius: Matrix
    special_fiber_order: int        # |det(q F - 1)| on M
    m_frob_coinvariants: int        # |det(F - 1)| on M
    cochar_full_coinvariants: int   # |X_*(S^a)_Gamma|
    cochar_inertia_coinvariants: FgAbelianGroup
    kottwitz_fixed_order: int       # |X_*(S^a)_I ^ Frob|

    @property
    def rank_m(self) -> int:
        return len(self.m_basis)

    @property
    def full_point_index(self) -> int:
        """Index of the deep points inside all rational points of the
        anisotropic torus: the Kottwitz-style component count times the
        special-fiber order."""
        return self.kottwitz_fixed_order * self.special_fiber_order


def torus_lattice_data(datum: GRootDatum, frame: GaloisFrame) -> TorusLatticeData:
    """Compute the torus lattice data of a datum that passed
    :meth:`GRootDatum.check_against_frame`.

    That check makes the action a homomorphism, so the contragredient
    M(g)^-T on the cocharacter lattice is read off as M(g^-1)^T.
    """
    q = frame.q
    car = sorted(frame.carrier_set)
    inv = frame.group.inv

    def dual(a: int) -> Matrix:
        return mat_transpose(datum.action[inv(a)])

    inertia_gens = [datum.action[a] for a in sorted(frame.inertia)]
    m_basis = tuple(invariant_sublattice(datum.rank, inertia_gens))
    f_m = restrict_endomorphism(datum.action[frame.frobenius], m_basis)
    special = twisted_fixed_order(f_m, q)
    coinv = coinvariants_order(f_m)
    if coinv is INFINITY:
        raise ValueError("Frobenius coinvariants of M are infinite; datum is not elliptic")
    full = group_coinvariants(datum.rank, [dual(a) for a in car])
    if full.order is INFINITY:
        raise ValueError("cocharacter coinvariants are infinite; datum is not elliptic")
    dual_inertia = [dual(a) for a in sorted(frame.inertia)]
    cochar_inertia = group_coinvariants(datum.rank, dual_inertia, endo=dual(frame.frobenius))
    kottwitz = fg_fixed_order(cochar_inertia)
    return TorusLatticeData(
        rank=datum.rank,
        m_basis=m_basis,
        m_frobenius=f_m,
        special_fiber_order=special,
        m_frob_coinvariants=coinv,
        cochar_full_coinvariants=full.order,
        cochar_inertia_coinvariants=cochar_inertia,
        kottwitz_fixed_order=kottwitz,
    )


@dataclass(frozen=True)
class DepthLatticeCheck:
    orbit_id: str
    break_value: Fraction
    in_value_group: bool       # r_i in (1/e) Z
    in_half_value_group: bool  # r_i in (1/2e) Z

    @property
    def ok(self) -> bool:
        return self.in_value_group and self.in_half_value_group


def validate_depth_lattice(filtration: HoweFiltration,
                           orbits: Sequence[OrbitInfo]) -> List[DepthLatticeCheck]:
    """Per-orbit membership of each break in the relevant valuation lattices.

    For an orbit entering at break r over a field with ramification e, the
    genericity constraint asks r in (1/e)Z, and the half-depth used by the
    length identity asks r in (1/(2e))Z.  Both are reported; overall pass
    needs both.
    """
    out: List[DepthLatticeCheck] = []
    for o in orbits:
        layer = filtration.layer_of_orbit(o)
        if layer == 0:
            continue
        r = filtration.breaks[layer - 1]
        out.append(DepthLatticeCheck(
            orbit_id=o.orbit_id,
            break_value=r,
            in_value_group=(r * o.e).denominator == 1,
            in_half_value_group=(r * 2 * o.e).denominator == 1,
        ))
    return out
