"""Finite Galois frames, tame field invariants, and root data with action.

A frame is a finite quotient of the absolute Galois group: a finite group
with a designated normal inertia subgroup, an element playing Frobenius
(its image must generate the cyclic quotient), and the residue prime power.
Subgroups stand for field extensions; indices give degrees, ramification
indices and residue degrees.

A root datum is a lattice with a frame action and a stable symmetric set of
roots; ellipticity (no nonzero invariant vectors) is enforced at
construction because every downstream lattice count silently requires it.

The Howe filtration extracts from per-orbit character depths the increasing
chain of Levi-closed root subsets together with its breaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .qexact import PrimePower
from .zlattice import (
    Matrix,
    SparseColumns,
    Vector,
    coinvariants_order,
    fg_fixed_order,
    group_coinvariants,
    identity_matrix,
    invariant_sublattice,
    kernel_basis,
    mat_eq,
    mat_transpose,
    restrict_endomorphism,
    sparse_columns,
    sparse_mat_vec,
    twisted_fixed_order,
)

NONPOSITIVE = "nonpositive"
DepthValue = Union[Fraction, str]  # a positive rational or the NONPOSITIVE marker


# -- finite groups as multiplication tables ----------------------------------


class FiniteGroup:
    """A finite group on elements 0..n-1 given by its multiplication table.

    Element 0 is the identity.  The table is validated (identity, inverses,
    associativity) at construction.
    """

    def __init__(self, table: Sequence[Sequence[int]], check: bool = True):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self._generators: Dict[FrozenSet[int], List[int]] = {}
        self._coset_keys: Dict[FrozenSet[int], List[int]] = {}
        if check:
            self._validate()
        self._inverse = [next(j for j in range(self.order) if self.table[i][j] == 0)
                         for i in range(self.order)]

    def _validate(self) -> None:
        """Refuse a table that is not a group.

        Associativity is Light's test: (x s) y = x (s y) is checked for all
        x, y and only for s in a generating set of the table, |G|^2 |gens|
        triples instead of |G|^3.  That suffices because the elements a with
        (x a) y = x (a y) for all x, y contain 0 and are closed under
        products: for two of them a and b,
        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
        The generating set is found by closing {0} under right
        multiplication, so every element is such a product of generators.
        """
        n = self.order
        t = self.table
        for row in t:
            if len(row) != n or any(type(x) is not int or not (0 <= x < n) for x in row):
                raise ValueError("malformed multiplication table")
        if any(t[0][j] != j or t[j][0] != j for j in range(n)):
            raise ValueError("element 0 is not an identity")
        for i in range(n):
            if all(t[i][j] != 0 for j in range(n)):
                raise ValueError("element %d has no inverse" % i)
        for s in self.generating_set(self.elements):
            s_row = t[s]
            for x_row in t:
                xs_row = t[x_row[s]]
                if any(xs_row[y] != x_row[s_row[y]] for y in range(n)):
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
        """Closure of {0} under right multiplication by the generators.  In
        a finite group g^-1 = g^(ord g - 1), so this is the subgroup."""
        seen = {0}
        frontier = [0]
        while frontier:
            row = self.table[frontier.pop()]
            for g in gens:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def generating_set(self, elems: Iterable[int]) -> List[int]:
        """Generators of the subgroup with the given elements, chosen
        greedily in increasing order: each is the least element outside the
        subgroup generated by those before it.  Computed once per element
        set; each call returns a fresh list."""
        key = frozenset(elems)
        gens = self._generators.get(key)
        if gens is None:
            gens = []
            span = frozenset([0])
            for g in sorted(key):
                if g not in span:
                    gens.append(g)
                    span = self.subgroup_generated(gens)
            self._generators[key] = gens
        return list(gens)

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

    def coset_keys(self, h: FrozenSet[int]) -> List[int]:
        """The minimal element of the right coset H g, for every g, indexed
        by g.  Computed once per subgroup; every call returns the same list,
        and no caller mutates it."""
        keys = self._coset_keys.get(h)
        if keys is None:
            keys = [0] * self.order
            for coset in self.right_cosets(h):
                key = min(coset)
                for elem in coset:
                    keys[elem] = key
            self._coset_keys[h] = keys
        return keys

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
        """Every subgroup, by closure of generator subsets; fine for tiny groups.

        Each subgroup H found is extended by one g per right coset H g other
        than H, because <H, g> = <H, x g> for x in H.
        """
        found = {frozenset([0])}
        frontier = [frozenset([0])]
        while frontier:
            h = frontier.pop()
            for coset in self.right_cosets(h)[1:]:
                bigger = self.subgroup_generated(sorted(h) + [min(coset)])
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

    A frame is always its whole group.  A subgroup H stands for the field
    it fixes (:func:`field_invariants`); base change to H restricts
    characters and sections literally, on the indices of the whole group.
    """

    group: FiniteGroup
    inertia: FrozenSet[int]
    frobenius: int
    pp: PrimePower

    def __post_init__(self) -> None:
        g = self.group
        if not self.inertia.issubset(g.elements) or not g.is_subgroup(self.inertia):
            raise ValueError("inertia is not a subgroup")
        if not all(g.conj(x, h) in self.inertia for x in g.elements for h in self.inertia):
            raise ValueError("inertia is not normal")
        if len(self.inertia) % self.pp.p == 0:
            raise ValueError("wild frame: p divides |inertia|")
        if self.frobenius not in g.elements:
            raise ValueError("frobenius is not a group element")
        gen = self.subgroup_with_inertia(self.frobenius)
        if len(gen) != g.order:
            raise ValueError("Frobenius image does not generate the quotient by inertia")

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


def field_invariants(frame: GaloisFrame, subgroup: FrozenSet[int]) -> FieldInvariants:
    """Invariants of the extension fixed by a subgroup H of the frame group.

    e is the inertia index [I : I n H] and f the residue degree.  e divides
    the degree [G : H]: I is normal, so IH is a subgroup and
    [G : H] = [G : IH] [IH : H] with [IH : H] = [I : I n H].
    """
    e = len(frame.inertia) // len(frame.inertia & subgroup)
    degree = frame.group.order // len(subgroup)
    return FieldInvariants(degree=degree, e=e, f=degree // e)


# -- root data ----------------------------------------------------------------


def root_key(v: Sequence[int]) -> str:
    return ",".join(str(x) for x in v)


def parse_root_key(s: str) -> Vector:
    return tuple(int(x) for x in s.split(","))


@dataclass(frozen=True)
class GRootDatum:
    """Character lattice with frame action and a stable symmetric root set.

    The action maps every group element to an integer matrix; roots are
    nonzero lattice vectors with R = -R.  Gamma.R = R, ellipticity (no
    nonzero invariant vectors) and the homomorphism property, which puts
    every matrix in GL(rank, Z), are checked against the frame
    (:meth:`check_against_frame`).  That check also records how each
    element permutes the indices of ``sorted(roots)``, and every root-level
    query (:meth:`act` on a root, :meth:`stabilizer`, :meth:`pm_stabilizer`)
    reads that table, so it must come first.
    """

    rank: int
    action: Mapping[int, Matrix]  # element index -> matrix on X^*
    roots: FrozenSet[Vector]
    # sorted(roots), and each root's index in it
    _sorted: List[Vector] = field(default_factory=list, init=False, repr=False, compare=False)
    _index: Dict[Vector, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    # element -> the permutation of root indices it induces
    _perm: Dict[int, List[int]] = field(default_factory=dict, init=False, repr=False,
                                        compare=False)
    # root -> (stabilizer, +-stabilizer)
    _memo: Dict[Vector, Tuple[FrozenSet[int], FrozenSet[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for g, m in self.action.items():
            if len(m) != self.rank or any(len(row) != self.rank for row in m):
                raise ValueError("action matrix for element %d has wrong shape" % g)
        zero = tuple([0] * self.rank)
        if zero in self.roots:
            raise ValueError("0 is not allowed as a root")
        for r in self.roots:
            if tuple(-x for x in r) not in self.roots:
                raise ValueError("root set is not symmetric: missing -%s" % (r,))
        self._sorted.extend(sorted(self.roots))
        self._index.update((r, i) for i, r in enumerate(self._sorted))

    def check_against_frame(self, frame: GaloisFrame) -> None:
        """Check that the action is a homomorphism, that the group keeps
        the root set stable, and that no nonzero vector is group-fixed.

        Each property is tested on generators only, which proves it for the
        whole group.  The elements a with M(ab) = M(a)M(b) for every b
        contain 0 once M(0) = I, and are closed under left multiplication by
        each generator s that passes M(s)M(b) = M(sb) for every b; in a
        finite group they are then all of it.  A homomorphism has
        det M(g)^|G| = det M(0) = 1, so an integer action that passes is in
        GL(Z).  Each M(g) is injective on the finite root set, so mapping it
        into itself permutes it, and products of permutations are
        permutations.  Vectors fixed by the generators are fixed by the
        group.  The generators' permutations of the roots, kept from the
        stability test, give every element's (:meth:`_permute_roots`).

        Both products read each generator's matrix once, at load, in sparse
        column form (``zlattice.sparse_columns``): column j of M(s)M(b) is
        M(s) applied to column j of M(b), and M(s) applied to a vector
        costs only the nonzero entries of M(s) in the columns where that
        vector is nonzero.  The action matrices of a Coxeter torus of rank
        n have O(n) nonzero entries among n^2.  Every entry of every
        product is compared, one pair (s, b) at a time in the order above.
        """
        g = frame.group
        if set(self.action.keys()) != set(g.elements):
            raise ValueError("action must be defined on every group element")
        if not mat_eq(self.action[0], identity_matrix(self.rank)):
            raise ValueError("action is not a homomorphism at (0, 0)")
        gens = g.generating_set(g.elements)
        sparse = {s: sparse_columns(self.action[s]) for s in gens}
        columns = {a: list(zip(*m)) for a, m in self.action.items()}
        for s in gens:
            for b in g.elements:
                if any(sparse_mat_vec(sparse[s], col) != want
                       for col, want in zip(columns[b], columns[g.mul(s, b)])):
                    raise ValueError("action is not a homomorphism at (%d, %d)" % (s, b))
        self._permute_roots(g, sparse)
        fixed = invariant_sublattice(self.rank, [self.action[a] for a in gens])
        if fixed:
            raise ValueError("datum is not elliptic: invariant vectors exist")

    def _permute_roots(self, group: FiniteGroup, sparse: Mapping[int, SparseColumns]) -> None:
        """Refuse a generator that moves a root off R, then record every
        element's permutation of the root indices.  ``sparse`` maps each
        generator to its matrix in sparse column form.

        The action must already be a homomorphism, so M(sb) r = M(s)(M(b) r)
        and perm(sb)[i] = perm(s)[perm(b)[i]]: a walk from the identity
        along left multiplication by the generators reaches every element
        at one list lookup per root.
        """
        gen_perms = []
        for a, cols in sparse.items():
            images = [self._index.get(sparse_mat_vec(cols, r)) for r in self._sorted]
            if None in images:
                raise ValueError("root set is not stable under element %d" % a)
            gen_perms.append((a, images))
        perm = self._perm
        perm[0] = list(range(len(self._sorted)))
        frontier = [0]
        while frontier:
            b = frontier.pop()
            for s, ps in gen_perms:
                sb = group.mul(s, b)
                if sb not in perm:
                    perm[sb] = [ps[i] for i in perm[b]]
                    frontier.append(sb)

    def _root_data(self, root: Vector) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        entry = self._memo.get(root)
        if entry is None:
            i = self._index[root]
            neg = self._index[tuple(-x for x in root)]
            stab = frozenset(g for g, p in self._perm.items() if p[i] == i)
            pm = stab | frozenset(g for g, p in self._perm.items() if p[i] == neg)
            entry = self._memo[root] = (stab, pm)
        return entry

    def act(self, g: int, root: Vector) -> Vector:
        """M(g) root, read from the permutation table; a vector that is not
        a root raises KeyError, as in :meth:`stabilizer`."""
        return self._sorted[self._perm[g][self._index[root]]]

    def stabilizer(self, root: Vector) -> FrozenSet[int]:
        """The elements of the whole group that fix the root, computed once."""
        return self._root_data(root)[0]

    def pm_stabilizer(self, root: Vector) -> FrozenSet[int]:
        """The elements of the whole group that send the root to itself or
        to its negative, computed once."""
        return self._root_data(root)[1]


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

    The datum must have passed :meth:`GRootDatum.check_against_frame`: the
    action is then a homomorphism, so each stabilizer is a subgroup and the
    orbit size is its index (orbit-stabilizer), and every image of a root
    is read from the datum's permutation table.
    """
    seen: Dict[Vector, str] = {}
    orbits: List[OrbitInfo] = []
    orbit_members: Dict[str, FrozenSet[Vector]] = {}
    for root in sorted(datum.roots):
        if root in seen:
            continue
        members = frozenset(datum.act(a, root) for a in frame.group.elements)
        rep = min(members)
        oid = root_key(rep)
        for m in members:
            seen[m] = oid
        orbit_members[oid] = members
    for oid, members in sorted(orbit_members.items(), key=lambda kv: parse_root_key(kv[0])):
        rep = min(members)
        stab = datum.stabilizer(rep)
        inv = field_invariants(frame, stab)
        neg = tuple(-x for x in rep)  # a root, since GRootDatum refuses R != -R
        symmetric = neg in members
        ramified: Optional[bool] = None
        if symmetric:
            ramified = any(datum.act(a, rep) == neg for a in frame.inertia)
        orbits.append(OrbitInfo(
            orbit_id=oid, members=members, representative=rep, stabilizer=stab,
            degree=inv.degree, e=inv.e, f=inv.f, symmetric=symmetric,
            ramified=ramified, negation_id=seen[neg]))
    return orbits


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

    def layer_sizes(self) -> List[int]:
        """|R_{i+1}| - |R_i| for each break index i."""
        return [len(self.levels[i + 1]) - len(self.levels[i]) for i in range(self.d)]

    def rvec(self) -> Tuple[Fraction, ...]:
        """The depth sequence (r_0, ..., r_d) with r_d the total depth."""
        return tuple(list(self.breaks) + [self.total])

    def svec(self) -> Tuple[Fraction, ...]:
        """The half-depths s_i = r_i / 2."""
        return tuple(Fraction(r.numerator, 2 * r.denominator) for r in self.rvec())

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


def howe_filtration(datum: GRootDatum, orbits: Sequence[OrbitInfo],
                    theta_depths: Mapping[str, DepthValue],
                    theta_total_depth: Fraction) -> HoweFiltration:
    """Build the depth filtration of the root system from per-orbit depths.

    The orbits are the datum's frame orbits (:func:`classify_orbits`).  The
    nonpositive-depth orbits form R_0; the distinct positive depths, sorted
    increasingly, are the breaks, and each level accumulates the orbits up
    to that depth.  Each proper level must be rationally closed in R (the
    Levi condition): the span of R_i meets R exactly in R_i.  The last
    level is the union of all orbits, R itself, and is closed trivially.
    """
    by_id = {o.orbit_id: o for o in orbits}
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
    # Levi closure of every proper level.
    for i, lv in enumerate(levels[:-1]):
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
    the special-fiber torus.  On the cocharacter side we carry the order of
    the full coinvariant group and the Frobenius-fixed count of the inertia
    coinvariants (the Kottwitz-style component index separating the two
    published prefactor normalizations).
    """

    m_basis: Tuple[Vector, ...]
    special_fiber_order: int        # |det(q F - 1)| on M
    m_frob_coinvariants: int        # |det(F - 1)| on M
    cochar_full_coinvariants: int   # |X_*(S^a)_Gamma|
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
    M(g)^-T on the cocharacter lattice is read off as M(g^-1)^T.  The
    invariant sublattices and the coinvariant relations are taken over
    generators of the group and of inertia only: a vector fixed by the
    generators is fixed by the group, and (gh - 1)x = (g - 1)(hx) + (h - 1)x
    puts every relation in the span of the generators' relations.

    Every order here is finite, because that check also refuses a nonzero
    group-fixed vector and the group is generated by I and Frob.  A
    vector of X^I fixed by Frob is group-fixed, so det(F - 1) on X^I is
    nonzero and (X^I)_F is finite.  Over Q, the coinvariants of a finite
    group are isomorphic to its invariants, and X_* (x) Q, dual to X (x) Q,
    has invariants of the same dimension, 0.  So X_{*,Gamma} has rank 0, and
    so has (X_{*,I})^F: tensored with Q it is the Frob-fixed part of
    (X_* (x) Q)^I, which is (X_* (x) Q)^Gamma.  Finally Frob has finite
    order, so its eigenvalues are roots of unity and det(qF - 1) is nonzero.
    """
    q = frame.q
    group = frame.group
    gens = group.generating_set(group.elements)
    inertia_gens = group.generating_set(frame.inertia)

    def dual(a: int) -> Matrix:
        return mat_transpose(datum.action[group.inv(a)])

    m_basis = tuple(invariant_sublattice(datum.rank, [datum.action[a] for a in inertia_gens]))
    f_m = restrict_endomorphism(datum.action[frame.frobenius], m_basis)
    special = twisted_fixed_order(f_m, q)
    coinv = coinvariants_order(f_m)
    full = group_coinvariants(datum.rank, [dual(a) for a in gens])
    cochar_inertia = group_coinvariants(datum.rank, [dual(a) for a in inertia_gens],
                                        endo=dual(frame.frobenius))
    kottwitz = fg_fixed_order(cochar_inertia)
    return TorusLatticeData(
        m_basis=m_basis,
        special_fiber_order=special,
        m_frob_coinvariants=coinv,
        cochar_full_coinvariants=full.order,
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
    needs both.  In lowest terms r e is an integer exactly when the
    denominator of r divides e.
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
            in_value_group=o.e % r.denominator == 0,
            in_half_value_group=2 * o.e % r.denominator == 0,
        ))
    return out
