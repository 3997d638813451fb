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
chain of Levi-closed root subsets together with its breaks and the orbits
of each layer, which the formal degree reads, and answers each orbit's
break.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .qexact import Frozen, PrimePower, Value
from .zlattice import (
    Matrix,
    SparseColumns,
    Vector,
    frobenius_orders,
    identity_matrix,
    kernel_basis,
    mat_eq,
    mat_transpose,
    sparse_columns,
    sparse_mat_vec,
)

NONPOSITIVE = "nonpositive"
DepthValue = Union[Fraction, str]  # a positive rational or the NONPOSITIVE marker


# -- finite groups as multiplication tables ----------------------------------


class FiniteGroup:
    """A finite group on elements 0..n-1 given by its multiplication table.

    Element 0 is the identity.  Every table, those :meth:`cyclic` and
    :meth:`from_permutations` build too, is validated (identity, inverses,
    associativity) at construction.
    """

    def __init__(self, table: Sequence[Sequence[int]]):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.elements = range(self.order)
        self._generators: Dict[FrozenSet[int], List[int]] = {}
        self._coset_keys: Dict[FrozenSet[int], List[int]] = {}
        self._validate()
        # inverse[i] is i^-1; hot loops read it and the table rows directly
        self.inverse = tuple(row.index(0) for row in self.table)

    def _validate(self) -> None:
        """Refuse a table that is not a group, checking whole rows at a time.

        The checks run in this order, and the first that fails names the
        table's fault:

        * every row has n entries, every entry is an ``int`` (not a
          ``bool``, not a ``float``), and the one set of the table's
          entries lies in 0..n-1;
        * row 0 and column 0 are both 0, 1, ..., n-1 (element 0 is the
          identity);
        * each row holds a 0, and the first row that does not names the
          element without an inverse;
        * associativity, by Light's test: (x s) y = x (s y) for all x, y and
          only for s in a generating set of the table, |G|^2 |gens| triples
          instead of |G|^3.  For one s and x that is one comparison of two
          rows: row x s of the table against row x read at the entries of
          row s.  That suffices because the elements a with
          (x a) y = x (a y) for all x, y contain 0 and are closed under
          products: for two of them a and b,
          (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
          The generating set is found by closing {0} under right
          multiplication, so every element is such a product of generators.

        The empty table is refused before them: it has no identity.
        """
        n = self.order
        t = self.table
        if not n:
            raise ValueError("multiplication table is empty")
        if set(map(len, t)) - {n} or set(map(type, chain.from_iterable(t))) - {int}:
            raise ValueError("malformed multiplication table")
        entries = set(chain.from_iterable(t))  # hashable now: all ints
        if entries and (min(entries) < 0 or max(entries) >= n):
            raise ValueError("malformed multiplication table")
        ident = tuple(range(n))
        if t[0] != ident or tuple(row[0] for row in t) != ident:
            raise ValueError("element 0 is not an identity")
        for i, row in enumerate(t):
            if 0 not in row:
                raise ValueError("element %d has no inverse" % i)
        for s in self.generating_set(self.elements):
            # a generator is never 0, so n >= 2 and the getter returns tuples
            x_at_s_row = operator.itemgetter(*t[s])
            for x_row in t:
                if t[x_row[s]] != x_at_s_row(x_row):
                    raise ValueError("multiplication table is not associative")

    # mult / inv / conj -------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul(x, g)
            k += 1
        return k

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

    def coset_keys(self, h: FrozenSet[int]) -> List[int]:
        """The least element of the right coset H g, for every g, indexed by
        g: the one representation of right cosets in the package.

        H g is column g of the rows of H in the table.  Scanning g in
        increasing order meets each coset first at its least element, which
        then keys the whole column.  Read off the list:

        * the right cosets H\\A inside a subgroup A containing H are keyed
          by the g in A with keys[g] == g, since H g lies in A for g in A;
          their minimal-element section is the identity on those keys;
        * x and y lie in one coset exactly when keys[x] == keys[y], so a
          double coset H g K is the union of the cosets H g k for k in K,
          marked by their keys keys[g k].  A scan of g in increasing
          order, marking the double coset of each unmarked g, meets each
          double coset first at its least element: had a smaller element
          of it come up before, the whole double coset would have been
          marked then (``chi_data.compatible_choices``).

        Computed once per subgroup; every call returns the same list, and
        no caller mutates it."""
        keys = self._coset_keys.get(h)
        if keys is None:
            keys = [-1] * self.order
            rows = [self.table[x] for x in h]
            for g in self.elements:
                if keys[g] < 0:
                    for row in rows:
                        keys[row[g]] = g
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

    def all_subgroups(self) -> List[FrozenSet[int]]:
        """Every subgroup, by closure of generator subsets; fine for tiny groups.

        Each subgroup H found, with the generators it was found from, is
        extended by one g per right coset H g other than H, because
        <H, g> = <H, x g> for x in H: by the coset's key.
        """
        found = {frozenset([0])}
        frontier: List[Tuple[FrozenSet[int], List[int]]] = [(frozenset([0]), [])]
        while frontier:
            h, gens = frontier.pop()
            keys = self.coset_keys(h)
            for g in self.elements[1:]:
                if keys[g] != g:
                    continue
                bigger = self.subgroup_generated(gens + [g])
                if bigger not in found:
                    found.add(bigger)
                    frontier.append((bigger, gens + [g]))
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    # constructors --------------------------------------------------------

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])

    @staticmethod
    def from_permutations(gens: Sequence[Sequence[int]], max_order: Optional[int] = None
                          ) -> Tuple["FiniteGroup", List[Tuple[int, ...]]]:
        """Group generated by permutations (lists of images on 0..m-1).

        Elements are numbered in BFS discovery order from the identity,
        applying the generators in the order given; the identity is 0.
        Returns the group and the permutation realizing each element index.
        With ``max_order``, the closure stops and raises as soon as it has
        found more elements than that, before the |G|^2 table is built.
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
            if max_order is not None and len(elems) > max_order:
                raise ValueError("permutations generate more than %d elements" % max_order)
        n = len(elems)
        table = [[0] * n for _ in range(n)]
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                comp = tuple(a[b[x]] for x in range(deg))  # (a after b)
                table[i][j] = index[comp]
        return FiniteGroup(table), elems


# -- frames and field invariants ----------------------------------------------


class GaloisFrame(Frozen):
    """Finite Galois quotient: group, normal inertia subgroup, Frobenius, q.

    Invariants: the quotient by inertia is cyclic and generated by the image
    of the Frobenius element, and |inertia| is coprime to p (tameness).

    Normality of the inertia subgroup I is tested on generators only:
    x h x^-1 in I for x in a generating set of G and h in one of I.  That
    proves it for the whole group.  Conjugation by x is a homomorphism, so
    x I x^-1, generated by the x h x^-1, then lies in I.  The x with
    x I x^-1 in I contain 0 and are closed under products, since
    (xy) I (xy)^-1 = x (y I y^-1) x^-1; in a finite group they form a
    subgroup, which contains the generators of G and so is G.

    A frame is always its whole group.  A subgroup H stands for the field
    it fixes, with its degree, e and f (:func:`classify_orbits`); base
    change to H restricts characters and sections literally, on the indices
    of the whole group.
    """

    __slots__ = ("group", "inertia", "frobenius", "pp")

    def __init__(self, group: FiniteGroup, inertia: FrozenSet[int], frobenius: int,
                 pp: PrimePower) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "inertia", inertia)
        object.__setattr__(self, "frobenius", frobenius)
        object.__setattr__(self, "pp", pp)
        g = group
        if not inertia.issubset(g.elements) or not g.is_subgroup(inertia):
            raise ValueError("inertia is not a subgroup")
        inertia_gens = g.generating_set(inertia)
        if not all(g.conj(x, h) in inertia
                   for x in g.generating_set(g.elements) for h in inertia_gens):
            raise ValueError("inertia is not normal")
        if len(inertia) % pp.p == 0:
            raise ValueError("wild frame: p divides |inertia|")
        if frobenius not in g.elements:
            raise ValueError("frobenius is not a group element")
        if len(g.subgroup_generated(sorted(inertia) + [frobenius])) != g.order:
            raise ValueError("Frobenius image does not generate the quotient by inertia")

    @property
    def q(self) -> int:
        return self.pp.q


# -- root data ----------------------------------------------------------------


def root_key(v: Sequence[int]) -> str:
    return ",".join(map(str, v))


def _combine_rows(terms: Sequence[Tuple[int, int]], m: Matrix) -> List[int]:
    """The sum of c times row k of m over the (k, c) in ``terms``, as a
    list; a lone (k, 1) gives row k of m itself.  A term with c = +-1 is
    added or subtracted a whole row at a time, with no product."""
    if not terms:
        return [0] * len(m)
    k, c = terms[0]
    out = m[k] if c == 1 else [c * x for x in m[k]]
    for k, c in terms[1:]:
        if c == 1:
            out = list(map(operator.add, out, m[k]))
        elif c == -1:
            out = list(map(operator.sub, out, m[k]))
        else:
            out = [y + c * x for y, x in zip(out, m[k])]
    return out


class GRootDatum(Frozen):
    """Character lattice with frame action and a stable symmetric root set.

    The action maps every group element to an integer matrix; roots are
    nonzero lattice vectors of ``rank`` coordinates with R = -R.  Roots are
    numbered by their place in ``sorted_roots``, and ``neg[i]`` is the index
    of -root i.  Negation reverses the lexicographic order of vectors of
    one length, so R = -R exactly when the i-th roots from the two ends of
    ``sorted_roots`` sum to zero for every i, and then neg[i] = |R| - 1 - i:
    the symmetry check reads that and builds no negated vector.

    The constructor ends by checking the action against the frame group
    (:meth:`check_against_frame`): the homomorphism property, which puts
    every matrix in GL(rank, Z), Gamma.R = R and ellipticity (no nonzero
    invariant vectors).  That check also records how each element permutes
    the root indices, which every root-level query (:meth:`act` on a root,
    :meth:`orbit`, :meth:`stabilizer`, :meth:`pm_stabilizer`) reads, and
    ``traces``: tr M(g) for every element g, indexed by g.
    """

    __slots__ = ("rank", "action", "roots", "sorted_roots", "_index", "neg", "_perm",
                 "traces", "_memo")

    def __init__(self, rank: int, action: Mapping[int, Matrix],
                 roots: FrozenSet[Vector], group: FiniteGroup) -> None:
        for g, m in action.items():
            if len(m) != rank or any(len(row) != rank for row in m):
                raise ValueError("action matrix for element %d has wrong shape" % g)
        if set(map(len, roots)) - {rank}:
            bad = next(r for r in roots if len(r) != rank)
            raise ValueError("root %s does not have %d coordinates" % (bad, rank))
        zero = tuple([0] * rank)
        if zero in roots:
            raise ValueError("0 is not allowed as a root")
        srt = sorted(roots)
        if any(any(map(operator.add, r, s)) for r, s in zip(srt, reversed(srt))):
            # name the first root in set order whose negative is missing
            for r in roots:
                if tuple(-x for x in r) not in roots:
                    raise ValueError("root set is not symmetric: missing -%s" % (r,))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "action", action)  # element index -> matrix on X^*
        object.__setattr__(self, "roots", roots)
        # sorted(roots), each root's index in it, and the index of its negative
        object.__setattr__(self, "sorted_roots", srt)
        object.__setattr__(self, "_index", dict(zip(srt, range(len(srt)))))
        object.__setattr__(self, "neg", list(range(len(srt) - 1, -1, -1)))
        # root -> (stabilizer, +-stabilizer)
        object.__setattr__(self, "_memo", {})
        self.check_against_frame(group)

    def check_against_frame(self, g: FiniteGroup) -> None:
        """Check that the action is a homomorphism on the frame group g,
        that g keeps the root set stable, and that no nonzero vector is
        g-fixed; record ``_perm``, each element's permutation of the root
        indices, and ``traces``.

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

        Ellipticity is read from the traces, which :func:`torus_lattice_data`
        reads too: once M is a homomorphism, the average (1/|G|) sum_g M(g)
        is the projection onto V^G for V = X (x) Q, so sum_g tr M(g) =
        |G| dim V^G, and the datum is elliptic exactly when the sum is 0.
        No lattice basis and no Smith form is needed.

        The homomorphism test works on whole rows.  Each generator's matrix
        is read once, each row as the (k, entry) pairs of its nonzero
        entries, and row i of M(s)M(b) is the sum of entry times row k of
        M(b) over the pairs of row i of M(s).  A row with the one nonzero
        entry 1, as every row of a permutation matrix has, is row k of M(b)
        itself, with no arithmetic.  Each product row is compared with row
        i of M(sb) as one list, so the matrices must be lists of integer
        lists (``Matrix``), as loading builds them.  Every row of every
        product is compared, one pair (s, b) at a time in the order above,
        and the first pair with a row that differs is the one named.  The
        stability test applies M(s) to each root in sparse column form
        (``zlattice.sparse_columns``), at the cost of the nonzero entries
        of M(s) in the columns where the root is nonzero.  The action
        matrices of a Coxeter torus of rank n have O(n) nonzero entries
        among n^2.
        """
        action = self.action
        if set(action.keys()) != set(g.elements):
            raise ValueError("action must be defined on every group element")
        if not mat_eq(action[0], identity_matrix(self.rank)):
            raise ValueError("action is not a homomorphism at (0, 0)")
        gens = g.generating_set(g.elements)
        for s in gens:
            s_times = g.table[s]
            s_rows = [[(k, c) for k, c in enumerate(row) if c] for row in action[s]]
            for b in g.elements:
                m_b = action[b]
                for terms, want in zip(s_rows, action[s_times[b]]):
                    if _combine_rows(terms, m_b) != want:
                        raise ValueError("action is not a homomorphism at (%d, %d)" % (s, b))
        sparse = {s: sparse_columns(action[s]) for s in gens}
        object.__setattr__(self, "_perm", self._permute_roots(g, sparse))
        traces = [sum(action[a][i][i] for i in range(self.rank)) for a in g.elements]
        object.__setattr__(self, "traces", traces)
        if sum(traces):
            raise ValueError("datum is not elliptic: invariant vectors exist")

    def _permute_roots(self, group: FiniteGroup, sparse: Mapping[int, SparseColumns]
                       ) -> Dict[int, List[int]]:
        """Refuse a generator that moves a root off R, then return every
        element's permutation of the root indices.  ``sparse`` maps each
        generator to its matrix in sparse column form.

        The action must already be a homomorphism, so M(sb) r = M(s)(M(b) r)
        and perm(sb)[i] = perm(s)[perm(b)[i]]: a walk from the identity
        along left multiplication by the generators reaches every element
        at one list lookup per root.
        """
        gen_perms = []
        for a, cols in sparse.items():
            images = [self._index.get(sparse_mat_vec(cols, r)) for r in self.sorted_roots]
            if None in images:
                raise ValueError("root set is not stable under element %d" % a)
            gen_perms.append((a, images))
        perm = {0: list(range(len(self.sorted_roots)))}
        frontier = [0]
        while frontier:
            b = frontier.pop()
            for s, ps in gen_perms:
                sb = group.mul(s, b)
                if sb not in perm:
                    perm[sb] = [ps[i] for i in perm[b]]
                    frontier.append(sb)
        return perm

    def _root_data(self, root: Vector) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        entry = self._memo.get(root)
        if entry is None:
            i = self._index[root]
            neg = self.neg[i]
            stab = frozenset(g for g, p in self._perm.items() if p[i] == i)
            pm = stab | frozenset(g for g, p in self._perm.items() if p[i] == neg)
            entry = self._memo[root] = (stab, pm)
        return entry

    def act(self, g: int, root: Vector) -> Vector:
        """M(g) root, read from the permutation table; a vector that is not
        a root raises KeyError, as in :meth:`stabilizer`."""
        return self.sorted_roots[self._perm[g][self._index[root]]]

    def negative(self, root: Vector) -> Vector:
        """-root, read from the negation table; a vector that is not a root
        raises KeyError."""
        return self.sorted_roots[self.neg[self._index[root]]]

    def orbit(self, i: int) -> Set[int]:
        """The indices of the images of root i under every element, read
        from the permutation table."""
        return {p[i] for p in self._perm.values()}

    def stabilizer(self, root: Vector) -> FrozenSet[int]:
        """The elements of the whole group that fix the root, computed once."""
        return self._root_data(root)[0]

    def pm_stabilizer(self, root: Vector) -> FrozenSet[int]:
        """The elements of the whole group that send the root to itself or
        to its negative, computed once."""
        return self._root_data(root)[1]


class OrbitInfo(Value):
    """One Galois orbit of roots with its stabilizer field invariants.

    ``representative`` is the lexicographically minimal member, ``degree``
    the orbit size [k_alpha : k], and ``ramified`` is meaningful only when
    the orbit is symmetric."""

    __slots__ = ("orbit_id", "members", "representative", "stabilizer", "degree", "e", "f",
                 "symmetric", "ramified", "negation_id")

    def __init__(self, orbit_id: str, members: FrozenSet[Vector], representative: Vector,
                 stabilizer: FrozenSet[int], degree: int, e: int, f: int, symmetric: bool,
                 ramified: Optional[bool], negation_id: str) -> None:
        object.__setattr__(self, "orbit_id", orbit_id)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "stabilizer", stabilizer)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "symmetric", symmetric)
        object.__setattr__(self, "ramified", ramified)
        object.__setattr__(self, "negation_id", negation_id)


def classify_orbits(datum: GRootDatum, frame: GaloisFrame) -> List[OrbitInfo]:
    """Partition the roots into frame orbits, with symmetry classification.

    A symmetric orbit contains the negative of each member; it is ramified
    exactly when some inertia element carries a root to its negative (the
    relative extension of the plus-minus field is then ramified quadratic).

    The datum's action is a homomorphism (:class:`GRootDatum` checks it),
    so each stabilizer is a subgroup and the orbit size is its index
    (orbit-stabilizer).  Orbits are read on root indices from the datum's
    permutation table (:meth:`GRootDatum.orbit`) in increasing index order,
    so each is met first at its least index, which is its least root, the
    representative, because the indices follow the sorted roots.  The
    negatives of an orbit form an orbit, since M(g)(-a) = -(M(g) a).  Only
    the representatives' stabilizers are computed.

    The stabilizer H of the representative fixes the field k_alpha, read
    off by indices: the degree [G : H], the ramification index
    e = [I : I n H] and the residue degree f = degree / e.  e divides the
    degree: I is normal, so IH is a subgroup and [G : H] = [G : IH] [IH : H]
    with [IH : H] = [I : I n H].
    """
    srt, neg, perm = datum.sorted_roots, datum.neg, datum._perm
    seen = [False] * len(srt)
    orbits: List[OrbitInfo] = []
    for i in range(len(srt)):
        if seen[i]:
            continue
        members = datum.orbit(i)
        for j in members:
            seen[j] = True
        rep = srt[i]
        stab = datum.stabilizer(rep)
        degree = frame.group.order // len(stab)
        e = len(frame.inertia) // len(frame.inertia & stab)
        symmetric = neg[i] in members
        ramified: Optional[bool] = None
        if symmetric:
            ramified = any(perm[a][i] == neg[i] for a in frame.inertia)
        orbits.append(OrbitInfo(
            orbit_id=root_key(rep), members=frozenset(map(srt.__getitem__, members)),
            representative=rep, stabilizer=stab, degree=degree, e=e, f=degree // e,
            symmetric=symmetric, ramified=ramified,
            negation_id=root_key(srt[min(neg[j] for j in members)])))
    return orbits


def negation_classes(orbits: Sequence[OrbitInfo]) -> List[Tuple[OrbitInfo, ...]]:
    """The classes of roots under the frame group together with negation,
    as tuples of the orbits of :func:`classify_orbits`: (o,) for a
    symmetric orbit o, (o, o') for an orbit o and the orbit o' of its
    negatives (``o.negation_id``).

    In that orbit order each class is met first at its least root, so the
    classes come in increasing order of their least root, and o, the orbit
    met first, has it as its representative and names the class.
    """
    by_id = {o.orbit_id: o for o in orbits}
    paired = set()  # the second orbits of the pairs listed so far
    out: List[Tuple[OrbitInfo, ...]] = []
    for o in orbits:
        if o.orbit_id in paired:
            continue
        if o.negation_id == o.orbit_id:
            out.append((o,))
        else:
            paired.add(o.negation_id)
            out.append((o, by_id[o.negation_id]))
    return out


# -- the Howe filtration -------------------------------------------------------


class HoweFiltration(Value):
    """Increasing chain of root subsets R_0 <= ... <= R_d with its breaks.

    layers[i] lists, in orbit order, the orbits of R_i - R_{i-1}, so R_i is
    the union of the members of the layers up to i: layers[0] is the
    nonpositive-depth part, R_0, and the orbits of layers[i + 1] have depth
    breaks[i]: :meth:`orbit_breaks` reads that off.  breaks are the
    distinct positive depths r_0 < ... < r_{d-1}; total is r_d (the full
    character depth).
    """

    __slots__ = ("layers", "breaks", "total")

    def __init__(self, layers: Tuple[Tuple[OrbitInfo, ...], ...], breaks: Tuple[Fraction, ...],
                 total: Fraction) -> None:
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "total", total)

    @property
    def d(self) -> int:
        return len(self.breaks)

    def orbit_breaks(self) -> Dict[str, Fraction]:
        """Each orbit of positive depth, by its id, to its break; an orbit of
        the nonpositive part has none."""
        return {o.orbit_id: r for r, layer in zip(self.breaks, self.layers[1:]) for o in layer}


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
    nonpositive-depth orbits form layer 0; the distinct positive depths,
    sorted increasingly, are the breaks, and layer i + 1 holds the orbits
    of depth breaks[i], each layer in orbit order.  This is the one place
    the orbits are grouped by depth.  Level i is the union of the layers up
    to i, so R_0 is the nonpositive part.  Each proper level must be
    rationally closed in R (the Levi condition): the span of R_i meets R
    exactly in R_i.  The last level is the union of all orbits, R itself,
    and is closed trivially.

    The marker is told from a depth by its type: a ``Fraction`` is never
    compared with the marker string, which would walk the ``numbers``
    ABCs on every comparison.
    """
    by_id = {o.orbit_id: o for o in orbits}
    if set(theta_depths.keys()) != set(by_id.keys()):
        raise ValueError("depth map must cover exactly the orbits; got %s, want %s"
                         % (json.dumps(sorted(theta_depths)), json.dumps(sorted(by_id))))
    total = Fraction(theta_total_depth)
    if total < 0:
        raise ValueError("total depth must be >= 0")
    positive: Dict[str, Fraction] = {}  # the orbits of positive depth
    for oid, val in theta_depths.items():
        if isinstance(val, str) and val == NONPOSITIVE:
            continue
        val = Fraction(val)
        if val <= 0:
            raise ValueError("positive depth expected for orbit %s "
                             "(use the nonpositive marker otherwise)" % oid)
        if val > total:
            raise ValueError("depth %s of orbit %s exceeds the total depth %s"
                             % (val, oid, total))
        positive[oid] = val
    for oid, o in by_id.items():
        if positive.get(oid) != positive.get(o.negation_id):
            raise ValueError("depth map is not negation-invariant at orbit %s" % oid)

    # The orbits of each depth in orbit order, the nonpositive ones under None.
    by_depth: Dict[Optional[Fraction], List[OrbitInfo]] = {}
    for oid, o in by_id.items():
        by_depth.setdefault(positive.get(oid), []).append(o)
    breaks = sorted(r for r in by_depth if r is not None)
    layers = [tuple(by_depth.get(None, ()))] + [tuple(by_depth[r]) for r in breaks]
    # Levi closure of every proper level, R_i the running union of the layers.
    level: FrozenSet[Vector] = frozenset()
    for i, layer in enumerate(layers[:-1]):
        level = level.union(*(o.members for o in layer))
        closure = _span_closure(sorted(level), datum.roots)
        if closure != level:
            extra = sorted(closure - level)
            raise ValueError(
                "level %d is not rationally closed in R: span also contains %s"
                % (i, extra))
    return HoweFiltration(layers=tuple(layers), breaks=tuple(breaks), total=total)


class TorusLatticeData(Value):
    """Every lattice invariant of the torus both sides of the comparison use.

    M is the inertia-fixed part X^I of the character lattice, with the
    Frobenius F; its rank, its twisted fixed-point count |det(qF - 1)| (the
    order of the special-fiber torus) and |det(F - 1)| = |(X^I)_F| are
    values of the characteristic polynomial of F on X^I (x) Q, read from
    traces.  On the cocharacter side we carry the order of the full
    coinvariant group and the Frobenius-fixed count of the inertia
    coinvariants (the Kottwitz-style component index separating the two
    published prefactor normalizations), both from one Smith form.

    Fields: ``rank_m`` is the rank of M, ``special_fiber_order`` is
    |det(q F - 1)| on M, ``m_frob_coinvariants`` is |det(F - 1)| on M,
    ``cochar_full_coinvariants`` is |X_*(S^a)_Gamma| and
    ``kottwitz_fixed_order`` is |X_*(S^a)_I ^ Frob|.
    """

    __slots__ = ("rank_m", "special_fiber_order", "m_frob_coinvariants",
                 "cochar_full_coinvariants", "kottwitz_fixed_order")

    def __init__(self, rank_m: int, special_fiber_order: int, m_frob_coinvariants: int,
                 cochar_full_coinvariants: int, kottwitz_fixed_order: int) -> None:
        object.__setattr__(self, "rank_m", rank_m)
        object.__setattr__(self, "special_fiber_order", special_fiber_order)
        object.__setattr__(self, "m_frob_coinvariants", m_frob_coinvariants)
        object.__setattr__(self, "cochar_full_coinvariants", cochar_full_coinvariants)
        object.__setattr__(self, "kottwitz_fixed_order", kottwitz_fixed_order)

    @property
    def full_point_index(self) -> int:
        """Index of the deep points inside all rational points of the
        anisotropic torus: the Kottwitz-style component count times the
        special-fiber order."""
        return self.kottwitz_fixed_order * self.special_fiber_order


def torus_lattice_data(datum: GRootDatum, frame: GaloisFrame) -> TorusLatticeData:
    """Compute the torus lattice data of a datum on the frame's group.

    The orders of M = X^I come from the traces the datum recorded.  The
    inertia average P = (1/|I|) sum_{i in I} M(i) projects V = X (x) Q onto
    V^I, and F normalizes I, so F preserves V^I and
    tr(F^k | V^I) = tr(M(phi)^k P) = (1/|I|) sum_{i in I} tr M(phi^k i).
    So rank M is p_0 and these are the power sums p_k of the eigenvalues of
    F on V^I; Newton's identities k e_k = sum_{j=1..k} (-1)^(j-1) e_{k-j} p_j
    give their elementary symmetric functions, all integers because F
    preserves the lattice M.  Then det(1 - tF) = sum_k (-t)^k e_k, taken at
    t = q and t = 1.  No basis of M and no determinant is computed.

    On the cocharacter lattice, where g acts by M(g)^-T = M(g^-1)^T, the
    inertia coinvariants X_{*,I} are presented by the columns of g - 1 for
    the inertia generators g only, since (gh - 1)x = (g - 1)(hx) + (h - 1)x
    puts every relation in their span.  Frobenius F preserves that relation
    lattice: F(g - 1)x = (F g F^-1 - 1)(F x), F g F^-1 lies in I because
    :class:`GaloisFrame` refuses a non-normal inertia subgroup, and the
    dual action is a homomorphism because :class:`GRootDatum` checked that
    the action is one.  So :func:`fdc.zlattice.frobenius_orders` applies,
    and its one Smith form of [F - 1 | -B] gives both the kernel of F - 1,
    whose order is |(X_{*,I})^F|, and its cokernel
    X_*/((F - 1)X_* + I-relations), which is X_{*,Gamma} because the frame
    guarantees Gamma = <I, Frob>.

    Every order here is finite, because the datum also refuses a nonzero
    group-fixed vector and the group is generated by I and Frob.  A
    vector of X^I fixed by Frob is group-fixed, so det(F - 1) on X^I is
    nonzero and (X^I)_F is finite.  Over Q, the coinvariants of a finite
    group are isomorphic to its invariants, and X_* (x) Q, dual to X (x) Q,
    has invariants of the same dimension, 0.  So X_{*,Gamma} has rank 0, and
    so has (X_{*,I})^F: tensored with Q it is the Frob-fixed part of
    (X_* (x) Q)^I, which is (X_* (x) Q)^Gamma.  Finally Frob has finite
    order, so its eigenvalues are roots of unity and det(qF - 1) is nonzero.
    """
    group, inertia, frobenius = frame.group, frame.inertia, frame.frobenius
    traces = datum.traces
    size = len(inertia)
    rank_m = sum(traces[i] for i in inertia) // size
    coset = sorted(inertia)  # phi^k I, element by element
    power_sums: List[int] = []
    e = [1]
    for k in range(1, rank_m + 1):
        coset = [group.mul(frobenius, x) for x in coset]
        power_sums.append(sum(traces[x] for x in coset) // size)
        e.append(sum((-1) ** j * e[k - 1 - j] * power_sums[j] for j in range(k)) // k)
    special = coinv = 0  # det(1 - qF) and det(1 - F) by Horner's rule
    for ek in reversed(e):
        special = special * -frame.q + ek
        coinv = -coinv + ek

    # Column j of M(g^-1)^T - 1 is row j of M(g^-1) less e_j.
    relations: List[Vector] = []
    for a in group.generating_set(inertia):
        for j, row in enumerate(datum.action[group.inv(a)]):
            col = list(row)
            col[j] -= 1
            if any(col):
                relations.append(tuple(col))
    full, fixed = frobenius_orders(
        datum.rank, relations, mat_transpose(datum.action[group.inv(frobenius)]))
    return TorusLatticeData(
        rank_m=rank_m,
        special_fiber_order=abs(special),
        m_frob_coinvariants=abs(coinv),
        cochar_full_coinvariants=full,
        kottwitz_fixed_order=fixed,
    )


def off_lattice_breaks(filtration: HoweFiltration,
                       orbits: Sequence[OrbitInfo]) -> List[Tuple[OrbitInfo, Fraction]]:
    """The orbits whose break r lies outside (1/e) Z, for e the orbit's
    ramification index, each with r, in orbit order: the genericity
    constraint asks r in (1/e) Z of every orbit of positive depth.  In
    lowest terms r e is an integer exactly when the denominator of r divides
    e.  A break that passes also lies in (1/2e) Z, where the half-depths of
    the length identity live, since (1/e) Z is inside (1/2e) Z.
    """
    breaks = filtration.orbit_breaks()
    return [(o, breaks[o.orbit_id]) for o in orbits
            if o.orbit_id in breaks and o.e % breaks[o.orbit_id].denominator]
