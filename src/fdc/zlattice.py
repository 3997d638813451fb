"""Integer-lattice linear algebra over Z, entirely exact.

Matrices are lists of rows of Python ints; vectors act as columns, so a
group element g sends x to M(g) @ x.  Everything here is elementary Smith
normal form bookkeeping: integer kernels, coinvariant groups given by
presentations, and the fixed-point and coinvariant orders of an
endomorphism F of such a group, both read from one Smith form of
[F - 1 | -relations].  The orders of a torus that traces determine
(rank and |det(qF - 1)| on X^I) are not computed here: see
``galois_roots.torus_lattice_data``.

No floating point appears anywhere in this module.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

Matrix = List[List[int]]
Vector = Tuple[int, ...]


class Infinity:
    """The one infinite value: an infinite group order here, the top index
    of a filtration in ``mp_filtration``.  It lies above every index and
    absorbs addition."""

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

GroupOrder = Union[int, Infinity]


# -- basic matrix helpers ----------------------------------------------------


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(row) for row in a]


def mat_shape(a: Sequence[Sequence[int]]) -> Tuple[int, int]:
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    return rows, cols


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ValueError("shape mismatch %dx%d @ %dx%d" % (ra, ca, rb, cb))
    bt = list(zip(*b)) if rb else []
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    return tuple(sum(map(operator.mul, row, v)) for row in a)


SparseColumns = Tuple[Tuple[Tuple[int, int], ...], ...]


def sparse_columns(a: Sequence[Sequence[int]]) -> SparseColumns:
    """The columns of a square matrix A, each as the (row, entry) pairs of
    its nonzero entries."""
    return tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in zip(*a))


def sparse_mat_vec(cols: SparseColumns, v: Sequence[int]) -> Vector:
    """A v for A in :func:`sparse_columns` form: v_j times column j, summed
    over the nonzero coordinates v_j only, so the cost is the number of
    nonzero entries of A in those columns."""
    out = [0] * len(cols)
    for j, x in enumerate(v):
        if x:
            for i, c in cols[j]:
                out[i] += c * x
    return tuple(out)


def mat_sub(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_transpose(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(row) for row in zip(*a)] if a else []


def mat_eq(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


# -- Smith normal form -------------------------------------------------------


class SmithForm:
    """U @ A @ V = D with U, V unimodular and D diagonal, d1 | d2 | ...

    One factorization answers every lattice query about A: its rank, the
    invariant factors of coker A, its integer kernel and membership of b
    in the column lattice (Cohen, GTM 138, 2.4).

    D, its ``diagonal`` and its ``rank`` are computed eagerly, once.  U
    and V are replayed from the logged row and column operations the first
    time they are read, and kept: ``contains`` builds U, ``kernel`` V and
    unpacking (``u, d, v = form``) both.  Equality compares (u, d, v).
    """

    def __init__(self, d: Matrix, diagonal: List[int], rank: int, cols: int,
                 row_ops: List[Tuple[int, ...]], col_ops: List[Tuple[int, ...]]):
        self.d = d
        self.diagonal = diagonal
        self.rank = rank
        self._cols = cols
        self._row_ops = row_ops
        self._col_ops = col_ops

    @functools.cached_property
    def u(self) -> Matrix:
        return _replay(identity_matrix(len(self.d)), self._row_ops)

    @functools.cached_property
    def v(self) -> Matrix:
        # A column operation on V is a row operation on its transpose.
        return mat_transpose(_replay(identity_matrix(self._cols), self._col_ops))

    def __iter__(self) -> Iterator[Matrix]:
        return iter((self.u, self.d, self.v))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SmithForm):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return "SmithForm(u=%r, d=%r, v=%r)" % tuple(self)

    def contains(self, b: Sequence[int]) -> bool:
        """Whether b lies in the lattice spanned by the columns of A: (U b)_i
        must be divisible by d_i below the rank and zero beyond."""
        if len(b) != len(self.d):
            raise ValueError("dimension mismatch")
        ub = mat_vec(self.u, b)
        diag = self.diagonal
        rank = self.rank
        return not (any(ub[i] % diag[i] for i in range(rank)) or any(ub[rank:]))

    def kernel(self) -> List[Vector]:
        """Basis of the integer kernel {x : A x = 0}, deterministic and
        saturated: the columns of V past the rank."""
        return [tuple(row[j] for row in self.v) for j in range(self.rank, self._cols)]


def _row_op(m: Matrix, op: Tuple[int, ...]) -> None:
    """Apply one logged row operation to m in place: (i, j) swaps rows i
    and j, (src, dst, c) adds c * row src to row dst, (i,) negates row i."""
    if len(op) == 3:
        src, dst, c = op
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
    elif len(op) == 2:
        i, j = op
        m[i], m[j] = m[j], m[i]
    else:
        (i,) = op
        m[i] = [-x for x in m[i]]


def _replay(m: Matrix, ops: Sequence[Tuple[int, ...]]) -> Matrix:
    for op in ops:
        _row_op(m, op)
    return m


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    """The Smith form (U, D, V) of A, with U @ A @ V = D.

    The diagonal entries are nonnegative and satisfy d1 | d2 | ...; the
    pivot rule (smallest nonzero absolute value, lowest position on ties)
    is fixed, so the output is deterministic.  Before each step advances,
    the pivot is made to divide the whole remaining block, which yields the
    divisibility chain by construction.  Only D is reduced here; each row
    and column operation is logged for :class:`SmithForm` to replay into U
    and V if they are read.
    """
    rows, cols = mat_shape(a)
    d = mat_copy(a)
    row_ops: List[Tuple[int, ...]] = []
    col_ops: List[Tuple[int, ...]] = []

    def row_op(*op):
        _row_op(d, op)
        row_ops.append(op)

    def swap_cols(i, j):
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            col_ops.append((i, j))

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        col_ops.append((src, dst, c))

    for t in range(min(rows, cols)):
        while True:
            # Locate the pivot: minimal |entry| > 0 in the remaining block,
            # the first in row-major order on ties, so a unit ends the scan.
            pivot, best = None, 0
            for i in range(t, rows):
                row = d[i]
                for j in range(t, cols):
                    x = row[j]
                    if x and (not best or abs(x) < best):
                        pivot, best = (i, j), abs(x)
                        if best == 1:
                            break
                if best == 1:
                    break
            if pivot is None:
                break
            if pivot[0] != t:
                row_op(t, pivot[0])
            swap_cols(t, pivot[1])
            piv = d[t][t]
            # Reduce the pivot column and row; leftover remainders are
            # strictly smaller than |piv|, so re-selection terminates.
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    row_op(t, i, -_round_quot(d[i][t], piv))
                    if d[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    add_col(t, j, -_round_quot(d[t][j], piv))
                    if d[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Force the pivot to divide every remaining entry (a unit does).
            viol = None
            if best > 1:
                viol = next((i for i in range(t + 1, rows)
                             if any(x % piv for x in d[i][t + 1:])), None)
            if viol is not None:
                row_op(viol, t, 1)
                continue
            break
        if t < min(rows, cols) and d[t][t] < 0:
            row_op(t)
        if d[t][t] == 0:
            break
    diagonal = [d[i][i] for i in range(min(rows, cols))]
    # The nonzero diagonal entries come first.
    rank = sum(1 for x in diagonal if x != 0)
    return SmithForm(d, diagonal, rank, cols, row_ops, col_ops)


def _round_quot(x: int, y: int) -> int:
    """Quotient minimizing |x - q*y| (ties toward floor)."""
    qq, r = divmod(x, y)
    if 2 * abs(r) > abs(y):
        qq += 1
    return qq


# -- kernels, solving, lattice indices ----------------------------------------


def _columns_matrix(cols: Sequence[Sequence[int]], n: int) -> Matrix:
    """The n x len(cols) matrix with the given columns."""
    return [[c[i] for c in cols] for i in range(n)]


def kernel_basis(a: Sequence[Sequence[int]]) -> List[Vector]:
    """Basis of the integer kernel {x : A x = 0}, deterministic and saturated."""
    rows, cols = mat_shape(a)
    if cols == 0:
        return []
    return smith_normal_form(a).kernel()


# -- the operations named in the interface ------------------------------------


@dataclass
class FgAbelianGroup:
    """Finitely generated abelian group Z^n / im(relations), with an optional
    endomorphism (an n x n matrix that preserves the relation lattice).

    The Smith form of the relation matrix is computed once at construction;
    the invariant factors, the free rank and the check that the endomorphism
    preserves the relation lattice all read it.  `order` is INFINITY exactly
    when the free rank is positive.  ``endo_form``, the Smith form of
    [F - 1 | -B] for the endomorphism F and the relation matrix B, is
    computed when first read and kept: :func:`fg_fixed_order` and
    :func:`fg_coinvariants_order` both read it.
    """

    ambient_rank: int
    relations: List[Vector] = field(default_factory=list)  # columns in Z^n
    endo: Optional[Matrix] = None

    invariant_factors: List[int] = field(init=False)
    free_rank: int = field(init=False)
    relation_form: SmithForm = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.ambient_rank
        self.relation_form = smith_normal_form(_columns_matrix(self.relations, n))
        self.invariant_factors = [x for x in self.relation_form.diagonal if x > 1]
        self.free_rank = n - self.relation_form.rank
        if self.endo is not None:
            self._check_endo()

    def _check_endo(self) -> None:
        n = self.ambient_rank
        rows, cols = mat_shape(self.endo)
        if (rows, cols) != (n, n):
            raise ValueError("endomorphism has the wrong shape")
        for col in self.relations:
            if not self.relation_form.contains(mat_vec(self.endo, col)):
                raise ValueError("endomorphism does not preserve the relations")

    @property
    def order(self) -> GroupOrder:
        if self.free_rank > 0:
            return INFINITY
        return math.prod(self.invariant_factors)

    @functools.cached_property
    def endo_form(self) -> SmithForm:
        if self.endo is None:
            raise ValueError("group carries no endomorphism")
        n = self.ambient_rank
        c = mat_sub(self.endo, identity_matrix(n))
        return smith_normal_form([c[i] + [-col[i] for col in self.relations]
                                  for i in range(n)])


def group_coinvariants(rank: int, action_gens: Sequence[Sequence[Sequence[int]]],
                       endo: Optional[Matrix] = None) -> FgAbelianGroup:
    """Coinvariant group X_Gamma = X / <(g - 1)x> for the action generated by
    the given matrices; finite exactly when X^Gamma = 0."""
    eye = identity_matrix(rank)
    rels: List[Vector] = []
    for m in action_gens:
        diff = mat_sub(mat_copy(m), eye)
        for j in range(rank):
            col = tuple(diff[i][j] for i in range(rank))
            if any(col):
                rels.append(col)
    return FgAbelianGroup(rank, rels, endo)


def fg_fixed_order(group: FgAbelianGroup) -> int:
    """Exact order of ker(F - 1) on a finitely generated abelian group.

    Works on the presentation: the fixed subgroup is L / im(rel) where
    L = {x : (F - 1)x lies in the relation lattice}, the projection to the
    x block of the kernel of [F - 1 | -B] (``group.endo_form``).  F
    preserves the relations, so im(rel) lies in L, and the fixed subgroup
    is finite exactly when the two have the same rank; otherwise this
    raises.  Of equal rank, they span the same rational space and so share
    its saturation S = (L (x) Q) n Z^n, and [L : im(rel)] = [S : im(rel)] /
    [S : L].  For any integer matrix, S over its column lattice is the
    torsion of its cokernel, whose order is the product of the nonzero
    invariant factors.  The relations' Smith form is already at hand, so
    besides the block's form only one diagonal is computed: that of L's
    generators.
    """
    n = group.ambient_rank
    lattice_gens = [v[:n] for v in group.endo_form.kernel()]
    if not lattice_gens:
        return 1  # L = 0 contains im(rel), so both are 0
    rel_form = group.relation_form
    lat_form = smith_normal_form(_columns_matrix(lattice_gens, n))
    if lat_form.rank != rel_form.rank:
        raise ValueError("fixed subgroup is infinite")
    return (math.prod(rel_form.diagonal[:rel_form.rank])
            // math.prod(lat_form.diagonal[:lat_form.rank]))


def fg_coinvariants_order(group: FgAbelianGroup) -> int:
    """Exact order of coker(F - 1) on a finitely generated abelian group.

    The cokernel is Z^n / (im(F - 1) + im(rel)), the cokernel of the block
    [F - 1 | -B] whose kernel :func:`fg_fixed_order` reads, so its order is
    the product of the diagonal of that same Smith form.  A block of rank
    below n has an infinite cokernel, and this raises.
    """
    form = group.endo_form
    if form.rank < group.ambient_rank:
        raise ValueError("coinvariant group is infinite")
    return math.prod(form.diagonal)
