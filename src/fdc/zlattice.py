"""Integer-lattice linear algebra over Z, entirely exact.

Matrices are lists of rows of Python ints; vectors act as columns, so a
group element g sends x to M(g) @ x.  Everything here is elementary Smith
normal form bookkeeping: orders of coinvariant groups, twisted fixed-point
counts |det(qF - 1)| (the point count of a torus over the residue field),
saturated invariant sublattices, and fixed-point orders of endomorphisms of
finitely generated abelian groups given by presentations.

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


def mat_scale(a: Sequence[Sequence[int]], c: int) -> Matrix:
    return [[c * x for x in row] for row in a]


def mat_transpose(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(row) for row in zip(*a)] if a else []


def mat_eq(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


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


# -- Smith normal form -------------------------------------------------------


class SmithForm:
    """U @ A @ V = D with U, V unimodular and D diagonal, d1 | d2 | ...

    One factorization answers every lattice query about A: its rank, the
    invariant factors of coker A, integer solutions of A x = b and
    membership of b in the column lattice (Cohen, GTM 138, 2.4).

    D, its ``diagonal`` and its ``rank`` are computed eagerly, once.  U
    and V are replayed from the logged row and column operations the first
    time they are read, and kept: ``contains`` builds U, ``solve`` and
    unpacking (``u, d, v = form``) build both.  Equality compares
    (u, d, v).
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

    def _reduced(self, b: Sequence[int]) -> Optional[List[int]]:
        """z with D z = U b, or None when b is outside the column lattice:
        (U b)_i must be divisible by d_i below the rank and zero beyond."""
        if len(b) != len(self.d):
            raise ValueError("dimension mismatch")
        ub = mat_vec(self.u, b)
        diag = self.diagonal
        rank = self.rank
        if any(ub[i] % diag[i] for i in range(rank)) or any(ub[rank:]):
            return None
        return [ub[i] // diag[i] for i in range(rank)]

    def contains(self, b: Sequence[int]) -> bool:
        """Whether b lies in the lattice spanned by the columns of A."""
        return self._reduced(b) is not None

    def solve(self, b: Sequence[int]) -> Optional[Vector]:
        """One integer solution x of A x = b (x = V z), or None."""
        z = self._reduced(b)
        if z is None:
            return None
        return tuple(sum(map(operator.mul, row, z)) for row in self.v)


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
    form = smith_normal_form(a)
    return [tuple(row[j] for row in form.v) for j in range(form.rank, cols)]


# -- the operations named in the interface ------------------------------------


def coinvariants_order(f: Sequence[Sequence[int]]) -> GroupOrder:
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


@dataclass
class FgAbelianGroup:
    """Finitely generated abelian group Z^n / im(relations), with an optional
    endomorphism (an n x n matrix that preserves the relation lattice).

    The Smith form of the relation matrix is computed once at construction;
    the invariant factors, the free rank and the check that the endomorphism
    preserves the relation lattice all read it.  `order` is INFINITY exactly
    when the free rank is positive.
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


def restrict_endomorphism(f: Sequence[Sequence[int]], basis: Sequence[Vector]) -> Matrix:
    """Matrix of F on the sublattice spanned by basis (F must preserve it)."""
    if not basis:
        return []
    form = smith_normal_form(_columns_matrix(basis, len(basis[0])))
    out_cols: List[Vector] = []
    for b in basis:
        sol = form.solve(mat_vec(f, b))
        if sol is None:
            raise ValueError("endomorphism does not preserve the sublattice")
        out_cols.append(sol)
    return mat_transpose(out_cols)


def fg_fixed_order(group: FgAbelianGroup) -> int:
    """Exact order of ker(F - 1) on a finitely generated abelian group.

    Works on the presentation: the fixed subgroup is L / im(rel) where
    L = {x : (F - 1)x lies in the relation lattice}.  F preserves the
    relations, so im(rel) lies in L, and the fixed subgroup is finite
    exactly when the two have the same rank; otherwise this raises.  Of
    equal rank, they span the same rational space and so share its
    saturation S = (L (x) Q) n Z^n, and [L : im(rel)] = [S : im(rel)] /
    [S : L].  For any integer matrix, S over its column lattice is the
    torsion of its cokernel, whose order is the product of the nonzero
    invariant factors.  The relations' Smith form is already at hand, so
    besides the kernel that yields L only one diagonal is computed: that
    of L's generators.
    """
    if group.endo is None:
        raise ValueError("group carries no endomorphism")
    n = group.ambient_rank
    c = mat_sub(group.endo, identity_matrix(n))
    # Solve (F - 1) x = B y: kernel of [C | -B] projected to the x block.
    block = [c[i] + [-col[i] for col in group.relations] for i in range(n)]
    lattice_gens = [v[:n] for v in kernel_basis(block)]
    if not lattice_gens:
        return 1  # L = 0 contains im(rel), so both are 0
    rel_form = group.relation_form
    lat_form = smith_normal_form(_columns_matrix(lattice_gens, n))
    if lat_form.rank != rel_form.rank:
        raise ValueError("fixed subgroup is infinite")
    return (math.prod(rel_form.diagonal[:rel_form.rank])
            // math.prod(lat_form.diagonal[:lat_form.rank]))
