"""Integer-lattice linear algebra over Z, entirely exact.

Matrices are lists of rows of Python ints; vectors act as columns, so a
group element g sends x to M(g) @ x.  Everything here is elementary Smith
normal form bookkeeping: integer kernels, and the coinvariant and
fixed-point orders of an endomorphism F of a group Z^n / im(B) given by
relation columns B, both read from one Smith form of [F - 1 | -B]
(:func:`frobenius_orders`).  The orders of a torus that traces determine
(rank and |det(qF - 1)| on X^I) are not computed here: see
``galois_roots.torus_lattice_data``.

No floating point appears anywhere in this module.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterator, List, Sequence, Tuple

Matrix = List[List[int]]
Vector = Tuple[int, ...]


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

    One factorization answers the lattice queries about A: its rank, the
    invariant factors of coker A and its integer kernel (Cohen, GTM 138,
    2.4).

    D, its ``diagonal`` and its ``rank`` are computed eagerly, once.  U
    and V are replayed from the logged row and column operations the first
    time they are read, and kept: ``kernel`` builds V, and unpacking
    (``u, d, v = form``) both.  Equality compares (u, d, v).
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

    def kernel(self) -> List[Vector]:
        """Basis of the integer kernel {x : A x = 0}, deterministic and
        saturated: the columns of V past the rank."""
        return self.kernel_prefix(self._cols)

    def kernel_prefix(self, n: int) -> List[Vector]:
        """The first n coordinates of each vector of :meth:`kernel`, in the
        same order, with V replayed on its first n rows only (all of V for
        n the column count).

        A column operation on V acts on each row of V by itself, so the
        first n rows of V are the operations replayed on the first n rows
        of the identity.  The replay runs on V^T, where those rows are the
        first n columns."""
        if self.rank == self._cols:
            return []
        head = _replay([row[:n] for row in identity_matrix(self._cols)], self._col_ops)
        return [tuple(row) for row in head[self.rank:]]


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


# -- kernels -------------------------------------------------------------------


def _columns_matrix(cols: Sequence[Sequence[int]], n: int) -> Matrix:
    """The n x len(cols) matrix with the given columns."""
    return [[c[i] for c in cols] for i in range(n)]


def kernel_basis(a: Sequence[Sequence[int]]) -> List[Vector]:
    """Basis of the integer kernel {x : A x = 0}, deterministic and saturated."""
    rows, cols = mat_shape(a)
    if cols == 0:
        return []
    return smith_normal_form(a).kernel()


# -- Frobenius on a presented group -------------------------------------------


def frobenius_orders(n: int, relations: Sequence[Vector], endo: Matrix) -> Tuple[int, int]:
    """The orders of coker(F - 1) and ker(F - 1) on A = Z^n / im(B), for the
    relation columns B and an n x n matrix F that preserves im(B), both
    read from one Smith form of the block [F - 1 | -B].  That F preserves
    im(B) is the caller's premise and is not re-checked.

    The cokernel is Z^n / (im(F - 1) + im(B)), the cokernel of the block,
    so its order is the product of the block's diagonal.  A block of rank
    below n leaves it infinite, and this raises.

    The kernel is L / im(B), where L = {x : (F - 1)x lies in im(B)} is the
    projection to the x block of the block's kernel (its first n
    coordinates, :meth:`SmithForm.kernel_prefix`); im(B) lies in L
    because F preserves it.  The kernel is finite with no further check:
    a block of rank n makes F - 1 onto A (x) Q, so also one-to-one there,
    and L has the rank of im(B).  So both span one rational space and
    share its saturation S = (L (x) Q) n Z^n, and [L : im(B)] =
    [S : im(B)] / [S : L].  For any integer matrix, S over its column
    lattice is the torsion of its cokernel, whose order is the product of
    the nonzero invariant factors: one diagonal each of the relations and
    of L's generators.
    """
    form = smith_normal_form([row + [-col[i] for col in relations]
                              for i, row in enumerate(mat_sub(endo, identity_matrix(n)))])
    if form.rank < n:
        raise ValueError("coinvariant group is infinite")
    rel = smith_normal_form(_columns_matrix(relations, n))
    lat = smith_normal_form(_columns_matrix(form.kernel_prefix(n), n))
    return (math.prod(form.diagonal),
            math.prod(rel.diagonal[:rel.rank]) // math.prod(lat.diagonal[:lat.rank]))
