"""Integer-lattice linear algebra over Z, entirely exact.

Matrices are lists of rows of Python ints; vectors act as columns, so a
group element g sends x to M(g) @ x.  Everything here is elementary Smith
normal form bookkeeping, on a Smith form that keeps its diagonal and its
column transform only: integer kernels, and the coinvariant and
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
from typing import List, Sequence, Tuple

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


def mat_sub(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_transpose(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(row) for row in zip(*a)] if a else []


# -- Smith normal form -------------------------------------------------------


class SmithForm:
    """The Smith form of A: the diagonal D = U @ A @ V, d1 | d2 | ..., and
    the unimodular column transform V.

    One factorization answers the lattice queries about A: its rank, the
    invariant factors of coker A and its integer kernel (Cohen, GTM 138,
    2.4).  The diagonal and the rank are computed eagerly, once.  V is
    replayed from the logged column operations the first time it is read,
    and kept; :meth:`kernel_prefix` replays the log on the rows it needs
    only.  U is never formed.
    """

    def __init__(self, diagonal: List[int], rank: int, cols: int,
                 col_ops: List[Tuple[int, ...]]):
        self.diagonal = diagonal
        self.rank = rank
        self._cols = cols
        self._col_ops = col_ops

    @functools.cached_property
    def v(self) -> Matrix:
        # A column operation on V is a row operation on its transpose.
        return mat_transpose(_replay(identity_matrix(self._cols), self._col_ops))

    def kernel_prefix(self, n: int) -> List[Vector]:
        """The first n coordinates of each vector of the integer kernel
        {x : A x = 0}, a deterministic saturated basis: the columns of V
        past the rank, with V replayed on its first n rows only (all of V
        for n the column count).

        A column operation on V acts on each row of V by itself, so the
        first n rows of V are the operations replayed on the first n rows
        of the identity.  The replay runs on V^T, where those rows are the
        first n columns."""
        if self.rank == self._cols:
            return []
        head = _replay([row[:n] for row in identity_matrix(self._cols)], self._col_ops)
        return [tuple(row) for row in head[self.rank:]]


def _row_op(m: Matrix, op: Tuple[int, ...]) -> None:
    """Apply one row operation to m in place: (i, j) swaps rows i and j,
    (src, dst, c) adds c * row src to row dst."""
    if len(op) == 3:
        src, dst, c = op
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
    else:
        i, j = op
        m[i], m[j] = m[j], m[i]


def _replay(m: Matrix, ops: Sequence[Tuple[int, ...]]) -> Matrix:
    for op in ops:
        _row_op(m, op)
    return m


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    """The Smith form of A: its diagonal D = U @ A @ V and the column
    transform V.

    The diagonal entries are nonnegative and satisfy d1 | d2 | ...; the
    pivot rule (smallest nonzero absolute value, lowest position on ties)
    is fixed, so the output is deterministic.  Before each step advances,
    the pivot is made to divide the whole remaining block, which yields the
    divisibility chain by construction.  Row operations act on the working
    copy of A and are not recorded; each column operation is logged for
    :class:`SmithForm` to replay into V if it is read.

    Column operations touch the rows where they can change something only.
    Rows above the pivot are zero in the remaining columns, so a swap acts
    on rows t.. only.  Adding c times pivot column t to column j changes
    the rows where column t is nonzero; after the pivot column is reduced
    those are the pivot row and the rows with a remainder, collected once
    per pass, so a pass costs in proportion to them and not to the row
    count.
    """
    rows, cols = mat_shape(a)
    d = mat_copy(a)
    col_ops: List[Tuple[int, ...]] = []
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
                _row_op(d, (t, pivot[0]))
            k = pivot[1]
            if k != t:
                for row in d[t:]:
                    row[t], row[k] = row[k], row[t]
                col_ops.append((t, k))
            piv = d[t][t]
            # Reduce the pivot column and row; leftover remainders are
            # strictly smaller than |piv|, so re-selection terminates.
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    _row_op(d, (t, i, -_round_quot(d[i][t], piv)))
                    if d[i][t] != 0:
                        dirty = True
            live = [row for row in d[t:] if row[t]]
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    c = -_round_quot(d[t][j], piv)
                    for row in live:
                        row[j] += c * row[t]
                    col_ops.append((t, j, c))
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
                _row_op(d, (viol, t, 1))
                continue
            break
        if d[t][t] < 0:
            # Row t is zero off the diagonal here: negating it flips d_t.
            d[t][t] = -d[t][t]
        if d[t][t] == 0:
            break
    diagonal = [d[i][i] for i in range(min(rows, cols))]
    # The nonzero diagonal entries come first.
    rank = sum(1 for x in diagonal if x != 0)
    return SmithForm(diagonal, rank, cols, col_ops)


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
    return smith_normal_form(a).kernel_prefix(mat_shape(a)[1])


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
