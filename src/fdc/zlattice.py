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

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

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


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


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
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


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


def smith_normal_form(a: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U @ A @ V = D, U, V unimodular, D diagonal.

    The diagonal entries are nonnegative and satisfy d1 | d2 | ...; the
    pivot rule (smallest nonzero absolute value, lowest position on ties)
    is fixed, so the output is deterministic.  Before each step advances,
    the pivot is made to divide the whole remaining block, which yields the
    divisibility chain by construction.
    """
    rows, cols = mat_shape(a)
    d = mat_copy(a)
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(rows, cols)):
        while True:
            # Locate the pivot: minimal |entry| > 0 in the remaining block.
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    x = d[i][j]
                    if x != 0 and (pivot is None or abs(x) < abs(d[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            piv = d[t][t]
            # Reduce the pivot column and row; leftover remainders are
            # strictly smaller than |piv|, so re-selection terminates.
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    add_row(t, i, -_round_quot(d[i][t], piv))
                    if d[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    add_col(t, j, -_round_quot(d[t][j], piv))
                    if d[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Force the pivot to divide every remaining entry.
            viol = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % piv != 0:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is not None:
                add_row(viol, t, 1)
                continue
            break
        if t < min(rows, cols) and d[t][t] < 0:
            negate_row(t)
        if d[t][t] == 0:
            break
    return u, d, v


def _round_quot(x: int, y: int) -> int:
    """Quotient minimizing |x - q*y| (ties toward floor)."""
    qq, r = divmod(x, y)
    if 2 * abs(r) > abs(y):
        qq += 1
    return qq


def snf_diagonal(a: Sequence[Sequence[int]]) -> List[int]:
    _, d, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(mat_shape(a)))]


def is_unimodular(a: Sequence[Sequence[int]]) -> bool:
    n, m = mat_shape(a)
    return n == m and det(a) in (1, -1)


# -- kernels, solving, lattice indices ----------------------------------------


def kernel_basis(a: Sequence[Sequence[int]]) -> List[Vector]:
    """Basis of the integer kernel {x : A x = 0}, deterministic and saturated."""
    rows, cols = mat_shape(a)
    if cols == 0:
        return []
    u, d, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    vt = mat_transpose(v)
    return [tuple(vt[j]) for j in range(rank, cols)]


def solve_integer(a: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[Vector]:
    """One integer solution of A x = b, or None if none exists."""
    rows, cols = mat_shape(a)
    if len(b) != rows:
        raise ValueError("dimension mismatch")
    u, d, v = smith_normal_form(a)
    ub = mat_vec(u, b)
    z = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < min(rows, cols) else 0
        if di == 0:
            if i < rows and ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            z[i] = ub[i] // di
    return mat_vec(v, z)


def column_lattice_index(ambient_basis: Sequence[Vector], sub_gens: Sequence[Vector]) -> GroupOrder:
    """Index of the lattice spanned by sub_gens inside the one spanned by
    ambient_basis (sub must be contained in ambient); INFINITY if ranks differ."""
    n = len(ambient_basis[0]) if ambient_basis else 0
    amb = [list(col) for col in zip(*ambient_basis)] if ambient_basis else zero_matrix(n, 0)
    coords: List[List[int]] = []
    for g in sub_gens:
        sol = solve_integer(amb, list(g))
        if sol is None:
            raise ValueError("generator outside the ambient lattice")
        coords.append(list(sol))
    k = len(ambient_basis)
    if k == 0:
        return 1
    mat = [list(col) for col in zip(*coords)] if coords else zero_matrix(k, 0)
    diag = snf_diagonal(mat) if coords else []
    rank = sum(1 for x in diag if x != 0)
    if rank < k:
        return INFINITY
    order = 1
    for x in diag:
        if x != 0:
            order *= abs(x)
    return order


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

    Invariant factors and the free rank are derived from the presentation by
    Smith normal form; `order` is INFINITY exactly when the free rank is
    positive.
    """

    ambient_rank: int
    relations: List[Vector] = field(default_factory=list)  # columns in Z^n
    endo: Optional[Matrix] = None

    invariant_factors: List[int] = field(init=False)
    free_rank: int = field(init=False)

    def __post_init__(self) -> None:
        n = self.ambient_rank
        if self.relations:
            mat = [list(col) for col in zip(*self.relations)]
            diag = snf_diagonal(mat)
        else:
            diag = []
        rank = sum(1 for x in diag if x != 0)
        self.invariant_factors = [x for x in diag if x > 1]
        self.free_rank = n - rank
        if self.endo is not None:
            self._check_endo()

    def _check_endo(self) -> None:
        n = self.ambient_rank
        rows, cols = mat_shape(self.endo)
        if (rows, cols) != (n, n):
            raise ValueError("endomorphism has the wrong shape")
        for col in self.relations:
            img = mat_vec(self.endo, col)
            if not self._in_relation_lattice(img):
                raise ValueError("endomorphism does not preserve the relations")

    def _in_relation_lattice(self, v: Sequence[int]) -> bool:
        if not self.relations:
            return all(x == 0 for x in v)
        mat = [list(col) for col in zip(*self.relations)]
        return solve_integer(mat, list(v)) is not None

    @property
    def order(self) -> GroupOrder:
        if self.free_rank > 0:
            return INFINITY
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n


def group_coinvariants(rank: int, action_gens: Sequence[Sequence[Sequence[int]]],
                       endo: Optional[Matrix] = None) -> FgAbelianGroup:
    """Coinvariant group X_Gamma = X / <(g - 1)x> for the action generated by
    the given matrices; finite exactly when X^Gamma = 0."""
    eye = identity_matrix(rank)
    rels: List[Vector] = []
    for m in action_gens:
        if not is_unimodular(m):
            raise ValueError("action matrix is not invertible over Z")
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
    k = len(basis)
    if k == 0:
        return []
    mat = [list(col) for col in zip(*basis)]
    out_cols: List[List[int]] = []
    for b in basis:
        img = mat_vec(f, b)
        sol = solve_integer(mat, list(img))
        if sol is None:
            raise ValueError("endomorphism does not preserve the sublattice")
        out_cols.append(list(sol))
    return [list(row) for row in zip(*out_cols)]


def fg_fixed_order(group: FgAbelianGroup) -> int:
    """Exact order of ker(F - 1) on a finitely generated abelian group.

    Works on the presentation: the fixed subgroup is L / im(rel) where
    L = {x : (F - 1)x lies in the relation lattice}.  Raises if the fixed
    subgroup is infinite (its free part does not vanish).
    """
    if group.endo is None:
        raise ValueError("group carries no endomorphism")
    n = group.ambient_rank
    c = mat_sub(mat_copy(group.endo), identity_matrix(n))
    rel_cols = [list(col) for col in group.relations]
    m = len(rel_cols)
    # Solve (F - 1) x = B y: kernel of [C | -B] projected to the x block.
    block: Matrix = []
    for i in range(n):
        row = list(c[i])
        for col in rel_cols:
            row.append(-col[i])
        block.append(row)
    kern = kernel_basis(block)
    lattice_gens = [tuple(v[:n]) for v in kern]
    # im(rel) inside the lattice L they generate.
    lat_basis = _lattice_basis(lattice_gens, n)
    rank_l = len(lat_basis)
    rank_rel = len(_lattice_basis(group.relations, n))
    if rank_l != rank_rel:
        raise ValueError("fixed subgroup is infinite")
    if rank_l == 0:
        return 1
    idx = column_lattice_index(lat_basis, list(group.relations))
    if idx is INFINITY:
        raise ValueError("fixed subgroup is infinite")
    return idx


def _lattice_basis(gens: Sequence[Vector], n: int) -> List[Vector]:
    """Basis of the sublattice of Z^n spanned by the given columns."""
    if not gens:
        return []
    mat = [list(col) for col in zip(*gens)]
    _, d, v = smith_normal_form(mat)
    rank = sum(1 for i in range(min(n, len(gens))) if d[i][i] != 0)
    # A V = U^-1 D, so the first rank columns of A V span the column lattice.
    av = mat_mul(mat, v)
    return [tuple(av[r][i] for r in range(n)) for i in range(rank)]
