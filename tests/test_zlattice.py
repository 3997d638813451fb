import glob
import os
import random

import pytest

from fdc.scenario import load_scenario
from fdc.zlattice import (
    FgAbelianGroup,
    INFINITY,
    coinvariants_order,
    det,
    fg_fixed_order,
    group_coinvariants,
    identity_matrix,
    invariant_sublattice,
    kernel_basis,
    mat_eq,
    mat_mul,
    mat_transpose,
    mat_vec,
    restrict_endomorphism,
    smith_normal_form,
    solve_integer,
    twisted_fixed_order,
)


def diag_of(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def test_snf_examples():
    _, d, _ = smith_normal_form([[2, 0], [0, 3]])
    assert diag_of(d) == [1, 6]
    _, d, _ = smith_normal_form(identity_matrix(3))
    assert diag_of(d) == [1, 1, 1]
    _, d, _ = smith_normal_form([[0]])
    assert d == [[0]]


def test_snf_randomized():
    rng = random.Random(31)
    for _ in range(1000):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        u, d, v = smith_normal_form(a)
        assert mat_eq(mat_mul(mat_mul(u, a), v), d)
        assert det(u) in (1, -1) and det(v) in (1, -1)
        vals = diag_of(d)
        nz = [x for x in vals if x != 0]
        assert all(x > 0 for x in nz)
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0
        assert all(x == 0 for x in vals[len(nz):])
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert d[i][j] == 0


def test_snf_deterministic():
    a = [[6, 4, 2], [2, 8, 4], [10, 2, 0]]
    assert smith_normal_form(a) == smith_normal_form([row[:] for row in a])


def test_coinvariants_examples():
    assert coinvariants_order([[-1]]) == 2
    assert coinvariants_order([[1]]) is INFINITY
    assert coinvariants_order([[0, -1], [1, 0]]) == 2


def brute_force_quotient_order(f):
    """|Z^n / (F-1)Z^n| by subgroup closure in (Z/D)^n, independent of SNF."""
    n = len(f)
    fm1 = [[f[i][j] - (i == j) for j in range(n)] for i in range(n)]
    d = abs(det(fm1))
    assert d != 0
    gens = [tuple(fm1[i][j] % d for i in range(n)) for j in range(n)]
    seen = {tuple([0] * n)}
    frontier = [tuple([0] * n)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % d for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return d ** n // len(seen)


def test_coinvariants_oracle():
    rng = random.Random(37)
    done = 0
    while done < 200:
        n = rng.randint(1, 3)
        f = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        fm1 = [[f[i][j] - (i == j) for j in range(n)] for i in range(n)]
        d = det(fm1)
        if not (0 < abs(d) <= 50):
            continue
        assert coinvariants_order(f) == brute_force_quotient_order(f)
        done += 1


def test_twisted_examples():
    assert twisted_fixed_order([[1]], 3) == 2
    assert twisted_fixed_order([[-1]], 3) == 4
    assert twisted_fixed_order([], 3) == 1
    with pytest.raises(ValueError):
        twisted_fixed_order([[1]], 1)


def test_twisted_duality():
    rng = random.Random(41)
    count = 0
    while count < 300:
        n = rng.randint(1, 3)
        f = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if det(f) not in (1, -1):
            continue
        ft = [list(row) for row in zip(*f)]
        try:
            a = twisted_fixed_order(f, 5)
        except ValueError:
            continue
        assert a == twisted_fixed_order(ft, 5)
        count += 1


def test_group_coinvariants_examples():
    g = group_coinvariants(1, [[[-1]]])
    assert g.order == 2
    g = group_coinvariants(2, [[[0, 1], [1, 0]]])
    assert g.order is INFINITY and g.free_rank == 1
    g = group_coinvariants(1, [])
    assert g.order is INFINITY
    rot = [[0, -1], [1, 0]]
    g = group_coinvariants(2, [rot])
    assert g.order == 2


def test_invariant_sublattice_examples():
    basis = invariant_sublattice(2, [[[0, 1], [1, 0]]])
    assert len(basis) == 1 and abs(basis[0][0]) == 1 and basis[0][0] == basis[0][1]
    assert invariant_sublattice(2, []) == [(1, 0), (0, 1)]
    assert invariant_sublattice(1, [[[-1]]]) == []


def test_invariant_sublattice_saturated():
    # the fixed lattice of a doubled swap is still spanned by a primitive vector
    m = [[0, 1], [1, 0]]
    basis = invariant_sublattice(2, [m])
    from math import gcd
    assert gcd(basis[0][0], basis[0][1]) == 1


def test_restrict_endomorphism():
    basis = invariant_sublattice(2, [[[0, 1], [1, 0]]])
    fm = restrict_endomorphism([[0, 1], [1, 0]], basis)
    assert fm == [[1]]
    fm = restrict_endomorphism([[-1, 0], [0, -1]], basis)
    assert fm == [[-1]]


def test_fg_fixed_order_examples():
    assert fg_fixed_order(FgAbelianGroup(1, [], [[-1]])) == 1
    assert fg_fixed_order(FgAbelianGroup(1, [(2,)], [[1]])) == 2
    assert fg_fixed_order(FgAbelianGroup(1, [(4,)], [[3]])) == 2
    with pytest.raises(ValueError):
        fg_fixed_order(FgAbelianGroup(1, [], [[1]]))  # infinite fixed part


def test_fg_fixed_order_oracle():
    """Count fixed points of an endomorphism of Z/a x Z/b by enumeration."""
    rng = random.Random(43)
    for _ in range(300):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        c = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        rels = [(a, 0), (0, b)]
        # endomorphism must preserve the relation lattice: entries act mod (a, b)
        # force compatibility: c maps (a,0) -> (c00*a, c10*a); need c10*a = 0 mod b etc.
        if (c[1][0] * a) % b or (c[0][1] * b) % a:
            continue
        grp = FgAbelianGroup(2, rels, c)
        count = 0
        for x in range(a):
            for y in range(b):
                fx = (c[0][0] * x + c[0][1] * y) % a
                fy = (c[1][0] * x + c[1][1] * y) % b
                if (fx, fy) == (x, y):
                    count += 1
        assert fg_fixed_order(grp) == count


def test_coinvariant_factorization_small():
    """|(X^I)_F| * |(X_I)^F| = |X_Gamma| on hand-built actions."""
    # X = Z, I acts by -1, F = 1
    first = coinvariants_order([])  # X^I = 0, empty endomorphism
    assert first == 1
    second = fg_fixed_order(group_coinvariants(1, [[[-1]]], endo=[[1]]))
    full = group_coinvariants(1, [[[-1]]]).order
    assert first * second == full == 2


def test_kernel_and_solve():
    a = [[2, 4], [1, 2]]
    kb = kernel_basis(a)
    assert len(kb) == 1
    assert mat_vec(a, kb[0]) == (0, 0)
    sol = solve_integer([[2, 0], [0, 3]], [4, 9])
    assert sol == (2, 3)
    assert solve_integer([[2]], [3]) is None


def test_dual_action():
    # The dual action used downstream is M(g^-1)^T; on every bundled
    # scenario it is the contragredient: (dm^T) @ M(g) = identity.
    scen_dir = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")
    for path in sorted(glob.glob(os.path.join(scen_dir, "*.json"))):
        scen = load_scenario(path)
        group, action = scen.frame.group, scen.datum.action
        for g in group.elements:
            dm = mat_transpose(action[group.inv(g)])
            assert det(dm) in (1, -1)
            assert mat_eq(mat_mul(mat_transpose(dm), action[g]),
                          identity_matrix(scen.datum.rank))
