import glob
import itertools
import math
import os
import random

import pytest

import fdc.zlattice as zlattice
from fdc.galois_roots import torus_lattice_data
from fdc.mp_filtration import INFINITY
from fdc.scenario import load_scenario, scenario_from_dict
from fdc.selftest import (
    _random_unimodular,
    coinvariants_order,
    det,
    invariant_sublattice,
    restrict_endomorphism,
    solve,
    twisted_fixed_order,
)
from fdc.zlattice import (
    frobenius_orders,
    identity_matrix,
    kernel_basis,
    mat_eq,
    mat_mul,
    mat_transpose,
    mat_vec,
    smith_normal_form,
)
from test_coxeter import coxeter_document


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
    shapes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(1000)]
    # Wide and tall shapes: relation matrices of coinvariant groups are wide,
    # stacked invariance conditions are tall.
    shapes += [(3, 12), (12, 3), (2, 9), (9, 2), (5, 13), (13, 5)] * 10
    shapes += [(40, 6), (60, 11)] * 3
    for n, m in shapes:
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


def test_snf_pinned_wide():
    """U, D and V of a wide matrix, pinned: torus bases, kernel bases and
    report bytes all depend on the exact V, not only on D."""
    a = [[2, 4, 6, 0, 3, -1], [1, -3, 0, 5, 2, 2], [0, 6, -4, 2, 2, 8]]
    form = smith_normal_form(a)
    assert form.u == [[-1, 0, 0], [-14, 1, -2], [-36, 2, -5]]
    assert form.d == [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0]]
    assert form.v == [[0, 0, 3, -24, 7, -14], [0, 0, 1, -7, 1, 0],
                      [0, 0, -2, 15, -4, 5], [0, 1, 0, -5, 0, 2],
                      [0, 0, 0, 0, 1, 0], [1, 0, -2, 14, -3, 2]]
    assert form.diagonal == [1, 1, 2] and form.rank == 3


def maximal_minor_gcd(a):
    """gcd of the n x n minors of an n x m matrix, by determinants alone."""
    n, m = len(a), len(a[0])
    return math.gcd(*(det([[a[i][j] for j in cols] for i in range(n)])
                      for cols in itertools.combinations(range(m), n)))


def brute_force_in_column_lattice(a, b, d):
    """b in col(A) without Smith forms, for d = maximal_minor_gcd(A) > 0.

    For each n x n minor B, det(B) e_i = B adj(B) e_i lies in col(A), so
    col(A) contains d Z^n and membership is decided in (Z/d)^n, where col(A)
    reduces to the subgroup generated by the columns (found by closure)."""
    n, m = len(a), len(a[0])
    gens = [tuple(a[i][j] % d for i in range(n)) for j in range(m)]
    seen = {tuple([0] * n)}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((s + t) % d for s, t in zip(x, g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return tuple(x % d for x in b) in seen


def test_smith_form_contains_and_solve_oracle():
    rng = random.Random(47)
    members = outsiders = 0
    while members + outsiders < 600:
        n = rng.randint(1, 3)
        m = rng.randint(n, 6)
        a = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        d = maximal_minor_gcd(a)
        if d == 0 or d ** n > 4000:
            continue  # the oracle needs full row rank and a small quotient
        form = smith_normal_form(a)
        for _ in range(4):
            if rng.random() < 0.5:
                b = [rng.randint(-9, 9) for _ in range(n)]
            else:  # a guaranteed member
                b = list(mat_vec(a, [rng.randint(-3, 3) for _ in range(m)]))
            want = brute_force_in_column_lattice(a, b, d)
            x = solve(form, b)
            assert (x is not None) == want, (a, b)
            if x is not None:
                assert list(mat_vec(a, x)) == b
                members += 1
            else:
                outsiders += 1
    assert members > 100 and outsiders > 50


def test_smith_form_unread_transforms_unpack_and_compare_equal():
    """U and V are built when first read; a form that never read them
    unpacks to, and compares equal with, one that did."""
    a = [[2, 4, 4], [-6, 6, 12], [10, -4, -16], [1, 0, -1]]
    read = smith_normal_form(a)
    assert read.u and read.v
    assert smith_normal_form(a) == read
    assert read == smith_normal_form(a)
    u, d, v = smith_normal_form(a)
    assert (u, d, v) == (read.u, read.d, read.v)
    assert mat_eq(mat_mul(mat_mul(u, a), v), d)
    assert smith_normal_form(a) != smith_normal_form([row[::-1] for row in a])


def test_smith_form_rank_deficient_membership():
    # col(A) is the line through (1, 2): points off the line are outside,
    # and points on it are inside exactly at even multiples of (1, 2) / 2.
    form = smith_normal_form([[2, 4], [4, 8]])
    assert form.rank == 1
    for b in ([2, 4], [-6, -12]):
        assert list(mat_vec([[2, 4], [4, 8]], solve(form, b))) == b
    for b in ([1, 2], [2, 5], [1, 3]):
        assert solve(form, b) is None


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


def test_kernel_prefix_matches_kernel(monkeypatch):
    """kernel_prefix(n), replayed on n columns of V^T only, and kernel(),
    against the columns of V past the rank read from the whole replay
    (``SmithForm.v``, pinned by U A V = D elsewhere), on random blocks of
    every rank and on the blocks [F - 1 | -B] that frobenius_orders
    factors for the Coxeter tori A_3..A_23, unramified and totally
    ramified."""
    rng = random.Random(47)
    forms = []
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 12)
        basis = [[rng.randint(-4, 4) for _ in range(cols)]
                 for _ in range(rng.randint(0, min(rows, cols)))]
        a = []
        for _ in range(rows):
            coef = [rng.randint(-2, 2) for _ in basis]
            a.append([sum(c * x for c, x in zip(coef, col)) for col in zip(*basis)]
                     if basis else [0] * cols)
        forms.append((rng.randint(0, cols), smith_normal_form(a)))
    blocks = []

    def spy(a, real=zlattice.smith_normal_form):
        blocks.append((len(a), real(a)))
        return blocks[-1][1]

    monkeypatch.setattr(zlattice, "smith_normal_form", spy)
    for n in range(4, 25):
        for ramified in (False, True):
            scen = scenario_from_dict(coxeter_document(n, ramified))
            del blocks[:]
            torus_lattice_data(scen.datum, scen.frame)
            forms.append(blocks[0])  # the block, before the two diagonals
    assert any(form.kernel() for _n, form in forms)
    assert any(not form.kernel() for _n, form in forms)
    for n, form in forms:
        columns = list(zip(*form.v))[form.rank:]
        assert form.kernel() == columns
        assert form.kernel_prefix(n) == [col[:n] for col in columns]


def test_fg_fixed_order_examples():
    """(|coker(F - 1)|, |ker(F - 1)|) on small presentations."""
    assert frobenius_orders(1, [], [[-1]]) == (2, 1)
    assert frobenius_orders(1, [(2,)], [[1]]) == (2, 2)
    assert frobenius_orders(1, [(4,)], [[3]]) == (2, 2)
    assert frobenius_orders(1, [(-2,)], [[1]]) == (2, 2)
    assert frobenius_orders(2, [], [[0, -1], [1, 0]]) == (2, 1)  # rotation
    assert frobenius_orders(2, [(3, 0), (0, 6)], [[1, 0], [2, 1]]) == (6, 6)
    for n, rels, endo in [(1, [], [[1]]), (2, [], [[0, 1], [1, 0]]), (1, [(0,)], [[1]])]:
        with pytest.raises(ValueError, match="coinvariant group is infinite"):
            frobenius_orders(n, rels, endo)


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
        count = 0
        for x in range(a):
            for y in range(b):
                fx = (c[0][0] * x + c[0][1] * y) % a
                fy = (c[1][0] * x + c[1][1] * y) % b
                if (fx, fy) == (x, y):
                    count += 1
        # On a finite group, |coker(F - 1)| = |ker(F - 1)|.
        assert frobenius_orders(2, rels, c) == (count, count)


def _unimodular_pair(rng, n, steps=8):
    """A random P in GL(n, Z) and its inverse, as products of elementary
    row additions and one optional sign change."""
    p, p_inv = identity_matrix(n), identity_matrix(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        e, e_inv = identity_matrix(n), identity_matrix(n)
        e[j][i], e_inv[j][i] = c, -c
        p, p_inv = mat_mul(e, p), mat_mul(p_inv, e_inv)
    if rng.random() < 0.5:
        k = rng.randrange(n)
        sign = identity_matrix(n)
        sign[k][k] = -1
        p, p_inv = mat_mul(sign, p), mat_mul(p_inv, sign)
    return p, p_inv


def test_fg_fixed_order_disguised_presentation():
    """A diagonal case Z/a x Z/b x Z/c counted by enumeration, then
    presented differently: a free summand Z on which F acts by d != 1
    (coupled to the torsion part), the whole presentation conjugated by a
    random unimodular P, and redundant relation columns appended.  The
    group and its fixed points are unchanged, but the relation matrix is
    no longer diagonal, has more columns than rank, and leaves a free
    part; the saturation of the relations is then a proper superlattice.
    The coinvariant order is count * |d - 1|, by the snake lemma on
    0 -> T -> A -> Z -> 0 with T the torsion part: F - 1 is one-to-one on
    Z, so |coker| multiplies along the sequence."""
    rng = random.Random(1601)
    done = 0
    while done < 120:
        mods = [rng.randint(1, 6) for _ in range(3)]
        c = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        if any((c[i][j] * mods[j]) % mods[i] for i in range(3) for j in range(3)):
            continue
        count = sum(
            1 for x in itertools.product(*(range(m) for m in mods))
            if all(sum(c[i][k] * x[k] for k in range(3)) % mods[i] == x[i] % mods[i]
                   for i in range(3)))
        # Z/a x Z/b x Z/c x Z, with F(x, t) = (C x + w t, d t).
        d = rng.choice((-3, -2, -1, 0, 2, 3))
        w = [rng.randint(-3, 3) for _ in range(3)]
        endo = [c[i] + [w[i]] for i in range(3)] + [[0, 0, 0, d]]
        rels = [tuple(m if k == i else 0 for k in range(4)) for i, m in enumerate(mods)]
        p, p_inv = _unimodular_pair(rng, 4)
        rels = [mat_vec(p, r) for r in rels]
        endo = mat_mul(mat_mul(p, endo), p_inv)
        for _ in range(rng.randint(1, 3)):
            ys = [rng.randint(-2, 2) for _ in rels[:3]]
            rels.append(tuple(sum(y * r[k] for y, r in zip(ys, rels)) for k in range(4)))
        rng.shuffle(rels)
        assert smith_normal_form(mat_transpose(rels)).rank == 3  # A = T + Z
        assert frobenius_orders(4, rels, endo) == (count * abs(d - 1), count)
        done += 1


def test_coinvariant_factorization_small():
    """|(X^I)_F| * |(X_I)^F| = |X_Gamma| on hand-built actions."""
    # X = Z, I acts by -1, F = 1
    first = coinvariants_order([])  # X^I = 0, empty endomorphism
    assert first == 1
    full, second = frobenius_orders(1, [(-2,)], [[1]])
    assert first * second == full == 2


def test_random_unimodular_is_never_the_identity():
    """The conjugating matrices of the lattice-identity selftest suite: 500
    draws over ranks 2..4, none the identity, each with U U^-1 = I."""
    rng = random.Random(29)
    for _ in range(500):
        rank = rng.randint(2, 4)
        u, uinv = _random_unimodular(rng, rank)
        assert u != identity_matrix(rank)
        assert mat_mul(u, uinv) == identity_matrix(rank)
    assert _random_unimodular(rng, 1) == ([[1]], [[1]])


def test_kernel_and_solve():
    a = [[2, 4], [1, 2]]
    kb = kernel_basis(a)
    assert len(kb) == 1
    assert mat_vec(a, kb[0]) == (0, 0)
    sol = solve(smith_normal_form([[2, 0], [0, 3]]), [4, 9])
    assert sol == (2, 3)
    assert solve(smith_normal_form([[2]]), [3]) is None


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
