"""sympy as a second implementation: the Smith forms and integer kernels
of ``fdc.zlattice`` against sympy's invariant factors and ranks over ZZ,
and the five torus quantities of ``torus_lattice_data`` against linear
algebra in sympy.

sympy is a separately written computer algebra system, so a misreading of
the Smith form shared by ``smith_normal_form`` and the tests that call it
shows up here.  Its ``invariant_factors`` lists min(rows, cols) factors,
the zeros last; ``smith_normal_form`` keeps the nonzero ones first on its
diagonal and counts them as its rank.
"""

import itertools
import math
import os
import random
import sys

import pytest
from sympy import ZZ, Matrix, eye
from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp

from fdc.compare import run_compare
from fdc.galois_roots import torus_lattice_data
from fdc.scenario import generate_scenario, load_scenario, scenario_from_dict
from fdc.zlattice import kernel_basis, smith_normal_form
from test_coxeter import coxeter_document

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")


def assert_agrees_with_sympy(a):
    form = smith_normal_form(a)
    factors = [int(x) for x in invariant_factors(Matrix(a), domain=ZZ)]
    nonzero = [x for x in factors if x]
    assert form.diagonal[:form.rank] == nonzero, a
    assert form.rank == len(nonzero), a


def random_matrices(rng, count):
    """Seeded integer matrices of every shape up to 8 x 8: a third of them
    a product through a narrower middle dimension, so of lower rank than
    their shape allows, and some with a zero row or column."""
    out = []
    for i in range(count):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        if i % 3 == 2 and min(rows, cols) > 1:
            mid = rng.randint(1, min(rows, cols) - 1)
            left = [[rng.randint(-4, 4) for _ in range(mid)] for _ in range(rows)]
            right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(mid)]
            a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                 for row in left]
        else:
            a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            if i % 5 == 4:
                a[rng.randrange(rows)] = [0] * cols
        out.append(a)
    return out


def test_smith_form_agrees_with_sympy_on_random_matrices():
    matrices = random_matrices(random.Random(20260809), 300)
    deficient = 0
    for a in matrices:
        assert_agrees_with_sympy(a)
        deficient += smith_normal_form(a).rank < min(len(a), len(a[0]))
    assert deficient >= 75  # at least a quarter of them are rank-deficient


def test_kernel_basis_agrees_with_sympy():
    """kernel_basis(a) has cols - rank(a) vectors, each with A k = 0, and
    is saturated: the matrix with them as columns has rank their number
    and invariant factors all 1, so no rational combination outside their
    integer span is integral."""
    nonempty = 0
    for a in random_matrices(random.Random(20261021), 300):
        basis = kernel_basis(a)
        assert len(basis) == len(a[0]) - Matrix(a).rank(), a
        assert all(not any(Matrix(a) * Matrix(k)) for k in basis), a
        if basis:
            k = Matrix(basis).T
            assert k.rank() == len(basis), a
            assert [int(x) for x in invariant_factors(k, domain=ZZ)] == [1] * len(basis), a
            nonempty += 1
    assert nonempty >= 100


@pytest.mark.parametrize("ramified", [False, True], ids=["unramified", "ramified"])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_smith_form_agrees_with_sympy_on_coxeter_relations(n, ramified, monkeypatch):
    """Every matrix the comparison of the A_{n-1} Coxeter document takes a
    Smith form of: the relation block [F - 1 | -B] of the torus orders,
    the relation columns B, the lattice L over them, and the root
    matrices of the Levi closure."""
    seen = []

    def recording(a, real=smith_normal_form):
        seen.append([list(row) for row in a])
        return real(a)

    for name, module in list(sys.modules.items()):
        if (name.startswith("fdc")
                and getattr(module, "smith_normal_form", None) is smith_normal_form):
            monkeypatch.setattr(module, "smith_normal_form", recording)
    run_compare(scenario_from_dict(coxeter_document(n, ramified)))
    assert len(seen) >= 3
    for a in seen:
        assert_agrees_with_sympy(a)


def torus_by_sympy(datum, frame):
    """The five torus quantities, in the field order of
    ``TorusLatticeData``, by routes that share nothing with it.

    rank M, |det(qF - 1)| and |det(F - 1)| come from a ``nullspace`` basis
    b of V^I, on which F acts by the matrix f with b f = M(F) b.  On the
    cocharacters, where g acts by M(g^-1)^T, |X_{*,Gamma}| is the product
    of the ``invariant_factors`` of the relations g - 1 of every group
    element.  |(X_{*,I})^F| is counted point by point: the
    ``smith_normal_decomp`` D = U R V of the inertia relations R makes
    X_{*,I} the sum of the Z/d_j in the coordinates U x, where F acts by
    U F U^-1.  F - 1 is injective on the free quotient (asserted), so every
    fixed point is a torsion point, and the torsion points are enumerated.
    """
    group, n = frame.group, datum.rank
    act = {g: Matrix(m) for g, m in datum.action.items()}
    basis = Matrix.vstack(*[act[i] - eye(n) for i in sorted(frame.inertia)]).nullspace()
    rank_m = len(basis)
    if basis:
        b = Matrix.hstack(*basis)
        f = (b.T * b).inv() * b.T * act[frame.frobenius] * b
    else:
        f = Matrix.zeros(0, 0)
    special = abs((frame.q * f - eye(rank_m)).det())
    coinvariants = abs((f - eye(rank_m)).det())

    def relations(elements):
        return Matrix.hstack(*[act[group.inv(g)].T - eye(n) for g in sorted(elements)])

    factors = invariant_factors(relations(group.elements), domain=ZZ)
    assert len(factors) == n and all(factors)
    full = math.prod(abs(int(x)) for x in factors)

    d, u, _ = smith_normal_decomp(relations(frame.inertia), domain=ZZ)
    mods = [abs(int(d[j, j])) if j < d.cols else 0 for j in range(n)]
    step = u * act[group.inv(frame.frobenius)].T * u.inv() - eye(n)
    free = [j for j in range(n) if mods[j] == 0]
    assert step.extract(free, free).det() != 0
    torsion = [j for j in range(n) if mods[j] > 1]
    assert math.prod(mods[j] for j in torsion) <= 10 ** 4
    fixed = 0
    for point in itertools.product(*[range(mods[j]) for j in torsion]):
        y = Matrix.zeros(n, 1)
        for j, c in zip(torsion, point):
            y[j] = c
        z = step * y
        fixed += all(z[j] % mods[j] == 0 if mods[j] else z[j] == 0 for j in range(n))
    return rank_m, int(special), int(coinvariants), full, fixed


def torus_cases():
    """The bundled scenarios, 100 generated draws and the A_3, A_5 and A_7
    Coxeter documents, unramified and totally ramified."""
    out = [load_scenario(os.path.join(SCEN_DIR, fn))
           for fn in sorted(os.listdir(SCEN_DIR)) if fn.endswith(".json")]
    rng = random.Random(20261020)
    out += [generate_scenario(rng) for _ in range(100)]
    out += [scenario_from_dict(coxeter_document(n, ramified))
            for n in (4, 6, 8) for ramified in (False, True)]
    return out


def test_torus_lattice_data_agrees_with_sympy():
    seen_torsion = 0
    for scen in torus_cases():
        torus = torus_lattice_data(scen.datum, scen.frame)
        got = (torus.rank_m, torus.special_fiber_order, torus.m_frob_coinvariants,
               torus.cochar_full_coinvariants, torus.kottwitz_fixed_order)
        assert got == torus_by_sympy(scen.datum, scen.frame), scen.name
        seen_torsion += torus.kottwitz_fixed_order > 1
    assert seen_torsion >= 5
