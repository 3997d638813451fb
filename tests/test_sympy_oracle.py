"""sympy as a second implementation: the Smith forms of ``fdc.zlattice``
against sympy's invariant factors over ZZ.

sympy is a separately written computer algebra system, so a misreading of
the Smith form shared by ``smith_normal_form`` and the tests that call it
shows up here.  Its ``invariant_factors`` lists min(rows, cols) factors,
the zeros last; ``smith_normal_form`` keeps the nonzero ones first on its
diagonal and counts them as its rank.
"""

import random
import sys

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from fdc.compare import run_compare
from fdc.scenario import scenario_from_dict
from fdc.zlattice import smith_normal_form
from test_coxeter import coxeter_document


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
