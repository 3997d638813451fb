"""The property suites of ``lemmas.py`` as a whole: one run of all eight on
one shared stream of draws, and a check that no suite is left uncalled."""

import ast
import glob
import os
import random

from lemmas import (
    suite_chi,
    suite_conductors,
    suite_index_ratio,
    suite_lattice_identity,
    suite_master_identity,
    suite_periodic_sum,
    suite_scenarios,
    suite_snf_oracle,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def test_suites_on_one_shared_rng():
    """The eight suites in a fixed order on one random.Random(20260809), at
    sizes n, n, n/2, n/2, n, none, n/5 and n/10 for n = 40: each suite
    draws where the one before it stopped, so the draws and the counts are
    those of the former ``fdc selftest --n 40``."""
    rng = random.Random(20260809)
    n = 40
    counts = [
        suite_master_identity(rng, n),
        suite_periodic_sum(rng, n),
        suite_lattice_identity(rng, n // 2),
        suite_snf_oracle(rng, n // 2),
        suite_index_ratio(rng, n),
        suite_conductors(),
        suite_scenarios(rng, n // 5),
        suite_chi(rng, n // 10),
    ]
    assert counts == [40, 40, 20, 20, 40, 540, 8, 4]


def _called_names(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    return {node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_every_suite_is_called_from_a_test():
    with open(os.path.join(HERE, "lemmas.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), "lemmas.py")
    suites = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("suite_")}
    called = set().union(*map(_called_names, glob.glob(os.path.join(HERE, "test_*.py"))))
    assert suites
    assert sorted(suites - called) == []
