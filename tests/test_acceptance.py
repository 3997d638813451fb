"""Acceptance criteria, one test per criterion, at the stated sizes and
runtime budgets.  Each prints a single pass/fail line; tolerances are all
exact (zero tolerance): every comparison is between exact rationals or
canonical monomials.

Run with `pytest tests/test_acceptance.py -v -s` for the criterion lines.
"""

import os
import random
import time
from fractions import Fraction

from fdc.compare import VERDICT_UNEQUAL, run_compare
from fdc.qexact import PrimePower, exp_q, qmon
from fdc.scenario import generate_scenario, load_scenario
from lemmas import (
    filtration_levels,
    suite_chi,
    suite_conductors,
    suite_index_ratio,
    suite_lattice_identity,
    suite_master_identity,
    suite_periodic_sum,
    suite_snf_oracle,
)
from fdc.chi_data import BaseChange, verify_base_change
from fdc.weil_gamma import root_gamma_abs

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")


def _line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %2d %-34s %s %s" % (num, label, status, detail))
    assert ok, "criterion %d (%s) failed: %s" % (num, label, detail)


def test_criterion_01_master_length_identity():
    t0 = time.monotonic()
    n = suite_master_identity(random.Random(10_001), 1000)
    dt = time.monotonic() - t0
    _line(1, "master length identity x1000", n == 1000 and dt < 10,
          "(%.2fs)" % dt)


def test_criterion_02_periodic_sum():
    t0 = time.monotonic()
    n = suite_periodic_sum(random.Random(10_002), 1000)
    dt = time.monotonic() - t0
    _line(2, "periodic-sum identity x1000", n == 1000, "(%.2fs)" % dt)


def test_criterion_03_two_sided_equality_bundled():
    t0 = time.monotonic()
    scen = load_scenario(os.path.join(SCEN_DIR, "sl2_unramified_depth0.json"))
    ok = True
    for q in (3, 5, 7, 9):
        rep = run_compare(scen.with_q(PrimePower.from_q(q)))
        value = rep.value_galois
        ok = ok and rep.verdict == "EQUAL"
        ok = ok and value == qmon(value.pp, Fraction(q * q, q + 1))
        ok = ok and rep.value_automorphic == value
    dt = time.monotonic() - t0
    _line(3, "bundled scenario = q^2/(q+1)", ok and dt < 1, "(%.3fs)" % dt)


def test_criterion_04_randomized_two_sided_suite():
    t0 = time.monotonic()
    rng = random.Random(10_004)
    flagged = 0
    for _ in range(200):
        rep = run_compare(generate_scenario(rng))
        assert rep.verdict != VERDICT_UNEQUAL
        if rep.verdict == "FLAGGED":
            flagged += 1
            # the flag must come with the documented discrepancy factor
            assert rep.scenario.torus.kottwitz_fixed_order > 1
            assert any("normalizations differ" in d for d in rep.diagnostics)
    dt = time.monotonic() - t0
    _line(4, "200 generated scenarios two-sided", dt < 60,
          "(%.2fs, %d flagged)" % (dt, flagged))


def test_criterion_05_lattice_identity():
    t0 = time.monotonic()
    n = suite_lattice_identity(random.Random(10_005), 500)
    dt = time.monotonic() - t0
    _line(5, "coinvariant factorization x500", n == 500, "(%.2fs)" % dt)


def test_criterion_06_snf_coinvariants_oracle():
    t0 = time.monotonic()
    n = suite_snf_oracle(random.Random(10_006), 500)
    dt = time.monotonic() - t0
    _line(6, "coinvariants vs enumeration x500", n == 500, "(%.2fs)" % dt)


def test_criterion_07_conductor_consistency():
    n = suite_conductors()
    _line(7, "tame conductor specialization", n >= 6 * 6 * 5, "(%d cases)" % n)


def test_criterion_08_chi_base_change():
    t0 = time.monotonic()
    # exhaustive over all subgroups of every bundled model carrying chi data
    bundled_checked = 0
    for name in ("sl2_unramified_depth0", "z4_a1_ramified_chi",
                 "s3_a2_depth_third", "d4_b2_depth_quarter"):
        scen = load_scenario(os.path.join(SCEN_DIR, name + ".json"))
        assert scen.chi is not None
        base = BaseChange(scen.chi, scen.datum, scen.frame, scen.orbits)
        for sub in scen.frame.group.all_subgroups():
            try:
                witness = verify_base_change(base, sub)
            except ValueError:
                continue
            assert witness is None, (name, sorted(sub))
            bundled_checked += 1
    n = suite_chi(random.Random(10_008), 100)
    dt = time.monotonic() - t0
    _line(8, "chi base change (bundled + 100)", n == 100 and dt < 30,
          "(%.2fs, %d bundled)" % (dt, bundled_checked))


def test_criterion_09_index_ratio_law():
    t0 = time.monotonic()
    n = suite_index_ratio(random.Random(10_009), 1000)
    dt = time.monotonic() - t0
    _line(9, "index-ratio law x1000", n == 1000, "(%.2fs)" % dt)


def test_criterion_10_root_gamma_dual_computation():
    ok = True
    names = ["sl2_unramified_depth0", "sl2_ramified_depth_half",
             "z4_a1_ramified_chi", "s3_a2_depth_third", "z4_rank3_mixed",
             "d4_b2_depth_quarter"]
    scens = [load_scenario(os.path.join(SCEN_DIR, n + ".json")) for n in names]
    rng = random.Random(10_010)
    scens += [generate_scenario(rng) for _ in range(200)]
    for scen in scens:
        rg = root_gamma_abs(scen.filtration, scen.pp)
        # the closed form in the breaks, against the orbitwise conductors
        sizes = [len(lv) for lv in filtration_levels(scen.filtration)]
        breaks = [Fraction(*r) for r in scen.filtration.breaks]
        wild = sum(r * (b - a) for r, a, b in zip(breaks, sizes, sizes[1:]))
        closed = Fraction(len(scen.datum.roots), 2) + Fraction(wild) / 2
        ok = ok and exp_q(closed, scen.pp) == rg.monomial
    _line(10, "root gamma closed = orbitwise", ok, "(%d scenarios)" % len(scens))
