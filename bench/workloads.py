"""Inputs, expected results and output checks for the benchmark workloads.

Every workload is a list of :class:`Item`: one scenario document and the
``fdc`` subcommand to run on it.  The documents are built here from the
seed alone, so the same seed always gives byte-identical input files.

* ``gen_batch``: the bundled scenarios plus ``GEN_COUNT`` generated ones,
  each through ``verify``.  Many tiny lattices, so the fixed per-scenario
  costs (load checks, dual actions, emit) dominate.
* ``coxeter_ladder``: the A_{n-1} root lattice under the Coxeter element,
  unramified and totally ramified, through ``verify``.  Few large
  lattices, so Smith forms, solves and the Levi closure dominate.  The
  seed is ignored.
* ``chi_sweep``: scenarios that carry character data, through
  ``chi-check``.  Shares the load path with ``gen_batch`` but replaces the
  comparison with base change over all subgroups.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

GEN_COUNT = 600
# Item times cluster by scenario family, so a p50 or p90 over few items moves
# with the family mix a seed draws: with 200 items the median moved by up to
# 15 % between seeds, and with 100 by up to 30 %.
CHI_MIN_ITEMS = 600
COXETER_NS = (4, 6, 8, 10, 12)

# The README table of bundled scenarios: verdict, and the value q^k / d(q)
# as the exponent k and the p-unit denominator d.
BUNDLED_EXPECTED: Dict[str, Tuple[str, int, Callable[[int], int]]] = {
    "sl2_unramified_depth0": ("EQUAL", 2, lambda q: q + 1),
    "sl2_ramified_depth_half": ("FLAGGED", 2, lambda q: 2),
    "z4_a1_ramified_chi": ("FLAGGED", 2, lambda q: 2),
    "s3_a2_depth_third": ("EQUAL", 5, lambda q: 1),
    "z4_rank3_mixed": ("FLAGGED", 9, lambda q: 2 * (q + 1)),
    "d4_b2_depth_quarter": ("FLAGGED", 6, lambda q: 2),
}


@dataclass
class Expected:
    """What one output must show beyond the generic checks: the verdict and
    the value as (p-unit coefficient, p-exponent)."""

    verdict: Optional[str] = None
    value: Optional[Tuple[Fraction, Fraction]] = None


@dataclass
class Item:
    name: str
    command: str  # "verify" or "chi-check"
    text: str     # the scenario document as written to disk
    expected: Expected


def _bundled_items(src: Path, command: str, need_chi: bool) -> List[Item]:
    items = []
    for path in sorted((src / "fdc" / "scenarios").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        if need_chi and "chi" not in doc:
            continue
        exp = Expected()
        if command == "verify":
            verdict, k, den = BUNDLED_EXPECTED[path.stem]
            p, a = doc["q"]["p"], doc["q"]["a"]
            exp = Expected(verdict, (Fraction(1, den(p ** a)), Fraction(k * a)))
        items.append(Item("bundled:" + path.stem, command, text, exp))
    return items


def gen_batch(src: Path, seed: int, gen_count: int = GEN_COUNT) -> List[Item]:
    from fdc.scenario import generate_scenario

    items = _bundled_items(src, "verify", need_chi=False)
    rng = random.Random(seed)
    for i in range(gen_count):
        scen = generate_scenario(rng)
        items.append(Item("gen:%03d:%s" % (i, scen.name), "verify",
                          scen.to_json(), Expected()))
    return items


def chi_sweep(src: Path, seed: int, min_items: int = CHI_MIN_ITEMS) -> List[Item]:
    from fdc.scenario import generate_scenario

    items = _bundled_items(src, "chi-check", need_chi=True)
    rng = random.Random(seed)
    draw = 0
    while len(items) < min_items:
        scen = generate_scenario(rng)
        if scen.chi is not None:
            items.append(Item("gen:%03d:%s" % (draw, scen.name), "chi-check",
                              scen.to_json(), Expected()))
        draw += 1
    return items


# -- the Coxeter family ----------------------------------------------------------


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _smallest_prime_1_mod(n: int) -> int:
    p = n + 1
    while not _is_prime(p):
        p += n
    return p


def _mat_mul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def coxeter_document(n: int, ramified: bool) -> Dict[str, object]:
    """A_{n-1} in simple-root coordinates under Z/n, generator alpha_i ->
    alpha_{i+1}, alpha_{n-1} -> -(alpha_1 + ... + alpha_{n-1}); every orbit
    at depth 1 with offset 0 and a regular depth-zero part.

    Unramified: inertia {0}, Frobenius 1, q = 3.  Totally ramified: inertia
    Z/n, Frobenius 0, q the smallest prime = 1 mod n (so the frame is
    realizable by a tame extension).
    """
    rank = n - 1
    gen = [[0] * rank for _ in range(rank)]
    for i in range(rank - 1):
        gen[i + 1][i] = 1
    for i in range(rank):
        gen[i][rank - 1] = -1
    powers = [[[int(i == j) for j in range(rank)] for i in range(rank)]]
    for _ in range(1, n):
        powers.append(_mat_mul(gen, powers[-1]))
    positive = [tuple(int(a <= t < b) for t in range(rank))
                for a in range(rank) for b in range(a + 1, rank + 1)]
    roots = sorted(positive + [tuple(-x for x in r) for r in positive])
    # Orbit ids are the root_key of the lexicographically smallest member.
    orbit_ids = set()
    for r in roots:
        members = [tuple(sum(m[i][j] * r[j] for j in range(rank)) for i in range(rank))
                   for m in powers]
        orbit_ids.add(",".join(str(x) for x in min(members)))
    p = _smallest_prime_1_mod(n) if ramified else 3
    return {
        "name": "coxeter_A%d_%s" % (rank, "ramified" if ramified else "unramified"),
        "q": {"p": p, "a": 1},
        "group": {"order": n, "mult_table": [[(i + j) % n for j in range(n)]
                                             for i in range(n)]},
        "inertia": list(range(n)) if ramified else [0],
        "frobenius": 0 if ramified else 1,
        "lattice_rank": rank,
        "action": {str(k): m for k, m in enumerate(powers)},
        "roots": [list(r) for r in roots],
        "jump_offsets": {oid: "0" for oid in sorted(orbit_ids)},
        "theta_depths": {oid: "1" for oid in sorted(orbit_ids)},
        "theta_total_depth": "1",
        "depth_zero": "regular",
    }


def coxeter_expected(n: int, ramified: bool) -> Expected:
    """Closed forms of the comparison value, as (p-unit coefficient,
    p-exponent): unramified q^(n^2-1) (q-1)/(q^n-1), EQUAL; ramified
    q^(n^2-1-(n-1)/2) / n, FLAGGED."""
    if ramified:
        return Expected("FLAGGED", (Fraction(1, n), Fraction(n * n - 1) - Fraction(n - 1, 2)))
    q = 3
    return Expected("EQUAL", (Fraction(q - 1, q ** n - 1), Fraction(n * n - 1)))


def coxeter_ladder(src: Path, seed: int, ns: Tuple[int, ...] = COXETER_NS) -> List[Item]:
    del src, seed  # the family is fixed
    return [Item("coxeter:A%d:%s" % (n - 1, "ramified" if ram else "unramified"),
                 "verify", json.dumps(coxeter_document(n, ram), indent=2, sort_keys=True) + "\n",
                 coxeter_expected(n, ram))
            for n in ns for ram in (False, True)]


WORKLOADS: Dict[str, Callable[..., List[Item]]] = {
    "gen_batch": gen_batch,
    "coxeter_ladder": coxeter_ladder,
    "chi_sweep": chi_sweep,
}


# -- output checks ------------------------------------------------------------------


def _value_pair(mono: Dict[str, str]) -> Tuple[Fraction, Fraction]:
    return Fraction(mono["coeff"]), Fraction(mono["pexp"])


def _verify_problems(item: Item, doc: Dict[str, object]) -> List[str]:
    reports = doc["reports"]
    if len(reports) != 1:
        return ["expected one report, got %d" % len(reports)]
    rep = reports[0]
    verdict = rep["verdict"]
    aut = _value_pair(rep["automorphic"]["value_full_index"])
    gal = _value_pair(rep["galois"]["value"])
    problems = []
    if verdict == "UNEQUAL" or aut != gal:
        problems.append("UNEQUAL: automorphic %s vs galois %s" % (aut, gal))
    if (verdict == "EQUAL") != (rep["automorphic"]["prefactor_discrepancy"] == 1):
        problems.append("verdict %s contradicts the prefactor discrepancy" % verdict)
    exp = item.expected
    if exp.verdict is not None and verdict != exp.verdict:
        problems.append("verdict %s, expected %s" % (verdict, exp.verdict))
    if exp.value is not None and aut != exp.value:
        problems.append("value %s * p^(%s), expected %s * p^(%s)"
                        % (aut[0], aut[1], exp.value[0], exp.value[1]))
    return problems


def check_output(item: Item, rc: int, out: str) -> List[str]:
    """Every way one call's exit code and stdout miss; empty when right."""
    problems = [] if rc == 0 else ["exit %d" % rc]
    try:
        doc = json.loads(out)
        if item.command == "chi-check":
            problems += [] if doc["ok"] is True else ["chi-check FAIL"]
        else:
            problems += _verify_problems(item, doc)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        problems.append("malformed output (%s: %s)" % (type(e).__name__, e))
    return problems
