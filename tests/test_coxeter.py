"""The Coxeter family through ``fdc verify``: the A_{n-1} root lattice in
simple-root coordinates under Z/n acting by the Coxeter element, unramified
and totally ramified.

Its cocharacter block [F - 1 | -B], (n-1) x 2(n-1) ramified, and the
tall root matrices of its Levi closure are Smith-form shapes that the
bundled scenarios never reach.  The comparison value has a closed form:
unramified q^(n^2-1) (q-1)/(q^n-1), verdict EQUAL; totally ramified
q^(n^2-1-(n-1)/2) / n, verdict FLAGGED.

So have the torus orders, from the Coxeter element c, which acts on the
root lattice with characteristic polynomial 1 + t + ... + t^(n-1).
Unramified, X^I is the whole lattice and Frobenius is c, so
|det(qc - 1)| = (q^n - 1)/(q - 1) and |det(c - 1)| = n; the cocharacter
lattice is the dual of the root lattice, the weight lattice, on which
1 - c has cokernel of order n, the component group, with no c-fixed
point.  Totally ramified, X^I = 0 and Frobenius is trivial, so both
X^I orders are 1 and the inertia coinvariants are that same group of
order n, all of it Frobenius-fixed.
"""

import hashlib
import json
import os
from fractions import Fraction

import pytest

import fdc.cli as cli
from fdc.scenario import scenario_from_dict
from fdc.zlattice import kernel_basis, mat_transpose, smith_normal_form
from lemmas import filtration_levels

PINS = os.path.join(os.path.dirname(__file__), "coxeter_snf_pins.json")


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def coxeter_document(n, ramified):
    """Generator alpha_i -> alpha_{i+1}, alpha_{n-1} -> -(alpha_1 + ... +
    alpha_{n-1}); every orbit at depth 1 with offset 0.  Unramified: inertia
    {0}, Frobenius 1, q = 3.  Totally ramified: inertia Z/n, Frobenius 0,
    q the least prime = 1 mod n, so a tame extension realizes the frame."""
    rank = n - 1

    def step(v):
        # The generator on a column: entry i of the image is entry i - 1
        # (none for i = 0) minus the last entry.
        return (-v[-1],) + tuple(x - v[-1] for x in v[:-1])

    # Column j of the k-th power is the generator applied k times to e_j.
    columns = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    powers = []
    for _ in range(n):
        powers.append([list(row) for row in zip(*columns)])
        columns = [step(c) for c in columns]
    positive = [tuple(int(a <= t < b) for t in range(rank))
                for a in range(rank) for b in range(a + 1, rank + 1)]
    roots = positive + [tuple(-x for x in r) for r in positive]
    orbit_ids, seen = set(), set()
    for r in roots:
        if r not in seen:
            orbit = [r]
            for _ in range(1, n):
                orbit.append(step(orbit[-1]))
            seen.update(orbit)
            orbit_ids.add(",".join(map(str, min(orbit))))
    p = next(p for p in range(n + 1, 10 ** 4, n) if is_prime(p)) if ramified else 3
    return {
        "name": "coxeter_A%d" % rank,
        "q": {"p": p, "a": 1},
        "group": {"order": n, "mult_table": [[(i + j) % n for j in range(n)] for i in range(n)]},
        "inertia": list(range(n)) if ramified else [0],
        "frobenius": 0 if ramified else 1,
        "lattice_rank": rank,
        "action": {str(k): m for k, m in enumerate(powers)},
        "roots": [list(r) for r in roots],
        "jump_offsets": {oid: "0" for oid in orbit_ids},
        "theta_depths": {oid: "1" for oid in orbit_ids},
        "theta_total_depth": "1",
        "depth_zero": "regular",
    }


# n = 64 keeps the load path at high rank under test.
@pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 64])
@pytest.mark.parametrize("ramified", [False, True])
def test_coxeter_verify_closed_form(n, ramified, tmp_path, capsys):
    doc = coxeter_document(n, ramified)
    path = tmp_path / "coxeter.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["--format", "json", "verify", str(path)])
    assert rc == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    q = doc["q"]["p"]
    if ramified:
        verdict, coeff, pexp = "FLAGGED", Fraction(1, n), Fraction(n * n - 1) - Fraction(n - 1, 2)
    else:
        verdict, coeff, pexp = "EQUAL", Fraction(q - 1, q ** n - 1), Fraction(n * n - 1)
    assert report["verdict"] == verdict
    for value in (report["automorphic"]["value_full_index"], report["galois"]["value"]):
        assert (Fraction(value["coeff"]), Fraction(value["pexp"])) == (coeff, pexp)
    if ramified:
        orders = {"rank_m": 0, "special_fiber_order": 1, "m_frob_coinvariants": 1,
                  "kottwitz_fixed_order": n, "component_group_order": n}
    else:
        orders = {"rank_m": n - 1, "special_fiber_order": (q ** n - 1) // (q - 1),
                  "m_frob_coinvariants": n, "kottwitz_fixed_order": 1,
                  "component_group_order": n}
    assert {key: report["intermediates"][key] for key in orders} == orders


def _rationals(node):
    """Every monomial dict in a report that carries an exact "rational"."""
    if isinstance(node, dict):
        if "rational" in node and "pexp" in node:
            yield node
        for value in node.values():
            yield from _rationals(value)
    elif isinstance(node, list):
        for value in node:
            yield from _rationals(value)


def test_a47_ramified_huge_values_exit_0(tmp_path, capsys):
    """A_47 ramified at q = 97: the root-gamma value has 4,483 digits, past
    the interpreter's int-to-str limit.  Both formats exit 0, and every
    printed rational matches Decimal's exact conversion."""
    from decimal import Decimal

    n = 48
    doc = coxeter_document(n, True)
    path = tmp_path / "a47.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 0
    assert "verdict=FLAGGED" in capsys.readouterr().out
    assert cli.main(["--format", "json", "verify", str(path)]) == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["verdict"] == "FLAGGED"
    assert report["automorphic"]["value_full_index"]["pexp"] == str(
        Fraction(n * n - 1) - Fraction(n - 1, 2))
    monos = list(_rationals(report))
    assert max(len(m["rational"]) for m in monos) > 4300
    for mono in monos:
        value = Fraction(mono["coeff"]) * Fraction(int(mono["p"])) ** int(mono["pexp"])
        text = str(Decimal(value.numerator))
        if value.denominator != 1:
            text += "/" + str(Decimal(value.denominator))
        assert mono["rational"] == text


def load_pins():
    """V and kernel bases from a Smith form that updates V with every
    column operation, the reference for the V replayed from the column
    log."""
    with open(PINS) as fh:
        return json.load(fh)


def test_snf_of_a5_roots_pinned():
    """The tall 0/+-1 root matrix of A_5 (30 x 5, roots sorted, as rows),
    the shape the Levi closure hands to kernel_basis."""
    roots = sorted(coxeter_document(6, False)["roots"])
    pin = load_pins()["a5_roots"]
    form = smith_normal_form(roots)
    assert form.diagonal == [1] * 5 and form.rank == 5
    assert form.v == pin["v"]


# sha256 of json.dumps(V) for the torus block of A_{n-1}, keyed (n, ramified).
TORUS_BLOCK_V_SHA256 = {
    (24, False): "d2a6a63d56dfea26acf443c10f07c9861c2ebd45b9b6d285040dfa4cd22be262",
    (24, True): "1ca0921300289f9e01cf844abc054c73cfd4be386f3f5a6f965bb62eeb0806f8",
    (48, False): "c936ea54359cbbd767938f605a5451e94d726cfa233de25947c3e000053500f7",
    (48, True): "c32a577810d51b96baff66c4bdeeddd3ecf0331732f9f9686a13dbb762538a9f",
}


def torus_block(n, ramified):
    """The cocharacter block [F - 1 | -B] that torus_lattice_data hands to
    frobenius_orders: F = M(Frob^-1)^T, and B the nonzero columns of
    M(g^-1)^T - 1 for the inertia generators g."""
    scen = scenario_from_dict(coxeter_document(n, ramified))
    action, frame = scen.datum.action, scen.frame
    group = frame.group
    relations = []
    for g in group.generating_set(frame.inertia):
        for j, row in enumerate(action[group.inv(g)]):
            col = [x - (i == j) for i, x in enumerate(row)]
            if any(col):
                relations.append(col)
    endo = mat_transpose(action[group.inv(frame.frobenius)])
    return [[x - (i == j) for j, x in enumerate(row)] + [-col[i] for col in relations]
            for i, row in enumerate(endo)]


@pytest.mark.parametrize("n,ramified", sorted(TORUS_BLOCK_V_SHA256))
def test_snf_of_torus_block_pinned(n, ramified):
    """The column log of the Smith form of the torus block, pinned through
    V: (n-1) x (n-1) unramified, (n-1) x 2(n-1) totally ramified.  The
    diagonal is 1, ..., 1, n either way, the order of the component group."""
    block = torus_block(n, ramified)
    assert len(block[0]) == (n - 1) * (2 if ramified else 1)
    form = smith_normal_form(block)
    assert form.rank == n - 1
    assert form.diagonal == [1] * (n - 2) + [n]
    digest = hashlib.sha256(json.dumps(form.v).encode()).hexdigest()
    assert digest == TORUS_BLOCK_V_SHA256[n, ramified]


def a11_three_break_document(divisors, ramified):
    """The A_11 Coxeter document with breaks at 1, 2 and 3: the orbit of
    e_a - e_b enters at depth 1 when d1 divides k = b - a mod 12, else at 2
    when d2 divides k, else at 3."""
    d1, d2 = divisors
    doc = coxeter_document(12, ramified)
    depths = {}
    for oid in doc["theta_depths"]:
        k = sum(int(x) for x in oid.split(",")) % 12
        depths[oid] = "1" if k % d1 == 0 else "2" if k % d2 == 0 else "3"
    doc["theta_depths"] = depths
    doc["theta_total_depth"] = "3"
    return doc


A11_DIVISORS = [(6, 3), (4, 2)]


@pytest.mark.parametrize("divisors", A11_DIVISORS)
def test_a11_levi_kernels_pinned(divisors):
    """Every level of an A_11 Coxeter filtration with three breaks.  The
    orbit of e_a - e_b is fixed by k = b - a mod 12 (the sum of its
    simple-root coordinates); orbits with d1 | k enter at depth 1, the other
    orbits with d2 | k at depth 2 and the rest at 3, so the levels are the
    Levi subsystems {d | k} for d = d1, d2, 1."""
    d1, d2 = divisors
    levels = filtration_levels(
        scenario_from_dict(a11_three_break_document(divisors, False)).filtration)
    assert [len(lv) for lv in levels] == [0, 12 * (12 // d1 - 1), 12 * (12 // d2 - 1), 132]
    pins = load_pins()["a11_levi_kernels"]
    for level, d in zip(levels[1:], (d1, d2, 1)):
        basis = kernel_basis(sorted(level))
        # The level spans 12 - d of the 11 dimensions.
        assert len(basis) == d - 1
        assert [list(v) for v in basis] == pins[str(len(level))]
