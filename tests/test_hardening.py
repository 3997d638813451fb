"""Stress and independent-oracle tests beyond the per-module examples.

These pin the load-bearing identities against third computation routes:
the master identity against primed sums of indicator jump functions,
fixed-point orders against direct enumeration on rank-3 presentations,
and the cocycle base change on a sixteen-element frame.  The loader is
fuzzed with structural mutations and must always fail closed with a
structured error.
"""

import json
import math
import os
import random
from fractions import Fraction

from fdc.chi_data import (
    BaseChange,
    ChiData,
    character_group,
    condition_failures,
    verify_base_change,
)
from fdc.compare import run_compare
from fdc.galois_roots import FiniteGroup, GaloisFrame, GRootDatum, classify_orbits
from fdc.qexact import PrimePower, qmon
from fdc.scenario import ScenarioError, scenario_from_dict
from lemmas import (
    JumpFunction,
    base_change_sides,
    master_length_identity,
    primed_sum,
    random_jumps,
    synthetic_orbits,
)
from fdc.zlattice import (
    frobenius_orders,
    mat_mul,
    smith_normal_form,
)
from test_zlattice import assert_smith_form

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")


def test_master_identity_against_primed_sums():
    """Third route: the left side of the length identity is the primed sum
    of the weighted torsor indicator over [0, f], per orbit."""
    rng = random.Random(555)
    for _ in range(400):
        orbits = synthetic_orbits(rng)
        jumps = random_jumps(rng, orbits)
        f = {}
        for o in orbits:
            if o.orbit_id in f:
                continue
            val = Fraction(rng.randint(1, 6 * o.e), 2 * o.e)
            f[o.orbit_id] = val
            f[o.negation_id] = val
        lhs, rhs = master_length_identity(orbits, f, jumps)
        via_primed = Fraction(0)
        for o in orbits:
            h = JumpFunction.build({}, [(Fraction(*jumps.offset(o)), Fraction(1, o.e), o.f)])
            via_primed += primed_sum(h, 0, f[o.orbit_id])
        assert lhs == via_primed == rhs


def test_fg_fixed_order_rank3_enumeration():
    """Fixed points on Z/a x Z/b x Z/c against direct enumeration, and the
    coinvariants too: on a finite group |coker(F - 1)| = |ker(F - 1)|."""
    rng = random.Random(707)
    done = 0
    while done < 150:
        mods = [rng.randint(1, 6) for _ in range(3)]
        c = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        ok = all((c[i][j] * mods[j]) % mods[i] == 0
                 for i in range(3) for j in range(3))
        if not ok:
            continue
        rels = [(mods[0], 0, 0), (0, mods[1], 0), (0, 0, mods[2])]
        count = 0
        for x in range(mods[0]):
            for y in range(mods[1]):
                for z in range(mods[2]):
                    img = [(c[i][0] * x + c[i][1] * y + c[i][2] * z) % mods[i]
                           for i in range(3)]
                    if img == [x % mods[0], y % mods[1], z % mods[2]]:
                        count += 1
        assert frobenius_orders(3, rels, c) == (count, count)
        done += 1


def test_snf_wide_fuzz():
    rng = random.Random(808)
    for _ in range(400):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-60, 60) for _ in range(m)] for _ in range(n)]
        assert_smith_form(a, smith_normal_form(a))


def test_chi_base_change_sixteen_element_frame():
    """Totally ramified Z/16 quotient acting by sign on a rank-one datum:
    eighth-root character values, exhaustive over all five subgroups."""
    g = FiniteGroup.cyclic(16)
    pp = PrimePower(3, 1)
    frame = GaloisFrame(g, frozenset(range(16)), 0, pp)
    action = {k: [[1]] if k % 2 == 0 else [[-1]] for k in range(16)}
    datum = GRootDatum(1, action, frozenset({(1,), (-1,)}), frame.group)
    orbits = classify_orbits(datum, frame)
    stab = frozenset(range(0, 16, 2))
    chars = character_group(g, stab)
    assert len(chars) == 8
    tested = 0
    for chi_rep in chars:
        try:
            chi = ChiData.from_representatives(datum, frame, orbits, {(1,): chi_rep})
        except ValueError:
            continue  # fails the symmetric-class compatibility constraint
        assert condition_failures(chi, datum, frame, orbits) == ([], [])
        base = BaseChange(chi, datum, frame, orbits)
        for sub in g.all_subgroups():
            witness = verify_base_change(base, sub)
            assert witness is None, (sorted(sub), witness,
                                     base_change_sides(base, sub, witness))
        tested += 1
    assert tested >= 2  # at least the trivial and the order-two character


def test_torus_only_scenario():
    """A scenario with no roots at all: both sides still agree exactly."""
    doc = {
        "name": "torus_only",
        "q": {"p": 5, "a": 1},
        "group": {"order": 2, "mult_table": [[0, 1], [1, 0]]},
        "inertia": [0],
        "frobenius": 1,
        "lattice_rank": 1,
        "action": {"0": [[1]], "1": [[-1]]},
        "roots": [],
        "jump_offsets": {},
        "theta_depths": {},
        "theta_total_depth": "0",
        "depth_zero": "regular",
    }
    scen = scenario_from_dict(doc)
    rep = run_compare(scen)
    assert rep.verdict in ("EQUAL", "FLAGGED")
    # value: exp_q(1/2 + 1/2) / (q + 1) = q/(q+1)
    assert rep.value_galois == qmon(rep.value_galois.pp, Fraction(5, 6))
    assert rep.value_automorphic == rep.value_galois


def test_loader_fuzz_fails_closed():
    """Random structural mutations of a valid document either load to a
    valid scenario or raise the structured error, never anything else."""
    with open(os.path.join(SCEN_DIR, "z4_rank3_mixed.json")) as fh:
        base = json.load(fh)
    rng = random.Random(909)
    mutations = 0
    errors = 0
    for _ in range(300):
        doc = json.loads(json.dumps(base))
        kind = rng.randrange(8)
        if kind == 0:
            doc["q"]["p"] = rng.choice([2, 4, 6, 9, -3])
        elif kind == 1:
            doc["inertia"] = sorted(rng.sample(range(4), rng.randint(0, 4)))
        elif kind == 2:
            doc["frobenius"] = rng.randrange(-2, 8)
        elif kind == 3:
            row = rng.randrange(3)
            doc["action"][str(rng.randrange(4))][row][rng.randrange(3)] += rng.choice([-1, 1, 3])
        elif kind == 4:
            doc["roots"] = doc["roots"][:-rng.randint(1, 3)]
        elif kind == 5:
            key = rng.choice(list(doc["jump_offsets"].keys()))
            doc["jump_offsets"][key] = rng.choice(["1/3", "x", "1/0", "-7/5"])
        elif kind == 6:
            key = rng.choice(list(doc["theta_depths"].keys()))
            doc["theta_depths"][key] = rng.choice(["-1/2", "5", "nonsense", "0"])
        else:
            doc["theta_total_depth"] = rng.choice(["-1", "1/4", "junk"])
        mutations += 1
        try:
            scen = scenario_from_dict(doc)
        except ScenarioError as err:
            errors += 1
            assert err.failures  # structured, with provenance
            continue
        run_compare(scen)  # mutations that stay valid must still compare cleanly
    assert mutations == 300 and errors > 150


def test_degenerate_all_depth_zero_rank3():
    """Wholly depth-zero variant of the bundled rank-3 scenario."""
    with open(os.path.join(SCEN_DIR, "z4_rank3_mixed.json")) as fh:
        doc = json.load(fh)
    doc["theta_depths"] = {k: "nonpositive" for k in doc["theta_depths"]}
    doc["theta_total_depth"] = "0"
    scen = scenario_from_dict(doc)
    rep = run_compare(scen)
    assert rep.verdict in ("EQUAL", "FLAGGED")
    assert rep.value_automorphic == rep.value_galois


def _inverse(m):
    """1 / m, computed from its coefficient and p-exponent as Fractions."""
    return qmon(m.pp, Fraction(m.coeff_den, m.coeff_num), Fraction(-m.pexp_num, m.pexp_den))


def test_compact_induction_derivation_chain():
    """The induced-degree route: dim(tau) = dim(rho) * prod(Heisenberg dims)
    over the assembled volume vol(K) reproduces the closed formula."""
    from fdc.formal_degree import (
        DepthZeroData,
        depth_zero_quotient_dim,
        heisenberg_dims,
        heisenberg_indices,
        regular_degree,
        volume_exponent_raw,
    )
    from fdc.qexact import exp_q
    from fdc.scenario import generate_scenario

    rng = random.Random(1001)
    checked = 0
    while checked < 40:
        scen = generate_scenario(rng)
        datum, filtration, torus = scen.datum, scen.filtration, scen.torus
        dim_quot = depth_zero_quotient_dim(filtration, scen.jumps, torus.rank_m)
        if (dim_quot - torus.rank_m) % 2:
            continue
        steinberg = scen.pp.q ** ((dim_quot - torus.rank_m) // 2)
        dz = DepthZeroData.opaque((1, 1), torus.special_fiber_order * steinberg)
        dim_rho = Fraction(*dz.dim_rho)
        hdims = heisenberg_dims(heisenberg_indices(filtration, scen.jumps, scen.pp))
        dim_tau = math.prod(hdims, start=qmon(scen.pp, dim_rho))
        # vol(K)^-1 = q^(dim G / 2) * exp_q(raw exponent) / (index * prod
        # Heisenberg dims): the raw exponent contains the half boundary
        # lengths whose exponentials are exactly the Heisenberg dimensions.
        dim_g = datum.rank + len(datum.roots)
        vol_k = math.prod(hdims, start=_inverse(exp_q(Fraction(dim_g, 2), scen.pp))
                          * _inverse(exp_q(Fraction(*volume_exponent_raw(
                              filtration, scen.jumps, dim_quot)), scen.pp))
                          ).scale(dz.stab_index)
        assert dim_tau.coeff_num > 0 and vol_k.coeff_num > 0
        got = dim_tau * _inverse(vol_k)
        want = regular_degree(datum, filtration, dim_quot, scen.pp).scale(
            dim_rho / dz.stab_index)
        assert got == want, (scen.name, got, want)
        reg = regular_degree(datum, filtration, torus.rank_m, scen.pp)
        assert got == reg.scale(Fraction(1, torus.special_fiber_order))
        checked += 1


def test_order_p_frame_scenario():
    """Unramified frame of order equal to p itself (inertia trivial, so the
    tameness constraint is vacuous): rotation of order three at p = 3."""
    rot = [[0, -1], [1, -1]]
    doc = {
        "name": "a2_rot3_unramified_p3",
        "q": {"p": 3, "a": 1},
        "group": {"order": 3, "mult_table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
        "inertia": [0],
        "frobenius": 1,
        "lattice_rank": 2,
        "action": {"0": [[1, 0], [0, 1]], "1": rot, "2": mat_mul(rot, rot)},
        "roots": [[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1], [1, 1]],
        "jump_offsets": {"-1,-1": "0", "-1,0": "0"},
        "theta_depths": {"-1,-1": "nonpositive", "-1,0": "nonpositive"},
        "theta_total_depth": "0",
        "depth_zero": "regular",
    }
    scen = scenario_from_dict(doc)
    rep = run_compare(scen)
    assert rep.verdict == "EQUAL"
    # dim G = 8, rank M = 2: exponent 5; |det(3*rot - 1)| = 13
    assert rep.value_galois == qmon(rep.value_galois.pp, Fraction(3 ** 5, 13))
    assert rep.intermediates["m_frob_coinvariants"] == 3  # divisible by p
