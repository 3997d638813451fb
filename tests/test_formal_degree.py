import json
import os
import random
from fractions import Fraction

import pytest

from fdc.qexact import PrimePower, exp_q, qmon
from fdc.galois_roots import (
    FiniteGroup,
    GaloisFrame,
    GRootDatum,
    NONPOSITIVE,
    classify_orbits,
    howe_filtration,
    torus_lattice_data,
)
from fdc.mp_filtration import JumpAssignment
from fdc.formal_degree import (
    DepthZeroData,
    depth_zero_quotient_dim,
    heisenberg_dims,
    heisenberg_indices,
    regular_degree,
    volume_exponent_closed,
    volume_exponent_raw,
)
from fdc.scenario import generate_scenario, scenario_from_dict
from fdc.weil_gamma import root_gamma_abs
from lemmas import filtration_levels
from test_coxeter import A11_DIVISORS, a11_three_break_document

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")
PP3 = PrimePower(3, 1)
PP5 = PrimePower(5, 1)


def pair(x):
    """A Fraction or an int as the package's reduced pair."""
    return x.numerator, x.denominator


def sl2_case(ramified: bool, pp=PP3, depth=None, offset=None):
    """The SL_2 datum with its frame, Howe filtration and jumps, the depth
    and the offset given as Fractions."""
    g = FiniteGroup.cyclic(2)
    if ramified:
        frame = GaloisFrame(g, frozenset({0, 1}), 0, pp)
    else:
        frame = GaloisFrame(g, frozenset({0}), 1, pp)
    datum = GRootDatum(1, {0: [[1]], 1: [[-1]]}, frozenset({(2,), (-2,)}), frame.group)
    orbits = classify_orbits(datum, frame)
    (o,) = orbits
    if depth is None:
        filt = howe_filtration(datum, orbits, {o.orbit_id: NONPOSITIVE}, (0, 1))
    else:
        filt = howe_filtration(datum, orbits, {o.orbit_id: pair(depth)}, pair(depth))
    off = offset if offset is not None else Fraction(0)
    jumps = JumpAssignment.build({o.orbit_id: pair(off)}, orbits)
    return datum, frame, filt, jumps


def test_break_term_and_layers():
    datum, _, filt, _ = sl2_case(True, depth=Fraction(1, 2))
    assert datum.rank + len(datum.roots) == 3
    # the break term, the closed volume exponent at quotient dimension 0
    assert volume_exponent_closed(filt, 0) == (1, 2)  # (1/2) * (1/2) * 2
    # strictly increasing breaks enforced by the filtration itself
    assert filt.breaks == ((1, 2),)
    assert filt.total == (1, 2)
    assert [len(layer) for layer in filt.layers] == [0, 1]


def test_heisenberg_examples():
    # ramified orbit with torsor through s0 = 1/4
    _, _, filt, jumps = sl2_case(True, pp=PP5, depth=Fraction(1, 2), offset=Fraction(1, 4))
    assert heisenberg_indices(filt, jumps, PP5) == [exp_q(1, PP5)]
    assert heisenberg_dims(heisenberg_indices(filt, jumps, PP5)) == [exp_q(Fraction(1, 2), PP5)]
    # same depth but torsor missing s0: trivial quotient
    _, _, filt, jumps = sl2_case(True, pp=PP5, depth=Fraction(1, 2), offset=Fraction(0))
    assert heisenberg_indices(filt, jumps, PP5) == [exp_q(0, PP5)]
    # unramified orbit (f = 2) jumping at s0: weight-2 line, dim q
    _, _, filt, jumps = sl2_case(False, pp=PP5, depth=Fraction(1), offset=Fraction(1, 2))
    assert heisenberg_indices(filt, jumps, PP5) == [exp_q(2, PP5)]
    assert heisenberg_dims(heisenberg_indices(filt, jumps, PP5)) == [exp_q(1, PP5)]


def test_general_degree_example():
    """The opaque form: the degree formula at the quotient dimension, times
    dim(rho) / stabilizer index."""
    datum, _, filt, _ = sl2_case(True, depth=Fraction(1), offset=Fraction(0))
    dz = DepthZeroData.opaque((1, 1), 1)
    mono = regular_degree(datum, filt, 1, PP3)
    # dim G = 3, quotient 1, sum r_0 * 2 = 2 -> exponent (3 + 1 + 2)/2
    assert mono == exp_q(3, PP3) and (dz.dim_rho, dz.stab_index) == ((1, 1), 1)


def test_regular_degree_sl2_values():
    datum, frame, filt, _ = sl2_case(False)
    torus = torus_lattice_data(datum, frame)
    mono = regular_degree(datum, filt, torus.rank_m, PP3)
    assert mono == exp_q(2, PP3)
    assert torus.special_fiber_order == 4 and torus.full_point_index == 4
    special = mono.scale(Fraction(1, torus.special_fiber_order))
    assert special == qmon(PP3, Fraction(9, 4))

    datum, frame, filt, _ = sl2_case(True, pp=PP5, depth=Fraction(1, 2), offset=Fraction(1, 4))
    torus = torus_lattice_data(datum, frame)
    assert regular_degree(datum, filt, torus.rank_m, PP5) == exp_q(2, PP5)
    assert torus.special_fiber_order == 1 and torus.full_point_index == 2
    assert torus.kottwitz_fixed_order == 2


def test_regular_degree_extra_break():
    # depth-zero part empty with one break at 1 (e = 1 here, so a break at
    # 1/2 violates the depth lattice and the loader refuses it)
    datum, frame, filt, _ = sl2_case(False, depth=Fraction(1))
    torus = torus_lattice_data(datum, frame)
    # exponent 3/2 + 1/2 + (1/2)*1*2 = 3
    assert regular_degree(datum, filt, torus.rank_m, PP3) == exp_q(3, PP3)


def test_rank_zero_degenerate_lattice():
    datum, frame, filt, _ = sl2_case(True)
    torus = torus_lattice_data(datum, frame)
    assert torus.rank_m == 0
    assert torus.special_fiber_order == 1  # empty determinant
    assert regular_degree(datum, filt, torus.rank_m, PP3) == exp_q(Fraction(3, 2), PP3)


def test_general_equals_regular_cross_check():
    """The opaque form at the depth-zero quotient dimension, with the
    Deligne-Lusztig dimension of the regular depth-zero part as its opaque
    data, against the regular form at rank M over the special-fiber order:
    the quotient's 2N roots move q^N from the exponent into the index."""
    rng = random.Random(71)
    checked = 0
    while checked < 40:
        scen = generate_scenario(rng)
        datum, filt, torus = scen.datum, scen.filtration, scen.torus
        dim_quot = depth_zero_quotient_dim(filt, scen.jumps, torus.rank_m)
        if (dim_quot - torus.rank_m) % 2:
            continue
        reg = regular_degree(datum, filt, torus.rank_m, scen.pp)
        # the Deligne-Lusztig dimension 1 over |S| * q^N with N positive roots
        steinberg = scen.pp.q ** ((dim_quot - torus.rank_m) // 2)
        dz = DepthZeroData.opaque((1, 1), torus.special_fiber_order * steinberg)
        mono = regular_degree(datum, filt, dim_quot, scen.pp)
        num, den = dz.dim_rho
        assert (mono.scale(num, den * dz.stab_index)
                == reg.scale(Fraction(1, torus.special_fiber_order)))
        checked += 1


def assert_volume_routes_agree(scen):
    dim_quot = depth_zero_quotient_dim(scen.filtration, scen.jumps, scen.torus.rank_m)
    assert (volume_exponent_raw(scen.filtration, scen.jumps, dim_quot)
            == volume_exponent_closed(scen.filtration, dim_quot))


def test_volume_normalization_randomized():
    rng = random.Random(73)
    for _ in range(120):
        assert_volume_routes_agree(generate_scenario(rng))


@pytest.mark.parametrize("ramified", [False, True])
@pytest.mark.parametrize("divisors", A11_DIVISORS)
def test_volume_normalization_three_breaks(divisors, ramified):
    """The generator almost never draws two or more breaks, so the A_11
    Coxeter filtrations with three breaks check the two volume exponents
    where the layers s_1 < s_2 < s_3 all contribute."""
    scen = scenario_from_dict(a11_three_break_document(divisors, ramified))
    assert len(scen.filtration.breaks) == 3
    assert_volume_routes_agree(scen)


def layer_cases():
    """(document, scenario) pairs: the bundled documents, the three-break
    A_11 documents and 120 generated draws, each draw with the document
    ``Scenario.to_json_dict`` writes for it."""
    docs = []
    for fn in sorted(os.listdir(SCEN_DIR)):
        if fn.endswith(".json"):
            with open(os.path.join(SCEN_DIR, fn), encoding="utf-8") as fh:
                docs.append(json.load(fh))
    docs += [a11_three_break_document(d, r) for d in A11_DIVISORS for r in (False, True)]
    out = [(doc, scenario_from_dict(doc)) for doc in docs]
    rng = random.Random(83)
    for _ in range(120):
        scen = generate_scenario(rng)
        out.append((scen.to_json_dict(), scen))
    return out


def test_layers_against_document_depths():
    """The layers of ``howe_filtration`` against a brute-force grouping of
    the document's depths, the layers as a partition of the roots, the break term
    against its formula in ``Fraction``s over the level sizes, and dim G
    as rank + |R| against rank + the orbit degrees.  The break map
    ``orbit_breaks`` against the document: each orbit of positive depth
    has its document depth as its break, the nonpositive orbits have none,
    and each ``root_gamma_abs`` conductor is degree * (1 + depth), with
    depth 0 for the nonpositive orbits."""
    multi_break = 0
    for doc, scen in layer_cases():
        filt, orbits, datum = scen.filtration, scen.orbits, scen.datum
        depths = {oid: None if val == NONPOSITIVE else Fraction(val)
                  for oid, val in doc["theta_depths"].items()}
        breaks = [Fraction(*r) for r in filt.breaks]
        assert filt.breaks == tuple(map(pair, breaks))
        assert breaks == sorted({v for v in depths.values() if v is not None})
        want = [tuple(o for o in orbits if depths[o.orbit_id] == r)
                for r in [None] + breaks]
        assert list(filt.layers) == want
        members = [root for layer in filt.layers for o in layer for root in o.members]
        assert len(members) == len(set(members)) and set(members) == datum.roots
        sizes = [len(lv) for lv in filtration_levels(filt)]
        assert volume_exponent_closed(filt, 0) == pair(sum(r / 2 * (sizes[i + 1] - sizes[i])
                                                           for i, r in enumerate(breaks)))
        assert datum.rank + len(datum.roots) == datum.rank + sum(o.degree for o in orbits)
        assert filt.orbit_breaks == tuple(
            (o, None if depths[o.orbit_id] is None else pair(depths[o.orbit_id]))
            for o in orbits)
        conductors = dict(root_gamma_abs(filt, scen.pp).orbit_conductors)
        assert conductors == {o.orbit_id: pair(o.degree * (1 + (depths[o.orbit_id] or 0)))
                              for o in orbits}
        multi_break += len(filt.breaks) >= 2
    assert multi_break >= 4


def test_index_ratio_law():
    from lemmas import suite_index_ratio
    assert suite_index_ratio(random.Random(79), 1000) == 1000
