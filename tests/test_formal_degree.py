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
    YuShape,
    compact_induction_degree,
    general_degree,
    heisenberg_dims,
    heisenberg_indices,
    regular_degree,
    volume_exponent_closed,
    volume_exponent_raw,
)
from fdc.scenario import generate_scenario, scenario_from_dict
from test_coxeter import A11_DIVISORS, a11_three_break_document

PP3 = PrimePower(3, 1)
PP5 = PrimePower(5, 1)


def sl2_shape(ramified: bool, pp=PP3, depth=None, offset=None):
    g = FiniteGroup.cyclic(2)
    if ramified:
        frame = GaloisFrame(g, frozenset({0, 1}), 0, pp)
    else:
        frame = GaloisFrame(g, frozenset({0}), 1, pp)
    datum = GRootDatum(1, {0: [[1]], 1: [[-1]]}, frozenset({(2,), (-2,)}))
    datum.check_against_frame(frame)
    orbits = classify_orbits(datum, frame)
    (o,) = orbits
    if depth is None:
        filt = howe_filtration(datum, orbits, {o.orbit_id: NONPOSITIVE}, Fraction(0))
    else:
        filt = howe_filtration(datum, orbits, {o.orbit_id: depth}, depth)
    off = offset if offset is not None else Fraction(0)
    jumps = JumpAssignment.build({o.orbit_id: off}, orbits)
    shape = YuShape(filt, tuple(orbits), jumps, 1, pp)
    return shape, datum, frame


def test_compact_induction_degree():
    one = qmon(PP3, 1)
    assert compact_induction_degree(one, one) == one
    dim = exp_q(1, PP3)
    vol = exp_q(-2, PP3)
    assert compact_induction_degree(dim, vol) == exp_q(3, PP3)
    with pytest.raises(ValueError):
        compact_induction_degree(qmon(PP3, -1), one)


def test_yushape_validation():
    shape, datum, frame = sl2_shape(True, depth=Fraction(1, 2))
    assert shape.dim_ga == 3
    assert shape.break_term() == Fraction(1, 2)  # (1/2) * (1/2) * 2
    # strictly increasing breaks enforced by the filtration itself
    assert shape.filtration.rvec() == (Fraction(1, 2), Fraction(1, 2))


def test_heisenberg_examples():
    # ramified orbit with torsor through s0 = 1/4
    shape, _, _ = sl2_shape(True, pp=PP5, depth=Fraction(1, 2), offset=Fraction(1, 4))
    assert heisenberg_indices(shape) == [exp_q(1, PP5)]
    assert heisenberg_dims(heisenberg_indices(shape)) == [exp_q(Fraction(1, 2), PP5)]
    # same depth but torsor missing s0: trivial quotient
    shape, _, _ = sl2_shape(True, pp=PP5, depth=Fraction(1, 2), offset=Fraction(0))
    assert heisenberg_indices(shape) == [exp_q(0, PP5)]
    # unramified orbit (f = 2) jumping at s0: weight-2 line, dim q
    shape, _, _ = sl2_shape(False, pp=PP5, depth=Fraction(1), offset=Fraction(1, 2))
    assert heisenberg_indices(shape) == [exp_q(2, PP5)]
    assert heisenberg_dims(heisenberg_indices(shape)) == [exp_q(1, PP5)]


def test_general_degree_example():
    shape, _, _ = sl2_shape(True, depth=Fraction(1), offset=Fraction(0))
    dz = DepthZeroData.opaque(1, 1)
    mono, pref = general_degree(shape, dz, 1)
    # dim G = 3, quotient 1, sum r_0 * 2 = 2 -> exponent (3 + 1 + 2)/2
    assert mono == exp_q(3, PP3) and pref == 1


def test_regular_degree_sl2_values():
    shape, datum, frame = sl2_shape(False)
    reg = regular_degree(shape, torus_lattice_data(datum, frame))
    assert reg.monomial == exp_q(2, PP3)
    assert reg.special_fiber_order == 4 and reg.full_point_index == 4
    special = reg.monomial.scale(Fraction(1, reg.special_fiber_order))
    assert special == qmon(PP3, Fraction(9, 4))

    shape, datum, frame = sl2_shape(True, pp=PP5, depth=Fraction(1, 2),
                                    offset=Fraction(1, 4))
    reg = regular_degree(shape, torus_lattice_data(datum, frame))
    assert reg.monomial == exp_q(2, PP5)
    assert reg.special_fiber_order == 1 and reg.full_point_index == 2
    assert reg.discrepancy == 2


def test_regular_degree_extra_break():
    # depth-zero part empty with one break at 1 (e = 1 here, so a break at
    # 1/2 violates the depth lattice and the loader refuses it)
    shape, datum, frame = sl2_shape(False, depth=Fraction(1))
    reg = regular_degree(shape, torus_lattice_data(datum, frame))
    # exponent 3/2 + 1/2 + (1/2)*1*2 = 3
    assert reg.monomial == exp_q(3, PP3)


def test_rank_zero_degenerate_lattice():
    shape, datum, frame = sl2_shape(True)
    reg = regular_degree(shape, torus_lattice_data(datum, frame))
    torus = torus_lattice_data(datum, frame)
    assert torus.rank_m == 0
    assert reg.special_fiber_order == 1  # empty determinant
    assert reg.monomial == exp_q(Fraction(3, 2), PP3)


def test_general_equals_regular_cross_check():
    rng = random.Random(71)
    checked = 0
    while checked < 40:
        scen = generate_scenario(rng)
        shape = scen.shape()
        torus = scen.torus
        dim_quot = shape.depth_zero_quotient_dim(torus.rank_m)
        if (dim_quot - torus.rank_m) % 2:
            continue
        reg = regular_degree(shape, torus)
        # the Deligne-Lusztig dimension 1 over |S| * q^N with N positive roots
        steinberg = scen.pp.q ** ((dim_quot - torus.rank_m) // 2)
        dz = DepthZeroData.opaque(1, torus.special_fiber_order * steinberg)
        mono, pref = general_degree(shape, dz, dim_quot)
        assert mono.scale(pref) == reg.monomial.scale(Fraction(1, reg.special_fiber_order))
        checked += 1


def test_volume_normalization_randomized():
    rng = random.Random(73)
    for _ in range(120):
        scen = generate_scenario(rng)
        shape = scen.shape()
        rank_m = scen.torus.rank_m
        assert volume_exponent_raw(shape, rank_m) == volume_exponent_closed(shape, rank_m)


@pytest.mark.parametrize("ramified", [False, True])
@pytest.mark.parametrize("divisors", A11_DIVISORS)
def test_volume_normalization_three_breaks(divisors, ramified):
    """The generator almost never draws two or more breaks, so the A_11
    Coxeter filtrations with three breaks check the two volume exponents
    where the layers s_1 < s_2 < s_3 all contribute."""
    scen = scenario_from_dict(a11_three_break_document(divisors, ramified))
    shape = scen.shape()
    assert shape.filtration.d == 3
    rank_m = scen.torus.rank_m
    assert volume_exponent_raw(shape, rank_m) == volume_exponent_closed(shape, rank_m)


def test_index_ratio_law():
    from lemmas import suite_index_ratio
    assert suite_index_ratio(random.Random(79), 1000) == 1000
