import math
import random
from fractions import Fraction

import pytest

from fdc.qexact import PrimePower, exp_q
from fdc.galois_roots import (
    FiniteGroup,
    GaloisFrame,
    GRootDatum,
    HoweFiltration,
    NONPOSITIVE,
    OrbitInfo,
    classify_orbits,
    howe_filtration,
    off_lattice_breaks,
)
from fdc.mp_filtration import (
    INFINITY,
    ExtIndex,
    JumpAssignment,
    _torsor_point_count,
    at,
    f_from_sequence,
    is_admissible,
    is_concave,
    jump_length_at,
    just_above,
    mp_chain,
    quotient_order,
)
from lemmas import (
    JumpFunction,
    master_length_identity,
    periodic_sum_value,
    primed_sum,
    random_jumps,
    synthetic_orbits,
)

PP3 = PrimePower(3, 1)


def a1_setup(ramified: bool):
    g = FiniteGroup.cyclic(2)
    if ramified:
        fr = GaloisFrame(g, frozenset({0, 1}), 0, PP3)
    else:
        fr = GaloisFrame(g, frozenset({0}), 1, PP3)
    datum = GRootDatum(1, {0: [[1]], 1: [[-1]]}, frozenset({(2,), (-2,)}), fr.group)
    return fr, datum, classify_orbits(datum, fr)


def test_ext_index_order():
    assert at(1) < just_above(1) < at(Fraction(3, 2))
    assert just_above(0) < at(Fraction(1, 10))
    assert at(2) < INFINITY and not INFINITY < at(2)
    assert at(1) + just_above(2) == just_above(3)
    assert at(1) + INFINITY is INFINITY


def test_jump_assignment_validation():
    _, _, orbs = a1_setup(True)
    (o,) = orbs
    ja = JumpAssignment.build({o.orbit_id: Fraction(1, 2)}, orbs)
    assert ja.offset(o) == 0  # canonicalized mod 1/e = 1/2
    ja = JumpAssignment.build({o.orbit_id: Fraction(1, 4)}, orbs)
    assert ja.offset(o) == Fraction(1, 4)
    with pytest.raises(ValueError):
        JumpAssignment.build({o.orbit_id: Fraction(1, 8)}, orbs)  # 2t not in (1/e)Z
    with pytest.raises(ValueError):
        JumpAssignment.build({}, orbs)


def test_jump_length_examples():
    _, _, orbs_u = a1_setup(False)  # e=1, f=2 single symmetric orbit
    (ou,) = orbs_u
    ja = JumpAssignment.build({ou.orbit_id: 0}, orbs_u)
    assert jump_length_at(ou, ja, 2) == 2
    assert jump_length_at(ou, ja, Fraction(1, 2)) == 0

    _, _, orbs_r = a1_setup(True)  # e=2, f=1
    (orm,) = orbs_r
    ja = JumpAssignment.build({orm.orbit_id: Fraction(1, 2)}, orbs_r)
    assert jump_length_at(orm, ja, Fraction(1, 2)) == 1
    assert jump_length_at(orm, ja, Fraction(1, 4)) == 0


def test_torsor_symmetry():
    """jump_length_at(a, t) = jump_length_at(-a, -t) for random systems."""
    rng = random.Random(3)
    for _ in range(300):
        orbits = synthetic_orbits(rng)
        ja = random_jumps(rng, orbits)
        by_id = {o.orbit_id: o for o in orbits}
        for o in orbits:
            neg = by_id[o.negation_id]
            for k in range(-4, 5):
                t = Fraction(k, 4)
                assert jump_length_at(o, ja, t) == jump_length_at(neg, ja, -t)


def test_primed_sum_examples():
    h = JumpFunction.build({}, [(0, 1, 1)])
    assert primed_sum(h, 0, 1) == 1
    assert primed_sum(h, 0, 2) == 2
    assert primed_sum(h, 0, Fraction(1, 2)) == Fraction(1, 2)


def test_primed_sum_additivity():
    rng = random.Random(7)
    for _ in range(300):
        parts = [(Fraction(rng.randint(0, 5), 4), Fraction(rng.randint(1, 4), 2),
                  Fraction(rng.randint(1, 4))) for _ in range(2)]
        fin = {Fraction(rng.randint(-4, 8), 2): Fraction(rng.randint(1, 3))}
        h = JumpFunction.build(fin, parts)
        pts = sorted({Fraction(rng.randint(-6, 12), 4) for _ in range(6)})
        if len(pts) < 3:
            continue
        a, b, c = pts[:3]
        assert primed_sum(h, a, b) + primed_sum(h, b, c) == primed_sum(h, a, c)


def test_periodic_sum_examples():
    h = JumpFunction.build({}, [(0, 1, 1)])
    assert periodic_sum_value(1, h, 2) == 2
    assert periodic_sum_value(1, h, Fraction(1, 2)) == Fraction(1, 2)
    zero = JumpFunction.build({}, [])
    assert periodic_sum_value(1, zero, Fraction(5, 2)) == 0
    with pytest.raises(ValueError):
        periodic_sum_value(1, h, Fraction(1, 3))
    uneven = JumpFunction.build({Fraction(1, 4): 1}, [(0, 1, 1)])
    with pytest.raises(ValueError):
        periodic_sum_value(1, uneven, 1)


def test_periodic_sum_lemma_randomized():
    from lemmas import suite_periodic_sum
    assert suite_periodic_sum(random.Random(11), 1000) == 1000


def test_master_identity_examples():
    # split-style pair: two singleton asymmetric orbits with e = f = 1
    rng = random.Random(0)
    from fdc.galois_roots import OrbitInfo
    a = OrbitInfo("a", frozenset({(1,)}), (1,), frozenset({0}), 1, 1, 1, False, None, "b")
    b = OrbitInfo("b", frozenset({(-1,)}), (-1,), frozenset({0}), 1, 1, 1, False, None, "a")
    pair = [a, b]
    ja = JumpAssignment.build({"a": 0, "b": 0}, pair)
    lhs, rhs = master_length_identity(pair, {"a": Fraction(1), "b": Fraction(1)}, ja)
    assert lhs == rhs == 2

    # degenerate zero function contributes nothing to either side
    lhs, rhs = master_length_identity(pair, {"a": Fraction(0), "b": Fraction(0)}, ja)
    assert lhs == rhs == 0

    # unramified symmetric orbit of size 2 with offset 1/2 and f = 1/2
    _, _, orbs_u = a1_setup(False)
    (ou,) = orbs_u
    ja = JumpAssignment.build({ou.orbit_id: Fraction(1, 2)}, orbs_u)
    lhs, rhs = master_length_identity(orbs_u, {ou.orbit_id: Fraction(1, 2)}, ja)
    assert lhs == rhs == 1


def test_master_identity_hypothesis_checks():
    _, _, orbs = a1_setup(True)
    (o,) = orbs
    ja = JumpAssignment.build({o.orbit_id: 0}, orbs)
    with pytest.raises(ValueError, match="1/2e"):
        master_length_identity(orbs, {o.orbit_id: Fraction(1, 8)}, ja)


def test_master_identity_randomized():
    from lemmas import suite_master_identity
    assert suite_master_identity(random.Random(13), 1000) == 1000


def a2_datum():
    roots = frozenset({(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)})
    return GRootDatum(2, {0: [[1, 0], [0, 1]], 1: [[-1, 0], [0, -1]]}, roots,
                      FiniteGroup.cyclic(2))


def test_is_concave_examples():
    datum = a2_datum()
    const = {r: Fraction(1) for r in datum.roots}
    const[(0, 0)] = Fraction(1)
    assert is_concave(const, datum)

    bad = dict(const)
    bad[(1, 1)] = Fraction(3)
    bad[(-1, -1)] = Fraction(3)
    assert not is_concave(bad, datum)

    a1 = GRootDatum(1, {0: [[1]], 1: [[-1]]}, frozenset({(2,), (-2,)}), FiniteGroup.cyclic(2))
    f = {(2,): Fraction(1), (-2,): Fraction(1), (0,): Fraction(0)}
    assert is_concave(f, a1)


def test_is_concave_multistep_relaxation():
    """Detection that needs value propagation through intermediate roots."""
    datum = a2_datum()
    f = {(1, 0): Fraction(1), (-1, 0): Fraction(1),
         (0, 1): Fraction(1), (0, -1): Fraction(1),
         (1, 1): Fraction(2), (-1, -1): Fraction(2),
         (0, 0): Fraction(5)}
    # the inverse pair (1,0) + (-1,0) already bounds f(0) by 2
    assert not is_concave(f, datum)
    f[(0, 0)] = Fraction(2)
    assert is_concave(f, datum)
    # lowering a root value propagates: 0 = (1,1) + (-1,0) + (0,-1) costs
    # 1/2 + 1 + 1 and the inverse pair through (1,1) costs 1/2 + 2
    f[(1, 1)] = Fraction(1, 2)
    f[(-1, -1)] = Fraction(1, 2)
    assert not is_concave(f, datum)
    f[(0, 0)] = Fraction(1)
    f[(-1, -1)] = Fraction(2)
    # asymmetric values break evenness but concavity is still well-defined:
    # 0 = (1,1) + (-1,-1) costs 1/2 + 2 >= 1, pairs through roots all pass
    assert is_concave(f, datum)


def test_admissible_examples():
    assert is_admissible([Fraction(1), Fraction(3, 2)])
    assert not is_admissible([Fraction(1), Fraction(1, 4)])
    assert is_admissible([Fraction(0)])
    assert is_admissible([Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)])
    assert not is_admissible([Fraction(1), Fraction(2), Fraction(3, 2)])


def test_f_from_sequence():
    _, datum, orbs = a1_setup(True)
    (o,) = orbs
    filt = howe_filtration(datum, orbs, {o.orbit_id: Fraction(1, 2)}, Fraction(1, 2))
    f = f_from_sequence(filt, [Fraction(1), Fraction(3, 2)], datum, orbs)
    assert f["0"] == 1 and f[o.orbit_id] == Fraction(3, 2)
    with pytest.raises(ValueError):
        f_from_sequence(filt, [Fraction(1), Fraction(1, 4)], datum, orbs)
    filt0 = howe_filtration(datum, orbs, {o.orbit_id: NONPOSITIVE}, Fraction(0))
    f = f_from_sequence(filt0, [Fraction(2)], datum, orbs)
    assert f == {"0": Fraction(2), o.orbit_id: Fraction(2)}


def test_mp_chain_examples():
    assert mp_chain([1], [1]) == [(Fraction(1),)]
    assert mp_chain([1], [3]) == [(Fraction(1),), (Fraction(2),), (Fraction(3),)]
    got = mp_chain([Fraction(1, 2), 1], [1, 2])
    assert got == [(Fraction(1, 2), Fraction(1)),
                   (Fraction(1), Fraction(3, 2)),
                   (Fraction(1), Fraction(2))]
    with pytest.raises(ValueError):
        mp_chain([0, 1], [1, 2])
    with pytest.raises(ValueError):
        mp_chain([1, 2], [1, 1])


def test_mp_chain_randomized_postconditions():
    rng = random.Random(17)
    for _ in range(300):
        d = rng.randint(0, 3)
        r = []
        cur = Fraction(rng.randint(1, 4), 4)
        for _i in range(d + 1):
            r.append(cur)
            cur += Fraction(rng.randint(0, 4), 4)
        s = [ri + Fraction(rng.randint(0, 8), 4) for ri in r]
        s = [max(s[: i + 1]) for i in range(len(s))]  # keep weakly increasing
        chain = mp_chain(r, s)
        assert chain[0] == tuple(r) and chain[-1] == tuple(s)


def test_quotient_order_hyperspecial():
    _, datum, orbs = a1_setup(False)
    (o,) = orbs
    ja = JumpAssignment.build({o.orbit_id: 0}, orbs)
    f0 = {o.orbit_id: just_above(0), "0": just_above(0)}
    g2 = {o.orbit_id: Fraction(2), "0": Fraction(2)}
    got = quotient_order(f0, g2, ja, orbs, 1, 1, PP3)
    assert got == exp_q(3, PP3)  # t = 1 contributes dim G = 3

    same = quotient_order(g2, g2, ja, orbs, 1, 1, PP3,
                          chain=[(Fraction(2),)],
                          filtration=howe_filtration(datum, orbs,
                                                     {o.orbit_id: NONPOSITIVE}, Fraction(0)))
    assert same == exp_q(0, PP3)
    with pytest.raises(ValueError, match="chain"):
        quotient_order(g2, g2, ja, orbs, 1, 1, PP3)


def test_quotient_order_half_jumps():
    # asymmetric orbit pair with e=2, offsets +-1/2, f=0+ to 1: both jump at 1/2
    from fdc.galois_roots import OrbitInfo
    a = OrbitInfo("a", frozenset({(1,)}), (1,), frozenset({0}), 2, 2, 1, False, None, "b")
    b = OrbitInfo("b", frozenset({(-1,)}), (-1,), frozenset({0}), 2, 2, 1, False, None, "a")
    pair = [a, b]
    ja = JumpAssignment.build({"a": Fraction(1, 2), "b": Fraction(-1, 2)}, pair)
    f0 = {"a": just_above(0), "b": just_above(0), "0": just_above(0)}
    g1 = {"a": Fraction(1), "b": Fraction(1), "0": Fraction(1)}
    got = quotient_order(f0, g1, ja, pair, 1, 2, PP3)
    # roots: one point each at 1/2; toral: (1/2)Z in (0,1) = {1/2} weighted by rank 1
    assert got == exp_q(3, PP3)


def test_quotient_order_composition():
    """order(f -> g) * order(g -> h) = order(f -> h) along nested step functions."""
    _, datum, orbs = a1_setup(True)
    (o,) = orbs
    filt = howe_filtration(datum, orbs, {o.orbit_id: Fraction(1, 2)}, Fraction(1, 2))
    ja = JumpAssignment.build({o.orbit_id: Fraction(1, 4)}, orbs)
    rng = random.Random(23)
    for _ in range(100):
        base = Fraction(rng.randint(1, 4), 4)
        mid = base + Fraction(rng.randint(0, 4), 4)
        top = mid + Fraction(rng.randint(0, 4), 4)
        fs = [f_from_sequence(filt, [v, v], datum, orbs) for v in (base, mid, top)]
        def q(lo, hi, lo_v, hi_v):
            return quotient_order(lo, hi, ja, orbs, 1, 2, PP3,
                                  chain=mp_chain([lo_v, lo_v], [hi_v, hi_v]),
                                  filtration=filt)
        prod = q(fs[0], fs[1], base, mid) * q(fs[1], fs[2], mid, top)
        assert prod == q(fs[0], fs[2], base, top)


# -- the integer kernels against their Fraction definitions ----------------------


def _rational(rng, bound=6):
    """A rational of either sign with denominator up to 12."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 12))


def _enumerated_count(off, e, lo, hi):
    """Points of off + (1/e)Z in [lo, hi), tested one at a time in the
    extended order, over every k whose point could lie between the ends."""
    a, b = sorted((lo.r, hi.r))
    k0 = math.floor((a - off) * e) - 1
    k1 = math.ceil((b - off) * e) + 1
    return sum(1 for k in range(k0, k1 + 1) if lo <= at(off + Fraction(k, e)) < hi)


def test_torsor_point_count_matches_enumeration():
    """The closed-form count against point-by-point enumeration: offsets
    of either sign and outside [0, 1/e), endpoints r and r+, empty and
    reversed intervals."""
    rng = random.Random(14)
    for i in range(20000):
        e = rng.randint(1, 13)
        off = _rational(rng)
        lo = ExtIndex(_rational(rng), rng.random() < 0.5)
        if i % 10 == 0:
            hi = lo  # empty
        elif i % 10 == 1:
            hi = ExtIndex(lo.r, not lo.plus)  # one endpoint, both sides
        else:
            hi = ExtIndex(_rational(rng), rng.random() < 0.5)
        assert _torsor_point_count(off, e, lo, hi) == _enumerated_count(off, e, lo, hi), \
            (off, e, lo, hi)
    with pytest.raises(ValueError):
        _torsor_point_count(Fraction(0), 1, at(0), INFINITY)


def _orbit(oid, e, negation_id, rep=(1,)):
    return OrbitInfo(orbit_id=oid, members=frozenset({rep}), representative=rep,
                     stabilizer=frozenset({0}), degree=e, e=e, f=1,
                     symmetric=oid == negation_id, ramified=None, negation_id=negation_id)


def test_jump_assignment_matches_fraction_definitions():
    """build canonicalizes into [0, 1/e) and refuses exactly the offsets
    whose sum with the negated orbit's is outside (1/e)Z; contains is
    membership of t - offset in (1/e)Z."""
    rng = random.Random(15)
    refused = 0
    for _ in range(5000):
        e = rng.randint(1, 13)
        step = Fraction(1, e)
        if rng.random() < 0.5:
            orbits = [_orbit("s", e, "s")]
            base = Fraction(rng.randint(-4, 4), 2 * e)
            offsets = {"s": base if rng.random() < 0.5 else _rational(rng)}
        else:
            orbits = [_orbit("a", e, "b"), _orbit("b", e, "a", rep=(-1,))]
            a = _rational(rng)
            b = -a + rng.randint(-3, 3) * step if rng.random() < 0.5 else _rational(rng)
            offsets = {"a": a, "b": b}
        canon = {oid: val % step for oid, val in offsets.items()}
        if any((canon[o.orbit_id] + canon[o.negation_id]) % step != 0 for o in orbits):
            refused += 1
            with pytest.raises(ValueError, match="not negation-symmetric"):
                JumpAssignment.build(offsets, orbits)
            continue
        ja = JumpAssignment.build(offsets, orbits)
        assert ja.offsets == canon
        for t in [_rational(rng) for _ in range(4)] + [rng.randint(-3, 3)]:
            for o in orbits:
                assert ja.contains(o, t) == (((t - canon[o.orbit_id]) * e).denominator == 1)
    assert 500 < refused < 4500  # both outcomes are drawn often


def test_depth_lattice_matches_fraction_definitions():
    """The break r of an orbit with ramification e is off the lattice
    (1/e)Z exactly when r e is not an integer."""
    rng = random.Random(16)
    for _ in range(3000):
        d = rng.randint(1, 3)
        breaks = sorted({abs(_rational(rng)) + Fraction(1, 24) for _ in range(d)})
        orbits = [_orbit("o%d" % i, rng.randint(1, 13), "o%d" % i, rep=(i,))
                  for i in range(5)]
        layer = {o.orbit_id: rng.randint(0, len(breaks)) for o in orbits}
        layers = tuple(tuple(o for o in orbits if layer[o.orbit_id] == i)
                       for i in range(len(breaks) + 1))
        filtration = HoweFiltration(layers=layers, breaks=tuple(breaks), total=breaks[-1])
        want = []
        for o in orbits:
            if layer[o.orbit_id]:
                r = breaks[layer[o.orbit_id] - 1]
                if (r * o.e).denominator != 1:
                    want.append((o, r))
        assert off_lattice_breaks(filtration, orbits) == want
