import math
import random
from fractions import Fraction

import pytest

from fdc.qexact import PrimePower
from fdc.galois_roots import (
    FiniteGroup,
    GaloisFrame,
    GRootDatum,
    HoweFiltration,
    OrbitInfo,
    classify_orbits,
    off_lattice_breaks,
)
from fdc.mp_filtration import JumpAssignment, _first_point, jump_length_at
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


def test_jump_assignment_validation():
    _, _, orbs = a1_setup(True)
    (o,) = orbs
    ja = JumpAssignment.build({o.orbit_id: (1, 2)}, orbs)
    assert ja.offset(o) == (0, 1)  # canonicalized mod 1/e = 1/2
    ja = JumpAssignment.build({o.orbit_id: (1, 4)}, orbs)
    assert ja.offset(o) == (1, 4)
    with pytest.raises(ValueError):
        JumpAssignment.build({o.orbit_id: (1, 8)}, orbs)  # 2t not in (1/e)Z
    with pytest.raises(ValueError):
        JumpAssignment.build({}, orbs)


def test_jump_length_examples():
    _, _, orbs_u = a1_setup(False)  # e=1, f=2 single symmetric orbit
    (ou,) = orbs_u
    ja = JumpAssignment.build({ou.orbit_id: (0, 1)}, orbs_u)
    assert jump_length_at(ou, ja, 2) == 2
    assert jump_length_at(ou, ja, 1, 2) == 0

    _, _, orbs_r = a1_setup(True)  # e=2, f=1
    (orm,) = orbs_r
    ja = JumpAssignment.build({orm.orbit_id: (1, 2)}, orbs_r)
    assert jump_length_at(orm, ja, 1, 2) == 1
    assert jump_length_at(orm, ja, 1, 4) == 0


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
                assert jump_length_at(o, ja, k, 4) == jump_length_at(neg, ja, -k, 4)


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
    ja = JumpAssignment.build({"a": (0, 1), "b": (0, 1)}, pair)
    lhs, rhs = master_length_identity(pair, {"a": Fraction(1), "b": Fraction(1)}, ja)
    assert lhs == rhs == 2

    # degenerate zero function contributes nothing to either side
    lhs, rhs = master_length_identity(pair, {"a": Fraction(0), "b": Fraction(0)}, ja)
    assert lhs == rhs == 0

    # unramified symmetric orbit of size 2 with offset 1/2 and f = 1/2
    _, _, orbs_u = a1_setup(False)
    (ou,) = orbs_u
    ja = JumpAssignment.build({ou.orbit_id: (1, 2)}, orbs_u)
    lhs, rhs = master_length_identity(orbs_u, {ou.orbit_id: Fraction(1, 2)}, ja)
    assert lhs == rhs == 1


def test_master_identity_hypothesis_checks():
    _, _, orbs = a1_setup(True)
    (o,) = orbs
    ja = JumpAssignment.build({o.orbit_id: (0, 1)}, orbs)
    with pytest.raises(ValueError, match="1/2e"):
        master_length_identity(orbs, {o.orbit_id: Fraction(1, 8)}, ja)


def test_master_identity_randomized():
    from lemmas import suite_master_identity
    assert suite_master_identity(random.Random(13), 1000) == 1000


# -- the integer kernels against their Fraction definitions ----------------------


def _rational(rng, bound=6):
    """A rational of either sign with denominator up to 12."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 12))


def _least_point(off, e, x, plus):
    """The least k with off + k/e >= x, or off + k/e > x when plus is set:
    the points are tested one at a time, upward from one that fails."""
    def above(k):
        point = off + Fraction(k, e)
        return point > x if plus else point >= x
    k = math.floor((x - off) * e) - 2
    assert not above(k)
    while not above(k):
        k += 1
    return k


def test_torsor_point_count_matches_enumeration():
    """The first torsor point at or above an index, by floor division,
    against enumeration; the length kernel counts the points of an interval
    as the difference of two first points.  Offsets of either sign and
    outside [0, 1/e), endpoints r and r+, and indices n/d given in lowest
    terms or not."""
    rng = random.Random(14)
    for _ in range(20000):
        e = rng.randint(1, 13)
        off = _rational(rng)
        d = rng.randint(1, 12)
        n = rng.randint(-6 * d, 6 * d)
        plus = rng.random() < 0.5
        got = _first_point((off.numerator, off.denominator), e, n, d, plus)
        assert got == _least_point(off, e, Fraction(n, d), plus), (off, e, n, d, plus)


def _orbit(oid, e, negation_id, rep=(1,)):
    return OrbitInfo(orbit_id=oid, members=frozenset({rep}), representative=rep,
                     stabilizer=frozenset({0}), degree=e, e=e, f=1,
                     symmetric=oid == negation_id, ramified=None, negation_id=negation_id)


def test_jump_assignment_matches_fraction_definitions():
    """build canonicalizes into [0, 1/e), in lowest terms whatever pairs it
    is given, and refuses exactly the offsets whose sum with the negated
    orbit's is outside (1/e)Z; contains is membership of t - offset in
    (1/e)Z."""
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
        # each offset as a pair, reduced or scaled by a common factor
        pairs = {oid: (val.numerator * m, val.denominator * m)
                 for oid, val in offsets.items() for m in [rng.randint(1, 3)]}
        if any((canon[o.orbit_id] + canon[o.negation_id]) % step != 0 for o in orbits):
            refused += 1
            with pytest.raises(ValueError, match="not negation-symmetric"):
                JumpAssignment.build(pairs, orbits)
            continue
        ja = JumpAssignment.build(pairs, orbits)
        assert ja.offsets == {oid: (c.numerator, c.denominator) for oid, c in canon.items()}
        for t in [_rational(rng) for _ in range(4)] + [Fraction(rng.randint(-3, 3))]:
            for o in orbits:
                assert (ja.contains(o, t.numerator, t.denominator)
                        == (((t - canon[o.orbit_id]) * e).denominator == 1))
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
        pairs = [(r.numerator, r.denominator) for r in breaks]
        break_sum = sum(r * sum(o.degree for o in lay) for r, lay in zip(breaks, layers[1:]))
        filtration = HoweFiltration(
            layers=layers, breaks=tuple(pairs), total=pairs[-1],
            orbit_breaks=tuple((o, pairs[layer[o.orbit_id] - 1] if layer[o.orbit_id] else None)
                               for o in orbits),
            break_sum=(break_sum.numerator, break_sum.denominator))
        want = []
        for o in orbits:
            if layer[o.orbit_id]:
                r = breaks[layer[o.orbit_id] - 1]
                if (r * o.e).denominator != 1:
                    want.append((o, (r.numerator, r.denominator)))
        assert off_lattice_breaks(filtration) == want
