import os
import random
from fractions import Fraction

import pytest

from fdc.qexact import PrimePower
from fdc.galois_roots import FiniteGroup, GaloisFrame, GRootDatum
from fdc.scenario import load_scenario
from fdc.zlattice import mat_vec
from fdc.chi_data import (
    ChiData,
    _stab,
    _stab_pm,
    base_change_chi,
    char_is_homomorphism,
    character_group,
    compatible_choices,
    default_choices,
    gauge_from_choices,
    r_chi_eval,
    subframe_of,
    validate_chi,
    verify_base_change,
)

PP3 = PrimePower(3, 1)


def z4_model():
    g = FiniteGroup.cyclic(4)
    frame = GaloisFrame(g, frozenset({0, 1, 2, 3}), 0, PP3)
    datum = GRootDatum(1, {0: [[1]], 1: [[-1]], 2: [[1]], 3: [[-1]]},
                       frozenset({(1,), (-1,)}))
    datum.check_against_frame(frame)
    chi = ChiData.from_representatives(datum, frame,
                                       {(1,): {0: Fraction(0), 2: Fraction(1, 2)}})
    return frame, datum, chi


def s3_model():
    s3, _ = FiniteGroup.from_permutations([[1, 2, 0], [1, 0, 2]])
    rot = next(h for h in s3.elements if s3.element_order(h) == 3)
    refl = next(h for h in s3.elements if s3.element_order(h) == 2)
    from fdc.zlattice import identity_matrix, mat_mul
    gens_perm = [[1, 2, 0], [1, 0, 2]]
    gens_mat = [[[0, -1], [1, -1]], [[0, 1], [1, 0]]]
    elems = [(0, 1, 2)]
    index = {(0, 1, 2): 0}
    mats = {0: identity_matrix(2)}
    queue = [(0, 1, 2)]
    while queue:
        cur = queue.pop(0)
        for gp, gm in zip(gens_perm, gens_mat):
            nxt = tuple(gp[cur[i]] for i in range(3))
            if nxt not in index:
                index[nxt] = len(elems)
                mats[len(elems)] = mat_mul(gm, mats[index[cur]])
                elems.append(nxt)
                queue.append(nxt)
    frame = GaloisFrame(s3, s3.subgroup_generated([rot]), refl, PrimePower(5, 1))
    roots = frozenset({(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)})
    datum = GRootDatum(2, mats, roots)
    datum.check_against_frame(frame)
    return frame, datum


def test_character_group():
    g = FiniteGroup.cyclic(4)
    chars = character_group(g, frozenset(range(4)))
    assert len(chars) == 4
    for chi in chars:
        assert char_is_homomorphism(g, frozenset(range(4)), chi)
    s3, _ = FiniteGroup.from_permutations([[1, 2, 0], [1, 0, 2]])
    chars = character_group(s3, frozenset(s3.elements))
    assert len(chars) == 2  # abelianization of S3 is Z/2


def test_validate_chi_examples():
    # all-trivial on a datum with only asymmetric orbits
    frame, datum = s3_model()
    diag = validate_chi(ChiData.trivial(datum, frame), datum, frame)
    assert diag.valid and diag.minimally_ramified

    # the ramified A1 model with a nontrivial stabilizer character
    frame, datum, chi = z4_model()
    diag = validate_chi(chi, datum, frame)
    assert diag.valid and diag.minimally_ramified
    (cls,) = diag.classes
    assert cls.symmetric and cls.ramified
    assert cls.cond3_witness == 2 and cls.cond3_value == Fraction(1, 2)

    # deliberately broken equivariance
    bad = ChiData({(1,): {0: Fraction(0), 2: Fraction(1, 2)},
                   (-1,): {0: Fraction(0), 2: Fraction(0)}})
    diag = validate_chi(bad, datum, frame)
    assert not diag.valid
    assert diag.cond1_failures or diag.cond2_failures


def test_base_change_examples():
    frame, datum, chi = z4_model()
    # restriction to the full group is the identity operation
    full = base_change_chi(chi, frozenset(range(4)), datum, frame,
                           subframe_of(frame, frozenset(range(4))))
    assert full.chars == chi.chars
    # restriction to <s^2>
    sub = frozenset({0, 2})
    bc = base_change_chi(chi, sub, datum, frame, subframe_of(frame, sub))
    assert bc.chars[(1,)] == {0: Fraction(0), 2: Fraction(1, 2)}
    # restriction to the trivial subgroup kills everything
    bc = base_change_chi(chi, frozenset({0}), datum, frame,
                         subframe_of(frame, frozenset({0})))
    assert all(c == {0: Fraction(0)} for c in bc.chars.values())


def test_base_change_transitive():
    frame, datum, chi = z4_model()
    h1 = frozenset({0, 2})
    h2 = frozenset({0})
    sub1 = subframe_of(frame, h1)
    one = base_change_chi(chi, h1, datum, frame, sub1)
    two = base_change_chi(one, h2, datum, sub1, subframe_of(frame, h2))
    direct = base_change_chi(chi, h2, datum, frame, subframe_of(frame, h2))
    assert two.chars == direct.chars


def test_r_chi_hand_example():
    frame, datum, chi = z4_model()
    choices = default_choices(datum, frame)
    assert r_chi_eval(chi, choices, 2, datum, frame) == (Fraction(1, 2),)
    assert r_chi_eval(chi, choices, 0, datum, frame) == (Fraction(0),)
    triv = ChiData.trivial(datum, frame)
    for w in range(4):
        assert r_chi_eval(triv, choices, w, datum, frame) == (Fraction(0),)


def test_gauge_from_choices():
    frame, datum, chi = z4_model()
    gauge = gauge_from_choices(default_choices(datum, frame), datum, frame)
    assert set(gauge.signs.keys()) == set(datum.roots)
    frame, datum = s3_model()
    gauge = gauge_from_choices(default_choices(datum, frame), datum, frame)
    assert sum(gauge.signs.values()) == 0


def test_compatible_choices_structure():
    frame, datum, chi = z4_model()
    pair = compatible_choices(default_choices(datum, frame), frozenset({0, 2}),
                              datum, frame)
    # single double coset: one subframe class with the same representative
    assert list(pair.sub.reps.values()) == [(1,)] or list(pair.sub.reps.values()) == [(-1,)]
    assert pair.subframe.carrier_set == frozenset({0, 2})

    frame, datum = s3_model()
    a3 = frame.inertia
    pair = compatible_choices(default_choices(datum, frame), a3, datum, frame)
    # order-2 stabilizers meet every coset of A3: a single double coset and
    # thus a single subframe class here
    assert len(pair.sub.reps) == 1


def s3_free_orbit_model():
    """An S3 datum whose roots form a free asymmetric orbit pair (12 roots),
    so restriction to A3 splits each class along two double cosets."""
    frame, _ = s3_model()
    from fdc.zlattice import mat_vec
    base_datum = GRootDatum(2, s3_action_matrices(), frozenset(
        {mat_vec(m, (1, 3)) for m in s3_action_matrices().values()}
        | {tuple(-x for x in mat_vec(m, (1, 3))) for m in s3_action_matrices().values()}))
    base_datum.check_against_frame(frame)
    return frame, base_datum


def s3_action_matrices():
    from fdc.zlattice import identity_matrix, mat_mul
    gens_perm = [[1, 2, 0], [1, 0, 2]]
    gens_mat = [[[0, -1], [1, -1]], [[0, 1], [1, 0]]]
    elems = [(0, 1, 2)]
    index = {(0, 1, 2): 0}
    mats = {0: identity_matrix(2)}
    queue = [(0, 1, 2)]
    while queue:
        cur = queue.pop(0)
        for gp, gm in zip(gens_perm, gens_mat):
            nxt = tuple(gp[cur[i]] for i in range(3))
            if nxt not in index:
                index[nxt] = len(elems)
                mats[len(elems)] = mat_mul(gm, mats[index[cur]])
                elems.append(nxt)
                queue.append(nxt)
    return mats


def test_compatible_choices_two_double_cosets():
    frame, datum = s3_free_orbit_model()
    assert len(datum.roots) == 12
    a3 = frame.inertia
    pair = compatible_choices(default_choices(datum, frame), a3, datum, frame)
    # one plus-minus class upstairs, trivial stabilizers: two double cosets
    assert len(pair.sub.reps) == 2
    # and base change still verifies with a nontrivial character
    top = default_choices(datum, frame)
    (rep,) = list(top.reps.values())
    stab = _stab(datum, rep)
    assert stab == frozenset({0})
    chi = ChiData.from_representatives(datum, frame, {rep: {0: Fraction(0)}})
    for sub in frame.group.all_subgroups():
        assert verify_base_change(chi, sub, datum, frame).ok


def test_verify_base_change_models():
    frame, datum, chi = z4_model()
    for sub in frame.group.all_subgroups():
        rep = verify_base_change(chi, sub, datum, frame)
        assert rep.ok, (sorted(sub), rep)

    frame, datum = s3_model()
    triv = ChiData.trivial(datum, frame)
    for sub in frame.group.all_subgroups():
        rep = verify_base_change(triv, sub, datum, frame)
        assert rep.ok

    # nontrivial character on the asymmetric S3 orbits
    alpha = (1, 0)
    stab = _stab(datum, alpha)
    nontriv = {h: (Fraction(0) if h == 0 else Fraction(1, 2)) for h in sorted(stab)}
    chi2 = ChiData.from_representatives(datum, frame, {alpha: nontriv})
    for sub in frame.group.all_subgroups():
        rep = verify_base_change(chi2, sub, datum, frame)
        assert rep.ok


def test_size_bound():
    frame, datum, chi = z4_model()
    with pytest.raises(ValueError, match="bound"):
        verify_base_change(chi, frozenset({0}), datum, frame, size_bound=2)


def test_verifier_detects_mismatch():
    """Negative control: the exhaustive comparison really can fail, for
    instance against a corrupted restriction; the compatibly derived
    choices with the honest data then restore equality."""
    frame, datum, chi = z4_model()
    sub = frozenset({0, 2})
    pair = compatible_choices(default_choices(datum, frame), sub, datum, frame)
    corrupted = ChiData.trivial(datum, frame)
    mismatches = [w for w in sorted(sub)
                  if r_chi_eval(chi, pair.top, w, datum, frame)
                  != r_chi_eval(corrupted, pair.sub, w, datum, frame, within=sub)]
    assert mismatches == [2]
    assert verify_base_change(chi, sub, datum, frame).ok


def test_cocycle_vanishes_where_chi_restricts_trivially():
    """Tameness surrogate: on a subgroup where the restricted data are
    trivial, the cocycle of the restriction vanishes identically, so the
    original cocycle vanishes there for compatible choices."""
    frame, datum, chi = z4_model()
    for sub in frame.group.all_subgroups():
        restricted_trivial = True
        for root, table in chi.chars.items():
            for h, v in table.items():
                if h in sub and v != 0:
                    restricted_trivial = False
        if not restricted_trivial:
            continue
        pair = compatible_choices(default_choices(datum, frame), sub, datum, frame)
        for w in sorted(sub):
            val = r_chi_eval(chi, pair.top, w, datum, frame)
            assert all(x == 0 for x in val), (sorted(sub), w, val)


def test_randomized_base_change():
    from fdc.selftest import suite_chi
    assert suite_chi(random.Random(101), 30) == 30


SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")


@pytest.mark.parametrize("name", sorted(f[:-5] for f in os.listdir(SCEN_DIR)))
def test_root_images_and_stabilizers_match_brute_force(name):
    """The images and stabilizers kept on the datum agree with a fresh
    matrix-vector product for every element, root and subgroup."""
    scen = load_scenario(os.path.join(SCEN_DIR, name + ".json"))
    datum, group = scen.datum, scen.frame.group
    for r in sorted(datum.roots):
        for g in group.elements:
            assert datum.act(g, r) == mat_vec(datum.action[g], r)
        off = tuple(3 * x for x in r)  # not a root: multiplied out
        assert off not in datum.roots
        assert all(datum.act(g, off) == mat_vec(datum.action[g], off) for g in group.elements)
    for sub in group.all_subgroups():
        for r in sorted(datum.roots):
            neg = tuple(-x for x in r)
            images = {s: mat_vec(datum.action[s], r) for s in sub}
            assert _stab(datum, r, within=sub) == frozenset(
                s for s in sub if images[s] == r)
            assert _stab_pm(datum, r, within=sub) == frozenset(
                s for s in sub if images[s] in (r, neg))


def test_base_change_refuses_invalid_restriction():
    """Restriction keeps a broken equivariance visible on a subframe that
    still sees it, and base change refuses it there with the failures."""
    frame, datum = s3_model()
    alpha = (1, 0)
    chars = dict(ChiData.trivial(datum, frame).chars)
    # nontrivial at +-alpha only: odd under negation, but its orbit-mates
    # stay trivial, so conjugation does not carry it along
    chars[alpha] = {h: Fraction(0) if h == 0 else Fraction(1, 2)
                    for h in _stab(datum, alpha)}
    chars[(-1, 0)] = dict(chars[alpha])
    bad = ChiData(chars)
    assert not validate_chi(bad, datum, frame).cond1_failures

    everything = frozenset(frame.group.elements)
    with pytest.raises(AssertionError) as err:
        base_change_chi(bad, everything, datum, frame, subframe_of(frame, everything))
    assert str(err.value) == (
        "restricted chi data fail validation: ("
        "'equivariance fails from (-1, -1) under 1', "
        "'equivariance fails from (-1, 0) under 1', "
        "'equivariance fails from (0, -1) under 2', "
        "'equivariance fails from (0, 1) under 2', "
        "'equivariance fails from (1, 0) under 1', "
        "'equivariance fails from (1, 1) under 1')")
    with pytest.raises(AssertionError, match="^restricted chi data fail validation"):
        verify_base_change(bad, everything, datum, frame)
    # the stabilizer of alpha alone does not move roots, so the defect is invisible
    sub = _stab(datum, alpha)
    restricted = base_change_chi(bad, sub, datum, frame, subframe_of(frame, sub))
    assert restricted.chars[alpha] == chars[alpha]

    # a condition-1 failure is listed the same way, before condition 2
    frame, datum, _chi = z4_model()
    odd = ChiData({(1,): {0: Fraction(0), 2: Fraction(1, 2)},
                   (-1,): {0: Fraction(0), 2: Fraction(0)}})
    sub = frozenset({0, 2})
    with pytest.raises(AssertionError) as err:
        base_change_chi(odd, sub, datum, frame, subframe_of(frame, sub))
    assert str(err.value) == (
        "restricted chi data fail validation: ("
        "'chi(-a) != chi(a)^-1 at (-1,)', 'chi(-a) != chi(a)^-1 at (1,)')")
