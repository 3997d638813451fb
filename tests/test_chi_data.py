import json
import os
import random
from fractions import Fraction

import pytest

from fdc.qexact import PrimePower
from fdc.galois_roots import FiniteGroup, GaloisFrame, GRootDatum, classify_orbits
from fdc.scenario import _chi_menus, _random_chi, load_scenario
from fdc.zlattice import mat_vec
from fdc.chi_data import (
    BaseChange,
    ChiData,
    ClassData,
    SectionChoices,
    char_is_homomorphism,
    character_group,
    compatible_choices,
    cocycle,
    condition_failures,
    default_choices,
    r_chi_values,
    verify_base_change,
)

import coset_oracle as oracle

PP3 = PrimePower(3, 1)


def trivial_chi(datum, frame):
    """The character data that is trivial on every stabilizer."""
    return ChiData({root: {g: 0 for g in datum.stabilizer(root)} for root in datum.roots},
                   frame.group.order)


def rebuilt_top(choices, subgroup, datum, frame):
    """The top choices with the outer sections :func:`compatible_choices`
    rebuilds for the subgroup, and the subgroup's choices."""
    top_u, sub = compatible_choices(choices, subgroup, datum, frame)
    return SectionChoices(top_u, choices.v), sub


def stored(value, n):
    """A Fraction value mod 1 as the loader stores it: the numerator k of
    k/n, or the non-integer Fraction n * value when that is not integral."""
    k = value % 1 * n
    return int(k) if k.denominator == 1 else k


def numerators(table, n):
    """A {g: Fraction} table in the stored form: numerators mod n."""
    out = {g: stored(v, n) for g, v in table.items()}
    assert all(isinstance(k, int) for k in out.values())
    return out


def z4_model():
    g = FiniteGroup.cyclic(4)
    frame = GaloisFrame(g, frozenset({0, 1, 2, 3}), 0, PP3)
    datum = GRootDatum(1, {0: [[1]], 1: [[-1]], 2: [[1]], 3: [[-1]]},
                       frozenset({(1,), (-1,)}), frame.group)
    chi = ChiData.from_representatives(
        datum, frame, classify_orbits(datum, frame),
        {(1,): numerators({0: Fraction(0), 2: Fraction(1, 2)}, 4)})
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
    datum = GRootDatum(2, mats, roots, frame.group)
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
    orbits = classify_orbits(datum, frame)
    assert condition_failures(trivial_chi(datum, frame), datum, frame, orbits) == ([], [])

    # the ramified A1 model with a nontrivial stabilizer character
    frame, datum, chi = z4_model()
    orbits = classify_orbits(datum, frame)
    assert condition_failures(chi, datum, frame, orbits) == ([], [])

    # deliberately broken: the character at -1 is not the inverse of the one
    # at 1, and conjugation by an odd element does not carry one to the other
    bad = ChiData({(1,): numerators({0: Fraction(0), 2: Fraction(1, 2)}, 4),
                   (-1,): numerators({0: Fraction(0), 2: Fraction(0)}, 4)}, 4)
    assert condition_failures(bad, datum, frame, orbits) == (
        ["chi(-a) != chi(a)^-1 at (-1,)", "chi(-a) != chi(a)^-1 at (1,)"],
        ["equivariance fails from (-1,) under 1", "equivariance fails from (1,) under 1"])


def test_from_representatives_refuses_inconsistent_representative():
    """Z/8 acting on Z by sign: the stabilizer of the root 1 is {0, 2, 4, 6}
    and the odd elements negate the root while fixing the stabilizer under
    conjugation, so negation and conjugation spread a character to -1 in
    two ways.  They agree only when its values are their own negatives: a
    character of order four is refused, one of order two is spread.  A
    root outside the datum is refused before anything spreads."""
    g = FiniteGroup.cyclic(8)
    frame = GaloisFrame(g, frozenset(range(8)), 0, PrimePower(17, 1))
    datum = GRootDatum(1, {k: [[(-1) ** k]] for k in range(8)}, frozenset({(1,), (-1,)}),
                       frame.group)
    orbits = classify_orbits(datum, frame)
    order_four = numerators({k: Fraction(k, 8) for k in range(0, 8, 2)}, 8)
    with pytest.raises(ValueError) as err:
        ChiData.from_representatives(datum, frame, orbits, {(1,): order_four})
    assert str(err.value) == (
        "representatives do not spread to valid chi data: ("
        "'equivariance fails from (-1,) under 1', 'equivariance fails from (1,) under 1')")
    order_two = numerators({k: Fraction(k % 4, 4) for k in range(0, 8, 2)}, 8)
    chi = ChiData.from_representatives(datum, frame, orbits, {(1,): order_two})
    assert chi.chars == {(1,): order_two, (-1,): order_two}
    with pytest.raises(ValueError, match="is not a root"):
        ChiData.from_representatives(datum, frame, orbits, {(2,): order_two})


def test_r_chi_hand_example():
    frame, datum, chi = z4_model()
    choices = default_choices(datum, frame, classify_orbits(datum, frame))
    vals = r_chi_values(chi, choices, [0, 2], datum, frame)
    assert vals == {0: (0,), 2: (2,)}  # numerators mod 4: 0 and 1/2
    triv = trivial_chi(datum, frame)
    for w in range(4):
        assert r_chi_values(triv, choices, [w], datum, frame)[w] == (0,)


def test_compatible_choices_structure():
    frame, datum, chi = z4_model()
    _, sub = compatible_choices(default_choices(datum, frame, classify_orbits(datum, frame)),
                                frozenset({0, 2}), datum, frame)
    # single double coset: one class of the subgroup with the same representative
    assert list(sub.v) == [(1,)] or list(sub.v) == [(-1,)]

    frame, datum = s3_model()
    a3 = frame.inertia
    _, sub = compatible_choices(default_choices(datum, frame, classify_orbits(datum, frame)), a3,
                                datum, frame)
    # order-2 stabilizers meet every coset of A3: a single double coset and
    # thus a single class of the subgroup here
    assert len(sub.v) == 1


def s3_free_orbit_model():
    """An S3 datum whose roots form a free asymmetric orbit pair (12 roots),
    so restriction to A3 splits each class along two double cosets."""
    frame, _ = s3_model()
    from fdc.zlattice import mat_vec
    base_datum = GRootDatum(2, s3_action_matrices(), frozenset(
        {mat_vec(m, (1, 3)) for m in s3_action_matrices().values()}
        | {tuple(-x for x in mat_vec(m, (1, 3))) for m in s3_action_matrices().values()}),
        frame.group)
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
    orbits = classify_orbits(datum, frame)
    top = default_choices(datum, frame, orbits)
    _, sub = compatible_choices(top, a3, datum, frame)
    # one plus-minus class upstairs, trivial stabilizers: two double cosets
    assert len(sub.v) == 2
    # and base change still verifies with a nontrivial character
    (rep,) = list(top.v)
    stab = datum.stabilizer(rep)
    assert stab == frozenset({0})
    chi = ChiData.from_representatives(datum, frame, orbits, {rep: {0: 0}})
    base = BaseChange(chi, datum, frame, orbits)
    for sub in frame.group.all_subgroups():
        assert verify_base_change(base, sub) is None


def test_broken_outer_section_is_an_internal_error():
    """An outer section value outside its coset makes u_x w u_(x w)^-1
    leave Stab+-(a); that is a construction fault, raised as KeyError and
    not as the ValueError that marks refused input."""
    frame, datum = s3_free_orbit_model()
    orbits = classify_orbits(datum, frame)
    top = default_choices(datum, frame, orbits)
    (rep,) = list(top.v)
    chi = ChiData.from_representatives(datum, frame, orbits, {rep: {0: 0}})
    ws = list(frame.group.elements)
    r_chi_values(chi, top, ws, datum, frame)
    u = top.u[rep]
    swapped = dict(u)
    swapped[1], swapped[2] = u[2], u[1]
    broken = SectionChoices({rep: swapped}, top.v)
    with pytest.raises(KeyError, match="outside the plus-minus stabilizer"):
        r_chi_values(chi, broken, ws, datum, frame)


def test_verify_base_change_models():
    frame, datum, chi = z4_model()
    base = BaseChange(chi, datum, frame, classify_orbits(datum, frame))
    for sub in frame.group.all_subgroups():
        witness = verify_base_change(base, sub)
        assert witness is None, (sorted(sub), witness)

    frame, datum = s3_model()
    orbits = classify_orbits(datum, frame)
    triv = trivial_chi(datum, frame)
    base = BaseChange(triv, datum, frame, orbits)
    for sub in frame.group.all_subgroups():
        assert verify_base_change(base, sub) is None

    # nontrivial character on the asymmetric S3 orbits
    alpha = (1, 0)
    stab = datum.stabilizer(alpha)
    nontriv = numerators({h: (Fraction(0) if h == 0 else Fraction(1, 2))
                          for h in sorted(stab)}, 6)
    chi2 = ChiData.from_representatives(datum, frame, orbits, {alpha: nontriv})
    base = BaseChange(chi2, datum, frame, orbits)
    for sub in frame.group.all_subgroups():
        assert verify_base_change(base, sub) is None


def test_verifier_detects_mismatch():
    """Negative control: the exhaustive comparison really can fail, for
    instance against a corrupted restriction; the compatibly derived
    choices with the honest data then restore equality."""
    frame, datum, chi = z4_model()
    sub = frozenset({0, 2})
    orbits = classify_orbits(datum, frame)
    top, low = rebuilt_top(default_choices(datum, frame, orbits), sub, datum, frame)
    corrupted = trivial_chi(datum, frame)
    mismatches = [w for w in sorted(sub)
                  if r_chi_values(chi, top, [w], datum, frame)[w]
                  != r_chi_values(corrupted, low, [w], datum, frame, within=sub)[w]]
    assert mismatches == [2]
    assert verify_base_change(BaseChange(chi, datum, frame, orbits), sub) is None


def test_cocycle_vanishes_where_chi_restricts_trivially():
    """Tameness surrogate: on a subgroup where the restricted data are
    trivial, the cocycle of the restriction vanishes identically, so the
    original cocycle vanishes there for compatible choices."""
    frame, datum, chi = z4_model()
    choices = default_choices(datum, frame, classify_orbits(datum, frame))
    for sub in frame.group.all_subgroups():
        restricted_trivial = True
        for root, table in chi.chars.items():
            for h, v in table.items():
                if h in sub and v != 0:
                    restricted_trivial = False
        if not restricted_trivial:
            continue
        top, _ = rebuilt_top(choices, sub, datum, frame)
        for w in sorted(sub):
            val = r_chi_values(chi, top, [w], datum, frame)[w]
            assert all(x == 0 for x in val), (sorted(sub), w, val)


def test_randomized_base_change():
    from lemmas import suite_chi
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
        off = tuple(3 * x for x in r)  # not a root: refused, as by stabilizer
        assert off not in datum.roots
        with pytest.raises(KeyError):
            datum.act(0, off)
    for sub in group.all_subgroups():
        for r in sorted(datum.roots):
            neg = tuple(-x for x in r)
            images = {s: mat_vec(datum.action[s], r) for s in sub}
            assert datum.stabilizer(r) & sub == frozenset(
                s for s in sub if images[s] == r)
            assert datum.pm_stabilizer(r) & sub == frozenset(
                s for s in sub if images[s] in (r, neg))


WITH_CHI = ["d4_b2_depth_quarter", "s3_a2_depth_third",
            "sl2_unramified_depth0", "z4_a1_ramified_chi"]


def _all_pairs_homomorphism(group, domain, table):
    """The definition, over every pair of the subgroup, on numerators mod
    the group order."""
    n = group.order
    return (set(table) == set(domain)
            and all(0 <= v < n for v in table.values())
            and all((table[a] + table[b]) % n == table[group.mul(a, b)]
                    for a in domain for b in domain))


def _all_elements_failures(chi, datum, frame):
    """Conditions 1 and 2 by their definition, listed as the loader lists
    them: every stabilizer pair, every group element, fresh matrix-vector
    products; for each failing root, the first group element that moves its
    character wrongly."""
    g = frame.group
    cond1, cond2 = [], []
    for root in sorted(datum.roots):
        table = chi.chars.get(root)
        if table is None:
            cond2.append("missing character at %s" % (root,))
            continue
        stab = frozenset(s for s in g.elements if mat_vec(datum.action[s], root) == root)
        if not _all_pairs_homomorphism(g, stab, table):
            cond2.append("character at %s is not a stabilizer homomorphism" % (root,))
            continue
        neg = tuple(-x for x in root)
        if chi.chars.get(neg) != {k: (-v) % g.order for k, v in table.items()}:
            cond1.append("chi(-a) != chi(a)^-1 at %s" % (root,))
        for s in g.elements:
            moved = {g.conj(s, k): v for k, v in table.items()}
            if chi.chars.get(mat_vec(datum.action[s], root)) != moved:
                cond2.append("equivariance fails from %s under %d" % (root, s))
                break
    return cond1, cond2


def _splices(first, second, datum, group, mover):
    """For each orbit of <mover> and negation, the family that is ``first``
    on that orbit and ``second`` elsewhere: equivariant under ``mover``,
    but under other elements only where the two families agree."""
    cyclic = sorted(group.subgroup_generated([mover]))
    orbits = []
    for root in sorted(datum.roots):
        if all(root not in orbit for orbit in orbits):
            orbits.append({datum.act(s, r) for s in cyclic for r in (root, tuple(-x for x in root))})
    return [ChiData({r: dict((first if r in orbit else second).chars[r]) for r in datum.roots},
                    group.order)
            for orbit in orbits]


def subgroup_frame(frame, datum, chi, sub):
    """The subgroup H as a frame of its own: H renumbered 0..|H|-1 in
    increasing order, inertia I n H, the least Frobenius whose class
    generates H / (I n H) (cyclic, since it embeds in G / I), and the action
    and the chi tables restricted to H.  A chi value k/|G| becomes the
    numerator of k/|G| over |H|, which is integral for a homomorphism on a
    subgroup of H.  H may fix vectors, and the other properties of the datum
    restrict from G; ellipticity is the last check of the constructor, made
    after it records how H permutes the roots and the traces, so the datum
    is whole even when that check refuses it."""
    g = frame.group
    elems = sorted(sub)
    idx = {x: i for i, x in enumerate(elems)}
    group = FiniteGroup([[idx[g.mul(a, b)] for b in elems] for a in elems])
    inertia = frame.inertia & sub
    frob = g.quotient_generators(sub, inertia)[0]
    h_frame = GaloisFrame(group, frozenset(idx[x] for x in inertia), idx[frob], frame.pp)
    h_datum = object.__new__(GRootDatum)
    try:
        h_datum.__init__(datum.rank, {idx[x]: datum.action[x] for x in elems}, datum.roots, group)
    except ValueError as err:
        assert "not elliptic" in str(err), err
    if chi is None:
        return h_frame, h_datum, None
    for table in chi.chars.values():
        assert all(v * group.order % g.order == 0 for x, v in table.items() if x in sub)
    h_chi = ChiData({root: {idx[x]: v * group.order // g.order
                            for x, v in table.items() if x in sub}
                     for root, table in chi.chars.items()}, group.order)
    return h_frame, h_datum, h_chi


@pytest.mark.parametrize("name", sorted(f[:-5] for f in os.listdir(SCEN_DIR)))
def test_generator_checks_match_brute_force(name):
    """char_is_homomorphism and condition_failures test generators only;
    they agree with the all-pairs and all-elements definitions, and
    condition_failures lists the same failures, on valid tables, on tables
    with one value changed at each element in turn (generators or not), on
    random tables, on families spliced from two valid ones along an orbit
    of one generator, and on valid families with one value changed at a
    root that is not the least of its orbit, a character moved, two
    swapped or one dropped, or the value at the identity shifted along an
    orbit (:func:`_perturbations`).  The families live on each subgroup H taken as
    a frame of its own; the bundled chi restricted to H is among the valid
    ones, which is why base change needs no re-check of the restriction."""
    scen = load_scenario(os.path.join(SCEN_DIR, name + ".json"))
    datum, frame = scen.datum, scen.frame
    g = frame.group
    n = g.order
    rng = random.Random(name)
    for sub in g.all_subgroups():
        elems = sorted(sub)
        tables = list(character_group(g, sub))
        # values stored as the loader stores them: off (1/n)Z, a non-integer
        for table in list(tables):
            for e in elems:
                tables.append({**table, e: stored(
                    Fraction(table[e], n) + Fraction(1, 2 * len(elems)), n)})
        for _ in range(20):
            tables.append({e: stored(Fraction(rng.randrange(6), 6), n) if e else 0
                           for e in elems})
        for table in tables:
            assert char_is_homomorphism(g, sub, table) == _all_pairs_homomorphism(g, sub, table)

        h_frame, h_datum, h_chi = subgroup_frame(frame, datum, scen.chi, sub)
        h = h_frame.group
        valid = [trivial_chi(h_datum, h_frame)]
        if h_chi is not None:
            valid.append(h_chi)
        h_orbits = classify_orbits(h_datum, h_frame)
        menus = _chi_menus(h_datum, h_frame, h_orbits)
        valid += [f for f in (_random_chi(rng, h_datum, h_frame, h_orbits, menus)
                              for _ in range(4)) if f]
        families = list(valid)
        for first in valid:
            assert condition_failures(first, h_datum, h_frame, h_orbits) == ([], [])
            for second in valid:
                for mover in h.generating_set(h.elements):
                    families += _splices(first, second, h_datum, h, mover)
        for _ in range(10):
            families.append(ChiData({r: rng.choice(character_group(h, h_datum.stabilizer(r)))
                                     for r in h_datum.roots}, h.order))
        for fam in valid:
            families += _perturbations(rng, fam, h_datum)
        for fam in families:
            assert condition_failures(fam, h_datum, h_frame, h_orbits) == _all_elements_failures(
                fam, h_datum, h_frame)


def _perturbations(rng, chi, datum):
    """Seeded edits of a valid family that the orbit-wise test must not
    miss: one value changed at a root that is not the least root of its
    orbit (for each such root), a character moved to another root, two
    characters swapped, a character dropped, and the value at the identity
    shifted along an orbit and its negative."""
    srt = datum.sorted_roots
    n = chi.n
    out = []
    for i, root in enumerate(srt):
        if min(datum.orbit(i)) != i:
            chars = {r: dict(c) for r, c in chi.chars.items()}
            x = rng.choice(sorted(chars[root]))
            chars[root][x] = (chars[root][x] + rng.randrange(1, n)) % n
            out.append(ChiData(chars, n))
    if len(srt) > 1:
        a, b = rng.sample(srt, 2)
        moved = {r: dict(c) for r, c in chi.chars.items()}
        moved[b] = moved.pop(a)
        swapped = {r: dict(c) for r, c in chi.chars.items()}
        swapped[a], swapped[b] = swapped[b], swapped[a]
        out += [ChiData(moved, n), ChiData(swapped, n)]
    dropped = {r: dict(c) for r, c in chi.chars.items()}
    del dropped[rng.choice(srt)]
    out.append(ChiData(dropped, n))
    # chi(0) moved off 0 on the orbit of a root and by the negated value on
    # the orbit of its negative: equivariance and condition 1 still hold, so
    # only the homomorphism test sees it
    i = rng.randrange(len(srt))
    orbit, negatives = datum.orbit(i), datum.orbit(datum.neg[i])
    if orbit == negatives:
        k = n // 2 if n % 2 == 0 else 0  # k = -k mod n
    else:
        k = rng.randrange(1, n) if n > 1 else 0
    if k:
        shifted = {r: dict(c) for r, c in chi.chars.items()}
        for j in orbit:
            shifted[srt[j]][0] = k
        for j in negatives:
            shifted[srt[j]][0] = -k % n
        out.append(ChiData(shifted, n))
    return out


def test_equivariance_checked_under_every_generator():
    """On Z/4 x Z/2 acting on Z through the second factor, a character of
    order four on the stabilizer Z/4 of the root 1 is invisible to the
    first generator (it fixes both roots) but not to the second (it swaps
    them, and the negation condition inverts the character)."""
    g = FiniteGroup([[((i % 4 + j % 4) % 4) + 4 * ((i // 4 + j // 4) % 2)
                      for j in range(8)] for i in range(8)])
    assert g.generating_set(g.elements) == [1, 4]
    frame = GaloisFrame(g, frozenset({0, 1, 2, 3}), 4, PrimePower(5, 1))
    datum = GRootDatum(1, {x: [[1]] if x < 4 else [[-1]] for x in range(8)},
                       frozenset({(1,), (-1,)}), frame.group)
    orbits = classify_orbits(datum, frame)
    stab = frozenset({0, 1, 2, 3})
    for value, valid in ((Fraction(1, 2), True), (Fraction(1, 4), False)):
        table = numerators({k: (k * value) % 1 for k in stab}, 8)
        chi = ChiData({(1,): table, (-1,): {k: -v % 8 for k, v in table.items()}}, 8)
        expected = [] if valid else ["equivariance fails from (-1,) under 4",
                                     "equivariance fails from (1,) under 4"]
        assert _all_elements_failures(chi, datum, frame) == ([], expected)
        assert condition_failures(chi, datum, frame, orbits) == ([], expected)


def test_cocycle_values_pinned():
    """r_chi_values reproduces the cocycle values of the top and the
    derived subgroup choices at every w of every subgroup, as captured
    from the one-w-at-a-time evaluator (tests/r_chi_pins.json)."""
    with open(os.path.join(os.path.dirname(__file__), "r_chi_pins.json")) as fh:
        pins = json.load(fh)
    assert sorted(pins) == WITH_CHI
    for name in WITH_CHI:
        scen = load_scenario(os.path.join(SCEN_DIR, name + ".json"))
        datum, frame, chi = scen.datum, scen.frame, scen.chi
        choices = default_choices(datum, frame, scen.orbits)
        expected = {}
        for sub, w, top, low in pins[name]:
            expected.setdefault(frozenset(sub), {})[w] = (
                tuple(Fraction(x) for x in top), tuple(Fraction(x) for x in low))
        n = frame.group.order
        subgroups = frame.group.all_subgroups()
        checked = 0
        for sub in subgroups:
            top_choices, sub_choices = rebuilt_top(choices, sub, datum, frame)
            top = r_chi_values(chi, top_choices, sub, datum, frame)
            low = r_chi_values(chi, sub_choices, sub, datum, frame, within=sub)
            assert {w: (tuple(Fraction(k, n) for k in top[w]),
                        tuple(Fraction(k, n) for k in low[w])) for w in sub} == expected[sub]
            checked += 1
            outside = next((x for x in frame.group.elements if x not in sub), None)
            if outside is not None:
                with pytest.raises(ValueError, match="evaluation subgroup"):
                    r_chi_values(chi, sub_choices, [outside], datum, frame, within=sub)
        assert checked == len(subgroups) == len(expected)


def test_cocycle_sum_written_out_with_values_of_order_three_and_six():
    """cocycle against its defining sum, written out here from group.mul,
    group.inv, the matrices and the section dicts: at w, for each class
    with representative a and each coset key x with section value u_x,
    the inner value at k = u_x w u_(x w)^-1 times u_x^-1 a.

    Every cocycle value of the bundled and generated scenarios is 0 or
    1/2, which is its own negative in Q/Z, so those values cannot tell a
    class's contribution from its negative.  Here the top ClassData of
    s3_a2_depth_third (|G| = 6, Stab(a) = Stab+-(a) = {0, 2}) get the
    inner values 1/6 at 0 and 1/3 at 2.  The default sections lie in the
    normal subgroup A_3 = {0, 1, 3}, so k depends only on w there, and the
    images u_x^-1 a sum to 0 over the orbit: the cocycle vanishes for any
    inner values.  Moving the section value on the coset {1, 4} to 4
    makes k vary with x, and the values of order 6 appear."""
    scen = load_scenario(os.path.join(SCEN_DIR, "s3_a2_depth_third.json"))
    datum, frame = scen.datum, scen.frame
    group = frame.group
    n = group.order
    base = BaseChange(scen.chi, datum, frame, scen.orbits)
    (top,) = base.top
    assert [k for k, v in enumerate(top.inner) if v is not None] == [0, 2]
    inner = [None] * n
    inner[0], inner[2] = 1, 2
    classes = [ClassData(top.alpha, top.pm_key, inner)]
    alpha = top.alpha
    pm = [s for s in group.elements
          if mat_vec(datum.action[s], alpha) in (alpha, tuple(-x for x in alpha))]
    default = base.choices.u[top.alpha]
    assert default == {0: 0, 1: 1, 3: 3}
    moved = {**default, 1: 4}
    for u in (default, moved):
        expected = {}
        for w in group.elements:
            total = [0] * datum.rank
            for x, ux in u.items():
                xw = group.mul(x, w)
                u_xw = u[min(group.mul(s, xw) for s in pm)]
                k = group.mul(group.mul(ux, w), group.inv(u_xw))
                assert k in pm
                beta = mat_vec(datum.action[group.inv(ux)], alpha)
                total = [t + inner[k] * b for t, b in zip(total, beta)]
            expected[w] = tuple(t % n for t in total)
        assert cocycle(classes, {alpha: u}, group.elements, datum, group) == expected
    assert set(expected.values()) == {(0, 0), (5, 0), (5, 5), (1, 1), (1, 0)}


# -- sections against the brute-force coset oracle ------------------------------


def _s3_compose(a, b):
    return tuple(a[b[i]] for i in range(3))


def _a2_root(i, j):
    """e_i - e_j in the basis e_0 - e_1, e_1 - e_2 of the A_2 root lattice."""
    c = [0, 0, 0]
    c[i] += 1
    c[j] -= 1
    return (c[0], c[0] + c[1])


def weyl_s3_document():
    """S_3 acting on the A_2 root lattice as its Weyl group, so that each
    transposition negates a root, with trivial characters (every root
    stabilizer is trivial).  Elements are numbered identity, the two
    3-cycles, then the transpositions; inertia is A_3 and Frobenius a
    transposition."""
    elems = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(elems)}
    roots = sorted(_a2_root(i, j) for i in range(3) for j in range(3) if i != j)

    def matrix(p):
        cols = [_a2_root(p[0], p[1]), _a2_root(p[1], p[2])]
        return [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]

    return {"name": "s3_weyl_a2", "q": {"p": 5, "a": 1},
            "group": {"mult_table": [[index[_s3_compose(a, b)] for b in elems] for a in elems]},
            "inertia": [0, 1, 2], "frobenius": 3, "lattice_rank": 2,
            "action": {str(i): matrix(p) for i, p in enumerate(elems)},
            "roots": [list(r) for r in roots], "depth_zero": "regular",
            "theta_depths": {"-1,-1": "1/3"}, "theta_total_depth": "1/3",
            "jump_offsets": {"-1,-1": "0"},
            "chi": {"%d,%d" % r: {"0": "0"} for r in roots}}


def oracle_scenarios():
    from fdc.scenario import scenario_from_dict
    return oracle.bundled_scenarios() + [scenario_from_dict(weyl_s3_document())]


def test_choices_match_brute_force():
    """default_choices and compatible_choices against the frozenset
    enumeration of tests/coset_oracle.py (right cosets, double cosets and
    minimal-element sections), for every subgroup of the bundled frames and
    of the Weyl S_3 frame."""
    checked = 0
    for scen in oracle_scenarios():
        datum, frame, group = scen.datum, scen.frame, scen.frame.group
        choices = default_choices(datum, frame, scen.orbits)
        assert (choices.u, choices.v) == oracle.default_sections(datum, group)
        for sub in oracle.brute_subgroups(group):
            got_top_u, got = compatible_choices(choices, sub, datum, frame)
            top_u, sub_u, sub_v = oracle.compatible_sections(choices.v, sub, datum, group)
            assert got_top_u == top_u
            assert (got.u, got.v) == (sub_u, sub_v)
            assert list(got.v) == list(sub_v)  # classes in double-coset order
            checked += 1
    assert checked == 32  # subgroups over the seven frames


def test_chi_check_conjugates_inner_sections_by_c_inverse(tmp_path, capsys):
    """The inner section of a derived class at y is c^-1 v c, with v the top
    section on the coset of c y c^-1.  The conjugate c v c^-1 is the same
    element when c^2 commutes with v (as when c has order 2), and a
    section value other than at the identity is read only when H meets
    Stab+-(c^-1 a) outside Stab(c^-1 a); on the bundled and generated
    scenarios one of the two always holds.  On the Weyl S_3 frame with
    H = {1, (1 2)}: the 3-cycle c = 1 is the least element of the double
    coset P c H for a = (-1, -1) and P = Stab+-(a), c does not normalize
    P, and the transposition in H negates c^-1 a.  chi-check verifies
    every subgroup there, and with c v c^-1 it fails (the derived h leaves
    the stabilizer)."""
    from fdc import cli
    from fdc.scenario import scenario_from_dict
    path = tmp_path / "weyl.json"
    path.write_text(json.dumps(weyl_s3_document()))
    assert cli.main(["--format", "json", "chi-check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and [e["subgroup"] for e in report["subgroups"]] == [
        [0], [0, 3], [0, 4], [0, 5], [0, 1, 2], [0, 1, 2, 3, 4, 5]]

    # the premises, on H = {1, (1 2)}
    scen = scenario_from_dict(weyl_s3_document())
    datum, group = scen.datum, scen.frame.group
    alpha, sub = (-1, -1), frozenset({0, 4})
    stab_pm = datum.pm_stabilizer(alpha)
    assert [min(dc) for dc in oracle.double_cosets(group, stab_pm, sub)] == [0, 1]
    c = 1
    assert group.element_order(c) == 3
    assert {group.conj(c, x) for x in stab_pm} != stab_pm
    alpha_z = datum.act(group.inv(c), alpha)
    assert datum.act(4, alpha_z) == tuple(-x for x in alpha_z)
    _, derived = compatible_choices(default_choices(datum, scen.frame, scen.orbits), sub, datum,
                                    scen.frame)
    assert derived.v[alpha_z] == {0: 0, 4: 4}
