import json
import os
import random

import pytest

from fdc.qexact import PrimePower
from fdc.galois_roots import (
    FiniteGroup,
    GaloisFrame,
    GRootDatum,
    NONPOSITIVE,
    OrbitInfo,
    _combine_rows,
    classify_orbits,
    howe_filtration,
    negation_classes,
    off_lattice_breaks,
    root_key,
    torus_lattice_data,
)
from fdc.scenario import (
    ScenarioError,
    generate_scenario,
    generator_templates,
    load_scenario,
    scenario_from_dict,
)
from lemmas import (
    Transforms,
    coinvariants_order,
    filtration_levels,
    invariant_sublattice,
    lattice_is_elliptic,
    lattice_torus_data,
    restrict_endomorphism,
    solve,
)
from fdc.zlattice import (
    mat_mul,
    mat_transpose,
    mat_vec,
)
import coset_oracle as oracle
from test_coxeter import coxeter_document

PP3 = PrimePower(3, 1)
PP5 = PrimePower(5, 1)


def a1_datum(frame):
    datum = GRootDatum(1, {0: [[1]], 1: [[-1]]}, frozenset({(2,), (-2,)}), frame.group)
    return datum


def frame_z2(ramified: bool, pp=PP3):
    g = FiniteGroup.cyclic(2)
    if ramified:
        return GaloisFrame(g, frozenset({0, 1}), 0, pp)
    return GaloisFrame(g, frozenset({0}), 1, pp)


def test_frame_validation():
    g = FiniteGroup.cyclic(4)
    GaloisFrame(g, frozenset({0, 2}), 1, PP3)
    with pytest.raises(ValueError):
        GaloisFrame(g, frozenset({0, 1}), 1, PP3)  # not a subgroup
    with pytest.raises(ValueError):
        GaloisFrame(g, frozenset({0, 2}), 2, PP3)  # Frobenius fails to generate
    with pytest.raises(ValueError):
        GaloisFrame(FiniteGroup.cyclic(3), frozenset({0, 1, 2}), 0, PP3)  # wild
    s3, _ = FiniteGroup.from_permutations([[1, 0, 2], [0, 2, 1]])
    with pytest.raises(ValueError, match="not normal"):
        GaloisFrame(s3, frozenset({0, 1}), 2, PP5)  # a transposition subgroup


def test_generating_set():
    z6 = FiniteGroup.cyclic(6)
    assert z6.generating_set(z6.elements) == [1]
    assert z6.generating_set([0, 2, 4]) == [2]
    assert z6.generating_set([0]) == []
    klein = FiniteGroup([[i ^ j for j in range(4)] for i in range(4)])
    assert klein.generating_set(klein.elements) == [1, 2]
    s3, _ = FiniteGroup.from_permutations([[1, 0, 2], [0, 2, 1]])
    gens = s3.generating_set(s3.elements)
    assert len(gens) == 2 and s3.subgroup_generated(gens) == frozenset(s3.elements)
    for g in (z6, klein, s3):
        for h in g.all_subgroups():
            assert g.subgroup_generated(g.generating_set(h)) == h
    # kept per element set, but a caller's edit of the list does not reach it
    first = klein.generating_set(klein.elements)
    first.append(3)
    assert klein.generating_set(klein.elements) == [1, 2]
    assert klein.generating_set(reversed(klein.elements)) == [1, 2]


def _all_triples_associative(table):
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def test_associativity_on_generators_matches_all_triples():
    """Light's test over a generating set accepts exactly the tables that
    pass all |G|^3 triples: groups of order up to 8 with their elements
    relabelled, and the loops made from them by swapping an intercalate
    (two rows and two columns whose four entries form a 2 x 2 Latin
    square), which keeps the identity and every inverse."""
    rng = random.Random(17)
    groups = [FiniteGroup.cyclic(n).table for n in range(1, 9)]
    for gens in ([[1, 2, 0], [1, 0, 2]], [[1, 2, 3, 0], [3, 2, 1, 0]],
                 [[1, 0, 2, 3], [0, 1, 3, 2]]):
        groups.append(FiniteGroup.from_permutations(gens)[0].table)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        base = rng.choice(groups)
        n = len(base)
        relabel = [0] + rng.sample(range(1, n), n - 1)
        table = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                table[relabel[x]][relabel[y]] = relabel[base[x][y]]
        swaps = [(x, u, y, w) for x in range(1, n) for u in range(x + 1, n)
                 for y in range(1, n) for w in range(y + 1, n)
                 if table[x][y] == table[u][w] and table[x][w] == table[u][y]]
        if swaps and rng.random() < 0.7:
            x, u, y, w = rng.choice(swaps)
            table[x][y], table[x][w] = table[x][w], table[x][y]
            table[u][y], table[u][w] = table[u][w], table[u][y]
        expected = _all_triples_associative(table)
        verdicts[expected] += 1
        if expected:
            FiniteGroup(table)
        else:
            with pytest.raises(ValueError, match="not associative"):
                FiniteGroup(table)
    assert min(verdicts.values()) > 50


def test_table_entries_must_be_integers():
    with pytest.raises(ValueError, match="malformed"):
        FiniteGroup([[0, 1], [1, 0.0]])
    with pytest.raises(ValueError, match="malformed"):
        FiniteGroup([[0, True], [1, 0]])


SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")


def bundled_scenarios():
    return [load_scenario(os.path.join(SCEN_DIR, name)) for name in sorted(os.listdir(SCEN_DIR))]


def test_all_subgroups_match_brute_force():
    """all_subgroups against every subset that contains 0 and is closed
    under multiplication (in a finite group, exactly the subgroups), on
    the bundled frames' groups, Z/12, S_3, D_4 and Z/2 x Z/6."""
    for g in oracle.oracle_groups():
        assert g.all_subgroups() == oracle.brute_subgroups(g)


def test_coset_keys_match_brute_force():
    """coset_keys against the right cosets enumerated as sets of products,
    for every subgroup of the oracle groups: each element is keyed by the
    least element of its coset, and the elements that key themselves
    inside a subgroup A containing H are the least elements of the cosets
    of H in A."""
    for g in oracle.oracle_groups():
        subgroups = oracle.brute_subgroups(g)
        for h in subgroups:
            keys = g.coset_keys(h)
            for coset in oracle.right_cosets(g, h, g.elements):
                assert {keys[x] for x in coset} == {min(coset)}
            for a in subgroups:
                if h <= a:
                    assert ([x for x in sorted(a) if keys[x] == x]
                            == [min(c) for c in oracle.right_cosets(g, h, a)])


def test_root_table_matches_matrix_route():
    """The permutation table built at load against dense matrix-vector
    products: every image of every root, the stabilizer and the
    +-stabilizer of every root, and the last Howe level equal to R.  Run on
    the bundled scenarios (two with non-abelian groups, where the order of
    composition shows), 200 generated ones and the A_{n-1} Coxeter tori for
    n = 4..12, unramified and totally ramified."""
    scenarios = bundled_scenarios()
    assert {"s3_a2_depth_third", "d4_b2_depth_quarter"} <= {s.name for s in scenarios}
    rng = random.Random(13)
    scenarios += [generate_scenario(rng) for _ in range(200)]
    scenarios += [scenario_from_dict(coxeter_document(n, ramified))
                  for n in range(4, 13) for ramified in (False, True)]
    for scen in scenarios:
        datum, group = scen.datum, scen.frame.group
        for r in datum.roots:
            neg = tuple(-x for x in r)
            images = {g: mat_vec(datum.action[g], r) for g in group.elements}
            assert all(datum.act(g, r) == images[g] for g in group.elements), scen.name
            assert datum.stabilizer(r) == frozenset(
                g for g, img in images.items() if img == r), scen.name
            assert datum.pm_stabilizer(r) == frozenset(
                g for g, img in images.items() if img in (r, neg)), scen.name
        assert filtration_levels(scen.filtration)[-1] == datum.roots, scen.name


def test_row_products_match_dense():
    """The whole-row products of the load checks against mat_mul and
    mat_vec: M(s)M(b), row i the combination of the rows of M(b) that row
    i of M(s) names, for every generator s and element b; and the image of
    every root r under every generator s that the stability test recorded
    (datum.act(s, r)), against M(s)r.  Run on the bundled scenarios, 200
    generated ones and the A_{n-1} Coxeter tori for n = 4..24, unramified
    and totally ramified."""
    scenarios = bundled_scenarios()
    rng = random.Random(29)
    scenarios += [generate_scenario(rng) for _ in range(200)]
    scenarios += [scenario_from_dict(coxeter_document(n, ramified))
                  for n in range(4, 25) for ramified in (False, True)]
    for scen in scenarios:
        datum, group = scen.datum, scen.frame.group
        action = datum.action
        for s in group.generating_set(group.elements):
            s_rows = [[(k, c) for k, c in enumerate(row) if c] for row in action[s]]
            for b in group.elements:
                product = [list(_combine_rows(terms, action[b])) for terms in s_rows]
                assert product == mat_mul(action[s], action[b]), scen.name
            for r in datum.roots:
                assert datum.act(s, r) == mat_vec(action[s], r), scen.name


def test_combine_rows_rectangular():
    """Rows as wide as m, not as long: a zero row of M(s) applied to the
    transposed root matrix, |R| wide, must give |R| zeros."""
    m = [[1, 2, 3, 4], [0, -1, 5, 2]]
    assert _combine_rows([], m) == [0, 0, 0, 0]
    assert _combine_rows([(1, 1)], m) == [0, -1, 5, 2]
    assert _combine_rows([(0, 1), (1, -1)], m) == [1, 3, -2, 2]
    assert _combine_rows([(0, 2), (1, 3)], m) == [2, 1, 21, 14]
    assert _combine_rows([(0, -1), (1, 1)], m) == [-1, -3, 2, -2]
    assert _combine_rows([], []) == []


def _dense_first_failure(doc, group):
    """The refusal of the dense homomorphism check: the first pair (s, b),
    s a generator and b in element order, with M(s)M(b) != M(sb)."""
    action = {int(g): m for g, m in doc["action"].items()}
    for s in group.generating_set(group.elements):
        for b in group.elements:
            if mat_mul(action[s], action[b]) != action[group.mul(s, b)]:
                return "action is not a homomorphism at (%d, %d)" % (s, b)
    return None


def _bundled_doc(name):
    with open(os.path.join(SCEN_DIR, name + ".json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("doc", [
    coxeter_document(6, False),
    coxeter_document(9, True),
    _bundled_doc("d4_b2_depth_quarter"),
    _bundled_doc("s3_a2_depth_third"),
], ids=["A5", "A8-ramified", "d4-b2", "s3-a2"])
def test_perturbed_non_generator_refused_like_dense(doc):
    """One entry of one non-generator matrix moved by +-1: the sparse check
    refuses with the text and the pair (s, b) of the dense route."""
    group = scenario_from_dict(doc).frame.group
    gens = group.generating_set(group.elements)
    others = [a for a in group.elements if a != 0 and a not in gens]
    rng = random.Random(61)
    for _ in range(12):
        bad = json.loads(json.dumps(doc))
        a = rng.choice(others)
        m = bad["action"][str(a)]
        i, j = rng.randrange(len(m)), rng.randrange(len(m))
        m[i][j] += rng.choice((-1, 1))
        expected = _dense_first_failure(bad, group)
        assert expected is not None
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(bad)
        assert ("galois_roots", "GRootDatum", expected) in err.value.failures


def test_field_invariants_examples():
    """The field of each orbit, by the indices of its stabilizer: Z/4 with
    inertia {0, 2}, acting by -1 on the first coordinate and by a quarter
    turn on the other two.  +-2e_1 is fixed by {0, 2}: an unramified
    quadratic field.  +-e_2, +-e_3 have trivial stabilizer: the whole
    quartic field, with e = f = 2."""
    g = FiniteGroup.cyclic(4)
    fr = GaloisFrame(g, frozenset({0, 2}), 1, PP3)
    gen = [[-1, 0, 0], [0, 0, -1], [0, 1, 0]]
    action = {0: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    for k in range(1, 4):
        action[k] = mat_mul(gen, action[k - 1])
    roots = frozenset({(2, 0, 0), (-2, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)})
    datum = GRootDatum(3, action, roots, fr.group)
    got = [(o.representative, sorted(o.stabilizer), o.degree, o.e, o.f, o.ramified)
           for o in classify_orbits(datum, fr)]
    assert got == [((-2, 0, 0), [0, 2], 2, 1, 2, False), ((0, -1, 0), [0], 4, 2, 2, True)]


def test_ef_multiplicativity():
    """e, f and the degree multiply along the tower k < k_+-a < k_a of a
    symmetric orbit.  k_+-a is fixed by Stab+-(a), read by its indices;
    k_a / k_+-a is quadratic, and ramified exactly when the orbit is,
    that is when an inertia element carries a to -a."""
    scenarios = bundled_scenarios()
    rng = random.Random(8)
    scenarios += [generate_scenario(rng) for _ in range(100)]
    seen = set()
    for scen in scenarios:
        group, inertia = scen.frame.group, scen.frame.inertia
        for o in scen.orbits:
            if not o.symmetric:
                continue
            pm = scen.datum.pm_stabilizer(o.representative)
            pm_degree = group.order // len(pm)
            pm_e = len(inertia) // len(inertia & pm)
            rel_e = 2 if o.ramified else 1
            assert o.degree == 2 * pm_degree
            assert o.e == rel_e * pm_e
            assert o.f == 2 // rel_e * (pm_degree // pm_e)
            seen.add(o.ramified)
    assert seen == {False, True}


def test_classify_examples():
    fr = frame_z2(ramified=True)
    orbs = classify_orbits(a1_datum(fr), fr)
    assert len(orbs) == 1
    o = orbs[0]
    assert o.symmetric and o.ramified and o.degree == 2 and o.e == 2
    fr = frame_z2(ramified=False)
    orbs = classify_orbits(a1_datum(fr), fr)
    o = orbs[0]
    assert o.symmetric and o.ramified is False and o.e == 1 and o.f == 2


def test_asymmetric_split_case():
    # S3 on A2 gives a pair of asymmetric orbits exchanged by negation
    s3, _ = FiniteGroup.from_permutations([[1, 2, 0], [1, 0, 2]])
    rot = next(g for g in s3.elements if s3.element_order(g) == 3)
    refl = next(g for g in s3.elements if s3.element_order(g) == 2)
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
    fr = GaloisFrame(s3, s3.subgroup_generated([rot]), refl, PP5)
    roots = frozenset({(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)})
    datum = GRootDatum(2, mats, roots, fr.group)
    orbs = classify_orbits(datum, fr)
    assert len(orbs) == 2
    assert all(not o.symmetric for o in orbs)
    a, b = orbs
    assert a.negation_id == b.orbit_id and b.negation_id == a.orbit_id
    # negated orbits share field invariants
    assert (a.e, a.f, a.degree) == (b.e, b.f, b.degree)


def _brute_orbit_of(datum, group):
    """Each root's orbit, as the set of its images under dense
    matrix-vector products, computed once per orbit."""
    orbit_of = {}
    for r in datum.roots:
        if r not in orbit_of:
            members = frozenset(mat_vec(datum.action[g], r) for g in group.elements)
            orbit_of.update((m, members) for m in members)
    return orbit_of


def _brute_orbits(datum, frame):
    """Every OrbitInfo field from dense matrix-vector products and the
    definitions: the orbit as the set of images, its least member, the
    stabilizer as the elements fixing it, e as the size of its inertia
    orbit ([I : I n Stab]), and the negation class as the orbit of -rep."""
    orbit_of = _brute_orbit_of(datum, frame.group)
    out = []
    for members in set(orbit_of.values()):
        rep = min(members)
        neg = tuple(-x for x in rep)
        im = {g: mat_vec(datum.action[g], rep) for g in frame.group.elements}
        e = len({im[i] for i in frame.inertia})
        symmetric = neg in members
        out.append(OrbitInfo(
            orbit_id=root_key(rep), members=members, representative=rep,
            stabilizer=frozenset(g for g, v in im.items() if v == rep),
            degree=len(members), e=e, f=len(members) // e, symmetric=symmetric,
            ramified=any(im[i] == neg for i in frame.inertia) if symmetric else None,
            negation_id=root_key(min(orbit_of[neg]))))
    return sorted(out, key=lambda o: o.representative)


def _brute_pm_classes(datum, frame):
    """The classes under the group and negation: each root's orbit together
    with the orbit of its negative, by least member."""
    orbit_of = _brute_orbit_of(datum, frame.group)
    classes = {orbit_of[r] | orbit_of[tuple(-x for x in r)] for r in datum.roots}
    return sorted(((root_key(min(c)), min(c), c) for c in classes), key=lambda t: t[1])


def test_orbits_and_pm_classes_match_brute_force():
    """classify_orbits, read on root indices from the permutation table,
    and the classes under negation that negation_classes pairs from its
    orbits, against dense matrix-vector products: every OrbitInfo field
    and every class.  Run on the bundled scenarios, 200
    generated ones and the A_{n-1} Coxeter tori for n = 4..24, unramified
    and totally ramified."""
    scenarios = bundled_scenarios()
    rng = random.Random(31)
    scenarios += [generate_scenario(rng) for _ in range(200)]
    scenarios += [scenario_from_dict(coxeter_document(n, ramified))
                  for n in range(4, 25) for ramified in (False, True)]
    assert any(not o.symmetric for s in scenarios for o in s.orbits)
    assert any(o.ramified for s in scenarios for o in s.orbits)
    assert any(o.ramified is False for s in scenarios for o in s.orbits)
    for scen in scenarios:
        datum, frame = scen.datum, scen.frame
        want = _brute_orbits(datum, frame)
        assert list(scen.orbits) == want, scen.name
        assert classify_orbits(datum, frame) == want, scen.name
        classes = [(c[0].orbit_id, c[0].representative,
                    frozenset().union(*(o.members for o in c)))
                   for c in negation_classes(scen.orbits)]
        assert classes == _brute_pm_classes(datum, frame), scen.name


def test_normality_tested_on_generators():
    """Inertia normalized by one generator of the group but not by the
    other is refused, whichever generator comes first; a normal subgroup
    that is not central still loads.  S_3 and D_4 each have two
    generators, and each generator of order 2 spans a subgroup that only
    it (of the two) normalizes."""
    s3, _ = FiniteGroup.from_permutations([[1, 0, 2], [0, 2, 1]])
    d4, _ = FiniteGroup.from_permutations([[1, 2, 3, 0], [3, 2, 1, 0]])
    refused = []
    for g in (s3, d4):
        gens = g.generating_set(g.elements)
        assert len(gens) == 2
        for i, s in enumerate(gens):
            h = g.subgroup_generated([s])
            if len(h) != 2:
                continue
            assert [all(g.conj(x, y) in h for y in h) for x in gens] == [j == i for j in (0, 1)]
            with pytest.raises(ValueError, match="inertia is not normal"):
                GaloisFrame(g, h, gens[1 - i], PP5)
            refused.append((g.order, i))
    assert refused == [(6, 0), (6, 1), (8, 1)]

    rotations = s3.subgroup_generated([s3.mul(1, 2)])
    assert len(rotations) == 3
    assert any(s3.mul(a, b) != s3.mul(b, a) for a in rotations for b in s3.elements)
    GaloisFrame(s3, rotations, 1, PP5)
    r, s = d4.generating_set(d4.elements)
    GaloisFrame(d4, d4.subgroup_generated([r]), s, PP5)


def test_normality_matches_brute_force():
    """The generator test refuses exactly the subgroups that some element
    fails to normalize, over every subgroup of the oracle groups."""
    pp = PrimePower(101, 1)  # coprime to every subgroup order here
    for g in oracle.oracle_groups():
        for h in oracle.brute_subgroups(g):
            normal = all(g.mul(g.mul(x, y), g.inv(x)) in h for x in g.elements for y in h)
            try:
                GaloisFrame(g, h, 0, pp)
                refused = False
            except ValueError as err:
                refused = str(err) == "inertia is not normal"
            assert refused == (not normal)


def test_orbit_partition_properties():
    for fr in (frame_z2(True), frame_z2(False)):
        datum = a1_datum(fr)
        orbs = classify_orbits(datum, fr)
        members = [m for o in orbs for m in o.members]
        assert len(members) == len(set(members)) == len(datum.roots)
        assert sum(o.degree for o in orbs) == len(datum.roots)


def test_datum_validation():
    with pytest.raises(ValueError):
        GRootDatum(1, {0: [[1]]}, frozenset({(0,)}), FiniteGroup.cyclic(1))  # 0 as a root
    with pytest.raises(ValueError):
        GRootDatum(1, {0: [[1]]}, frozenset({(2,)}), FiniteGroup.cyclic(1))  # not symmetric
    # an action outside GL(Z) is no homomorphism: M(0) must be the identity
    with pytest.raises(ValueError, match=r"not a homomorphism at \(0, 0\)"):
        GRootDatum(1, {0: [[2]]}, frozenset({(2,), (-2,)}), FiniteGroup.cyclic(1))
    # ellipticity failure surfaces in the constructor
    with pytest.raises(ValueError, match="elliptic"):
        GRootDatum(1, {0: [[1]], 1: [[1]]}, frozenset({(2,), (-2,)}), frame_z2(True).group)


def test_howe_examples():
    fr = frame_z2(True)
    datum = a1_datum(fr)
    orbs = classify_orbits(datum, fr)
    (oid,) = [o.orbit_id for o in orbs]
    filt = howe_filtration(datum, orbs, {oid: NONPOSITIVE}, (0, 1))
    assert len(filt.breaks) == 0 and filtration_levels(filt)[0] == datum.roots
    assert filt.breaks == () and filt.total == (0, 1)

    filt = howe_filtration(datum, orbs, {oid: (1, 2)}, (1, 2))
    assert len(filt.breaks) == 1 and filtration_levels(filt)[0] == frozenset()
    assert filt.breaks == ((1, 2),) and filt.layers == ((), tuple(orbs))

    with pytest.raises(ValueError):
        howe_filtration(datum, orbs, {oid: (3, 4)}, (1, 2))  # depth > total
    with pytest.raises(ValueError, match="positive depth expected"):
        howe_filtration(datum, orbs, {oid: (0, 1)}, (1, 2))
    with pytest.raises(ValueError, match="total depth must be >= 0"):
        howe_filtration(datum, orbs, {oid: NONPOSITIVE}, (-1, 1))


def test_howe_levi_closure_error():
    g = FiniteGroup.cyclic(2)
    fr = GaloisFrame(g, frozenset({0, 1}), 0, PP5)
    roots = frozenset({(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)})
    datum = GRootDatum(2, {0: [[1, 0], [0, 1]], 1: [[-1, 0], [0, -1]]}, roots, fr.group)
    orbs = classify_orbits(datum, fr)
    depths = {}
    for o in orbs:
        depths[o.orbit_id] = (1, 3) if o.representative in ((-1, 0), (0, -1)) else (1, 2)
    with pytest.raises(ValueError, match="closed"):
        howe_filtration(datum, orbs, depths, (1, 2))


def test_howe_reconstruction_idempotent():
    g = FiniteGroup.cyclic(2)
    fr = GaloisFrame(g, frozenset({0, 1}), 0, PP5)
    roots = frozenset({(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)})
    datum = GRootDatum(2, {0: [[1, 0], [0, 1]], 1: [[-1, 0], [0, -1]]}, roots, fr.group)
    orbs = classify_orbits(datum, fr)
    # the zero level {+-(1,1)} is span-closed; the other two orbits enter later
    depths = {o.orbit_id: (NONPOSITIVE if o.representative in ((1, 1), (-1, -1))
                           else (1, 2)) for o in orbs}
    filt = howe_filtration(datum, orbs, depths, (1, 2))
    rebuilt = {o.orbit_id: NONPOSITIVE if r is None else r for o, r in filt.orbit_breaks}
    assert howe_filtration(datum, orbs, rebuilt, filt.total) == filt


def test_depth_lattice_examples():
    fr_ram = frame_z2(True)
    datum = a1_datum(fr_ram)
    orbs = classify_orbits(datum, fr_ram)
    filt = howe_filtration(datum, orbs, {orbs[0].orbit_id: (1, 2)}, (1, 2))
    assert off_lattice_breaks(filt) == []

    fr_unr = frame_z2(False)
    datum = a1_datum(fr_unr)
    orbs = classify_orbits(datum, fr_unr)
    filt = howe_filtration(datum, orbs, {orbs[0].orbit_id: (1, 2)}, (1, 2))
    assert off_lattice_breaks(filt) == [(orbs[0], (1, 2))]


def test_depth_lattice_e3():
    g = FiniteGroup.cyclic(3)
    fr = GaloisFrame(g, frozenset({0, 1, 2}), 0, PP5)
    rot = [[0, -1], [1, -1]]
    from fdc.zlattice import mat_mul, identity_matrix
    action = {0: identity_matrix(2), 1: rot, 2: mat_mul(rot, rot)}
    roots = frozenset({(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)})
    datum = GRootDatum(2, action, roots, fr.group)
    orbs = classify_orbits(datum, fr)
    assert all(o.e == 3 for o in orbs)
    depths = {o.orbit_id: (2, 3) for o in orbs}
    filt = howe_filtration(datum, orbs, depths, (2, 3))
    assert off_lattice_breaks(filt) == []


def _dual_invariant_coinvariants(datum, frame):
    """|(X_*^I)_F|: the Frobenius coinvariants of the inertia-invariant
    sublattice of the cocharacter lattice, with the dual action M(g^-1)^T
    of every inertia element (not only generators)."""
    inv = frame.group.inv
    basis = invariant_sublattice(
        datum.rank, [mat_transpose(datum.action[inv(a)]) for a in sorted(frame.inertia)])
    dual_frob = mat_transpose(datum.action[inv(frame.frobenius)])
    return coinvariants_order(restrict_endomorphism(dual_frob, basis) if basis else [])


def test_torus_orders_match_dual_lattice_route():
    """The three lattice orders of the prefactors against a fourth route
    through the dual lattice: |(X_*^I)_F| = |(X^I)_F| (m_frob_coinvariants)
    and |(X_*^I)_F| * |(X_{*,I})^F| = |X_{*,Gamma}|.  Run on the bundled
    scenarios, 120 generated ones and the A_{n-1} Coxeter tori for n = 4, 6
    and 8, unramified and totally ramified."""
    scenarios = bundled_scenarios()
    assert len(scenarios) == 6
    rng = random.Random(8)
    scenarios += [generate_scenario(rng) for _ in range(120)]
    scenarios += [scenario_from_dict(coxeter_document(n, ramified))
                  for n in (4, 6, 8) for ramified in (False, True)]
    for scen in scenarios:
        torus = scen.torus
        dual = _dual_invariant_coinvariants(scen.datum, scen.frame)
        assert dual == torus.m_frob_coinvariants, scen.name
        assert dual * torus.kottwitz_fixed_order == torus.cochar_full_coinvariants, scen.name


def _unimodular_pair(rng, rank):
    """A random unimodular U, a product of 12 elementary matrices, and U^-1."""
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    uinv = [row[:] for row in u]
    for _ in range(12 if rank > 1 else 0):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice([-2, -1, 1, 2])
        for row in u:  # U <- U E, E adding c * column i to column j
            row[j] += c * row[i]
        uinv[i] = [x - c * y for x, y in zip(uinv[i], uinv[j])]  # U^-1 <- E^-1 U^-1
    return u, uinv


def _conjugate(rng, rank, action):
    """The action U M(g) U^-1 for a random unimodular U."""
    u, uinv = _unimodular_pair(rng, rank)
    return {g: mat_mul(mat_mul(u, m), uinv) for g, m in action.items()}


def _coset_action(group, h, augmented):
    """The group permuting the right cosets H x (H x -> H x g^-1) as
    permutation matrices; augmented, on the sum-zero sublattice in the basis
    e_c - e_last instead.  The first always fixes the sum of the cosets;
    the second is elliptic, since the permutation action is transitive."""
    keys = group.coset_keys(h)
    cosets = sorted(set(keys))
    index = {c: i for i, c in enumerate(cosets)}
    m = len(cosets)
    out = {}
    for g in group.elements:
        perm = [index[keys[group.mul(c, group.inv(g))]] for c in cosets]
        if augmented:
            out[g] = [[int(perm[j] == i) - int(perm[m - 1] == i) for j in range(m - 1)]
                      for i in range(m - 1)]
        else:
            out[g] = [[int(perm[j] == i) for j in range(m)] for i in range(m)]
    return out


def _direct_sum(rank, action, extra):
    """The action M(g) + E(g) on Z^rank + Z^k."""
    k = len(extra[0])
    summed = {g: [row + [0] * k for row in m] + [[0] * rank + row for row in extra[g]]
              for g, m in action.items()}
    return rank + k, summed


def _trace_datum(rank, action, frame):
    """The datum of the action with no roots, or None when its trace sum
    refuses it as not elliptic."""
    try:
        return GRootDatum(rank, action, frozenset(), frame.group)
    except ValueError as err:
        assert "not elliptic" in str(err), err
        return None


def _template_data(rng):
    """The generator templates under every inertia choice and
    Frobenius, and every residue prime of the template prime to |I|, each
    conjugated by a random unimodular matrix so that X^I is not spanned by
    coordinate vectors."""
    out = []
    for tpl in generator_templates():
        for inertia in map(frozenset, tpl.inertia_choices):
            for frob in tpl.group.quotient_generators(tpl.group.elements, inertia):
                for p in (p for p in tpl.primes if len(inertia) % p):
                    frame = GaloisFrame(tpl.group, inertia, frob, PrimePower(p, 1))
                    out.append((tpl.rank, _conjugate(rng, tpl.rank, tpl.action), frame))
    return out


def test_trace_route_matches_lattice_route():
    """Every field of torus_lattice_data (traces for the X^I orders, one
    Smith form for the cocharacter orders) and the ellipticity decision of
    the GRootDatum constructor (the trace sum) against the lattice route of
    lemmas.py: a saturated basis of X^I, the restricted Frobenius, its
    Bareiss determinants, and coinvariants over the group's generators.

    Run on the bundled scenarios, 200 generated ones (seed 13), the A_{n-1}
    Coxeter tori for n = 4..24 unramified and totally ramified, and the
    generator templates conjugated by random unimodular matrices.  Roots
    are left out: neither route reads them.  The decision is also compared
    on the direct sums of the same actions with the permutation action on
    the cosets of each subgroup (never elliptic) and with its sum-zero
    sublattice (elliptic), conjugated again; on the Coxeter data, with the
    trivial action on one coset only."""
    rng = random.Random(13)
    scenarios = bundled_scenarios()
    assert len(scenarios) == 6
    scenarios += [generate_scenario(rng) for _ in range(200)]
    coxeter = [scenario_from_dict(coxeter_document(n, ramified))
               for n in range(4, 25) for ramified in (False, True)]
    data = [(scen.datum.rank, scen.datum.action, scen.frame) for scen in scenarios + coxeter]
    data += _template_data(rng)
    decisions = {True: 0, False: 0}
    for i, (rank, action, frame) in enumerate(data):
        datum = _trace_datum(rank, action, frame)
        assert datum is not None and lattice_is_elliptic(rank, action, frame)
        assert torus_lattice_data(datum, frame) == lattice_torus_data(datum, frame), i
        small = frame.group.order <= 8
        for h in frame.group.all_subgroups() if small else [frozenset(frame.group.elements)]:
            for augmented in (False, True) if small else (False,):
                size, summed = _direct_sum(rank, action, _coset_action(frame.group, h, augmented))
                other = _conjugate(rng, size, summed)
                decision = lattice_is_elliptic(size, other, frame)
                assert (_trace_datum(size, other, frame) is not None) == decision == augmented, \
                    (i, h)
                decisions[decision] += 1
    assert decisions[True] > 500 and decisions[False] > 500


def test_frobenius_preserves_inertia_relations():
    """The premise torus_lattice_data gives fdc.zlattice.frobenius_orders
    without a check: under the dual action g -> M(g^-1)^T, Frobenius maps
    the relations (g - 1)x of every inertia element g, not only of the
    generators, into the lattice the generators' relations span.  Run on
    the bundled scenarios, 200 generated ones (seed 13) and the A_{n-1}
    Coxeter tori for n = 4..24, unramified and totally ramified."""
    rng = random.Random(13)
    scenarios = bundled_scenarios()
    assert len(scenarios) == 6
    scenarios += [generate_scenario(rng) for _ in range(200)]
    scenarios += [scenario_from_dict(coxeter_document(n, ramified))
                  for n in range(4, 25) for ramified in (False, True)]
    checked = 0
    for scen in scenarios:
        group, inertia, n = scen.frame.group, scen.frame.inertia, scen.datum.rank

        def relations(elements):
            return [tuple(x - (i == j) for i, x in enumerate(row))
                    for a in elements
                    for j, row in enumerate(scen.datum.action[group.inv(a)])]

        gens = relations(group.generating_set(inertia))
        t = Transforms([[c[i] for c in gens] for i in range(n)])
        frob = mat_transpose(scen.datum.action[group.inv(scen.frame.frobenius)])
        for rel in relations(sorted(inertia)):
            assert solve(t, mat_vec(frob, rel)) is not None, scen.name
            checked += 1
    assert checked > 5000


def test_torus_lattice_data_sl2():
    fr = frame_z2(False)
    t = torus_lattice_data(a1_datum(fr), fr)
    assert t.rank_m == 1 and t.special_fiber_order == 4
    assert t.m_frob_coinvariants == 2 and t.kottwitz_fixed_order == 1
    fr = frame_z2(True)
    t = torus_lattice_data(a1_datum(fr), fr)
    assert t.rank_m == 0 and t.special_fiber_order == 1
    assert t.kottwitz_fixed_order == 2 and t.full_point_index == 2
