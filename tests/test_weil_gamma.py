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
    TorusLatticeData,
    classify_orbits,
    howe_filtration,
    torus_lattice_data,
)
from lemmas import conductor_induction_general, filtration_levels
from fdc.weil_gamma import (
    conductor_tame_induction,
    eps_abs,
    galois_side,
    root_gamma_abs,
    toral_gamma_abs,
)
from fdc.scenario import generate_scenario, load_scenario

from cyclotomic_oracle import Cyc, column_space_basis, solve_in_basis

PP3 = PrimePower(3, 1)
PP5 = PrimePower(5, 1)

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")


def closed_root_exponent(scen):
    """|R|/2 + (1/2) sum_i r_i (|R_{i+1}| - |R_i|), from the filtration's
    level sizes and breaks rather than from the orbit conductors."""
    sizes = [len(lv) for lv in filtration_levels(scen.filtration)]
    breaks = [Fraction(*r) for r in scen.filtration.breaks]
    wild = sum(r * (b - a) for r, a, b in zip(breaks, sizes, sizes[1:]))
    return Fraction(len(scen.datum.roots), 2) + Fraction(wild) / 2


def test_conductor_tame_induction():
    # degree 1: the Artin conductor 1 + depth of the character itself
    assert conductor_tame_induction(1, (0, 1)) == (1, 1)
    assert conductor_tame_induction(1, (1, 2)) == (3, 2)
    assert conductor_tame_induction(2, (0, 1)) == (2, 1)
    # two-formula agreement: degree 2, e=2, depth_k = 1/2; in lowest terms
    got = conductor_tame_induction(2, (1, 2))
    assert got == (3, 1)
    via_general = conductor_induction_general(1, 1, 1, 1 + 2 * Fraction(1, 2))
    assert via_general == 3


def test_conductor_induction_general():
    assert conductor_induction_general(0, 1, 1, Fraction(5, 2)) == Fraction(5, 2)
    assert conductor_induction_general(2, 2, 1, 1) == 4
    assert conductor_induction_general(1, 1, 1, 1) == 2


def test_conductor_specialization_sweep():
    from lemmas import suite_conductors
    assert suite_conductors() > 0


def test_eps_abs():
    assert eps_abs(0, PP3) == exp_q(0, PP3)
    assert eps_abs(2, PP3) == exp_q(1, PP3)
    assert eps_abs(3, PP3, 2) == exp_q(Fraction(3, 4), PP3)
    with pytest.raises(ValueError):
        eps_abs(-1, PP3)


def a1(ramified: bool, pp=PP3):
    g = FiniteGroup.cyclic(2)
    frame = GaloisFrame(g, frozenset({0, 1}) if ramified else frozenset({0}),
                        0 if ramified else 1, pp)
    datum = GRootDatum(1, {0: [[1]], 1: [[-1]]}, frozenset({(2,), (-2,)}), frame.group)
    return frame, datum, classify_orbits(datum, frame)


def test_psi_depth():
    """The depth of an orbit's inducing character, as ``root_gamma_abs``
    reads it from the break map: the orbit's positive depth, and 0 on the
    nonpositive part, which has no break.  The conductor is
    degree * (1 + depth)."""
    _, datum, orbs = a1(True, PP5)
    (o,) = orbs
    for theta, total, want in (((1, 2), (1, 2), Fraction(1, 2)),
                               (NONPOSITIVE, (0, 1), Fraction(0)),
                               ((2, 1), (2, 1), Fraction(2))):
        filt = howe_filtration(datum, orbs, {o.orbit_id: theta}, total)
        ((orbit, r),) = filt.orbit_breaks
        assert orbit == o and (r is None) == (want == 0) and Fraction(*r or (0, 1)) == want
        (conductor,) = dict(root_gamma_abs(filt, PP5).orbit_conductors).values()
        assert Fraction(*conductor) == o.degree * (1 + want)


def test_toral_gamma_examples():
    frame, datum, _ = a1(False)
    torus = torus_lattice_data(datum, frame)
    tg = toral_gamma_abs(torus, 1, PP3)
    assert tg.monomial == exp_q(1, PP3) and tg.rational == (1, 2)  # 2/4 in lowest terms

    frame, datum, _ = a1(True)
    torus = torus_lattice_data(datum, frame)
    tg = toral_gamma_abs(torus, 1, PP3)
    assert tg.monomial == exp_q(Fraction(1, 2), PP3) and tg.rational == (1, 1)

    # rank-2 rotation: exp_q(2) * 2 / det(3F - 1) = 9 * 2/10
    rot = TorusLatticeData(
        rank_m=2, special_fiber_order=10, m_frob_coinvariants=2,
        cochar_full_coinvariants=2, kottwitz_fixed_order=1)
    tg = toral_gamma_abs(rot, 2, PP3)
    assert tg.monomial == exp_q(2, PP3) and tg.rational == (1, 5)  # 2/10


def test_toral_gamma_degeneration():
    """Full lattice with trivial inertia: exp_q(dim) * |det(F-1)|/|det(qF-1)|."""
    frame, datum, _ = a1(False)
    torus = torus_lattice_data(datum, frame)
    assert torus.rank_m == datum.rank  # inertia acts trivially
    tg = toral_gamma_abs(torus, datum.rank, PP3)
    assert tg.monomial == exp_q(datum.rank, PP3)
    assert tg.rational == (1, 2)  # |det(F-1)| / |det(qF-1)| = 2/4 at F = -1


def test_root_gamma_examples():
    _, datum, orbs = a1(True, PP5)
    (o,) = orbs
    filt = howe_filtration(datum, orbs, {o.orbit_id: (1, 2)}, (1, 2))
    rg = root_gamma_abs(filt, PP5)
    assert rg.monomial == exp_q(Fraction(3, 2), PP5)
    assert rg.orbit_conductors == ((o.orbit_id, (3, 1)),)

    filt0 = howe_filtration(datum, orbs, {o.orbit_id: NONPOSITIVE}, (0, 1))
    rg = root_gamma_abs(filt0, PP5)
    assert rg.monomial == exp_q(1, PP5)


def test_root_gamma_two_breaks():
    """|R| = 6 with breaks 1/3 (2 roots) and 1 (4 roots): q^(16/3)."""
    g = FiniteGroup.cyclic(2)
    from fdc.zlattice import identity_matrix
    roots = frozenset({(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)})
    frame = GaloisFrame(g, frozenset({0, 1}), 0, PP5)
    datum = GRootDatum(2, {0: identity_matrix(2), 1: [[-1, 0], [0, -1]]}, roots, g)
    orbs = classify_orbits(datum, frame)
    assert len(orbs) == 3 and all(o.degree == 2 for o in orbs)
    # the long-diagonal pair is span-closed on its own: put it at 1/3
    depths = {o.orbit_id: (1, 3) if o.representative == (-1, -1) else (1, 1) for o in orbs}
    filt = howe_filtration(datum, orbs, depths, (1, 1))
    assert [len(lv) for lv in filtration_levels(filt)] == [0, 2, 6]
    rg = root_gamma_abs(filt, PP5)
    assert rg.monomial == exp_q(Fraction(16, 3), PP5)


def test_conductor_additivity_over_orbits():
    """The orbitwise conductor product equals the closed form in the breaks."""
    rng = random.Random(91)
    for _ in range(50):
        scen = generate_scenario(rng)
        rg = root_gamma_abs(scen.filtration, scen.pp)
        assert rg.monomial == exp_q(closed_root_exponent(scen), scen.pp), scen.name


def test_galois_side_closed_form():
    """galois_side = exp_q((dim G + rank M)/2 + break term)
    * |M_Frob| / (|component group| * |S(F_q)|)."""
    scens = [load_scenario(os.path.join(SCEN_DIR, name))
             for name in sorted(os.listdir(SCEN_DIR)) if name.endswith(".json")]
    rng = random.Random(97)
    scens += [generate_scenario(rng) for _ in range(120)]
    assert len(scens) == 126
    for scen in scens:
        torus = scen.torus
        gal = galois_side(scen.datum, scen.frame, scen.filtration, torus)
        expo = Fraction(scen.datum.rank + torus.rank_m, 2) + closed_root_exponent(scen)
        assert gal.monomial == exp_q(expo, scen.pp), scen.name
        prefactor = Fraction(torus.m_frob_coinvariants,
                             torus.cochar_full_coinvariants * torus.special_fiber_order)
        assert gal.prefactor == (prefactor.numerator, prefactor.denominator), scen.name


def test_component_group_examples():
    frame, datum, _ = a1(True)
    assert torus_lattice_data(datum, frame).cochar_full_coinvariants == 2
    g = FiniteGroup.cyclic(4)
    from fdc.zlattice import identity_matrix, mat_mul
    rot = [[0, -1], [1, 0]]
    action = {0: identity_matrix(2)}
    cur = identity_matrix(2)
    for k in range(1, 4):
        cur = mat_mul(rot, cur)
        action[k] = cur
    frame = GaloisFrame(g, frozenset({0}), 1, PP3)
    datum = GRootDatum(2, action, frozenset({(1, 0), (0, 1), (-1, 0), (0, -1)}), g)
    assert torus_lattice_data(datum, frame).cochar_full_coinvariants == 2
    # non-elliptic: trivial action cannot even build a datum against the frame
    with pytest.raises(ValueError):
        GRootDatum(1, {0: [[1]], 1: [[1]], 2: [[1]], 3: [[1]]}, frozenset({(1,), (-1,)}), g)


def test_galois_side_examples():
    frame, datum, orbs = a1(False)
    filt = howe_filtration(datum, orbs, {orbs[0].orbit_id: NONPOSITIVE}, (0, 1))
    gal = galois_side(datum, frame, filt, torus_lattice_data(datum, frame))
    assert gal.prefactor == (1, 4)
    assert gal.monomial == exp_q(2, PP3)
    assert gal.monomial.scale(*gal.prefactor) == qmon(PP3, Fraction(9, 4))

    frame, datum, orbs = a1(True, PP5)
    filt = howe_filtration(datum, orbs, {orbs[0].orbit_id: (1, 2)}, (1, 2))
    gal = galois_side(datum, frame, filt, torus_lattice_data(datum, frame))
    assert gal.toral.monomial == exp_q(Fraction(1, 2), PP5)
    assert gal.root.monomial == exp_q(Fraction(3, 2), PP5)
    assert gal.monomial == exp_q(2, PP5) and gal.prefactor == (1, 2)


# -- L-factor inductivity on finite monomial models ------------------------------


def _induced_rep_matrices(group, stab, chi, n_zeta):
    """Monomial matrices of the induced representation of chi from the
    stabilizer, on the right coset space, over Q(zeta)."""
    coset_key = group.coset_keys(frozenset(stab))
    keys = [g for g in group.elements if coset_key[g] == g]
    reps = {k: k for k in keys}
    idx = {k: i for i, k in enumerate(keys)}

    mats = {}
    for g in group.elements:
        m = [[Cyc.zero(n_zeta) for _ in keys] for _ in keys]
        for k in keys:
            # column for the basis vector at coset k: g moves it to coset k*g^-1?
            # With right cosets and functions f(xg), induce on the left:
            # rho(g) e_{Sx} = chi(h) e_{S x g^{-1}}-style; use x -> xg^-1.
            target = coset_key[group.mul(reps[k], group.inv(g))]
            h = group.mul(group.mul(reps[target], g), group.inv(reps[k]))
            # reps[target] * g = h' * reps[k] with h' in stab
            hh = group.mul(group.mul(reps[target], g), group.inv(reps[k]))
            assert hh in stab
            m[idx[k]][idx[target]] = Cyc.root_of_unity(n_zeta, chi[hh])
        mats[g] = m
    return mats, keys


def test_l_inductivity_finite_models():
    """Invariants of the induced representation behave like the inducing
    character's L-data: ramified characters kill the invariants; unramified
    ones leave an inertia-fixed space on which Frobenius acts with
    characteristic polynomial 1 - c T^f, f the residue degree."""
    from fdc.chi_data import character_group

    cases = []
    # Z/4 frame acting by -1 on A1 roots, both inertia choices
    g4 = FiniteGroup.cyclic(4)
    cases.append((g4, frozenset({0, 2}), frozenset({0, 2}), 1))       # I = <s^2>
    cases.append((g4, frozenset({0, 1, 2, 3}), frozenset({0, 2}), 1))  # I = all
    # S3 with I = A3, stabilizer of a root of order 2
    s3, _ = FiniteGroup.from_permutations([[1, 2, 0], [1, 0, 2]])
    rot = next(h for h in s3.elements if s3.element_order(h) == 3)
    refl = next(h for h in s3.elements if s3.element_order(h) == 2)
    a3 = s3.subgroup_generated([rot])
    cases.append((s3, a3, s3.subgroup_generated([refl]), refl))

    checked = 0
    for group, inertia, stab, _frob_hint in cases:
        # residue degree of the model extension
        e = len(inertia) // len(inertia & stab)
        f = (group.order // len(stab)) // e
        for numerators in character_group(group, stab):
            chi = {h: Fraction(k, group.order) for h, k in numerators.items()}
            n_zeta = 1
            for v in chi.values():
                n_zeta = n_zeta * v.denominator // _gcd(n_zeta, v.denominator)
            n_zeta = max(n_zeta, 1)
            mats, keys = _induced_rep_matrices(group, stab, chi, n_zeta)
            dim = len(keys)
            # averaging projector over inertia
            proj = [[Cyc.zero(n_zeta) for _ in range(dim)] for _ in range(dim)]
            for i_elem in inertia:
                m = mats[i_elem]
                for r in range(dim):
                    for c in range(dim):
                        proj[r][c] = proj[r][c] + m[r][c]
            inv_card = Fraction(1, len(inertia))
            proj = [[x.scale(inv_card) for x in row] for row in proj]
            basis = column_space_basis(proj)
            ramified = any(chi[h] != 0 for h in (inertia & stab))
            if ramified:
                assert not basis, "ramified character left inertia invariants"
            else:
                assert len(basis) == f
                # Frobenius acts on the invariants; its f-th power returns
                # each basis line scaled by a root of unity (Euler factor in T^f)
                frob = next(h for h in group.elements
                            if len(group.subgroup_generated(sorted(inertia) + [h]))
                            == group.order)
                fm = mats[frob]
                cols = [[sum_cyc([fm[r][c] * b[c] for c in range(dim)], n_zeta)
                         for r in range(dim)] for b in basis]
                coords = [solve_in_basis(basis, col) for col in cols]
                a_mat = [[coords[j][i] for j in range(f)] for i in range(f)]
                poly = _det_one_minus_t(a_mat, n_zeta)
                # poly lives in degree multiples of f: 1 - c T^f
                for k in range(1, len(poly)):
                    if k != f:
                        assert poly[k].is_zero(), (k, poly)
                c = poly[f].scale(Fraction(-1))
                assert not c.is_zero()
                assert (c * c.conjugate()) == Cyc.one(n_zeta)
            checked += 1
    assert checked >= 6


def sum_cyc(values, n):
    acc = Cyc.zero(n)
    for v in values:
        acc = acc + v
    return acc


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _det_one_minus_t(a, n):
    """det(I - T A) as a list of Cyc coefficients in T, by permanent-free
    cofactor expansion (sizes here are at most 4)."""
    dim = len(a)
    # represent polynomial matrices: entry = list of Cyc coeffs
    one = Cyc.one(n)
    entries = [[[one if i == j else Cyc.zero(n),
                 a[i][j].scale(Fraction(-1))] for j in range(dim)] for i in range(dim)]

    def poly_mul(p, q):
        out = [Cyc.zero(n) for _ in range(len(p) + len(q) - 1)]
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] = out[i + j] + x * y
        return out

    def poly_add(p, q):
        m = max(len(p), len(q))
        p = p + [Cyc.zero(n)] * (m - len(p))
        q = q + [Cyc.zero(n)] * (m - len(q))
        return [x + y for x, y in zip(p, q)]

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        out = [Cyc.zero(n)]
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = poly_mul(entries[rows[0]][c], minor)
            if k % 2:
                term = [x.scale(Fraction(-1)) for x in term]
            out = poly_add(out, term)
        return out

    return det(list(range(dim)), list(range(dim)))
