"""Character data on finite Weil models and the associated torus cocycle.

Characters live on stabilizer subgroups of the frame group and take values
in Q/Z (written additively); base change to a subgroup H is literal
restriction.  By Lagrange every value lies in (1/n)Z/Z for n = |G|, so a
value k/n is stored as its numerator k in [0, n), added and negated mod n.
A family of such characters indexed by the roots is a valid datum when it
inverts under negation and transforms by conjugation under the group.
:func:`condition_failures` is the one check of these two conditions:
loading and :meth:`ChiData.from_representatives` call it.  Every function
here that reads the Galois orbits of roots takes them from its caller, as
:func:`~fdc.galois_roots.classify_orbits` gave them when the scenario was
loaded or the generator's template derived them, so the orbits of one
scenario are classified once in every subcommand.  The restriction
of a valid datum to H is valid on H without a further check: restriction
keeps homomorphisms, Stab(-a) = Stab(a), and s (Stab(a) n H) s^-1 =
Stab(sa) n H for s in H.

The cocycle attached to a datum and a family of auxiliary choices (orbit
representatives, coset sections) is evaluated additively in the rational
character space modulo the lattice, as numerators mod n.  The base-change
theorem says the cocycle of the restricted datum agrees on the subgroup
with the original cocycle, for compatibly derived choices; the derivation
here follows the constructive recipe (double-coset sections, conjugated
representatives and conjugation-twisted sections) and the verification is
exhaustive over the subgroup.

Derived subgroup sections can take values outside the subgroup: they are
conjugates of top-level section values.  That is harmless because the
characters they feed extend the restricted ones by definition, and the
evaluator only needs the stabilizer to contain the values.

Cosets are never built as sets: each is read from the coset keys of its
subgroup (:meth:`FiniteGroup.coset_keys`, the least element of H g for
every g), and every product from a row of the multiplication table.
Sections are keyed by coset keys; two elements share a right coset
exactly when their keys agree; a double coset K g H is marked by the keys
of its cosets K g h, and a scan of g upwards that marks the double coset
of each unmarked g meets each double coset first at its least element
(a smaller element of it would have marked it before).  The class data
that do not depend on the subgroup are built once per datum
(:class:`BaseChange`) and read for every subgroup.

:func:`verify_base_change` compares the two sides on any subgroup.
``fdc chi-check`` calls it on the proper nontrivial subgroups only: on G
the derived choices are the default ones and both sides evaluate the same
cocycle, and on {0} both sides are chi_a(0) = 0 for every class.  The
report still lists {0} and G, as ok (the proof is in ``cli``).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .galois_roots import (FiniteGroup, GaloisFrame, GRootDatum, OrbitInfo, negation_classes,
                           root_key)
from .qexact import Frozen
from .zlattice import smith_normal_form

Root = Tuple[int, ...]
Character = Dict[int, int]  # element -> numerator k in [0, |G|) of the value k/|G|
DualTorusElement = Tuple[int, ...]  # element of X^* tensor Q/Z, numerators mod |G|


# -- characters of subgroups ---------------------------------------------------


def char_is_homomorphism(group: FiniteGroup, domain: FrozenSet[int],
                         chi: Character) -> bool:
    """Whether chi, with numerators in [0, n) for n the group order, is a
    homomorphism from the subgroup ``domain`` to Q/Z.

    ``domain`` must be a subgroup.  Additivity chi(ab) = chi(a) + chi(b) is
    tested for a in a generating set only, which proves it for every a: the
    a that pass for every b contain 0 once chi(0) = 0, and are closed under
    left multiplication by each generator s that passes, since then
    chi(sab) = chi(s) + chi(ab) = chi(sa) + chi(b).
    """
    if set(chi.keys()) != set(domain):
        return False
    n = group.order
    if any(not (isinstance(v, int) and 0 <= v < n) for v in chi.values()):
        return False
    if chi.get(0) != 0:
        return False
    rows = group.table
    return all((chi[s] + chi[b]) % n == chi[rows[s][b]]
               for s in group.generating_set(domain) for b in domain)


def char_inverse(chi: Character, n: int) -> Character:
    return {g: -v % n for g, v in chi.items()}


def char_conjugate(group: FiniteGroup, chi: Character, sigma: int) -> Character:
    """The character x -> chi(sigma^-1 x sigma) on the conjugated domain."""
    rows, sigma_row, sigma_inv = group.table, group.table[sigma], group.inverse[sigma]
    return {rows[sigma_row[g]][sigma_inv]: v for g, v in chi.items()}


def character_group(group: FiniteGroup, subgroup: FrozenSet[int]) -> List[Character]:
    """All homomorphisms subgroup -> Q/Z, as numerators mod |G|, via Smith form
    of the relation lattice of the abelianization.  Deterministic order."""
    n = group.order
    elems = sorted(subgroup)
    m = len(elems)
    idx = {g: i for i, g in enumerate(elems)}
    rels: List[List[int]] = []
    for a in elems:
        for b in elems:
            row = [0] * m
            row[idx[a]] += 1
            row[idx[b]] += 1
            row[idx[group.mul(a, b)]] -= 1
            rels.append(row)
    form = smith_normal_form(rels)
    diag, v = form.diagonal, form.v
    if len(diag) < m or any(x == 0 for x in diag):
        raise AssertionError("abelianization of a finite group must be finite")
    choices = [range(x) for x in diag]
    out: List[Character] = []
    for combo in itertools.product(*choices):
        y = [c * (n // dd) for c, dd in zip(combo, diag)]
        x = [sum(v[i][j] * y[j] for j in range(m)) % n for i in range(m)]
        out.append({g: x[idx[g]] for g in elems})
    return out


# -- chi data --------------------------------------------------------------------


class ChiData:
    """A character for every root, subject to inversion under negation and
    conjugation equivariance (validated separately); values over n = |G|."""

    __slots__ = ("chars", "n")

    def __init__(self, chars: Dict[Root, Character], n: int) -> None:
        self.chars = chars
        self.n = n

    @staticmethod
    def from_representatives(datum: GRootDatum, frame: GaloisFrame,
                             orbits: Sequence[OrbitInfo],
                             rep_chars: Mapping[Root, Character]) -> "ChiData":
        """Spread representative characters across the root set by negation
        and conjugation under the group generators, then check the result
        with :func:`condition_failures` on ``orbits``, the datum's orbits
        as :func:`~fdc.galois_roots.classify_orbits` gives them; a
        ValueError lists the failures."""
        g = frame.group
        for rep in rep_chars:
            if rep not in datum.roots:
                raise ValueError("%s is not a root" % (rep,))
        chars: Dict[Root, Character] = {rep: dict(chi) for rep, chi in rep_chars.items()}
        gens = g.generating_set(g.elements)
        todo = list(chars)
        while todo:
            root = todo.pop()
            chi = chars[root]
            moves = [(datum.negative(root), char_inverse(chi, g.order))]
            moves += [(datum.act(s, root), char_conjugate(g, chi, s)) for s in gens]
            for target, moved in moves:
                if target not in chars:
                    chars[target] = moved
                    todo.append(target)
        out = ChiData(chars, g.order)
        cond1, cond2 = condition_failures(out, datum, frame, orbits)
        if cond1 or cond2:
            raise ValueError("representatives do not spread to valid chi data: %s"
                             % (tuple(cond1) + tuple(cond2),))
        return out


def condition_failures(chi: ChiData, datum: GRootDatum, frame: GaloisFrame,
                       orbits: Sequence[OrbitInfo]) -> Tuple[List[str], List[str]]:
    """The failures of condition 1 (chi(-a) = chi(a)^-1) and of condition 2
    (each character is a homomorphism on the stabilizer of its root, and
    conjugation by the group moves it to the character of the image root),
    root by root in sorted order.  ``orbits`` are the datum's orbits under
    the frame group, as :func:`~fdc.galois_roots.classify_orbits` gives
    them: the caller's copy, classified when the scenario was loaded.

    Equivariance is tested at every root under the generators of the group:
    if conjugation by s and by t each carry every character to the
    character of the image root, so does conjugation by st, and so every
    element does.  When every root has a character and that test passes,
    the stabilizer homomorphism and condition 1 are tested at one root per
    orbit only, its representative a (its least root), since conjugation
    carries both along the orbit.  For g in G, Stab(ga) = g Stab(a) g^-1,
    and chi_ga is chi_a composed with the isomorphism x -> g^-1 x g from
    Stab(ga) onto Stab(a), so it is a homomorphism on Stab(ga) when chi_a
    is one on Stab(a).  And -ga = g(-a), so chi_-ga = conj_g(chi_-a) =
    conj_g(chi_a^-1) = conj_g(chi_a)^-1 = chi_ga^-1: conjugation moves the
    elements and keeps the values, so it commutes with negating them.

    When any of these tests fails, the failures are listed root by root, as
    a check under every group element lists them, each failing root with
    the first element that moves it wrongly.
    """
    g = frame.group
    if _holds_by_orbit(chi, datum, g, g.generating_set(g.elements), orbits):
        return [], []
    return _failures_under(chi, datum, frame, g.elements)


def _holds_by_orbit(chi: ChiData, datum: GRootDatum, group: FiniteGroup,
                    gens: Sequence[int], orbits: Sequence[OrbitInfo]) -> bool:
    """Whether conditions 1 and 2 hold, read as :func:`condition_failures`
    proves it: a character at every root, equivariance at every root under
    ``gens``, then the homomorphism on its stabilizer and condition 1 at
    the ``representative`` of each of ``orbits``, its least root."""
    chars, srt = chi.chars, datum.sorted_roots
    if any(root not in chars for root in srt):
        return False
    if any(chars[datum.act(s, root)] != char_conjugate(group, chars[root], s)
           for s in gens for root in srt):
        return False
    return all(char_is_homomorphism(group, o.stabilizer, chars[o.representative])
               and chars[datum.negative(o.representative)]
               == char_inverse(chars[o.representative], chi.n)
               for o in orbits)


def _failures_under(chi: ChiData, datum: GRootDatum, frame: GaloisFrame,
                    movers: Sequence[int]) -> Tuple[List[str], List[str]]:
    """Conditions 1 and 2, with equivariance tested under ``movers`` only."""
    g = frame.group
    srt = datum.sorted_roots
    cond1: List[str] = []
    cond2: List[str] = []
    for root, neg in zip(srt, datum.neg):
        if root not in chi.chars:
            cond2.append("missing character at %s" % (root,))
            continue
        if not char_is_homomorphism(g, datum.stabilizer(root), chi.chars[root]):
            cond2.append("character at %s is not a stabilizer homomorphism" % (root,))
            continue
        if chi.chars.get(srt[neg]) != char_inverse(chi.chars[root], chi.n):
            cond1.append("chi(-a) != chi(a)^-1 at %s" % (root,))
        for s in movers:
            target = datum.act(s, root)
            if chi.chars.get(target) != char_conjugate(g, chi.chars[root], s):
                cond2.append("equivariance fails from %s under %d" % (root, s))
                break
    return cond1, cond2


# -- sections and the cocycle ----------------------------------------------------


class SectionChoices:
    """Auxiliary choices for the cocycle: one representative per class of
    roots modulo the group and negation, a section of the plus-minus
    stabilizer cosets, and a section of the stabilizer cosets inside the
    plus-minus stabilizer.  Sections are keyed by the minimal element of
    the coset.  Section values normally lie in the evaluation subgroup;
    derived subgroup sections may take ambient values (see module notes).
    """

    __slots__ = ("reps", "u", "v")

    def __init__(self, reps: Dict[str, Root], u: Dict[str, Dict[int, int]],
                 v: Dict[str, Dict[int, int]]) -> None:
        self.reps = reps
        self.u = u
        self.v = v


def default_choices(datum: GRootDatum, frame: GaloisFrame,
                    orbits: Sequence[OrbitInfo]) -> SectionChoices:
    """Minimal-element representatives and sections: each class of roots
    under the group and negation (:func:`negation_classes` of ``orbits``,
    the datum's orbits as loading classified them) is named by its least
    root, its representative, and every coset key maps to itself."""
    g = frame.group
    reps: Dict[str, Root] = {}
    u: Dict[str, Dict[int, int]] = {}
    v: Dict[str, Dict[int, int]] = {}
    for o, *_ in negation_classes(orbits):
        class_id, rep = o.orbit_id, o.representative
        reps[class_id] = rep
        stab_pm = datum.pm_stabilizer(rep)
        pm_key = g.coset_keys(stab_pm)
        key = g.coset_keys(o.stabilizer)
        u[class_id] = {x: x for x in g.elements if pm_key[x] == x}
        v[class_id] = {y: y for y in sorted(stab_pm) if key[y] == y}
    return SectionChoices(reps, u, v)


class ClassData(Frozen):
    """What the cocycle reads of one class on an evaluation subgroup K,
    besides its outer section: the representative a, the coset keys of
    Stab+-(a) n K, and the inner values.  The inner value at k in
    Stab+-(a) n K is chi_a(v0 k v_k^-1), for v the inner section, v0 its
    value at the identity coset (key 0) and v_k its value on the coset of
    Stab(a) n K through k; it is None off Stab+-(a) n K.  On K = G none of
    this depends on a subgroup, so :class:`BaseChange` builds it once for
    every subgroup to read."""

    __slots__ = ("class_id", "alpha", "pm_key", "inner")

    def __init__(self, class_id: str, alpha: Root, pm_key: Sequence[int],
                 inner: Sequence[Optional[int]]) -> None:
        object.__setattr__(self, "class_id", class_id)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "pm_key", pm_key)
        object.__setattr__(self, "inner", inner)


def class_data(chi: ChiData, choices: SectionChoices, datum: GRootDatum, frame: GaloisFrame,
               within: Optional[FrozenSet[int]] = None) -> List[ClassData]:
    """The :class:`ClassData` of every class of ``choices`` on the
    evaluation subgroup ``within`` (the whole group by default), in class
    order.  Each inner relation v0 k v_k^-1 must land in Stab(a), where the
    character is defined; a KeyError names the first k in increasing order
    where it does not."""
    g = frame.group
    rows, inverse = g.table, g.inverse
    out = []
    for class_id, alpha in sorted(choices.reps.items()):
        stab, stab_pm = datum.stabilizer(alpha), datum.pm_stabilizer(alpha)
        if within is not None:
            stab, stab_pm = stab & within, stab_pm & within
        key = g.coset_keys(stab)
        v = choices.v[class_id]
        v0_row, character = rows[v[0]], chi.chars[alpha]
        inner: List[Optional[int]] = [None] * g.order
        for k in sorted(stab_pm):
            h = rows[v0_row[k]][inverse[v[key[k]]]]
            if h not in character:
                raise KeyError("element %d is outside the stabilizer of %s" % (h, alpha))
            inner[k] = character[h]
        out.append(ClassData(class_id, alpha, g.coset_keys(stab_pm), inner))
    return out


def r_chi_values(chi: ChiData, choices: SectionChoices, ws: Iterable[int],
                 datum: GRootDatum, frame: GaloisFrame,
                 within: Optional[FrozenSet[int]] = None) -> Dict[int, DualTorusElement]:
    """The cocycle value at each w in ws, in X^* tensor Q/Z as numerators mod n.

    For each class with representative a and each coset x of the plus-minus
    stabilizer, the section relations produce first an element of that
    stabilizer, then (through the inner section at the identity coset) an
    element of the stabilizer of a itself; the character value there is
    accumulated with multiplicity the root obtained by moving a with the
    inverse of the outer section value (see :func:`cocycle`).
    """
    ws = list(ws)
    if not (frozenset(frame.group.elements) if within is None else within).issuperset(ws):
        raise ValueError("w must lie in the evaluation subgroup")
    return cocycle(class_data(chi, choices, datum, frame, within), choices.u, ws,
                   datum, frame.group)


def cocycle(classes: Sequence[ClassData], u_sections: Mapping[str, Mapping[int, int]],
            ws: Iterable[int], datum: GRootDatum,
            group: FiniteGroup) -> Dict[int, DualTorusElement]:
    """The cocycle of :func:`r_chi_values` on ``classes`` with the outer
    sections ``u_sections``, every product read from a table row.  At w,
    for the coset keyed x with section value u_x, k = u_x w u_(x w)^-1
    lies in Stab+-(a) (x w standing for the key of its coset), and the
    inner value at k times u_x^-1 a is added.  A section value outside its
    coset puts k outside Stab+-(a); that raises ``KeyError``, a fault of
    the construction rather than of the input."""
    rows, inverse, n = group.table, group.inverse, group.order
    acc = {w: [0] * datum.rank for w in ws}
    for cls in classes:
        u = u_sections[cls.class_id]
        u_inv = {x: inverse[ux] for x, ux in u.items()}
        pm_key, inner = cls.pm_key, cls.inner
        for x_key, ux in u.items():
            ux_row, x_row = rows[ux], rows[x_key]
            beta = datum.act(u_inv[x_key], cls.alpha)
            for w, total in acc.items():
                k = rows[ux_row[w]][u_inv[pm_key[x_row[w]]]]
                val = inner[k]
                if val:
                    for i, b in enumerate(beta):
                        total[i] += val * b
                elif val is None:
                    raise KeyError("outer section: u_x w u_(x w)^-1 = %d is outside "
                                     "the plus-minus stabilizer of %s" % (k, cls.alpha))
    return {w: tuple([x % n for x in total]) for w, total in acc.items()}


# -- compatible choices and the base-change verification -----------------------


class CompatiblePair(Frozen):
    __slots__ = ("top", "sub")

    def __init__(self, top: SectionChoices, sub: SectionChoices) -> None:
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "sub", sub)


def compatible_choices(choices_k: SectionChoices, subgroup: FrozenSet[int],
                       datum: GRootDatum, frame: GaloisFrame) -> CompatiblePair:
    """Derive choices on a subgroup H from top-level ones exactly as in the
    constructive base-change proof, and rebuild the top outer section from
    them so that the two cocycles agree on the nose.

    For each top class with representative a: double cosets of the
    plus-minus stabilizer against H get minimal-element sections c(z); each
    z contributes a class of H with representative a moved by c(z) inverse,
    a free minimal-element outer section inside H, and an inner section
    obtained from the top one by conjugating through c(z).  The top outer
    section is then defined on the coset of c(z) times an outer section
    value of H.  Nothing here is re-checked, since each fact holds by
    construction: the classes of H are distinct (c^-1 a = +-c'^-1 a puts c'
    in Stab+-(a) c, and distinct classes of a are disjoint); no top coset
    gets two values (Stab+-(c^-1 a) n H = c^-1 Stab+-(a) c n H, so distinct
    cosets u give distinct Stab+-(a) c u); and every top coset gets one,
    since the double cosets partition G.

    Everything is read from the coset keys of P = Stab+-(a) and S = Stab(a).
    Scanning c upwards, the double coset P c H is marked by the keys of its
    cosets P c h (h in H), which are the keys the rebuilt top section gets,
    so an unmarked c is the least element of a new double coset.  Since
    Stab+-(c^-1 a) = c^-1 P c, elements h, h' of H share a coset of
    Stab+-(c^-1 a) n H exactly when P c h = P c h': walking h up through H
    meets each such coset first at its least element, at a new key of P.
    The h with P c h = P c form Stab+-(c^-1 a) n H, and their cosets of
    Stab(c^-1 a) n H are told apart by the keys of S c h.  The inner
    section at such a least element y is c^-1 v c, for v the top section on
    S c y c^-1 (c y c^-1 lies in P): v lies in that coset, so c^-1 v c lies
    in Stab(c^-1 a) y, the coset it stands for; c v c^-1 would be the same
    element only when c^2 commutes with v.
    """
    g = frame.group
    rows, inverse = g.table, g.inverse
    elems = sorted(subgroup)
    top = SectionChoices(choices_k.reps, {}, choices_k.v)
    sub_reps: Dict[str, Root] = {}
    sub_u: Dict[str, Dict[int, int]] = {}
    sub_v: Dict[str, Dict[int, int]] = {}
    for class_id, alpha in sorted(choices_k.reps.items()):
        stab_key = g.coset_keys(datum.stabilizer(alpha))
        pm_key = g.coset_keys(datum.pm_stabilizer(alpha))
        v_top = choices_k.v[class_id]
        new_u: Dict[int, int] = {}
        for c in g.elements:
            if pm_key[c] in new_u:
                continue  # in a double coset met before
            c_row, cinv = rows[c], inverse[c]
            alpha_z = datum.act(cinv, alpha)
            sub_class_id = root_key(alpha_z)
            sub_reps[sub_class_id] = alpha_z
            uz: Dict[int, int] = {}
            vz: Dict[int, int] = {}
            inner_keys: set = set()
            for h in elems:
                x_elem = c_row[h]
                x_key = pm_key[x_elem]
                if x_key not in new_u:
                    # a new coset of Stab+-(alpha_z) n H: the free outer
                    # section inside the subgroup, and the top section on
                    # the coset of c times its value
                    uz[h] = h
                    new_u[x_key] = x_elem
                if x_key == pm_key[c] and stab_key[x_elem] not in inner_keys:
                    # a new coset of Stab(alpha_z) n H in Stab+-(alpha_z) n H;
                    # the value may leave the subgroup (it lies in the
                    # ambient stabilizer of alpha_z)
                    inner_keys.add(stab_key[x_elem])
                    upstairs = stab_key[rows[x_elem][cinv]]
                    vz[h] = rows[rows[cinv][v_top[upstairs]]][c]
            sub_u[sub_class_id] = uz
            sub_v[sub_class_id] = vz
        top.u[class_id] = new_u
    return CompatiblePair(top=top, sub=SectionChoices(sub_reps, sub_u, sub_v))


class BaseChangeReport(Frozen):
    __slots__ = ("ok", "witness", "lhs", "rhs")

    def __init__(self, ok: bool, witness: Optional[int], lhs: Optional[DualTorusElement],
                 rhs: Optional[DualTorusElement]) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class BaseChange:
    """A chi datum with the default choices, ready for base change to any
    subgroup.  The :class:`ClassData` of the top classes on the whole group
    do not depend on the subgroup, so they are built once here: the coset
    keys of Stab(a) and Stab+-(a), and the inner values read from v0, the
    inner section and the character at a.  The classes come from
    ``orbits``, the datum's orbits as loading classified them
    (:func:`default_choices`); nothing here classifies them again."""

    def __init__(self, chi: ChiData, datum: GRootDatum, frame: GaloisFrame,
                 orbits: Sequence[OrbitInfo]):
        self.chi, self.datum, self.frame = chi, datum, frame
        self.choices = default_choices(datum, frame, orbits)
        self.top = class_data(chi, self.choices, datum, frame)


def verify_base_change(base: BaseChange, subgroup: FrozenSet[int]) -> BaseChangeReport:
    """Exhaustive check that the cocycle of the restricted datum matches the
    restriction of the cocycle, over every element of the subgroup, for
    compatibly derived choices.  The two sides are evaluated separately,
    each from its own sections: the top side over its rebuilt outer section,
    the restricted side over the derived classes of the subgroup."""
    chi, datum, frame = base.chi, base.datum, base.frame
    pair = compatible_choices(base.choices, subgroup, datum, frame)
    lhs = cocycle(base.top, pair.top.u, subgroup, datum, frame.group)
    rhs = r_chi_values(chi, pair.sub, subgroup, datum, frame, within=subgroup)
    if lhs == rhs:
        return BaseChangeReport(True, None, None, None)
    w = min(w for w in subgroup if lhs[w] != rhs[w])
    return BaseChangeReport(False, w, lhs[w], rhs[w])
