"""Character data on finite Weil models and the associated torus cocycle.

Characters live on stabilizer subgroups of the frame group and take values
in Q/Z (written additively); base change to a subgroup H is literal
restriction.  By Lagrange every value lies in (1/n)Z/Z for n = |G|, so a
value k/n is stored as its numerator k in [0, n), added and negated mod n.
A family of such characters indexed by the roots is a valid datum when it
inverts under negation and transforms by conjugation under the group.
:func:`condition_failures` is the one check of these two conditions:
loading and :meth:`ChiData.from_representatives` call it.  The restriction
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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .galois_roots import FiniteGroup, GaloisFrame, GRootDatum, root_key
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
    return all((chi[s] + chi[b]) % n == chi[group.mul(s, b)]
               for s in group.generating_set(domain) for b in domain)


def char_inverse(chi: Character, n: int) -> Character:
    return {g: -v % n for g, v in chi.items()}


def char_conjugate(group: FiniteGroup, chi: Character, sigma: int) -> Character:
    """The character x -> chi(sigma^-1 x sigma) on the conjugated domain."""
    return {group.conj(sigma, g): v for g, v in chi.items()}


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


@dataclass
class ChiData:
    """A character for every root, subject to inversion under negation and
    conjugation equivariance (validated separately); values over n = |G|."""

    chars: Dict[Root, Character]
    n: int

    def value(self, root: Root, g: int) -> int:
        chi = self.chars[root]
        if g not in chi:
            raise KeyError("element %d is outside the stabilizer of %s" % (g, root))
        return chi[g]

    @staticmethod
    def from_representatives(datum: GRootDatum, frame: GaloisFrame,
                             rep_chars: Mapping[Root, Character]) -> "ChiData":
        """Spread representative characters across the root set by negation
        and conjugation under the group generators, then check the result
        with :func:`condition_failures`; a ValueError lists the failures."""
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
            moves = [(tuple(-x for x in root), char_inverse(chi, g.order))]
            moves += [(datum.act(s, root), char_conjugate(g, chi, s)) for s in gens]
            for target, moved in moves:
                if target not in chars:
                    chars[target] = moved
                    todo.append(target)
        out = ChiData(chars, g.order)
        cond1, cond2 = condition_failures(out, datum, frame)
        if cond1 or cond2:
            raise ValueError("representatives do not spread to valid chi data: %s"
                             % (tuple(cond1) + tuple(cond2),))
        return out


def pm_classes(datum: GRootDatum, frame: GaloisFrame) -> List[Tuple[str, Root, FrozenSet[Root]]]:
    """Classes of roots under the frame group together with negation,
    each as (canonical id, canonical representative, member set)."""
    seen: set = set()
    out = []
    for root in sorted(datum.roots):
        if root in seen:
            continue
        members = set()
        for s in frame.group.elements:
            img = datum.act(s, root)
            members.add(img)
            members.add(tuple(-x for x in img))
        rep = min(members)
        out.append((root_key(rep), rep, frozenset(members)))
        seen |= members
    return sorted(out, key=lambda t: t[1])


def _stab(datum: GRootDatum, root: Root,
          within: Optional[FrozenSet[int]] = None) -> FrozenSet[int]:
    """{s in within : s.root = root}, the whole group by default."""
    stab = datum.stabilizer(root)
    return stab if within is None else stab & within


def _stab_pm(datum: GRootDatum, root: Root,
             within: Optional[FrozenSet[int]] = None) -> FrozenSet[int]:
    """{s in within : s.root = +-root}, the whole group by default."""
    stab = datum.pm_stabilizer(root)
    return stab if within is None else stab & within


def condition_failures(chi: ChiData, datum: GRootDatum,
                       frame: GaloisFrame) -> Tuple[List[str], List[str]]:
    """The failures of condition 1 (chi(-a) = chi(a)^-1) and of condition 2
    (each character is a homomorphism on the stabilizer of its root, and
    conjugation by the group moves it to the character of the image root),
    root by root in sorted order.

    Equivariance is tested under the generators of the group: if
    conjugation by s and by t each carry every character to the character
    of the image root, so does conjugation by st.  When a check fails, the
    failures are listed as a check under every group element lists them:
    each failing root with the first element that moves it wrongly.
    """
    g = frame.group
    cond1, cond2 = _failures_under(chi, datum, frame, g.generating_set(g.elements))
    if cond2:
        cond1, cond2 = _failures_under(chi, datum, frame, g.elements)
    return cond1, cond2


def _failures_under(chi: ChiData, datum: GRootDatum, frame: GaloisFrame,
                    movers: Sequence[int]) -> Tuple[List[str], List[str]]:
    """Conditions 1 and 2, with equivariance tested under ``movers`` only."""
    g = frame.group
    cond1: List[str] = []
    cond2: List[str] = []
    for root in sorted(datum.roots):
        if root not in chi.chars:
            cond2.append("missing character at %s" % (root,))
            continue
        if not char_is_homomorphism(g, datum.stabilizer(root), chi.chars[root]):
            cond2.append("character at %s is not a stabilizer homomorphism" % (root,))
            continue
        neg = tuple(-x for x in root)
        if chi.chars.get(neg) != char_inverse(chi.chars[root], chi.n):
            cond1.append("chi(-a) != chi(a)^-1 at %s" % (root,))
        for s in movers:
            target = datum.act(s, root)
            if chi.chars.get(target) != char_conjugate(g, chi.chars[root], s):
                cond2.append("equivariance fails from %s under %d" % (root, s))
                break
    return cond1, cond2


# -- sections and the cocycle ----------------------------------------------------


@dataclass
class SectionChoices:
    """Auxiliary choices for the cocycle: one representative per class of
    roots modulo the group and negation, a section of the plus-minus
    stabilizer cosets, and a section of the stabilizer cosets inside the
    plus-minus stabilizer.  Sections are keyed by the minimal element of
    the coset.  Section values normally lie in the evaluation subgroup;
    derived subgroup sections may take ambient values (see module notes).
    """

    reps: Dict[str, Root]
    u: Dict[str, Dict[int, int]]
    v: Dict[str, Dict[int, int]]


def default_choices(datum: GRootDatum, frame: GaloisFrame) -> SectionChoices:
    """Minimal-element representatives and sections."""
    g = frame.group
    reps: Dict[str, Root] = {}
    u: Dict[str, Dict[int, int]] = {}
    v: Dict[str, Dict[int, int]] = {}
    for class_id, rep, _members in pm_classes(datum, frame):
        reps[class_id] = rep
        stab_pm = datum.pm_stabilizer(rep)
        stab = datum.stabilizer(rep)
        u[class_id] = {min(c): min(c) for c in g.right_cosets(stab_pm)}
        v[class_id] = {min(c): min(c) for c in g.right_cosets(stab, stab_pm)}
    return SectionChoices(reps, u, v)


def r_chi_values(chi: ChiData, choices: SectionChoices, ws: Iterable[int],
                 datum: GRootDatum, frame: GaloisFrame,
                 within: Optional[FrozenSet[int]] = None) -> Dict[int, DualTorusElement]:
    """The cocycle value at each w in ws, in X^* tensor Q/Z as numerators mod n.

    For each class with representative a and each coset x of the plus-minus
    stabilizer, the section relations produce first an element of that
    stabilizer, then (through the inner section at the identity coset) an
    element of the stabilizer of a itself; the character value there is
    accumulated with multiplicity the root obtained by moving a with the
    inverse of the outer section value.  The stabilizers and coset keys of
    a class do not depend on w, so they are computed once for all of ws.
    """
    g = frame.group
    ambient = g.elements if within is None else within
    acc = {w: [0] * datum.rank for w in ws}
    if any(w not in ambient for w in acc):
        raise ValueError("w must lie in the evaluation subgroup")
    for class_id, alpha in sorted(choices.reps.items()):
        pm_key = g.coset_keys(_stab_pm(datum, alpha, within))
        key = g.coset_keys(_stab(datum, alpha, within))
        u = choices.u[class_id]
        v = choices.v[class_id]
        v0_key = key[0]
        v0 = v[v0_key]
        for x_key in sorted(u.keys()):
            ux = u[x_key]
            beta = datum.act(g.inv(ux), alpha)
            for w, total in acc.items():
                k = g.mul(g.mul(ux, w), g.inv(u[pm_key[g.mul(x_key, w)]]))
                # inner relation at the identity coset of the stabilizer
                h = g.mul(g.mul(v0, k), g.inv(v[key[g.mul(v0_key, k)]]))
                val = chi.value(alpha, h)
                if val != 0:
                    for i in range(datum.rank):
                        total[i] += val * beta[i]
    return {w: tuple(x % chi.n for x in total) for w, total in acc.items()}


# -- compatible choices and the base-change verification -----------------------


@dataclass(frozen=True)
class CompatiblePair:
    top: SectionChoices
    sub: SectionChoices


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
    """
    g = frame.group
    top = SectionChoices(dict(choices_k.reps), {}, {cid: dict(vv) for cid, vv in choices_k.v.items()})
    sub_reps: Dict[str, Root] = {}
    sub_u: Dict[str, Dict[int, int]] = {}
    sub_v: Dict[str, Dict[int, int]] = {}
    for class_id, alpha in sorted(choices_k.reps.items()):
        stab_pm = datum.pm_stabilizer(alpha)
        stab_key = g.coset_keys(datum.stabilizer(alpha))
        stab_pm_key = g.coset_keys(stab_pm)
        v_top = choices_k.v[class_id]
        new_u: Dict[int, int] = {}
        for dc in g.double_cosets(stab_pm, subgroup):
            c = min(dc)
            cinv = g.inv(c)
            alpha_z = datum.act(cinv, alpha)
            sub_class_id = root_key(alpha_z)
            sub_reps[sub_class_id] = alpha_z
            stab_pm_sub = _stab_pm(datum, alpha_z, subgroup)
            stab_sub = _stab(datum, alpha_z, subgroup)
            # free outer section inside the subgroup
            uz = {min(cs): min(cs) for cs in g.right_cosets(stab_pm_sub, subgroup)}
            sub_u[sub_class_id] = uz
            # inner section by conjugation through c; values may leave the
            # subgroup (they live in the ambient stabilizer of alpha_z)
            vz: Dict[int, int] = {}
            for cs in g.right_cosets(stab_sub, stab_pm_sub):
                y_key = min(cs)
                upstairs = stab_key[g.mul(g.mul(c, y_key), cinv)]
                vz[y_key] = g.mul(g.mul(cinv, v_top[upstairs]), c)
            sub_v[sub_class_id] = vz
            # rebuild the top outer section on the cosets meeting this double coset
            for uz_val in uz.values():
                x_elem = g.mul(c, uz_val)
                new_u[stab_pm_key[x_elem]] = x_elem
        top.u[class_id] = new_u
    return CompatiblePair(top=top, sub=SectionChoices(sub_reps, sub_u, sub_v))


@dataclass(frozen=True)
class BaseChangeReport:
    ok: bool
    witness: Optional[int]
    lhs: Optional[DualTorusElement]
    rhs: Optional[DualTorusElement]


def verify_base_change(chi: ChiData, subgroup: FrozenSet[int], datum: GRootDatum,
                       frame: GaloisFrame,
                       choices: Optional[SectionChoices] = None) -> BaseChangeReport:
    """Exhaustive check that the cocycle of the restricted datum matches the
    restriction of the cocycle, over every element of the subgroup, for
    compatibly derived choices."""
    if choices is None:
        choices = default_choices(datum, frame)
    pair = compatible_choices(choices, subgroup, datum, frame)
    lhs = r_chi_values(chi, pair.top, subgroup, datum, frame)
    rhs = r_chi_values(chi, pair.sub, subgroup, datum, frame, within=subgroup)
    for w in sorted(subgroup):
        if lhs[w] != rhs[w]:
            return BaseChangeReport(False, w, lhs[w], rhs[w])
    return BaseChangeReport(True, None, None, None)
