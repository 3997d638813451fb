"""Brute-force cosets for the tests: every coset, double coset and
minimal-element section is enumerated as a frozenset of products, with no
coset keys and no table rows.

This is a test-only oracle, deliberately independent of the package code.
"""

from __future__ import annotations

import os
from typing import Dict, FrozenSet, List

from fdc.galois_roots import FiniteGroup, root_key
from fdc.scenario import load_scenario
from fdc.zlattice import mat_vec

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")


def bundled_scenarios():
    return [load_scenario(os.path.join(SCEN_DIR, name)) for name in sorted(os.listdir(SCEN_DIR))]


def oracle_groups() -> List[FiniteGroup]:
    """The bundled frames' groups, Z/12, S_3, D_4 and Z/2 x Z/6."""
    groups = [scen.frame.group for scen in bundled_scenarios()]
    groups.append(FiniteGroup.cyclic(12))
    groups.append(FiniteGroup.from_permutations([[1, 2, 0], [1, 0, 2]])[0])
    d4, _ = FiniteGroup.from_permutations([[1, 2, 3, 0], [3, 2, 1, 0]])
    assert d4.order == 8 and any(d4.mul(a, b) != d4.mul(b, a) for a in d4.elements
                                 for b in d4.elements)
    groups.append(d4)
    groups.append(FiniteGroup([[(i // 6 + j // 6) % 2 * 6 + (i + j) % 6 for j in range(12)]
                               for i in range(12)]))
    return groups


def brute_subgroups(g: FiniteGroup) -> List[FrozenSet[int]]:
    """Every subset that contains 0 and is closed under multiplication (in
    a finite group, exactly the subgroups), by size, then elements."""
    out = []
    for mask in range(2 ** (g.order - 1)):
        subset = frozenset([0] + [x for x in range(1, g.order) if mask >> (x - 1) & 1])
        if all(g.mul(a, b) in subset for a in subset for b in subset):
            out.append(subset)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def right_cosets(g: FiniteGroup, h: FrozenSet[int], ambient) -> List[FrozenSet[int]]:
    """The right cosets H a for a in ``ambient``, by their least element."""
    return sorted({frozenset(g.mul(x, a) for x in h) for a in ambient}, key=min)


def double_cosets(g: FiniteGroup, k: FrozenSet[int], h: FrozenSet[int]) -> List[FrozenSet[int]]:
    """The double cosets K a H, by their least element."""
    return sorted({frozenset(g.mul(g.mul(x, a), y) for x in k for y in h)
                   for a in g.elements}, key=min)


def minimal_section(cosets) -> Dict[int, int]:
    """The section taking each coset, keyed by its least element, to it."""
    return {min(c): min(c) for c in cosets}


def _stabilizers(datum, root, within):
    """(Stab(root), Stab+-(root)) inside ``within``, from the matrices."""
    neg = tuple(-x for x in root)
    images = {s: mat_vec(datum.action[s], root) for s in within}
    return (frozenset(s for s in within if images[s] == root),
            frozenset(s for s in within if images[s] in (root, neg)))


def default_sections(datum, group: FiniteGroup):
    """(u, v) of the minimal-element choices, keyed by the representatives'
    root keys: cosets of Stab+-(a) in G and of Stab(a) in Stab+-(a)."""
    u, v = {}, {}
    seen: set = set()
    for root in sorted(datum.roots):
        if root in seen:
            continue
        members = {mat_vec(datum.action[s], r) for s in group.elements
                   for r in (root, tuple(-x for x in root))}
        seen |= members
        rep = min(members)
        stab, stab_pm = _stabilizers(datum, rep, group.elements)
        u[root_key(rep)] = minimal_section(right_cosets(group, stab_pm, group.elements))
        v[root_key(rep)] = minimal_section(right_cosets(group, stab, stab_pm))
    return u, v


def compatible_sections(reps, v_top, subgroup: FrozenSet[int], datum, group: FiniteGroup):
    """(rebuilt top u, subgroup reps, subgroup u, subgroup v) of the
    constructive base change: one subgroup class per double coset
    Stab+-(a) c H at its least element c, with representative c^-1 a, a
    minimal-element outer section in H, the inner section c^-1 v(S c y c^-1) c
    at each least element y of a coset of Stab(c^-1 a) n H in Stab+-(c^-1 a) n H,
    and the top section c u on the coset of c u for each outer value u."""
    top_u, sub_reps, sub_u, sub_v = {}, {}, {}, {}
    for class_id, alpha in sorted(reps.items()):
        stab, stab_pm = _stabilizers(datum, alpha, group.elements)
        new_u = {}
        for dc in double_cosets(group, stab_pm, subgroup):
            c = min(dc)
            cinv = group.inv(c)
            alpha_z = mat_vec(datum.action[cinv], alpha)
            sub_id = root_key(alpha_z)
            sub_reps[sub_id] = alpha_z
            stab_z, stab_pm_z = _stabilizers(datum, alpha_z, subgroup)
            uz = minimal_section(right_cosets(group, stab_pm_z, subgroup))
            vz = {}
            for coset in right_cosets(group, stab_z, stab_pm_z):
                y = min(coset)
                upstairs = min(frozenset(group.mul(s, group.mul(group.mul(c, y), cinv))
                                         for s in stab))
                vz[y] = group.mul(group.mul(cinv, v_top[class_id][upstairs]), c)
            sub_u[sub_id], sub_v[sub_id] = uz, vz
            for value in uz.values():
                x = group.mul(c, value)
                new_u[min(group.mul(s, x) for s in stab_pm)] = x
        top_u[class_id] = new_u
    return top_u, sub_reps, sub_u, sub_v
