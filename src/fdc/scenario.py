"""Scenario files: loading, validation, serialization, and generation.

A scenario bundles a frame, a root datum, jump offsets, per-orbit depths
with the total depth, optional character data, and the depth-zero mode.
Everything on disk is exact: rationals are "num/den" strings and group
structure is explicit (multiplication table, or permutation generators
with the documented breadth-first element numbering).

Validation is collective: all module validators run and the failures come
back together, each naming the offending component, rather than stopping
at the first problem.

The generator builds valid scenarios by construction: it assigns depth
layers orbit-pair by orbit-pair, draws breaks inside the valuation
lattices the depth checks require, derives negation-symmetric offsets,
and retries the rare draws that violate the rational-closure condition.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .chi_data import ChiData, character_group, char_conjugate, char_inverse, condition_failures
from .formal_degree import DepthZeroData, YuShape
from .galois_roots import (
    DepthValue,
    FiniteGroup,
    GaloisFrame,
    GRootDatum,
    HoweFiltration,
    NONPOSITIVE,
    OrbitInfo,
    TorusLatticeData,
    classify_orbits,
    howe_filtration,
    parse_root_key,
    root_key,
    torus_lattice_data,
    validate_depth_lattice,
)
from .mp_filtration import JumpAssignment
from .qexact import PrimePower, fraction_str, int_str


class ScenarioError(ValueError):
    """Validation failure with structured provenance."""

    def __init__(self, failures: Sequence[Tuple[str, str, str]]):
        self.failures = list(failures)
        lines = ["%s.%s: %s" % f for f in self.failures]
        super().__init__("scenario validation failed:\n  " + "\n  ".join(lines))


def parse_ratio(text: Union[str, int]) -> Tuple[int, int]:
    """A rational field as integers (a, b) with b > 0, not reduced: a
    "num/den" string, a bare integer string, or a JSON integer."""
    if isinstance(text, int) and not isinstance(text, bool):
        return text, 1
    if not isinstance(text, str):
        raise ValueError("rational must be a string, got %r" % (text,))
    parts = text.strip().split("/")
    if len(parts) == 1:
        return int(parts[0]), 1
    if len(parts) != 2:
        raise ValueError("malformed rational %r" % text)
    num, den = int(parts[0]), int(parts[1])
    if den == 0:
        raise ValueError("malformed rational %r (zero denominator)" % text)
    return (num, den) if den > 0 else (-num, -den)


def parse_fraction(text: Union[str, int]) -> Fraction:
    return Fraction(*parse_ratio(text))


def parse_int(value: object, what: str) -> int:
    """An integer field of a scenario document.  ``int`` would truncate a
    float and read a boolean as 0 or 1, so both are refused; a decimal
    string is read as its integer."""
    if isinstance(value, (bool, float)):
        raise TypeError("%s must be an integer, got %s" % (what, json.dumps(value)))
    return int(value)


def parse_int_array(value: object, what: str, entry: str) -> List[int]:
    """An array of integer fields, each read as by :func:`parse_int`.  The
    array must be a JSON array: a string would otherwise be read digit by
    digit."""
    if not isinstance(value, list):
        raise TypeError("%s must be a JSON array, got %s" % (what, _json_kind(value)))
    if {bool, float} & set(map(type, value)):
        for x in value:
            parse_int(x, entry)
    return list(map(int, value))


def parse_int_rows(rows: Sequence[object], what: str, entry: str) -> List[List[int]]:
    """An array of integer arrays (an action matrix, the roots, the
    permutation generators), each row read as by :func:`parse_int_array`
    into a new list, never the document's own.  One sweep over the types of
    the rows and one over the types of their entries admit the common case,
    lists of plain ints; anything else goes row by row through
    :func:`parse_int_array`, which words every refusal and reads decimal
    strings, so the first refusal is the one a row-by-row read meets."""
    if set(map(type, rows)) <= {list} and set(map(type, chain.from_iterable(rows))) <= {int}:
        return list(map(list, rows))
    return [parse_int_array(row, what, entry) for row in rows]


_encode_str = json.encoder.encode_basestring_ascii


def json_text(obj: object) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for the
    shapes fdc writes: every indented JSON document of the package comes
    from here.

    The standard encoder drops to its pure-Python path whenever an indent
    is set; this one dispatches on exact type instead.  Strings go through
    json's C string encoder and integers are written exactly at any size
    (:func:`int_str`); lists, and dicts with ``str`` keys in sorted order,
    take the same separators and two-space indentation; ``bool`` and
    ``None`` are the literals json writes for them, and ``float`` uses
    json's own encoding.  Anything else, a tuple or a non-``str`` key
    included, raises ``TypeError``.
    """
    out: List[str] = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(obj: object, nl: str, out: List[str]) -> None:
    """Append the text of obj to out; nl is a newline and the indentation
    of the line obj starts on."""
    t = type(obj)
    if t is str:
        out.append(_encode_str(obj))
    elif t is int:
        out.append(int_str(obj))
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError("JSON object key %r is not a str" % (key,))
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write_json(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif t is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif t is float:
        out.append(json.dumps(obj))
    else:
        raise TypeError("%s is not written as JSON" % t.__name__)


@dataclass
class Scenario:
    """A fully validated tame elliptic scenario."""

    name: str
    pp: PrimePower
    frame: GaloisFrame
    datum: GRootDatum
    orbits: Tuple[OrbitInfo, ...]
    jumps: JumpAssignment
    theta_depths: Dict[str, DepthValue]
    theta_total_depth: Fraction
    filtration: HoweFiltration
    depth_zero: DepthZeroData
    chi: Optional[ChiData] = None
    options: Dict[str, object] = field(default_factory=dict)
    group_encoding: Optional[Dict[str, object]] = None  # preserved for round-trips

    def shape(self) -> YuShape:
        return YuShape(self.filtration, self.orbits, self.jumps,
                       self.datum.rank, self.pp)

    @property
    def unverified_assumptions(self) -> Tuple[str, ...]:
        """Conditions the combinatorial model cannot check and records as
        metadata: with the character abstracted to depth data, the
        regularity constraints on its depth-zero restriction (trivial
        stabilizer under the rational Weyl action, inertia-stable positive
        system) are assumed, not verified."""
        flags = []
        if self.depth_zero.regular:
            flags.append("depth-zero regularity of the character is assumed "
                         "(not derivable from depth data)")
        if self.filtration.levels[0]:
            flags.append("inertia-stable positivity on the zeroth level is assumed")
        return tuple(flags)

    @cached_property
    def torus(self) -> TorusLatticeData:
        """The torus lattice data, computed on first read and kept; both
        sides of the comparison read this one copy.  Only verify, degree
        and gamma read it; loading does not, since every order in it is
        finite once the datum is elliptic (see :func:`torus_lattice_data`)."""
        return torus_lattice_data(self.datum, self.frame)

    def with_q(self, pp: PrimePower) -> "Scenario":
        """The same combinatorial scenario at a different residue size (a new
        object, so its torus data are computed afresh for the new q)."""
        frame = GaloisFrame(self.frame.group, self.frame.inertia,
                            self.frame.frobenius, pp)
        return Scenario(self.name, pp, frame, self.datum, self.orbits, self.jumps,
                        dict(self.theta_depths), self.theta_total_depth,
                        self.filtration, self.depth_zero, self.chi,
                        dict(self.options), self.group_encoding)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        group: Dict[str, object]
        if self.group_encoding is not None:
            group = dict(self.group_encoding)
        else:
            group = {"order": self.frame.group.order,
                     "mult_table": [list(r) for r in self.frame.group.table]}
        doc: Dict[str, object] = {
            "name": self.name,
            "q": {"p": self.pp.p, "a": self.pp.a},
            "group": group,
            "inertia": sorted(self.frame.inertia),
            "frobenius": self.frame.frobenius,
            "lattice_rank": self.datum.rank,
            "action": {str(g): [list(row) for row in m]
                       for g, m in sorted(self.datum.action.items())},
            "roots": [list(r) for r in sorted(self.datum.roots)],
            "jump_offsets": {oid: fraction_str(off)
                             for oid, off in sorted(self.jumps.offsets.items())},
            "theta_depths": {oid: (val if isinstance(val, str) else fraction_str(val))
                             for oid, val in sorted(self.theta_depths.items())},
            "theta_total_depth": fraction_str(self.theta_total_depth),
        }
        if self.depth_zero.regular:
            doc["depth_zero"] = "regular"
        else:
            doc["depth_zero"] = {"dim_rho": fraction_str(self.depth_zero.dim_rho),
                                 "stab_index": self.depth_zero.stab_index}
        if self.chi is not None:
            doc["chi"] = {root_key(root): {str(g): fraction_str(Fraction(k, self.chi.n))
                                           for g, k in sorted(c.items())}
                          for root, c in sorted(self.chi.chars.items())}
        if self.options:
            doc["options"] = dict(self.options)
        return doc

    def to_json(self) -> str:
        return json_text(self.to_json_dict()) + "\n"


def _build_group(spec: Mapping[str, object], max_order: int,
                 fail: List[Tuple[str, str, str]]) -> Optional[FiniteGroup]:
    """The frame group, or None after recording its failure.  A group from
    ``perm_gens`` is closed only up to ``max_order`` elements, the number of
    entries of the action map: a larger group can never pass the datum
    check, and its multiplication table would have |G|^2 entries."""
    key = next((k for k in ("mult_table", "perm_gens") if k in spec), None)
    if key is None:
        fail.append(("galois_roots", "group", "need mult_table or perm_gens"))
        return None
    try:
        if key == "mult_table":
            g = FiniteGroup(spec[key])
        else:
            gens = parse_int_rows(spec[key], "permutation", "permutation entry")
            g, _elems = FiniteGroup.from_permutations(gens, max_order)
    except (ValueError, TypeError, IndexError) as e:
        fail.append(("galois_roots", "group." + key, str(e)))
        return None
    try:
        if "order" in spec and parse_int(spec["order"], "order") != g.order:
            fail.append(("galois_roots", "group.order", "declared order disagrees"))
    except (ValueError, TypeError) as e:
        fail.append(("galois_roots", "group.order", str(e)))
    return g


# The JSON kind each container field must have when present, with the module
# whose validation reads it.  Scalars need no entry: their conversions
# already fail with a ValueError or TypeError that names the field.
_FIELD_KINDS: Tuple[Tuple[str, str, type], ...] = (
    ("qexact", "q", dict),
    ("galois_roots", "group", dict),
    ("galois_roots", "inertia", list),
    ("galois_roots", "action", dict),
    ("galois_roots", "roots", list),
    ("mp_filtration", "jump_offsets", dict),
    ("galois_roots", "theta_depths", dict),
    ("chi_data", "chi", dict),
    ("cli", "options", dict),
)


def _json_kind(value: object) -> str:
    if isinstance(value, dict):
        return "object"
    if isinstance(value, list):
        return "array"
    if isinstance(value, str):
        return "string"
    if value is None:
        return "null"
    return "boolean" if isinstance(value, bool) else "number"


def _shape_failures(doc: object) -> List[Tuple[str, str, str]]:
    """The container fields whose JSON kind the semantic checks cannot read."""
    if not isinstance(doc, dict):
        return [("cli", "document", "must be a JSON object, got %s" % _json_kind(doc))]
    fields = [(module, key, doc[key], kind) for module, key, kind in _FIELD_KINDS
              if key in doc]
    if isinstance(doc.get("group"), dict):
        fields += [("galois_roots", "group.%s" % key, doc["group"][key], list)
                   for key in ("mult_table", "perm_gens") if key in doc["group"]]
    if isinstance(doc.get("chi"), dict):
        fields += [("chi_data", "chi.%s" % rk, table, dict)
                   for rk, table in doc["chi"].items()]
    return [(module, key, "must be a JSON %s, got %s"
             % (_json_kind(kind()), _json_kind(value)))
            for module, key, value, kind in fields if not isinstance(value, kind)]


def _repeated_key(table: Mapping[str, object], parse: Callable[[str], object],
                  keys: str, noun: str) -> ValueError:
    """The refusal of a table whose keys parse to fewer values than it has
    keys, naming the first two keys that name one value (as "1" and "01"
    do): the later entry must not silently replace the earlier one."""
    seen: Dict[object, str] = {}
    for key in table:
        value = parse(key)
        if value in seen:
            return ValueError("%s %s and %s both name %s %s"
                              % (keys, json.dumps(seen[value]), json.dumps(key), noun, value))
        seen[value] = key


def scenario_from_dict(doc: Mapping[str, object]) -> Scenario:
    """Parse and fully validate one scenario document.

    Raises :class:`ScenarioError` carrying every failure with its module
    and field provenance.  Container fields of the wrong JSON kind are
    refused together before any semantic check.
    """
    failures = _shape_failures(doc)
    if failures:
        raise ScenarioError(failures)

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        failures.append(("cli", "name", "missing or empty"))
        name = "<unnamed>"

    pp = None
    try:
        qspec = doc["q"]
        pp = PrimePower(parse_int(qspec["p"], "p"), parse_int(qspec["a"], "a"))
    except KeyError:
        failures.append(("qexact", "q", "missing p or a"))
    except (ValueError, TypeError) as e:
        failures.append(("qexact", "q", str(e)))

    group = None
    if "group" in doc:
        group = _build_group(doc["group"], len(doc.get("action", {})), failures)
    else:
        failures.append(("galois_roots", "group", "missing"))
    if group is None or pp is None:
        raise ScenarioError(failures)

    frame = None
    try:
        inertia = frozenset(parse_int(x, "inertia element") for x in doc.get("inertia", []))
        frobenius = parse_int(doc.get("frobenius", 0), "frobenius")
        frame = GaloisFrame(group, inertia, frobenius, pp)
    except (ValueError, TypeError) as e:
        failures.append(("galois_roots", "frame", str(e)))

    datum = None
    try:
        rank = parse_int(doc["lattice_rank"], "lattice_rank")
        action = {}
        for g, m in doc["action"].items():
            if not isinstance(m, list):
                raise TypeError("action matrix must be a JSON array, got %s" % _json_kind(m))
            action[int(g)] = parse_int_rows(m, "action row", "action entry")
        if len(action) < len(doc["action"]):
            raise _repeated_key(doc["action"], int, "action keys", "element")
        roots = frozenset(map(tuple, parse_int_rows(doc["roots"], "root", "root coordinate")))
        datum = GRootDatum(rank, action, roots)
        if frame is not None:
            datum.check_against_frame(frame)
    except KeyError as e:
        failures.append(("galois_roots", "datum", "missing field %s" % e))
        datum = None
    except (ValueError, TypeError) as e:
        failures.append(("galois_roots", "GRootDatum", str(e)))
        datum = None
    if frame is None or datum is None:
        raise ScenarioError(failures)

    orbits = tuple(classify_orbits(datum, frame))

    jumps = None
    try:
        raw_offsets = {oid: parse_fraction(v)
                       for oid, v in doc.get("jump_offsets", {}).items()}
        jumps = JumpAssignment.build(raw_offsets, orbits)
    except (ValueError, TypeError) as e:
        failures.append(("mp_filtration", "jump_offsets", str(e)))

    depths: Dict[str, DepthValue] = {}
    total = Fraction(0)
    filtration = None
    try:
        for oid, v in doc.get("theta_depths", {}).items():
            depths[oid] = NONPOSITIVE if v == NONPOSITIVE else parse_fraction(v)
        total = parse_fraction(doc.get("theta_total_depth", "0"))
        filtration = howe_filtration(datum, orbits, depths, total)
    except (ValueError, TypeError) as e:
        failures.append(("galois_roots", "theta_depths", str(e)))

    if filtration is not None:
        checks = validate_depth_lattice(filtration, orbits)
        for c in checks:
            if not c.ok:
                failures.append(("galois_roots", "theta_depths",
                                 "break %s at orbit %s violates the depth lattice "
                                 "(value group: %s, half lattice: %s)"
                                 % (c.break_value, c.orbit_id,
                                    c.in_value_group, c.in_half_value_group)))

    dz_spec = doc.get("depth_zero", "regular")
    depth_zero = DepthZeroData.regular_marker()
    if dz_spec != "regular":
        try:
            depth_zero = DepthZeroData.opaque(parse_fraction(dz_spec["dim_rho"]),
                                              parse_int(dz_spec["stab_index"], "stab_index"))
        except (KeyError, ValueError, TypeError) as e:
            failures.append(("formal_degree", "depth_zero", str(e)))

    chi = None
    if "chi" in doc:
        try:
            chi = ChiData({}, frame.group.order)
            for rk, table in doc["chi"].items():
                root = parse_root_key(rk)
                if root not in datum.roots:
                    raise ValueError("character at %s is not a root" % (root,))
                char = chi.chars[root] = {}
                for g, v in table.items():
                    # a/b mod 1 is (a mod b)/b for b > 0, stored as the numerator
                    # (a mod b) n / b over n; a Fraction where that is not an
                    # integer, which no character value is
                    a, b = parse_ratio(v)
                    k = a % b * chi.n
                    char[int(g)] = k // b if k % b == 0 else Fraction(k, b)
                if len(char) < len(table):
                    raise _repeated_key(table, int, "character at %s: keys" % (root,), "element")
            if len(chi.chars) < len(doc["chi"]):
                raise _repeated_key(doc["chi"], parse_root_key, "chi keys", "root")
            cond1, cond2 = condition_failures(chi, datum, frame)
            for msg in cond1 + cond2:
                failures.append(("chi_data", "chi", msg))
        except (ValueError, TypeError) as e:
            failures.append(("chi_data", "chi", str(e)))

    if failures:
        raise ScenarioError(failures)

    return Scenario(
        name=name, pp=pp, frame=frame, datum=datum, orbits=orbits, jumps=jumps,
        theta_depths=depths, theta_total_depth=total, filtration=filtration,
        depth_zero=depth_zero, chi=chi, options=dict(doc.get("options", {})),
        group_encoding=dict(doc["group"]) if "perm_gens" in doc["group"] else None,
    )


class _RepeatedKey(ValueError):
    pass


def _object_without_repeats(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    """A JSON object as a dict, refusing a key that appears twice: plain
    ``json.load`` would keep the later value and drop the earlier one."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _value in pairs:
            if key in seen:
                raise _RepeatedKey("key %s appears twice in one object" % json.dumps(key))
            seen.add(key)
    return obj


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_object_without_repeats)
        except (json.JSONDecodeError, _RepeatedKey) as e:
            raise ScenarioError([("cli", "file", "parse error: %s" % e)])
    return scenario_from_dict(doc)


# -- random generation ------------------------------------------------------------


def _rot4() -> List[List[int]]:
    return [[0, -1], [1, 0]]


def _rot3() -> List[List[int]]:
    return [[0, -1], [1, -1]]


def _rot6() -> List[List[int]]:
    return [[1, -1], [1, 0]]


def _cyclic_action(n: int, mat: List[List[int]], rank: int) -> Dict[int, List[List[int]]]:
    """Action of Z/n generated by one matrix (whose order divides n)."""
    from .zlattice import identity_matrix, mat_mul
    out = {0: identity_matrix(rank)}
    cur = identity_matrix(rank)
    for k in range(1, n):
        cur = mat_mul(mat, cur)
        out[k] = cur
    return out


def _orbit_closure(action: Mapping[int, List[List[int]]], seeds: Sequence[Tuple[int, ...]]) -> frozenset:
    from .zlattice import mat_vec
    roots = set()
    for s in seeds:
        for m in action.values():
            v = mat_vec(m, s)
            roots.add(v)
            roots.add(tuple(-x for x in v))
    return frozenset(roots)


@dataclass(frozen=True)
class _Template:
    key: str
    group: FiniteGroup
    action: Mapping[int, List[List[int]]]
    rank: int
    seed_choices: Tuple[Tuple[Tuple[int, ...], ...], ...]
    inertia_choices: Tuple[Tuple[int, ...], ...]
    primes: Tuple[int, ...]


def _templates() -> List[_Template]:
    from .zlattice import identity_matrix, mat_mul
    out: List[_Template] = []

    g2 = FiniteGroup.cyclic(2)
    out.append(_Template(
        "a1", g2, {0: [[1]], 1: [[-1]]}, 1,
        (((2,),), ((1,),)),
        ((0,), (0, 1)),
        (3, 5, 7)))

    g4 = FiniteGroup.cyclic(4)
    out.append(_Template(
        "a1_z4", g4, _cyclic_action(4, [[-1]], 1), 1,
        (((1,),), ((2,),)),
        ((0,), (0, 2), (0, 1, 2, 3)),
        (3, 5, 7)))

    out.append(_Template(
        "b2_rot4", g4, _cyclic_action(4, _rot4(), 2), 2,
        (((1, 0),), ((1, 1),), ((1, 0), (1, 1))),
        ((0,), (0, 2), (0, 1, 2, 3)),
        (3, 5, 7)))

    g3 = FiniteGroup.cyclic(3)
    out.append(_Template(
        "a2_rot3", g3, _cyclic_action(3, _rot3(), 2), 2,
        (((1, 0),),),
        ((0,), (0, 1, 2)),
        (5, 7)))

    g6 = FiniteGroup.cyclic(6)
    out.append(_Template(
        "a2_rot6", g6, _cyclic_action(6, _rot6(), 2), 2,
        (((1, 0),),),
        ((0,), (0, 3), (0, 2, 4)),
        (5, 7)))

    gens_perm = [[1, 2, 0], [1, 0, 2]]
    gens_mat = [_rot3(), [[0, 1], [1, 0]]]
    s3, perms = FiniteGroup.from_permutations(gens_perm)
    gen_index = [perms.index(tuple(gp)) for gp in gens_perm]
    # Elements come in discovery order, so each element's matrix is known
    # before it is multiplied by a generator.
    mats = {0: identity_matrix(2)}
    for cur in s3.elements:
        for gi, gm in zip(gen_index, gens_mat):
            mats.setdefault(s3.mul(gi, cur), mat_mul(gm, mats[cur]))
    rot = next(h for h in s3.elements if s3.element_order(h) == 3)
    a3 = tuple(sorted(s3.subgroup_generated([rot])))
    out.append(_Template(
        "s3_a2", s3, mats, 2,
        (((1, 0),),),
        (a3, tuple(range(6))),
        (5, 7)))

    kl = FiniteGroup([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], check=False)
    kl_action = {0: identity_matrix(2), 1: [[-1, 0], [0, 1]],
                 2: [[1, 0], [0, -1]], 3: [[-1, 0], [0, -1]]}
    out.append(_Template(
        "klein", kl, kl_action, 2,
        (((1, 1),), ((1, 0), (0, 1)), ((1, 1), (1, 0), (0, 1))),
        ((0, 1), (0, 2), (0, 3)),
        (3, 5, 7)))

    base = [[-1, 0, 0], [0, 0, -1], [0, 1, 0]]
    out.append(_Template(
        "mixed_rank3_z4", g4, _cyclic_action(4, base, 3), 3,
        (((2, 0, 0), (0, 1, 0)), ((2, 0, 0), (0, 1, 1)), ((0, 1, 0), (0, 1, 1))),
        ((0,), (0, 2)),
        (3, 5, 7)))

    g2r2 = FiniteGroup.cyclic(2)
    out.append(_Template(
        "rank2_minus", g2r2, {0: identity_matrix(2), 1: [[-1, 0], [0, -1]]}, 2,
        (((1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1), (1, -1))),
        ((0,), (0, 1)),
        (3, 5, 7)))
    return out


_TEMPLATE_CACHE: Optional[List[_Template]] = None


def generator_templates() -> List[_Template]:
    global _TEMPLATE_CACHE
    if _TEMPLATE_CACHE is None:
        _TEMPLATE_CACHE = _templates()
    return _TEMPLATE_CACHE


def _random_chi(rng: random.Random, datum: GRootDatum, frame: GaloisFrame) -> Optional[ChiData]:
    """A random valid character family, or None when a draw cannot satisfy
    the symmetric-class constraint (rare; caller treats None as 'omit')."""
    from .chi_data import pm_classes
    g = frame.group
    rep_chars = {}
    for _cid, rep, members in pm_classes(datum, frame):
        chars = character_group(g, datum.stabilizer(rep))
        neg = tuple(-x for x in rep)
        negators = [s for s in g.elements if datum.act(s, rep) == neg]
        if negators:
            sigma = negators[0]
            ok = [c for c in chars
                  if char_conjugate(g, c, g.inv(sigma)) == char_inverse(c, g.order)]
            if not ok:
                return None
            rep_chars[rep] = rng.choice(ok)
        else:
            rep_chars[rep] = rng.choice(chars)
    try:
        return ChiData.from_representatives(datum, frame, rep_chars)
    except ValueError:
        return None


def generate_scenario(rng: random.Random) -> Scenario:
    """One random valid scenario (rank <= 3, |R| <= 12, |group| <= 8, e <= 4)."""
    templates = generator_templates()
    for _attempt in range(200):
        tpl = rng.choice(templates)
        p = rng.choice(tpl.primes)
        a = rng.choice((1, 1, 1, 2))
        pp = PrimePower(p, a)
        inertia = frozenset(rng.choice(tpl.inertia_choices))
        if len(inertia) % p == 0:
            continue
        group = tpl.group
        frob_candidates = group.quotient_generators(group.elements, inertia)
        if not frob_candidates:
            continue
        frobenius = rng.choice(frob_candidates)
        try:
            frame = GaloisFrame(group, inertia, frobenius, pp)
        except ValueError:
            continue
        seeds = rng.choice(tpl.seed_choices)
        roots = _orbit_closure(tpl.action, seeds)
        if len(roots) > 12:
            continue
        try:
            datum = GRootDatum(tpl.rank, tpl.action, roots)
            datum.check_against_frame(frame)
        except ValueError:
            continue
        orbits = classify_orbits(datum, frame)
        if any(o.e > 4 for o in orbits):
            continue
        scen = _assign_depths_and_offsets(rng, tpl.key, pp, frame, datum, orbits)
        if scen is not None:
            return scen
    raise RuntimeError("generator failed to produce a valid scenario")


def _assign_depths_and_offsets(rng: random.Random, key: str, pp: PrimePower,
                               frame: GaloisFrame, datum: GRootDatum,
                               orbits: Sequence[OrbitInfo]) -> Optional[Scenario]:
    # negation-paired orbit classes
    pairs: List[Tuple[str, ...]] = []
    seen = set()
    for o in orbits:
        if o.orbit_id in seen:
            continue
        seen.add(o.orbit_id)
        if o.negation_id != o.orbit_id:
            seen.add(o.negation_id)
            pairs.append((o.orbit_id, o.negation_id))
        else:
            pairs.append((o.orbit_id,))
    by_id = {o.orbit_id: o for o in orbits}

    for _try in range(40):
        d = rng.choice((0, 1, 1, 2))
        d = min(d, len(pairs))
        layers: Dict[str, int] = {}
        if d == 0:
            for pr in pairs:
                for oid in pr:
                    layers[oid] = 0
        else:
            for pr in pairs:
                lay = rng.randint(0, d)
                for oid in pr:
                    layers[oid] = lay
            used = sorted({v for v in layers.values() if v > 0})
            remap = {v: i + 1 for i, v in enumerate(used)}
            layers = {oid: (remap[v] if v > 0 else 0) for oid, v in layers.items()}
            d = len(used)
        # draw strictly increasing breaks inside the valuation lattices
        breaks: List[Fraction] = []
        ok = True
        prev = Fraction(0)
        for i in range(1, d + 1):
            es = [by_id[oid].e for oid, lay in layers.items() if lay == i]
            unit = Fraction(1, math.gcd(*es))
            lo = int(prev / unit) + 1
            hi = int(Fraction(3) / unit)
            if lo > hi:
                ok = False
                break
            k = rng.randint(lo, min(hi, lo + 5))
            val = k * unit
            breaks.append(val)
            prev = val
        if not ok:
            continue
        total = breaks[-1] if breaks else Fraction(0)
        if rng.random() < 0.3:
            total += Fraction(rng.randint(1, 4), 2)
        depths: Dict[str, DepthValue] = {}
        for oid, lay in layers.items():
            depths[oid] = NONPOSITIVE if lay == 0 else breaks[lay - 1]
        offsets: Dict[str, Fraction] = {}
        for pr in pairs:
            o = by_id[pr[0]]
            if len(pr) == 1:
                offsets[pr[0]] = rng.choice((Fraction(0), Fraction(1, 2 * o.e)))
            else:
                t = Fraction(rng.randint(0, 2 * o.e - 1), 2 * o.e)
                offsets[pr[0]] = t
                offsets[pr[1]] = -t
        # Keep the depth-zero root count even (a symmetric odd-degree orbit
        # jumping at 0 matches no honest reductive quotient): flip one such
        # offset off the origin if needed.
        parity = 0
        for pr in pairs:
            if layers[pr[0]] != 0:
                continue
            for oid in pr:
                o = by_id[oid]
                if (offsets[oid] * o.e).denominator == 1:
                    parity += o.f
        if parity % 2:
            for pr in pairs:
                o = by_id[pr[0]]
                if (len(pr) == 1 and layers[pr[0]] == 0 and o.f % 2
                        and (offsets[pr[0]] * o.e).denominator == 1):
                    offsets[pr[0]] = Fraction(1, 2 * o.e)
                    break
        try:
            filtration = howe_filtration(datum, orbits, depths, total)
        except ValueError:
            continue
        checks = validate_depth_lattice(filtration, orbits)
        if any(not c.ok for c in checks):
            continue
        jumps = JumpAssignment.build(offsets, orbits)
        chi = _random_chi(rng, datum, frame) if rng.random() < 0.5 else None
        name = "gen_%s_%04d" % (key, rng.randint(0, 9999))
        return Scenario(
            name=name, pp=pp, frame=frame, datum=datum, orbits=tuple(orbits),
            jumps=jumps, theta_depths=depths, theta_total_depth=total,
            filtration=filtration, depth_zero=DepthZeroData.regular_marker(),
            chi=chi, options={},
        )
    return None
