"""Scenario files: loading, validation, serialization, and generation.

A scenario bundles a frame, a root datum, jump offsets, per-orbit depths
with the total depth, optional character data, and the depth-zero mode.
Everything on disk is exact: rationals are "num/den" strings and group
structure is explicit (multiplication table, or permutation generators
with the documented breadth-first element numbering).

Loading reads the document against one table of its fields
(:data:`FIELDS`: each field's path, module, kind and presence), with one
reader per kind, and refuses every missing or unreadable field together.
Validation is then collective too: the module validators run and their
failures come back together, each naming the offending component.

The generator builds valid scenarios by construction: it assigns depth
layers orbit-pair by orbit-pair, draws breaks inside the valuation
lattices the depth checks require, derives negation-symmetric offsets,
and retries the rare draws that violate the rational-closure condition.
Each template keeps the frames, checked root data and χ menus its draws
derive, so a repeated choice is validated once (:class:`_Template`).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from .chi_data import (Character, ChiData, character_group, char_conjugate, char_inverse,
                       condition_failures)
from .formal_degree import DepthZeroData
from .galois_roots import (
    DepthValue,
    FiniteGroup,
    GaloisFrame,
    GRootDatum,
    HoweFiltration,
    NONPOSITIVE,
    OrbitInfo,
    TorusLatticeData,
    Vector,
    classify_orbits,
    howe_filtration,
    negation_classes,
    off_lattice_breaks,
    root_key,
    torus_lattice_data,
)
from .mp_filtration import JumpAssignment
from .qexact import Frozen, PrimePower, fraction_str, int_str, ratio_str

if TYPE_CHECKING:  # the generator takes its Random from the caller
    import random


class ScenarioError(ValueError):
    """Validation failure with structured provenance."""

    def __init__(self, failures: Sequence[Tuple[str, str, str]]):
        self.failures = list(failures)
        lines = ["%s.%s: %s" % f for f in self.failures]
        super().__init__("scenario validation failed:\n  " + "\n  ".join(lines))


def _must_be(kind: str, value: object) -> ValueError:
    """The refusal of a value not of ``kind``, quoting it by its JSON text,
    or by its JSON kind if it is an object, an array or null."""
    got = {dict: "object", list: "array", type(None): "null"}.get(type(value))
    return ValueError("must be %s, got %s" % (kind, got or json.dumps(value)))


def parse_int(value: object) -> int:
    """A JSON integer, or an integer text: ASCII digits after an optional "-"
    (``int`` alone would also take "+", spaces, underscores and other
    scripts' digits), no longer than the interpreter reads into an ``int``.
    Never a boolean or a float, read as 0, 1 or cut."""
    if type(value) is int:
        return value
    if type(value) is str:
        digits = value[1:] if value[:1] == "-" else value
        if digits.isdigit() and digits.isascii():
            try:
                return int(value)
            except ValueError:  # past the interpreter's digit limit
                pass
    raise _must_be("an integer", value)


def _array(read: Callable[[object], object], value: object, at: str) -> List[object]:
    """A JSON array (a string is refused, not read item by item) read item
    by item into a new list, a refusal led by ``at`` % the item's index."""
    if type(value) is not list:
        raise _must_be("a JSON array", value)
    out = []
    for i, v in enumerate(value):
        try:
            out.append(read(v))
        except ValueError as e:
            raise ValueError("%s %s" % (at % i, e)) from None
    return out


def parse_int_array(value: object) -> List[int]:
    return _array(parse_int, value, "entry %d")


def parse_int_rows(value: object) -> List[List[int]]:
    """A JSON array of integer arrays, as new lists.  Two type sweeps admit
    plain ints; anything else is read row by row."""
    if type(value) is list and set(map(type, value)) <= {list} \
            and set(map(type, chain.from_iterable(value))) <= {int}:
        return list(map(list, value))
    return _array(parse_int_array, value, "row %d")


def parse_ratio(value: object) -> Tuple[int, int]:
    """A rational as integers (a, b) with b > 0, not reduced: a JSON
    integer, or an integer text or two joined by "/", each read by
    :func:`parse_int`'s rule (checked inline: this reads every χ value)."""
    if type(value) is int:
        return value, 1
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        den_digits = den[1:] if den[:1] == "-" else den
        # "1/2/3" fails here: "2/3" is no integer text
        if digits.isdigit() and (den_digits.isdigit() or not slash):
            try:
                a, b = int(num), int(den) if slash else 1
            except ValueError:  # a part past the interpreter's digit limit
                b = 0
            if b:
                return (a, b) if b > 0 else (-a, -b)
    raise _must_be("a rational", value)


def parse_fraction(value: object) -> Fraction:
    return Fraction(*parse_ratio(value))


def parse_root_key(text: str) -> Vector:
    """A root written as its comma-joined coordinates, each an integer text."""
    return tuple(map(parse_int, text.split(",")))


def _read_depth(value: object) -> DepthValue:
    return NONPOSITIVE if value == NONPOSITIVE else parse_fraction(value)


def _checked(kind: str, ok: Callable[[object], bool]) -> Callable[[object], object]:
    """The reader that keeps a value ``ok`` accepts and refuses any other."""
    def read(value: object) -> object:
        if not ok(value):
            raise _must_be(kind, value)
        return value
    return read


# The one reader of each kind (a field with fields of its own is read by those).
_READERS: Dict[str, Callable[[object], object]] = {
    "nonempty string": _checked("a nonempty string", lambda v: type(v) is str and v != ""),
    "integer": parse_int,
    "integer array": parse_int_array,
    "integer table": parse_int_rows,
    "rational": parse_fraction,
    "rational mod 1": parse_ratio,
    "depth": _read_depth,
    "object": _checked("a JSON object", lambda v: type(v) is dict),
    '"regular" or object': _checked('"regular" or a JSON object', lambda v: v == "regular"),
}

# The path components that stand for every key of their object: the key readers.
_KEYS = {"<element>": parse_int, "<root>": parse_root_key, "<orbit>": str}

REQUIRED = "required"

# Every field of a scenario document: its path, the module its refusals
# name, its kind, and REQUIRED, None for an optional field without a
# default, or the document value the loader reads when the field is absent.
FIELDS: Tuple[Tuple[str, str, str, object], ...] = (
    ("name", "cli", "nonempty string", REQUIRED),
    ("q", "qexact", "object", REQUIRED),
    ("q.p", "qexact", "integer", REQUIRED),
    ("q.a", "qexact", "integer", REQUIRED),
    ("group", "galois_roots", "object", REQUIRED),
    ("group.order", "galois_roots", "integer", None),
    ("group.mult_table", "galois_roots", "integer table", None),
    ("group.perm_gens", "galois_roots", "integer table", None),
    ("inertia", "galois_roots", "integer array", REQUIRED),
    ("frobenius", "galois_roots", "integer", 0),
    ("lattice_rank", "galois_roots", "integer", REQUIRED),
    ("action", "galois_roots", "object", REQUIRED),
    ("action.<element>", "galois_roots", "integer table", None),
    ("roots", "galois_roots", "integer table", REQUIRED),
    ("jump_offsets", "mp_filtration", "object", {}),
    ("jump_offsets.<orbit>", "mp_filtration", "rational", None),
    ("theta_depths", "galois_roots", "object", {}),
    ("theta_depths.<orbit>", "galois_roots", "depth", None),
    ("theta_total_depth", "galois_roots", "rational", "0"),
    ("depth_zero", "formal_degree", '"regular" or object', "regular"),
    ("depth_zero.dim_rho", "formal_degree", "rational", REQUIRED),
    ("depth_zero.stab_index", "formal_degree", "integer", REQUIRED),
    ("chi", "chi_data", "object", None),
    ("chi.<root>", "chi_data", "object", None),
    ("chi.<root>.<element>", "chi_data", "rational mod 1", None),
)

# The rows of FIELDS by parent path: (last path component, path, module,
# default, reader, key reader or None).
_ROWS: Dict[str, List[tuple]] = {}
for _path, _module, _kind, _default in FIELDS:
    _parent, _, _name = _path.rpartition(".")
    _ROWS.setdefault(_parent, []).append(
        (_name, _path, _module, _default, _READERS[_kind], _KEYS.get(_name)))

# Each parent path's rows, with the names it declares and the module that
# refuses any other name (cli for the document itself): None for an object
# whose every key its one <...> row reads.
_CHILDREN: Dict[str, Tuple[List[tuple], Optional[FrozenSet[str]], str]] = {
    parent: (rows, None if rows[0][0] in _KEYS else frozenset(row[0] for row in rows),
             next((row[1] for row in FIELDS if row[0] == parent), "cli"))
    for parent, rows in _ROWS.items()}


def _read_fields(node: Dict[str, object], parent: str, where: str,
                 fail: List[Tuple[str, str, str]]) -> Dict[object, object]:
    """The fields under table path ``parent`` of the document object
    ``node`` at ``where`` (its path and a dot), each read by :func:`_read`.
    A missing required field, a key its reader refuses, a key repeating an
    earlier one and a name the table does not declare are recorded in
    ``fail``.  A <...> row, the only one under its parent, reads every key
    of the node."""
    rows, declared, owner = _CHILDREN[parent]
    out: Dict[object, object] = {}
    for name, path, module, default, read, read_key in rows:
        if read_key is None:
            if name in node:
                out[name] = _read(node[name], path, where + name, module, read, fail)
            elif default is REQUIRED:
                fail.append((module, where + name, "missing"))
            elif default is not None:
                out[name] = _read(default, path, where + name, module, read, fail)
            continue
        for raw, value in node.items():
            try:
                key = read_key(raw)
                if key in out:
                    raise ValueError("repeats %s %s" % (name[1:-1], key))
            except ValueError as e:
                fail.append((module, where + raw, "key %s" % e))
                continue
            out[key] = _read(value, path, where + raw, module, read, fail)
    if declared is not None:
        unknown = node.keys() - declared
        if unknown:
            fail += [(owner, where + name, "unknown field") for name in sorted(unknown)]
    return out


def _read(value: object, path: str, here: str, module: str,
          read: Callable[[object], object], fail: List[Tuple[str, str, str]]) -> object:
    """The field at table path ``path`` (``here`` in the document), read field
    by field or by its reader."""
    if type(value) is dict and path in _CHILDREN:
        return _read_fields(value, path, here + ".", fail)
    return _attempt(fail, module, here, read, value)


def _attempt(fail: List[Tuple[str, str, str]], module: str, field: str,
             build: Callable[..., object], *args: object) -> object:
    """``build(*args)``, or None after recording its ValueError in ``fail``."""
    try:
        return build(*args)
    except ValueError as e:
        fail.append((module, field, str(e)))
        return None


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


class Scenario:
    """A fully validated tame elliptic scenario.

    No ``__slots__``: :attr:`torus` caches into the instance ``__dict__``.
    Every break of the filtration lies in the value group of its orbits
    (:func:`off_lattice_breaks` is empty)."""

    def __init__(self, name: str, frame: GaloisFrame, datum: GRootDatum,
                 orbits: Tuple[OrbitInfo, ...], jumps: JumpAssignment,
                 filtration: HoweFiltration, depth_zero: DepthZeroData,
                 chi: Optional[ChiData] = None) -> None:
        self.name = name
        self.frame = frame
        self.datum = datum
        self.orbits = orbits
        self.jumps = jumps
        self.filtration = filtration
        self.depth_zero = depth_zero
        self.chi = chi

    @property
    def pp(self) -> PrimePower:
        """The residue prime power, the frame's."""
        return self.frame.pp

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
        if self.filtration.layers[0]:
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
        try:
            frame = GaloisFrame(self.frame.group, self.frame.inertia,
                                self.frame.frobenius, pp)
        except ValueError as e:  # a wild frame, as loading words it
            raise ScenarioError([("galois_roots", "frame", str(e))])
        return Scenario(self.name, frame, self.datum, self.orbits, self.jumps,
                        self.filtration, self.depth_zero, self.chi)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        """The scenario as a document, its group as its multiplication table
        (``perm_gens`` load to that table, with the same element numbers)."""
        breaks = self.filtration.orbit_breaks()
        doc: Dict[str, object] = {
            "name": self.name,
            "q": {"p": self.pp.p, "a": self.pp.a},
            "group": {"order": self.frame.group.order,
                      "mult_table": [list(r) for r in self.frame.group.table]},
            "inertia": sorted(self.frame.inertia),
            "frobenius": self.frame.frobenius,
            "lattice_rank": self.datum.rank,
            "action": {str(g): [list(row) for row in m]
                       for g, m in sorted(self.datum.action.items())},
            "roots": [list(r) for r in sorted(self.datum.roots)],
            "jump_offsets": {oid: fraction_str(off)
                             for oid, off in sorted(self.jumps.offsets.items())},
            "theta_depths": {o.orbit_id: fraction_str(breaks[o.orbit_id])
                             if o.orbit_id in breaks else NONPOSITIVE for o in self.orbits},
            "theta_total_depth": fraction_str(self.filtration.total),
        }
        if self.depth_zero.regular:
            doc["depth_zero"] = "regular"
        else:
            doc["depth_zero"] = {"dim_rho": fraction_str(self.depth_zero.dim_rho),
                                 "stab_index": self.depth_zero.stab_index}
        if self.chi is not None:
            n = self.chi.n
            doc["chi"] = {root_key(root): {str(g): _mod1_str(k, n) for g, k in sorted(c.items())}
                          for root, c in sorted(self.chi.chars.items())}
        return doc

    def to_json(self) -> str:
        return json_text(self.to_json_dict()) + "\n"


def _mod1_str(k: int, n: int) -> str:
    """``fraction_str(Fraction(k, n))`` for integers 0 <= k < n, from the
    gcd-reduced pair, with no Fraction built."""
    d = math.gcd(k, n)
    return ratio_str(k // d, n // d)


def _build_group(spec: Mapping[str, object], max_order: int,
                 fail: List[Tuple[str, str, str]]) -> Optional[FiniteGroup]:
    """The frame group, or None after recording its failure.  A group from
    ``perm_gens`` is closed only up to ``max_order`` elements, the number of
    entries of the action map: a larger group can never pass the datum
    check, and its multiplication table would have |G|^2 entries."""
    if "mult_table" in spec:
        g = _attempt(fail, "galois_roots", "group.mult_table", FiniteGroup, spec["mult_table"])
    elif "perm_gens" in spec:
        g = _attempt(fail, "galois_roots", "group.perm_gens",
                     lambda: FiniteGroup.from_permutations(spec["perm_gens"], max_order)[0])
    else:
        fail.append(("galois_roots", "group", "need mult_table or perm_gens"))
        return None
    if g is not None and "order" in spec and spec["order"] != g.order:
        fail.append(("galois_roots", "group.order", "declared order disagrees"))
    return g


def scenario_from_dict(doc: Mapping[str, object]) -> Scenario:
    """Parse and fully validate one scenario document.

    Raises :class:`ScenarioError` carrying every failure with its module
    and field provenance.  Every field FIELDS declares is read first, and
    all that are missing or unreadable are refused before any semantic
    check."""
    if type(doc) is not dict:
        raise ScenarioError([("cli", "document", str(_must_be("a JSON object", doc)))])
    failures: List[Tuple[str, str, str]] = []
    f = _read_fields(doc, "", "", failures)
    if failures:
        raise ScenarioError(failures)

    pp = _attempt(failures, "qexact", "q", PrimePower, f["q"]["p"], f["q"]["a"])
    group = _build_group(f["group"], len(f["action"]), failures)
    if group is None or pp is None:
        raise ScenarioError(failures)

    frame = _attempt(failures, "galois_roots", "frame", GaloisFrame, group,
                     frozenset(f["inertia"]), f["frobenius"], pp)
    # built on the group whether or not the frame passed: a frame fault hides no datum fault
    datum = _attempt(failures, "galois_roots", "GRootDatum", GRootDatum, f["lattice_rank"],
                     f["action"], frozenset(map(tuple, f["roots"])), group)
    if frame is None or datum is None:
        raise ScenarioError(failures)

    orbits = tuple(classify_orbits(datum, frame))

    jumps = _attempt(failures, "mp_filtration", "jump_offsets", JumpAssignment.build,
                     f["jump_offsets"], orbits)
    filtration = _attempt(failures, "galois_roots", "theta_depths", howe_filtration, datum,
                          orbits, f["theta_depths"], f["theta_total_depth"])
    # A break outside (1/e) Z may still lie in (1/2e) Z; the refusal says which.
    if filtration is not None:
        failures += [("galois_roots", "theta_depths",
                      "break %s at orbit %s violates the depth lattice (value group: false, "
                      "half lattice: %s)"
                      % (r, o.orbit_id, json.dumps(2 * o.e % r.denominator == 0)))
                     for o, r in off_lattice_breaks(filtration, orbits)]

    dz = f["depth_zero"]
    depth_zero = (DepthZeroData.regular_marker() if dz == "regular" else
                  _attempt(failures, "formal_degree", "depth_zero", DepthZeroData.opaque,
                           dz["dim_rho"], dz["stab_index"]))

    chi = None
    if "chi" in f:
        n = group.order
        # refused at the first key that is no root, else at the first element outside 0..n-1
        strays = ["character at %s is not a root" % (root,)
                  for root in f["chi"] if root not in datum.roots]
        strays += ["character at %s is defined at %d, which is not a group element" % (root, g)
                   for root, table in f["chi"].items() for g in table if not 0 <= g < n]
        if strays:
            failures.append(("chi_data", "chi", strays[0]))
        else:
            # a/b mod 1, for b > 0, is stored as the numerator k / b over n with
            # k = (a mod b) n; a Fraction where that is not an integer, which no
            # character value is
            chi = ChiData({root: {g: Fraction(k, b) if (k := a % b * n) % b else k // b
                                  for g, (a, b) in table.items()}
                           for root, table in f["chi"].items()}, n)
            cond1, cond2 = condition_failures(chi, datum, frame, orbits)
            failures += [("chi_data", "chi", msg) for msg in cond1 + cond2]

    if failures:
        raise ScenarioError(failures)

    return Scenario(
        name=f["name"], frame=frame, datum=datum, orbits=orbits, jumps=jumps,
        filtration=filtration, depth_zero=depth_zero, chi=chi,
    )


def _object_without_repeats(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    """A JSON object as a dict, refusing a key that appears twice: plain
    ``json.load`` would keep the later value and drop the earlier one."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _value in pairs:
            if key in seen:
                raise ValueError("key %s appears twice in one object" % json.dumps(key))
            seen.add(key)
    return obj


def load_scenario(path: str) -> Scenario:
    """Read and validate one scenario file.

    The file is read once, as bytes, and decoded as UTF-8, so a file in
    any other encoding is refused: ``json.loads`` given the bytes
    themselves would detect UTF-16 and UTF-32 and accept them.  Where the
    text holds a ``\\r``, text mode's newline translation follows (``\\r\\n``
    and a lone ``\\r`` each become ``\\n``), so a parse error names the line,
    column and character text mode would.  Bytes that are not UTF-8, a
    document nested deeper than json's recursive decoder can follow, and
    an integer literal past the interpreter's limit on the digits of an
    ``int`` (a plain ValueError) are parse errors too."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        doc = json.loads(text, object_pairs_hook=_object_without_repeats)
    # a UnicodeDecodeError, a JSONDecodeError, a repeated key and the digit
    # limit are all ValueErrors
    except (ValueError, RecursionError) as e:
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


class _Template(Frozen):
    """One family of generated scenarios: a frame group with its action on
    the character lattice, the seed-root and inertia choices a draw picks
    from, and the residue primes.

    The three dicts memoize what a draw derives from the template alone.
    Each entry is filled on first use, fully validated then, and keyed by
    every input its validation reads, so a later draw with the same key
    reads it instead of deriving it again (:func:`generate_scenario`):

    * ``frames``: (inertia, Frobenius, p, a) to the :class:`GaloisFrame`,
      or the reason it refuses them;
    * ``data``: (inertia, Frobenius, seed roots) to the root datum checked
      against the frame, with its orbits, or the reason the draw is
      skipped (:meth:`datum`);
    * ``chi_menus``: the same key to the characters a χ draw chooses from
      on that datum (:func:`_chi_menus`).

    The keys range over the choices of the template, so each dict holds a
    few hundred entries at most."""

    __slots__ = ("key", "group", "action", "rank", "seed_choices", "inertia_choices", "primes",
                 "frames", "data", "chi_menus")

    def __init__(self, key: str, group: FiniteGroup, action: Mapping[int, List[List[int]]],
                 rank: int, seed_choices: Tuple[Tuple[Tuple[int, ...], ...], ...],
                 inertia_choices: Tuple[Tuple[int, ...], ...], primes: Tuple[int, ...]) -> None:
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "seed_choices", seed_choices)
        # frozensets, so that every memo key and frame of one choice shares one
        object.__setattr__(self, "inertia_choices", tuple(map(frozenset, inertia_choices)))
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "frames", {})
        object.__setattr__(self, "data", {})
        object.__setattr__(self, "chi_menus", {})

    def frame(self, inertia: FrozenSet[int], frobenius: int, p: int,
              a: int) -> Union[GaloisFrame, str]:
        """The frame of a draw, or the reason :class:`GaloisFrame` refuses it."""
        key = (inertia, frobenius, p, a)
        entry = self.frames.get(key)
        if entry is None:
            pp = PrimePower(p, a)
            try:
                entry = GaloisFrame(self.group, inertia, frobenius, pp)
            except ValueError as e:
                entry = str(e)
            self.frames[key] = entry
        return entry

    def datum(self, frame: GaloisFrame, seeds: Tuple[Tuple[int, ...], ...]
              ) -> Union[Tuple[GRootDatum, Tuple[OrbitInfo, ...]], str]:
        """The root datum on the closure of the seed roots, checked against
        the frame, with its orbits; or the reason the draw is skipped: more
        than 12 roots, a refused datum, or an orbit with e > 4.

        The check reads the frame's group, and the orbits its group and
        inertia, so one entry serves every p and a of its key."""
        key = (frame.inertia, frame.frobenius, seeds)
        entry = self.data.get(key)
        if entry is None:
            entry = self.data[key] = self._checked_datum(frame, seeds)
        return entry

    def _checked_datum(self, frame: GaloisFrame, seeds: Tuple[Tuple[int, ...], ...]
                       ) -> Union[Tuple[GRootDatum, Tuple[OrbitInfo, ...]], str]:
        roots = _orbit_closure(self.action, seeds)
        if len(roots) > 12:
            return "more than 12 roots"
        try:
            datum = GRootDatum(self.rank, self.action, roots, frame.group)
        except ValueError as e:
            return str(e)
        orbits = tuple(classify_orbits(datum, frame))
        if any(o.e > 4 for o in orbits):
            return "an orbit has ramification index above 4"
        return datum, orbits

    def chi_menu(self, frame: GaloisFrame, seeds: Tuple[Tuple[int, ...], ...],
                 datum: GRootDatum, orbits: Sequence[OrbitInfo]
                 ) -> List[Tuple[Vector, List[Character]]]:
        """:func:`_chi_menus` of the datum and orbits :meth:`datum` gives
        for this key."""
        key = (frame.inertia, frame.frobenius, seeds)
        menu = self.chi_menus.get(key)
        if menu is None:
            menu = self.chi_menus[key] = _chi_menus(datum, frame, orbits)
        return menu


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

    kl = FiniteGroup([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
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


def _chi_menus(datum: GRootDatum, frame: GaloisFrame, orbits: Sequence[OrbitInfo]
               ) -> List[Tuple[Vector, List[Character]]]:
    """For each class of roots under the group and negation, in order
    (:func:`negation_classes` of the datum's orbits), its representative
    and the characters of its stabilizer that a χ draw chooses from
    (:func:`_random_chi`).

    Where some element sends the representative to its negative, only the
    characters that conjugation by the least such element carries to their
    inverses are offered; condition 1 asks that of every valid family.
    When no character qualifies, no draw on the datum passes that class,
    so the list ends there, with an empty menu."""
    g = frame.group
    menus: List[Tuple[Vector, List[Character]]] = []
    for o, *_ in negation_classes(orbits):
        rep, stab = o.representative, o.stabilizer
        chars = character_group(g, stab)
        negators = datum.pm_stabilizer(rep) - stab  # the elements sending rep to -rep
        if negators:
            sigma = min(negators)
            chars = [c for c in chars
                     if char_conjugate(g, c, g.inv(sigma)) == char_inverse(c, g.order)]
        menus.append((rep, chars))
        if not chars:
            break
    return menus


def _random_chi(rng: random.Random, datum: GRootDatum, frame: GaloisFrame,
                orbits: Sequence[OrbitInfo],
                menus: Sequence[Tuple[Vector, Sequence[Character]]]) -> Optional[ChiData]:
    """A random valid character family, one character drawn from each menu
    of :func:`_chi_menus` in turn, or None when a menu is empty or the
    draws do not spread to valid χ-data (rare; the caller treats None as
    'omit')."""
    rep_chars = {}
    for rep, chars in menus:
        if not chars:
            return None
        rep_chars[rep] = rng.choice(chars)
    try:
        return ChiData.from_representatives(datum, frame, orbits, rep_chars)
    except ValueError:
        return None


def generate_scenario(rng: random.Random) -> Scenario:
    """One random valid scenario (rank <= 3, |R| <= 12, |group| <= 8, e <= 4).

    A draw picks a template, p, a, inertia, Frobenius and the seed roots,
    then the depths, offsets and χ.  The frame, the checked root datum
    with its orbits, and the χ menus depend on the first picks only, so
    each template derives them once and keeps them (:class:`_Template`);
    the steps that read a draw's depths, offsets and characters
    (:func:`howe_filtration`, the depth-lattice checks,
    :meth:`JumpAssignment.build`, :meth:`ChiData.from_representatives`)
    run on every draw.  The memo makes no ``rng`` call and changes none,
    so a seed gives the same draws and byte-identical documents with a
    fresh memo or a warm one.  Scenarios drawn from one template may share
    its frame and datum objects; their lazy caches (the group's generating
    sets and coset keys, the datum's stabilizers) fill idempotently, so
    sharing changes no result."""
    templates = generator_templates()
    for _attempt in range(200):
        tpl = rng.choice(templates)
        p = rng.choice(tpl.primes)
        a = rng.choice((1, 1, 1, 2))
        inertia = rng.choice(tpl.inertia_choices)
        if len(inertia) % p == 0:
            continue
        group = tpl.group
        frob_candidates = group.quotient_generators(group.elements, inertia)
        if not frob_candidates:
            continue
        frobenius = rng.choice(frob_candidates)
        frame = tpl.frame(inertia, frobenius, p, a)
        if isinstance(frame, str):
            continue
        seeds = rng.choice(tpl.seed_choices)
        entry = tpl.datum(frame, seeds)
        if isinstance(entry, str):
            continue
        datum, orbits = entry
        scen = _assign_depths_and_offsets(rng, tpl, seeds, frame, datum, orbits)
        if scen is not None:
            return scen
    raise RuntimeError("generator failed to produce a valid scenario")


def _assign_depths_and_offsets(rng: random.Random, tpl: _Template,
                               seeds: Tuple[Tuple[int, ...], ...], frame: GaloisFrame,
                               datum: GRootDatum, orbits: Tuple[OrbitInfo, ...]
                               ) -> Optional[Scenario]:
    # the orbits of one class under negation share a layer
    classes = negation_classes(orbits)
    for _try in range(40):
        d = rng.choice((0, 1, 1, 2))
        d = min(d, len(classes))
        if d == 0:
            layers = [0] * len(classes)
        else:
            layers = [rng.randint(0, d) for _ in classes]
            used = sorted({v for v in layers if v > 0})
            remap = {v: i + 1 for i, v in enumerate(used)}
            layers = [remap[v] if v > 0 else 0 for v in layers]
            d = len(used)
        # draw strictly increasing breaks inside the valuation lattices
        breaks: List[Fraction] = []
        ok = True
        prev = Fraction(0)
        for i in range(1, d + 1):
            es = [o.e for c, lay in zip(classes, layers) if lay == i for o in c]
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
        depths: Dict[str, DepthValue] = {
            o.orbit_id: NONPOSITIVE if lay == 0 else breaks[lay - 1]
            for c, lay in zip(classes, layers) for o in c}
        offsets: Dict[str, Fraction] = {}
        for c in classes:
            e = c[0].e
            if len(c) == 1:
                offsets[c[0].orbit_id] = rng.choice((Fraction(0), Fraction(1, 2 * e)))
            else:
                t = Fraction(rng.randint(0, 2 * e - 1), 2 * e)
                offsets[c[0].orbit_id] = t
                offsets[c[1].orbit_id] = -t
        # Keep the depth-zero root count even (a symmetric odd-degree orbit
        # jumping at 0 matches no honest reductive quotient): flip one such
        # offset off the origin if needed.
        parity = sum(o.f for c, lay in zip(classes, layers) if lay == 0 for o in c
                     if (offsets[o.orbit_id] * o.e).denominator == 1)
        if parity % 2:
            for c, lay in zip(classes, layers):
                o = c[0]
                if (len(c) == 1 and lay == 0 and o.f % 2
                        and (offsets[o.orbit_id] * o.e).denominator == 1):
                    offsets[o.orbit_id] = Fraction(1, 2 * o.e)
                    break
        try:
            filtration = howe_filtration(datum, orbits, depths, total)
        except ValueError:
            continue
        if off_lattice_breaks(filtration, orbits):
            continue
        jumps = JumpAssignment.build(offsets, orbits)
        chi = (_random_chi(rng, datum, frame, orbits, tpl.chi_menu(frame, seeds, datum, orbits))
               if rng.random() < 0.5 else None)
        name = "gen_%s_%04d" % (tpl.key, rng.randint(0, 9999))
        return Scenario(
            name=name, frame=frame, datum=datum, orbits=orbits,
            jumps=jumps, filtration=filtration,
            depth_zero=DepthZeroData.regular_marker(), chi=chi,
        )
    return None
