"""Load reads the integer tables of a document in one type sweep each and
the character values as integer pairs.

Anything the sweep does not admit is read row by row by
``parse_int_array``, so the error lines pinned here are those of a
row-by-row read: each names the table's path and its first bad row and
entry in document order.
"""

import json
import os
import re
from fractions import Fraction

import pytest

import fdc.cli as cli
from fdc.scenario import ScenarioError, parse_ratio, scenario_from_dict

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")


def bundled_doc(name):
    with open(os.path.join(SCEN_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def _set_last_action_entry(doc, value):
    doc["action"]["3"][2][2] = value


def _set_last_action_row(doc, value):
    doc["action"]["3"][2] = value


def _set_last_action_matrix(doc, value):
    doc["action"]["3"] = value


def _set_root_coordinate(doc, value):
    doc["roots"][9][0] = value


def _set_root(doc, value):
    doc["roots"][9] = value


# Edits of z4_rank3_mixed: the last row of the last action matrix, and the
# last root, [2, 0, 0].
@pytest.mark.parametrize("edit,value,line", [
    (_set_last_action_entry, True,
     "galois_roots.action.3: row 2 entry 2 must be an integer, got true"),
    (_set_last_action_entry, 1.0,
     "galois_roots.action.3: row 2 entry 2 must be an integer, got 1.0"),
    (_set_last_action_entry, [1],
     "galois_roots.action.3: row 2 entry 2 must be an integer, got array"),
    (_set_last_action_entry, "x",
     'galois_roots.action.3: row 2 entry 2 must be an integer, got "x"'),
    (_set_last_action_row, "001",
     'galois_roots.action.3: row 2 must be a JSON array, got "001"'),
    (_set_last_action_row, 7,
     "galois_roots.action.3: row 2 must be a JSON array, got 7"),
    (_set_last_action_row, None,
     "galois_roots.action.3: row 2 must be a JSON array, got null"),
    (_set_last_action_matrix, "[[-1,0,0],[0,0,1],[0,-1,0]]",
     'galois_roots.action.3: must be a JSON array, got "[[-1,0,0],[0,0,1],[0,-1,0]]"'),
    (_set_root_coordinate, True,
     "galois_roots.roots: row 9 entry 0 must be an integer, got true"),
    (_set_root_coordinate, 2.0,
     "galois_roots.roots: row 9 entry 0 must be an integer, got 2.0"),
    (_set_root_coordinate, [2],
     "galois_roots.roots: row 9 entry 0 must be an integer, got array"),
    (_set_root, "200",
     'galois_roots.roots: row 9 must be a JSON array, got "200"'),
    (_set_root, 7,
     "galois_roots.roots: row 9 must be a JSON array, got 7"),
    (_set_root, None,
     "galois_roots.roots: row 9 must be a JSON array, got null"),
], ids=["entry-bool", "entry-float", "entry-array", "entry-junk", "row-string", "row-number",
        "row-null", "matrix-string", "root-bool", "root-float", "root-array", "root-string",
        "root-number", "root-null"])
def test_matrix_reader_refusals_unchanged(edit, value, line, tmp_path, capsys):
    doc = bundled_doc("z4_rank3_mixed")
    edit(doc, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: scenario validation failed:\n  %s\n" % (path, line)


def test_roots_and_permutations_of_the_wrong_kind_unchanged():
    doc = dict(bundled_doc("z4_rank3_mixed"), roots="[[2,0,0]]")
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.failures == [
        ("galois_roots", "roots", 'must be a JSON array, got "[[2,0,0]]"')]
    for gens, message in [([[1, 2, 3, True]], "row 0 entry 3 must be an integer, got true"),
                          (["1230"], 'row 0 must be a JSON array, got "1230"')]:
        doc = dict(bundled_doc("z4_rank3_mixed"), group={"perm_gens": gens})
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.failures == [("galois_roots", "group.perm_gens", message)]


@pytest.mark.parametrize("edit,value", [
    (_set_last_action_entry, "0"),
    (_set_root_coordinate, "2"),
    (_set_last_action_row, ["0", -1, "0"]),
], ids=["action-entry", "root-coordinate", "mixed-row"])
def test_decimal_string_entries_still_load(edit, value, tmp_path, capsys):
    """A decimal string where an integer belongs is read as that integer:
    the report equals the one of the document as bundled."""
    doc = bundled_doc("z4_rank3_mixed")
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--format", "json", "verify", str(path)]) == 0
    want = capsys.readouterr().out
    edit(doc, value)
    path.write_text(json.dumps(doc))
    assert cli.main(["--format", "json", "verify", str(path)]) == 0
    assert capsys.readouterr().out == want


def test_loaded_tables_do_not_alias_the_document():
    doc = bundled_doc("z4_rank3_mixed")
    scen = scenario_from_dict(doc)
    action = {g: [list(row) for row in m] for g, m in scen.datum.action.items()}
    roots = scen.datum.roots
    doc["action"]["3"][2][2] = 99
    doc["action"]["1"][0] = [5, 5, 5]
    doc["roots"][9][0] = 99
    assert {g: [list(row) for row in m] for g, m in scen.datum.action.items()} == action
    assert scen.datum.roots == roots == frozenset(
        map(tuple, bundled_doc("z4_rank3_mixed")["roots"]))


@pytest.mark.parametrize("roots,pattern", [
    ([[2], [-2], [1, 1], [-1, -1]], r"root \(-?1, -?1\) does not have 1 coordinates"),
    ([[2], [-2], [1, 0], [-1, 0]], r"root \(-?1, 0\) does not have 1 coordinates"),
    ([[2], [-2], []], r"root \(\) does not have 1 coordinates"),
], ids=["long", "zero-padded", "empty"])
def test_root_of_the_wrong_length_is_refused(roots, pattern, tmp_path, capsys):
    """A root must have lattice_rank coordinates.  Without the check, a
    longer root with a nonzero extra coordinate crashed the stability test
    with an IndexError, and a zero-padded one loaded as a root of its own."""
    doc = bundled_doc("sl2_unramified_depth0")
    doc.pop("chi")
    doc["roots"] = roots
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert re.search("galois_roots.GRootDatum: " + pattern, err), err
    assert "Traceback" not in err


def _with_table(table):
    return dict(bundled_doc("sl2_unramified_depth0"), group={"mult_table": table})


def _with_action_entry(delta):
    doc = bundled_doc("z4_rank3_mixed")
    doc["action"]["3"][2][2] += delta
    return doc


# The group table is checked row by row and the action homomorphism product
# row by product row; the refusals are those of the entry-by-entry checks.
@pytest.mark.parametrize("command", ["verify", "degree", "gamma", "chi-check"])
@pytest.mark.parametrize("doc,line", [
    (_with_table([]), "galois_roots.group.mult_table: multiplication table is empty"),
    (_with_table([[0, 1], [1]]), "galois_roots.group.mult_table: malformed multiplication table"),
    (_with_table([[0, True], [1, 0]]),
     "galois_roots.group.mult_table: row 0 entry 1 must be an integer, got true"),
    (_with_table([[0, 1.0], [1, 0]]),
     "galois_roots.group.mult_table: row 0 entry 1 must be an integer, got 1.0"),
    (_with_table([[0, [1]], [1, 0]]),
     "galois_roots.group.mult_table: row 0 entry 1 must be an integer, got array"),
    (_with_table([[0, 1], [1, 2]]),
     "galois_roots.group.mult_table: malformed multiplication table"),
    (_with_table([[1, 0], [0, 1]]), "galois_roots.group.mult_table: element 0 is not an identity"),
    # row 0 is right, column 0 is not: 1 * 0 = 0
    (_with_table([[0, 1], [0, 1]]), "galois_roots.group.mult_table: element 0 is not an identity"),
    # elements 2 and 3 both lack an inverse: the first is named
    (_with_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 2, 2], [3, 2, 2, 2]]),
     "galois_roots.group.mult_table: element 2 has no inverse"),
    # a loop of order 5: identity 0, every element its own inverse, not a group
    (_with_table([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                  [4, 3, 1, 2, 0]]),
     "galois_roots.group.mult_table: multiplication table is not associative"),
    # one entry of the last row of M(3) off: M(1) M(2) = M(3) fails there, and
    # (1, 2) is the first pair of generator and element to see it
    (_with_action_entry(1), "galois_roots.GRootDatum: action is not a homomorphism at (1, 2)"),
    # a zero row in a generator: M(1) M(0) = M(1) holds, M(1) M(1) = M(0) does not
    (dict(bundled_doc("sl2_unramified_depth0"), action={"0": [[1]], "1": [[0]]}),
     "galois_roots.GRootDatum: action is not a homomorphism at (1, 1)"),
], ids=["empty", "ragged", "bool", "float", "array", "out-of-range", "identity-row",
        "identity-column", "inverse", "not-associative", "action-not-homomorphic",
        "action-zero-row"])
def test_group_and_action_refusals_unchanged(command, doc, line, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    where = "%s: " % path if command == "verify" else ""
    assert captured.out == ""
    assert captured.err == "error: %sscenario validation failed:\n  %s\n" % (where, line)


# Values of the character at the root 1 of z4_a1_ramified_chi, whose
# stabilizer is {0, 2}; the group order is 4, so 1/2 is stored as 2.
@pytest.mark.parametrize("element,value,stored", [
    ("2", "-3/-6", 2),
    ("2", " 1/2 ", 2),
    ("2", "2/4", 2),
    ("2", "-1/-2", 2),
    ("2", "+1/+2", 2),
    ("0", 6, 0),
    ("0", -7, 0),
    ("0", " 7 ", 0),
])
def test_chi_values_read_as_integer_pairs(element, value, stored):
    doc = bundled_doc("z4_a1_ramified_chi")
    doc["chi"]["1"][element] = value
    chars = scenario_from_dict(doc).chi.chars
    assert chars[(1,)] == {0: 0, 2: 2} and chars[(1,)][int(element)] == stored
    assert all(type(v) is int for v in chars[(1,)].values())


_ZERO_MOD_ONE_AT_TWO = ["chi(-a) != chi(a)^-1 at (-1,)", "chi(-a) != chi(a)^-1 at (1,)",
                        "equivariance fails from (-1,) under 1",
                        "equivariance fails from (1,) under 1"]
_NOT_A_CHARACTER_AT_ONE = ["chi(-a) != chi(a)^-1 at (-1,)",
                           "equivariance fails from (-1,) under 1",
                           "character at (1,) is not a stabilizer homomorphism"]


@pytest.mark.parametrize("command", ["chi-check", "verify"])
@pytest.mark.parametrize("value,failures", [
    ("1/0", ['chi.1.2: must be a rational, got "1/0"']),
    ("1/2/3", ['chi.1.2: must be a rational, got "1/2/3"']),
    (True, ["chi.1.2: must be a rational, got true"]),
    (None, ["chi.1.2: must be a rational, got null"]),
    ("", ['chi.1.2: must be a rational, got ""']),
    (6, ["chi: " + f for f in _ZERO_MOD_ONE_AT_TWO]),
    # 4/3 over 4: not an integer numerator
    ("2/6", ["chi: " + f for f in _NOT_A_CHARACTER_AT_ONE]),
    ("3/-4", ["chi: " + f for f in _NOT_A_CHARACTER_AT_ONE]),  # 1/4 mod 1
], ids=["zero-den", "three-parts", "bool", "null", "empty", "bare-int", "unreduced-third",
        "negative-den"])
def test_chi_value_refusals_unchanged(command, value, failures, tmp_path, capsys):
    doc = bundled_doc("z4_a1_ramified_chi")
    doc["chi"]["1"]["2"] = value
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 2
    where = "%s: " % path if command == "verify" else ""
    assert capsys.readouterr().err == "error: %sscenario validation failed:\n%s" % (
        where, "".join("  chi_data.%s\n" % f for f in failures))


def test_parse_ratio_keeps_a_positive_denominator():
    assert parse_ratio("-3/-6") == (3, 6)
    assert parse_ratio("3/-6") == (-3, 6)
    assert parse_ratio(" 2/4 ") == (2, 4)
    assert parse_ratio("-5") == (-5, 1)
    assert parse_ratio(7) == (7, 1)
    assert Fraction(*parse_ratio("-3/-6")) == Fraction(1, 2)
