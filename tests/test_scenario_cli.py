import json
import os
import random
import re
import sys
from fractions import Fraction

import pytest

import fdc.cli as cli
import fdc.compare
import fdc.galois_roots
import fdc.scenario
import fdc.weil_gamma
from fdc.compare import emit_report, run_compare
from fdc.galois_roots import TorusLatticeData
from fdc.qexact import PrimePower, int_str, qmon
from fdc.scenario import (
    FIELDS,
    REQUIRED,
    ScenarioError,
    generate_scenario,
    load_scenario,
    parse_rational,
    scenario_from_dict,
)

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")

BUNDLED = [
    "sl2_unramified_depth0",
    "sl2_ramified_depth_half",
    "z4_a1_ramified_chi",
    "s3_a2_depth_third",
    "z4_rank3_mixed",
    "d4_b2_depth_quarter",
]


def bundled_path(name):
    return os.path.join(SCEN_DIR, name + ".json")


def bundled_doc(name):
    with open(bundled_path(name)) as fh:
        return json.load(fh)


def test_parse_rational():
    assert parse_rational("3/4") == (3, 4)
    assert parse_rational("6/-8") == (-3, 4)
    assert parse_rational("-2") == (-2, 1)
    assert parse_rational(5) == (5, 1)
    assert parse_rational("0/7") == (0, 1)
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("a/b")


def test_readme_lists_the_field_table():
    """README's example document names exactly the table's top-level
    fields, in its order, and README's field list gives every field of the
    table with its kind, its reading when absent and its module."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    assert re.findall(r'^  "(\w+)":', example, re.M) == [
        path for path, _module, _kind, _default in FIELDS if "." not in path]
    rows = re.findall(r"^\| `([^`]+)` \| (.+) \| (.+) \| `(\w+)` \|$", section, re.M)
    assert rows == [(path, kind, "required" if default is REQUIRED else
                     "optional" if default is None else "`%s`" % json.dumps(default), module)
                    for path, module, kind, default in FIELDS]


def test_load_bundled():
    for name in BUNDLED:
        scen = load_scenario(bundled_path(name))
        assert scen.name == name
        assert scen.filtration is not None


def test_ellipticity_failure_names_datum():
    doc = bundled_doc("sl2_unramified_depth0")
    doc["action"]["1"] = [[1]]  # trivialize the action: no longer elliptic
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert any(mod == "galois_roots" and "elliptic" in msg
               for mod, fieldname, msg in err.value.failures)


def test_malformed_rational_is_parse_error():
    doc = bundled_doc("sl2_unramified_depth0")
    doc["jump_offsets"]["-2"] = "1/0"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert any("1/0" in msg or "denominator" in msg
               for _m, _f, msg in err.value.failures)


def test_depth_lattice_violation_refused():
    doc = bundled_doc("sl2_unramified_depth0")
    doc["theta_depths"]["-2"] = "1/2"   # e = 1 here: 1/2 violates the lattice
    doc["theta_total_depth"] = "1/2"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert any("depth lattice" in msg for _m, _f, msg in err.value.failures)


def test_bad_chi_reported():
    doc = bundled_doc("z4_a1_ramified_chi")
    doc["chi"]["1"]["2"] = "0"  # break negation-inversion against the other root
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert any(mod == "chi_data" for mod, _f, _msg in err.value.failures)


def test_round_trip_all_bundled():
    for name in BUNDLED:
        scen = load_scenario(bundled_path(name))
        doc = scen.to_json_dict()
        again = scenario_from_dict(doc)
        assert again.to_json_dict() == doc
        # loaded scenarios compare identically after the round trip
        assert run_compare(again).to_json_dict() == run_compare(scen).to_json_dict()


def test_report_determinism():
    scen = load_scenario(bundled_path("z4_rank3_mixed"))
    r1 = emit_report([run_compare(scen)], "json")
    r2 = emit_report([run_compare(scen)], "json")
    assert r1 == r2  # byte identical (no timing in the machine form)
    doc = json.loads(r1)
    assert doc["reports"][0]["verdict"] == "FLAGGED"
    assert doc["summary"] == {"total": 1, "equal": 0, "flagged": 1, "unequal": 0}


def test_empty_batch_report():
    assert "0 scenario(s)" in emit_report([], "text")
    doc = json.loads(emit_report([], "json"))
    assert doc["reports"] == [] and doc["summary"]["total"] == 0
    with pytest.raises(ValueError):
        emit_report([], "yaml")


def test_with_q_override():
    scen = load_scenario(bundled_path("sl2_unramified_depth0"))
    for q in (3, 5, 7, 9):
        rep = run_compare(scen.with_q(PrimePower.from_q(q)))
        assert rep.verdict == "EQUAL"
        assert rep.value_galois == qmon(rep.value_galois.pp, Fraction(q * q, q + 1))


def test_cli_verify_exit_codes(capsys):
    rc = cli.main(["verify", bundled_path("sl2_unramified_depth0")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "EQUAL" in out

    rc = cli.main(["--strict", "verify", bundled_path("sl2_ramified_depth_half")])
    assert rc == 1  # FLAGGED counts as failure under --strict
    rc = cli.main(["verify", bundled_path("sl2_ramified_depth_half")])
    assert rc == 0

    rc = cli.main(["verify", "/nonexistent/file.json"])
    assert rc == 2


def test_cli_verify_json_q_override(capsys):
    rc = cli.main(["--q", "9", "--format", "json", "verify",
                   bundled_path("sl2_unramified_depth0")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["q"] == 9
    assert doc["reports"][0]["galois"]["value"]["rational"] == "81/10"


def test_cli_degree_gamma(capsys):
    rc = cli.main(["--format", "json", "degree", bundled_path("z4_rank3_mixed")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["prefactor_discrepancy"] == 2
    rc = cli.main(["--format", "json", "gamma", bundled_path("z4_rank3_mixed")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["monomial"]["pexp"] == "9"


def test_cli_degree_opaque(capsys, tmp_path):
    doc = bundled_doc("sl2_unramified_depth0")
    doc["depth_zero"] = {"dim_rho": "2", "stab_index": 24}
    path = tmp_path / "opaque.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["--format", "json", "degree", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["prefactor"] == "1/12"


_OPAQUE_DEGREE_OUT = {
    ("text", 3): "scenario sl2_unramified_depth0  q=3\n  degree: 1/12 * 3^(3)\n",
    ("text", 9): "scenario sl2_unramified_depth0  q=9\n  degree: 1/12 * 3^(6)\n",
    ("json", 3): '{\n  "monomial": {\n    "coeff": "1",\n    "pexp": "3"\n  },\n'
                 '  "name": "sl2_unramified_depth0",\n  "prefactor": "1/12",\n  "q": 3\n}\n',
    ("json", 9): '{\n  "monomial": {\n    "coeff": "1",\n    "pexp": "6"\n  },\n'
                 '  "name": "sl2_unramified_depth0",\n  "prefactor": "1/12",\n  "q": 9\n}\n',
}


@pytest.mark.parametrize("fmt,q", sorted(_OPAQUE_DEGREE_OUT))
def test_cli_degree_opaque_output_pinned(fmt, q, capsys, tmp_path):
    """The whole report of ``degree`` on opaque depth-zero data, which no
    golden file covers: dim rho / stabilizer index = 2/24 times
    exp_q((dim G + dim quotient)/2) = q^((3 + 3)/2), the whole SL_2 being
    its depth-zero quotient and no orbit having a break, at the document's
    q = 3 and under ``--q 3^2``."""
    doc = bundled_doc("sl2_unramified_depth0")
    doc["depth_zero"] = {"dim_rho": "2", "stab_index": 24}
    path = tmp_path / "opaque.json"
    path.write_text(json.dumps(doc))
    argv = ["--format", fmt, "degree", str(path)]
    assert cli.main(argv if q == 3 else ["--q", "3^2"] + argv) == 0
    assert capsys.readouterr() == (_OPAQUE_DEGREE_OUT[fmt, q], "")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["verify", "degree", "gamma", "chi-check"])
def test_q_past_the_digit_limit_is_written_in_full(command, fmt, capsys):
    """q = 3^10000 has 4,772 digits, past the interpreter's 4,300-digit
    limit on ``str(int)``: every subcommand and format still reports, and
    the ones that show q write all its digits."""
    name = "z4_a1_ramified_chi" if command == "chi-check" else "sl2_unramified_depth0"
    rc = cli.main(["--q", "3^10000", "--format", fmt, command, bundled_path(name)])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    if command != "chi-check":
        assert int_str(3 ** 10000) in out


def test_cli_verify_refuses_opaque_depth_zero(capsys, tmp_path):
    """verify compares the regular degree against a Galois side that
    assumes a regular parameter, so it refuses opaque depth-zero data with
    one error line and exit 2; degree still evaluates the opaque formula.
    The other files of the batch keep their reports."""
    doc = bundled_doc("sl2_unramified_depth0")
    doc["depth_zero"] = {"dim_rho": "7", "stab_index": 3}
    path = tmp_path / "opaque.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["verify", str(path), bundled_path("s3_a2_depth_third")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.splitlines() == [
        "error: %s: formal_degree.depth_zero: verify compares regular depth-zero "
        "data only; fdc degree evaluates the opaque form" % path]
    assert "s3_a2_depth_third" in captured.out and "opaque" not in captured.out
    assert cli.main(["degree", str(path)]) == 0
    assert capsys.readouterr().out == ("scenario sl2_unramified_depth0  q=3\n"
                                       "  degree: 7/3 * 3^(3)\n")


@pytest.mark.parametrize("command", ["degree", "verify"])
@pytest.mark.parametrize("depth_zero", [{"dim_rho": "0", "stab_index": 1},
                                        {"dim_rho": "1", "stab_index": 0}],
                         ids=["dim-rho-zero", "stab-index-zero"])
def test_cli_refuses_nonpositive_opaque_depth_zero(command, depth_zero, tmp_path, capsys):
    """A zero dimension or a zero stabilizer index is refused at load, so
    degree never evaluates it and verify names that cause."""
    doc = dict(bundled_doc("sl2_unramified_depth0"), depth_zero=depth_zero)
    path = tmp_path / "opaque.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "formal_degree.depth_zero: opaque depth-zero data must be positive" in captured.err
    assert "Traceback" not in captured.err


def test_cli_text_timing_line(capsys):
    """Text verify with --timing prints each report's wall time."""
    assert cli.main(["--timing", "verify", bundled_path("sl2_unramified_depth0")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines if re.fullmatch(r"  elapsed \d+\.\d{4} s", line)]) == 1


def test_cli_chi_check(capsys):
    rc = cli.main(["chi-check", bundled_path("z4_a1_ramified_chi")])
    assert rc == 0
    assert "ok" in capsys.readouterr().out
    rc = cli.main(["chi-check", bundled_path("sl2_ramified_depth_half")])
    assert rc == 2  # no chi bundled


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_chi_check_without_chi(fmt, capsys):
    """A document without "chi" is one error line and exit 2, in either format."""
    rc = cli.main(["--format", fmt, "chi-check", bundled_path("sl2_ramified_depth_half")])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == "error: scenario sl2_ramified_depth_half bundles no character data\n"


def test_cli_verify_internal_check_failure_exits_3(monkeypatch, capsys):
    """A failed bridging identity exits 3, not UNEQUAL's 1, names the
    identity, and the other files of the batch keep their reports."""
    closed = fdc.compare.volume_exponent_closed
    calls = []

    def off_by_one_on_first_file(shape, rank_m):
        calls.append(rank_m)
        num, den = closed(shape, rank_m)
        return (num + den, den) if len(calls) == 1 else (num, den)

    monkeypatch.setattr(fdc.compare, "volume_exponent_closed", off_by_one_on_first_file)
    rc = cli.main(["--format", "json", "verify", bundled_path("sl2_unramified_depth0"),
                   bundled_path("sl2_ramified_depth_half")])
    captured = capsys.readouterr()
    assert rc == 3
    assert ("sl2_unramified_depth0.json: internal check failed: volume exponent mismatch"
            in captured.err)
    (report,) = json.loads(captured.out)["reports"]
    assert report["name"] == "sl2_ramified_depth_half"


def test_cli_chi_check_frame_of_eighteen_elements(tmp_path, capsys):
    """Z/18 acting by sign on a rank-one lattice, totally ramified at
    q = 19: base change is checked on each of the six subgroups."""
    n = 18
    doc = bundled_doc("z4_a1_ramified_chi")
    doc.update(name="z18_sign", q={"p": 19, "a": 1},
               group={"order": n, "mult_table": [[(i + j) % n for j in range(n)]
                                                 for i in range(n)]},
               inertia=list(range(n)), action={str(k): [[(-1) ** k]] for k in range(n)},
               chi={rk: {str(k): "0" for k in range(0, n, 2)} for rk in ("1", "-1")})
    path = tmp_path / "z18_sign.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--format", "json", "chi-check", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert [e["subgroup"] for e in out["subgroups"]] == [
        [0], [0, 9], [0, 6, 12], [0, 3, 6, 9, 12, 15], list(range(0, n, 2)), list(range(n))]
    assert all(e == {"subgroup": e["subgroup"], "ok": True} for e in out["subgroups"])


def test_cli_verify_wrong_conductor_is_unequal(monkeypatch, capsys):
    """A wrong root conductor reaches the verdict: the Galois exponent no
    longer meets Yu's break term, so verify reports UNEQUAL and exits 1."""
    honest = fdc.weil_gamma.conductor_tame_induction
    def plus_one(degree, depth):
        num, den = honest(degree, depth)
        return num + den, den

    monkeypatch.setattr(fdc.weil_gamma, "conductor_tame_induction", plus_one)
    rc = cli.main(["verify", bundled_path("sl2_ramified_depth_half")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    assert "verdict=UNEQUAL" in captured.out
    assert "  automorphic  1/2 * 5^(2)  (" in captured.out
    assert "  galois       1/2 * 5^(5/2)  (" in captured.out


@pytest.mark.parametrize("field", ["m_frob_coinvariants", "kottwitz_fixed_order",
                                   "cochar_full_coinvariants"])
def test_cli_verify_wrong_lattice_order_is_unequal(field, monkeypatch, capsys):
    """Each lattice order in the prefactors is computed once and read by one
    side only, so a wrong one reaches the verdict: the product identity
    |(X^I)_F| * |(X_{*,I})^F| = |X_{*,Gamma}| fails, verify reports UNEQUAL
    and exits 1, not 3."""
    honest = fdc.scenario.torus_lattice_data

    def doubled(datum, frame):
        torus = honest(datum, frame)
        values = dict(rank_m=torus.rank_m,
                      special_fiber_order=torus.special_fiber_order,
                      m_frob_coinvariants=torus.m_frob_coinvariants,
                      cochar_full_coinvariants=torus.cochar_full_coinvariants,
                      kottwitz_fixed_order=torus.kottwitz_fixed_order)
        values[field] *= 2
        return TorusLatticeData(**values)

    monkeypatch.setattr(fdc.scenario, "torus_lattice_data", doubled)
    rc = cli.main(["verify", bundled_path("sl2_unramified_depth0")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    assert "verdict=UNEQUAL" in captured.out


def test_cli_verify_odd_depth_zero_root_count_is_diagnosed(tmp_path, capsys):
    """The ramified orbit of SL2 jumping at 0 gives the depth-zero quotient
    one root: legal data, reported, and still FLAGGED by the Kottwitz index."""
    doc = bundled_doc("sl2_ramified_depth_half")
    doc["theta_depths"] = {k: "nonpositive" for k in doc["theta_depths"]}
    doc["theta_total_depth"] = "0"
    doc["jump_offsets"] = {k: "0" for k in doc["jump_offsets"]}
    doc.pop("chi", None)
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--format", "json", "verify", str(path)]) == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["verdict"] == "FLAGGED"
    assert report["diagnostics"][0] == ("depth-zero quotient has an odd root count; "
                                        "it matches no reductive quotient")


@pytest.mark.parametrize("command", ["degree", "gamma", "chi-check"])
@pytest.mark.parametrize("kind", ["array-document", "missing-file"])
def test_cli_single_file_load_errors_exit_2(command, kind, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    if kind == "array-document":
        path.write_text("[1, 2]")
        expected = ("error: scenario validation failed:\n"
                    "  cli.document: must be a JSON object, got array\n")
    else:
        expected = "error: [Errno 2] No such file or directory: '%s'\n" % path
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == expected


@pytest.mark.parametrize("command", ["verify", "degree", "gamma", "chi-check"])
@pytest.mark.parametrize("name,field,text,key", [
    ("sl2_unramified_depth0", "action", '{"0": [[1]], "1": [[7]], "1": [[-1]]}', "1"),
    ("z4_a1_ramified_chi", "chi",
     '{"1": {"0": "0", "2": "1/3", "2": "1/2"}, "-1": {"0": "0", "2": "1/2"}}', "2"),
], ids=["action", "chi-table"])
def test_cli_refuses_repeated_json_keys(command, name, field, text, key, tmp_path, capsys):
    """Plain json.load keeps the later of two identical keys, and both
    documents would then load (with the action -1 and the value 1/2).  Every
    subcommand refuses them instead, with one error naming the key."""
    doc = bundled_doc(name)
    doc[field] = "REPEATED"
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc).replace('"REPEATED"', text))
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    where = "%s: " % path if command == "verify" else ""
    assert captured.out == ""
    assert captured.err == ("error: %sscenario validation failed:\n"
                            "  cli.file: parse error: key \"%s\" appears twice in one object\n"
                            % (where, key))
    doc[field] = json.loads(text)  # the later value wins: the document loads
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "degree", "gamma", "chi-check"])
def test_cli_refuses_deeply_nested_json(command, tmp_path, capsys):
    """A document nested past json's recursion limit is a parse error with
    exit 2, not a RecursionError traceback with exit 1 (the UNEQUAL code)."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    where = "%s: " % path if command == "verify" else ""
    assert captured.out == ""
    assert captured.err.startswith("error: %sscenario validation failed:\n"
                                   "  cli.file: parse error: maximum recursion depth exceeded"
                                   % where)


@pytest.mark.parametrize("command", ["verify", "degree", "gamma", "chi-check"])
@pytest.mark.parametrize("data,reason", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b'{"name": ', "Expecting value: line 1 column 10 (char 9)"),
    (b'{"group": {"order": ' + b"1" * 5000 + b"}}",
     "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; "
     "use sys.set_int_max_str_digits() to increase the limit"),
    # line, column and character as counted after text mode's newline
    # translation: each \r\n and each lone \r is one \n
    (b'{\r\n"name": \r\n', "Expecting value: line 3 column 1 (char 11)"),
    (b'{"name": "a\rb"}', "Invalid control character at: line 1 column 12 (char 11)"),
    # the position counts from the start of the file, past any read buffer
    (b'{"name": "' + b"x" * 9000 + b'\xff"}',
     "'utf-8' codec can't decode byte 0xff in position 9010: invalid start byte"),
    # json.loads given these bytes would detect UTF-16 and load the scenario
    (json.dumps(bundled_doc("sl2_unramified_depth0")).encode("utf-16"),
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["not-utf8", "utf8-bom", "syntax", "int-past-digit-limit", "crlf-syntax",
        "lone-cr-in-string", "not-utf8-past-8k", "utf16-bom"])
def test_cli_file_parse_errors_exit_2(command, data, reason, tmp_path, capsys):
    """Bytes that are not UTF-8 (UTF-16 included), a byte-order mark, a
    JSON syntax error and an integer literal longer than the interpreter
    reads into an ``int`` are each one parse error of the file, with exit
    2, worded as a text-mode read of the file words it."""
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    where = "%s: " % path if command == "verify" else ""
    assert captured.out == ""
    assert captured.err == ("error: %sscenario validation failed:\n"
                            "  cli.file: parse error: %s\n" % (where, reason))


def test_utf16_document_is_json_to_a_bytes_reader():
    """The UTF-16 case above is refused only because the file is decoded as
    UTF-8 first: given the bytes, json.loads would detect the encoding."""
    doc = bundled_doc("sl2_unramified_depth0")
    assert json.loads(json.dumps(doc).encode("utf-16")) == doc


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("command", ["verify", "chi-check"])
def test_cli_reads_crlf_and_cr_files_as_text_mode_does(command, newline, tmp_path, capsys):
    """A document with CRLF or CR line ends gives the report of the same
    document with LF line ends, byte for byte."""
    text = json.dumps(bundled_doc("z4_a1_ramified_chi"), indent=2).encode()
    path = tmp_path / "scenario.json"
    path.write_bytes(text)
    assert cli.main(["--format", "json", command, str(path)]) == 0
    want = capsys.readouterr().out
    path.write_bytes(text.replace(b"\n", newline))
    assert cli.main(["--format", "json", command, str(path)]) == 0
    assert capsys.readouterr().out == want


def _drop_field(name, field, key):
    doc = bundled_doc(name)
    doc[field] = {k: v for k, v in doc[field].items() if k != key}
    return doc


@pytest.mark.parametrize("command", ["verify", "degree", "gamma", "chi-check"])
@pytest.mark.parametrize("doc,line", [
    (dict(bundled_doc("sl2_unramified_depth0"), depth_zero={"stab_index": 1}),
     "formal_degree.depth_zero.dim_rho: missing"),
    (dict(bundled_doc("sl2_unramified_depth0"), depth_zero={"dim_rho": "1"}),
     "formal_degree.depth_zero.stab_index: missing"),
    (_drop_field("sl2_unramified_depth0", "q", "a"), "qexact.q.a: missing"),
    (_drop_field("sl2_unramified_depth0", "q", "p"), "qexact.q.p: missing"),
    ({k: v for k, v in bundled_doc("sl2_unramified_depth0").items() if k != "q"},
     "qexact.q: missing"),
    ({k: v for k, v in bundled_doc("z4_rank3_mixed").items() if k != "inertia"},
     "galois_roots.inertia: missing"),
], ids=["dim_rho", "stab_index", "q.a", "q.p", "q", "inertia"])
def test_cli_names_the_missing_field(command, doc, line, tmp_path, capsys):
    """A missing field of depth_zero, of q or at the top is refused by its
    name, with exit 2."""
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    where = "%s: " % path if command == "verify" else ""
    assert captured.out == ""
    assert captured.err == "error: %sscenario validation failed:\n  %s\n" % (where, line)


@pytest.mark.parametrize("command", ["verify", "chi-check"])
def test_cli_wild_frame_worded_alike_from_q_and_file(command, tmp_path, capsys):
    """A residue size that makes the frame wild is refused with the same
    provenance whether it comes from --q or from the file."""
    doc = bundled_doc("s3_a2_depth_third")
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--q", "3", command, str(path)]) == 2
    from_q = capsys.readouterr()
    doc["q"] = {"p": 3, "a": 1}
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 2
    from_file = capsys.readouterr()
    where = "%s: " % path if command == "verify" else ""
    assert from_q.out == from_file.out == ""
    assert from_q.err == from_file.err == (
        "error: %sscenario validation failed:\n"
        "  galois_roots.frame: wild frame: p divides |inertia|\n" % where)


@pytest.mark.parametrize("argv,calls", [
    (["verify"], 1),
    (["degree"], 1),
    (["gamma"], 1),
    (["chi-check"], 0),  # base change never reads the torus data
    (["--q", "9", "verify"], 1),  # only at the residue size compared
])
def test_torus_data_computed_once_per_q(argv, calls, monkeypatch, capsys):
    """The torus data are computed on first read, once per scenario and
    residue size, and only by the subcommands that read them."""
    original = fdc.galois_roots.torus_lattice_data
    seen = []

    def counting(datum, frame):
        seen.append(frame.q)
        return original(datum, frame)

    for name, module in list(sys.modules.items()):
        if name.startswith("fdc") and getattr(module, "torus_lattice_data", None) is original:
            monkeypatch.setattr(module, "torus_lattice_data", counting)
    rc = cli.main(["--format", "json"] + argv + [bundled_path("sl2_unramified_depth0")])
    capsys.readouterr()
    assert rc == 0
    assert seen == [9 if argv[0] == "--q" else 3] * calls  # the file's q is 3


@pytest.mark.parametrize("command", ["verify", "degree", "gamma", "chi-check"])
@pytest.mark.parametrize("name", BUNDLED)
def test_orbits_classified_once_per_file(command, name, monkeypatch, capsys):
    """Loading classifies the orbits once per file, and every later step
    reads that copy: chi-check's base change too, on a frame with proper
    nontrivial subgroups.  A scenario without χ loads before chi-check
    refuses it."""
    original = fdc.galois_roots.classify_orbits
    calls = []

    def counting(datum, frame):
        calls.append(datum)
        return original(datum, frame)

    for module_name, module in list(sys.modules.items()):
        if (module_name.startswith("fdc")
                and getattr(module, "classify_orbits", None) is original):
            monkeypatch.setattr(module, "classify_orbits", counting)
    rc = cli.main(["--format", "json", command, bundled_path(name)])
    capsys.readouterr()
    assert rc == (2 if command == "chi-check" and "chi" not in bundled_doc(name) else 0)
    assert len(calls) == 1


def _golden_stdout(case_id):
    path = os.path.join(os.path.dirname(__file__), "golden", case_id + ".out")
    with open(path, encoding="utf-8") as fh:
        status, stdout = fh.read().split("\n", 1)
    return int(status[len("exit="):]), stdout


def test_cli_main_reuses_its_parser_without_leaks(capsys):
    """Successive in-process calls keep no state: no option, usage error
    or default of one call carries over into the next."""
    flagged = bundled_path("sl2_ramified_depth_half")
    assert cli.main(["--strict", "verify", flagged]) == 1
    assert cli.main(["verify", flagged]) == 0

    name = "sl2_unramified_depth0"
    capsys.readouterr()
    assert cli.main(["--q", "9", "--format", "json", "verify", bundled_path(name)]) == 0
    assert (0, capsys.readouterr().out) == _golden_stdout("verify-q9-json-" + name)
    assert cli.main(["--format", "json", "verify", bundled_path(name)]) == 0
    assert (0, capsys.readouterr().out) == _golden_stdout("verify-json-" + name)

    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: fdc verify")
    assert cli.main(["--format", "json", "verify", bundled_path(name)]) == 0
    assert (0, capsys.readouterr().out) == _golden_stdout("verify-json-" + name)


def test_cli_has_no_selftest_subcommand(capsys):
    """The property suites run under pytest only (tests/lemmas.py)."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


def test_generator_produces_valid_scenarios():
    rng = random.Random(2024)
    for _ in range(25):
        scen = generate_scenario(rng)
        # regeneration through serialization preserves everything
        again = scenario_from_dict(scen.to_json_dict())
        assert again.filtration == scen.filtration
        assert len(scen.datum.roots) <= 12 and scen.datum.rank <= 3
        assert scen.frame.group.order <= 8
        assert all(o.e <= 4 for o in scen.orbits)


KLEIN_TABLE = [[i ^ j for j in range(4)] for i in range(4)]


def klein_doc(action, roots):
    """Klein four frame (inertia {0, 1}, Frobenius 2) on Z^2; only the group,
    the frame and the datum, which is all the frame checks read."""
    return {"name": "klein", "q": {"p": 3, "a": 1},
            "group": {"order": 4, "mult_table": KLEIN_TABLE},
            "inertia": [0, 1], "frobenius": 2, "lattice_rank": 2,
            "action": action, "roots": roots}


NEG, SWAP = [[-1, 0], [0, -1]], [[0, 1], [1, 0]]
NEG_SWAP = [[0, -1], [-1, 0]]


@pytest.mark.parametrize("doc,message", [
    # M(0) is not the identity
    (dict(bundled_doc("sl2_unramified_depth0"), action={"0": [[-1]], "1": [[-1]]}),
     "action is not a homomorphism at (0, 0)"),
    # the generators 1 and 2 act correctly, the product 3 = 1 * 2 does not
    (klein_doc({"0": [[1, 0], [0, 1]], "1": NEG, "2": SWAP, "3": SWAP},
               [[1, -1], [-1, 1]]),
     "action is not a homomorphism at (1, 2)"),
    # consistent with the generator 1 = -I, but the generator 2 acts with
    # order four in a group of exponent two; only its own rows expose that
    (klein_doc({"0": [[1, 0], [0, 1]], "1": NEG, "2": [[0, -1], [1, 0]],
                "3": [[0, 1], [-1, 0]]}, [[1, 0], [-1, 0]]),
     "action is not a homomorphism at (2, 2)"),
    # the roots are stable under the generator 1 but not under the generator 2
    (klein_doc({"0": [[1, 0], [0, 1]], "1": NEG, "2": SWAP, "3": NEG_SWAP},
               [[1, 0], [-1, 0]]),
     "root set is not stable under element 2"),
    # an integer matrix outside GL(Z): refused as a homomorphism failure,
    # since M(1) M(1) = 4 is not M(0) = 1
    (dict(bundled_doc("sl2_unramified_depth0"), action={"0": [[1]], "1": [[2]]}),
     "action is not a homomorphism at (1, 1)"),
], ids=["identity-not-fixed", "non-generator-wrong", "second-generator-wrong",
        "roots-unstable-under-one-generator", "not-invertible"])
def test_cli_refuses_bad_frame_action(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["verify", str(path)])
    assert rc == 2
    assert "galois_roots.GRootDatum: " + message in capsys.readouterr().err


@pytest.mark.parametrize("fields,line", [
    ({"action": {"0": [[1]], "1": [[-1, 0]]}},
     "galois_roots.GRootDatum: action matrix for element 1 has wrong shape"),
    ({"roots": [[0], [2], [-2]]}, "galois_roots.GRootDatum: 0 is not allowed as a root"),
    ({"group": {"order": 3, "mult_table": [[0, 1], [1, 0]]}},
     "galois_roots.group.order: declared order disagrees"),
    ({"group": {"order": 2, "perm_gens": []}},
     "galois_roots.group.perm_gens: no generators"),
    ({"group": {"order": 2, "perm_gens": [[0, 0]]}},
     "galois_roots.group.perm_gens: malformed permutation generators"),
    # 2^89 - 1, a prime above the bound of the deterministic primality test:
    # refused, not guessed, in the words --q gets
    ({"q": {"p": 2 ** 89 - 1, "a": 1}},
     "qexact.q: %d is too large to certify as prime" % (2 ** 89 - 1)),
], ids=["action-shape", "zero-root", "order-disagrees", "no-generators",
        "malformed-generators", "prime-past-the-certified-bound"])
def test_cli_refuses_bad_group_or_datum(fields, line, tmp_path, capsys):
    """Each refusal of the group, the datum or q, alone in an otherwise
    valid document: exit 2, nothing on stdout, and that one line listed."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(bundled_doc("sl2_unramified_depth0"), **fields)))
    assert cli.main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[1:] == ["  " + line]


def test_cli_refuses_depth_map_not_negation_invariant(tmp_path, capsys):
    """The two orbits of the A_2 document are an orbit and its negative:
    different depths on them are refused, with the one line naming the
    first orbit, exit 2 and nothing on stdout."""
    doc = dict(bundled_doc("s3_a2_depth_third"), theta_depths={"-1,-1": "1/3", "-1,0": "2/3"},
               theta_total_depth="2/3")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: %s: scenario validation failed:\n  galois_roots.theta_depths: depth map "
        "is not negation-invariant at orbit -1,-1\n" % path)


def test_cli_lists_a_datum_fault_beside_a_frame_fault(tmp_path, capsys):
    """The datum is checked against the group whether or not the frame
    passes, so a frame fault does not hide a datum fault: both are listed,
    the frame's first."""
    doc = dict(bundled_doc("sl2_unramified_depth0"), inertia=[0, 99],
               action={"0": [[1]], "1": [[1]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 2
    assert ("\n  galois_roots.frame: inertia is not a subgroup\n"
            "  galois_roots.GRootDatum: datum is not elliptic: invariant vectors exist\n"
            in capsys.readouterr().err)


@pytest.mark.parametrize("text,provenance", [
    ("[1, 2]", "cli.document: must be a JSON object, got array"),
    (json.dumps(dict(bundled_doc("z4_a1_ramified_chi"), chi=[1])),
     "chi_data.chi: must be a JSON object, got array"),
    # a field the table does not declare, whatever its value
    (json.dumps(dict(bundled_doc("z4_a1_ramified_chi"), options=5)),
     "cli.options: unknown field"),
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), action=[[1]], roots={})),
     "galois_roots.action: must be a JSON object, got array"),
    (json.dumps(dict(bundled_doc("s3_a2_depth_third"), group={"perm_gens": {"a": 1}})),
     "galois_roots.group.perm_gens: must be a JSON array, got object"),
    # integer group fields: never truncated, never read as 0 or 1
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"),
                     group={"order": 2.0, "mult_table": [[0, 1], [1, 0]]})),
     "galois_roots.group.order: must be an integer, got 2.0"),
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"),
                     group={"perm_gens": [[True, False]]})),
     "galois_roots.group.perm_gens: row 0 entry 0 must be an integer, got true"),
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"),
                     group={"perm_gens": [[1.0, 0.0]]})),
     "galois_roots.group.perm_gens: row 0 entry 0 must be an integer, got 1.0"),
    # a string is not read digit by digit as the permutation [1, 0]
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), group={"perm_gens": ["10"]})),
     'galois_roots.group.perm_gens: row 0 must be a JSON array, got "10"'),
    # both group forms, here naming different groups: neither is ignored
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), group={
        "mult_table": [[0, 1], [1, 0]], "perm_gens": [[1, 2, 0]]})),
     "galois_roots.group: need exactly one of mult_table and perm_gens"),
    # listed with the other load failures
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), q={"p": 9, "a": 1}, group={
        "mult_table": [[0, 1], [1, 0]], "perm_gens": [[1, 0]]})),
     "failed:\n  qexact.q: p = 9 is not prime\n"
     "  galois_roots.group: need exactly one of mult_table and perm_gens\n"),
    # S_8 (40,320 elements) against a two-entry action map: the closure
    # stops at the third element, before any multiplication table is built
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), group={"perm_gens": [
        [1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]})),
     "galois_roots.group.perm_gens: permutations generate more than 2 elements"),
    # a character table keyed on a vector outside the root set is not ignored
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"),
                     chi={"2": {"0": "0"}, "-2": {"0": "0"}, "4": {"0": "0"}})),
     "chi_data.chi: character at (4,) is not a root"),
    # an empty character table: refused under condition 2, not classified
    (json.dumps(dict(bundled_doc("z4_a1_ramified_chi"),
                     chi={"1": {"0": "0", "2": "1/2"}, "-1": {}})),
     "chi_data.chi: character at (-1,) is not a stabilizer homomorphism"),
    # the facts loading decides once, which later stages no longer re-check
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), theta_depths={"-2": "1/2"},
                     theta_total_depth="1/2")),
     "galois_roots.theta_depths: break 1/2 at orbit -2 violates the depth lattice "
     "(value group: false, half lattice: true)"),
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"),
                     action={"0": [[1]], "1": [[1]]})),
     "galois_roots.GRootDatum: datum is not elliptic: invariant vectors exist"),
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), roots=[[2]])),
     "galois_roots.GRootDatum: root set is not symmetric: missing -(2,)"),
    # frame elements outside the group
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), inertia=[0, 99])),
     "galois_roots.frame: inertia is not a subgroup"),
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), frobenius=7)),
     "galois_roots.frame: frobenius is not a group element"),
    # a loop of order 5: identity 0, every element its own inverse, not a group
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), group={"mult_table": [
        [0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0]]})),
     "galois_roots.group.mult_table: multiplication table is not associative"),
    # strings in the datum are not read digit by digit: these rows would load
    # as the identity matrix, and this root as [2]
    (json.dumps(dict(bundled_doc("z4_rank3_mixed"),
                     action=dict(bundled_doc("z4_rank3_mixed")["action"],
                                 **{"0": ["100", "010", "001"]}))),
     'galois_roots.action.0: row 0 must be a JSON array, got "100"'),
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), action={"0": "1", "1": [[-1]]})),
     'galois_roots.action.0: must be a JSON array, got "1"'),
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), roots=["2", [-2]])),
     'galois_roots.roots: row 0 must be a JSON array, got "2"'),
    # two keys naming one element: the later entry would replace the earlier
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"),
                     action={"0": [[1]], "1": [[7]], "01": [[-1]]})),
     "galois_roots.action.01: key repeats element 1"),
    (json.dumps(dict(bundled_doc("z4_a1_ramified_chi"), chi={
        "1": {"0": "0", "2": "1/3", "02": "1/2"}, "-1": {"0": "0", "2": "1/2"}})),
     "chi_data.chi.1.02: key repeats element 2"),
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"),
                     chi={"2": {"0": "0"}, "02": {"0": "0"}, "-2": {"0": "0"}})),
     "chi_data.chi.02: key repeats root (2,)"),
    # each break off (1/e)Z, told apart by (1/2e)Z: 1/3 at e = 1 is off both,
    # 1/4 at e = 2 only off the first
    (json.dumps(dict(bundled_doc("z4_rank3_mixed"), theta_total_depth="1/3", theta_depths={
        "-2,0,0": "1/3", "0,-1,-1": "1/4", "0,-1,0": "1/4"})),
     "failed:\n"
     "  galois_roots.theta_depths: break 1/3 at orbit -2,0,0 violates the depth lattice "
     "(value group: false, half lattice: false)\n"
     "  galois_roots.theta_depths: break 1/4 at orbit 0,-1,-1 violates the depth lattice "
     "(value group: false, half lattice: true)\n"
     "  galois_roots.theta_depths: break 1/4 at orbit 0,-1,0 violates the depth lattice "
     "(value group: false, half lattice: true)\n"),
    # misspelt fields, refused under their paths by the module of the object
    # holding them, not read as the defaults of the fields they were meant to be
    (json.dumps(dict(bundled_doc("sl2_unramified_depth0"), q={"p": 3, "a": 1, "b": 1},
                     theta_total_depht="1", depth_zer0={"dim_rho": "2", "stab_index": 24})),
     "failed:\n  qexact.q.b: unknown field\n  cli.depth_zer0: unknown field\n"
     "  cli.theta_total_depht: unknown field\n"),
], ids=["top-level-array", "chi-array", "options-number", "action-array",
        "perm-gens-object", "order-float", "perm-gens-bool", "perm-gens-float",
        "perm-gens-string", "both-group-forms", "both-group-forms-beside-q",
        "perm-gens-past-action", "chi-non-root", "chi-empty-table", "depth-lattice", "not-elliptic",
        "asymmetric-roots", "inertia-out-of-range", "frobenius-out-of-range",
        "non-associative-loop", "action-row-string", "action-matrix-string",
        "root-string", "action-repeated-key", "chi-repeated-key",
        "chi-repeated-root-key", "depth-lattice-both-lattices", "undeclared-fields"])
def test_cli_refuses_malformed_shapes(text, provenance, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = cli.main(["verify", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert provenance in err and "Traceback" not in err


def _with(doc, path, value):
    """A copy of doc with the value at the key path replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("path,value,provenance", [
    (("frobenius",), 1.9, "galois_roots.frobenius: must be an integer, got 1.9"),
    (("frobenius",), True, "galois_roots.frobenius: must be an integer, got true"),
    (("inertia",), [0.3], "galois_roots.inertia: entry 0 must be an integer, got 0.3"),
    (("lattice_rank",), 1.5,
     "galois_roots.lattice_rank: must be an integer, got 1.5"),
    (("action", "1"), [[-1.4]],
     "galois_roots.action.1: row 0 entry 0 must be an integer, got -1.4"),
    (("action", "1"), [[False]],
     "galois_roots.action.1: row 0 entry 0 must be an integer, got false"),
    (("roots",), [[2.2], [-2.2]],
     "galois_roots.roots: row 0 entry 0 must be an integer, got 2.2"),
    (("q",), {"p": 3.0, "a": 1}, "qexact.q.p: must be an integer, got 3.0"),
    (("q",), {"p": 3, "a": True}, "qexact.q.a: must be an integer, got true"),
    (("depth_zero",), {"dim_rho": "1", "stab_index": 1.5},
     "formal_degree.depth_zero.stab_index: must be an integer, got 1.5"),
    (("jump_offsets", "-2"), True,
     "mp_filtration.jump_offsets.-2: must be a rational, got true"),
], ids=["frobenius-float", "frobenius-bool", "inertia-float", "rank-float",
        "action-float", "action-bool", "roots-float", "p-float", "a-bool",
        "stab-index-float", "offset-bool"])
def test_cli_refuses_non_integer_numbers(path, value, provenance, tmp_path, capsys):
    """A float or a boolean in an integer field is refused, never truncated
    into a different scenario; each of these documents loaded and verified
    EQUAL while the loader converted with int()."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_with(bundled_doc("sl2_unramified_depth0"), path, value)))
    assert cli.main(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert provenance in captured.err and "Traceback" not in captured.err


def _set_perm_entry(doc, value):
    doc["group"]["perm_gens"][0][0] = value


@pytest.mark.parametrize("name,edit,line", [
    ("sl2_unramified_depth0", lambda d: d.update(depth_zero=5),
     'formal_degree.depth_zero: must be "regular" or a JSON object, got 5'),
    ("sl2_unramified_depth0", lambda d: d.update(depth_zero=[1]),
     'formal_degree.depth_zero: must be "regular" or a JSON object, got array'),
    ("sl2_unramified_depth0", lambda d: d.update(depth_zero="opaque"),
     'formal_degree.depth_zero: must be "regular" or a JSON object, got "opaque"'),
    ("sl2_unramified_depth0", lambda d: d.update(depth_zero=None),
     'formal_degree.depth_zero: must be "regular" or a JSON object, got null'),
    ("sl2_unramified_depth0", lambda d: d.update(inertia=[[0]]),
     "galois_roots.inertia: entry 0 must be an integer, got array"),
    ("sl2_unramified_depth0", lambda d: d.update(frobenius=[1]),
     "galois_roots.frobenius: must be an integer, got array"),
    ("sl2_unramified_depth0", lambda d: d.update(frobenius={"1": 1}),
     "galois_roots.frobenius: must be an integer, got object"),
    ("sl2_unramified_depth0", lambda d: d.update(frobenius=None),
     "galois_roots.frobenius: must be an integer, got null"),
    ("s3_a2_depth_third", lambda d: _set_perm_entry(d, [1]),
     "galois_roots.group.perm_gens: row 0 entry 0 must be an integer, got array"),
    ("sl2_unramified_depth0", lambda d: d.update(name=""),
     'cli.name: must be a nonempty string, got ""'),
], ids=["depth-zero-number", "depth-zero-array", "depth-zero-string", "depth-zero-null",
        "inertia-nested", "frobenius-array", "frobenius-object", "frobenius-null",
        "perm-entry-array", "name-empty"])
def test_cli_words_wrong_kind_fields(name, edit, line, tmp_path, capsys):
    """A field of the wrong JSON kind is refused in the loader's words, with
    its provenance and exit 2, never with the text of a Python error."""
    doc = bundled_doc(name)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: scenario validation failed:\n  %s\n" % (path, line)


def test_integer_fields_still_read_decimal_strings():
    """Keys of action and chi are decimal strings, and so may integer values be."""
    doc = _with(bundled_doc("sl2_unramified_depth0"), ("frobenius",), "1")
    assert scenario_from_dict(doc).frame.frobenius == 1


LONG = "1" * 5000  # an integer text past the interpreter's digit limit


@pytest.mark.parametrize("path,value,line", [
    (("q",), {"p": "1_1", "a": 1}, 'qexact.q.p: must be an integer, got "1_1"'),
    (("q",), {"p": 3, "a": "１"}, 'qexact.q.a: must be an integer, got "\\uff11"'),
    (("frobenius",), "0_1", 'galois_roots.frobenius: must be an integer, got "0_1"'),
    (("frobenius",), "１", 'galois_roots.frobenius: must be an integer, got "\\uff11"'),
    (("frobenius",), " 1 ", 'galois_roots.frobenius: must be an integer, got " 1 "'),
    (("frobenius",), "+1", 'galois_roots.frobenius: must be an integer, got "+1"'),
    (("action",), {"0": [[1]], "x": [[-1]]},
     'galois_roots.action.x: key must be an integer, got "x"'),
    (("action",), {"0": [[1]], "+1": [[-1]]},
     'galois_roots.action.+1: key must be an integer, got "+1"'),
    (("chi",), {"2": {"0": "0"}, "x": {"0": "0"}},
     'chi_data.chi.x: key must be an integer, got "x"'),
    (("chi", "2"), {"x": "0"}, 'chi_data.chi.2.x: key must be an integer, got "x"'),
    # past the interpreter's 4,300-digit limit, which int() words in its own text
    (("q",), {"p": LONG, "a": 1}, 'qexact.q.p: must be an integer, got "%s"' % LONG),
    (("q",), {"p": 3, "a": "-" + LONG}, 'qexact.q.a: must be an integer, got "-%s"' % LONG),
    (("frobenius",), LONG, 'galois_roots.frobenius: must be an integer, got "%s"' % LONG),
    (("inertia",), [0, LONG],
     'galois_roots.inertia: entry 1 must be an integer, got "%s"' % LONG),
    (("action",), {"0": [[1]], LONG: [[-1]]},
     'galois_roots.action.%s: key must be an integer, got "%s"' % (LONG, LONG)),
    (("chi", "2"), {LONG: "0"},
     'chi_data.chi.2.%s: key must be an integer, got "%s"' % (LONG, LONG)),
    (("chi",), {"2": {"0": "0"}, "2," + LONG: {"0": "0"}},
     'chi_data.chi.2,%s: key must be an integer, got "%s"' % (LONG, LONG)),
], ids=["p-underscore", "a-full-width", "frobenius-underscore", "frobenius-full-width",
        "frobenius-spaces", "frobenius-plus", "action-key-junk", "action-key-plus",
        "chi-root-key-junk", "chi-element-key-junk", "p-past-digit-limit",
        "a-past-digit-limit", "frobenius-past-digit-limit", "inertia-past-digit-limit",
        "action-key-past-digit-limit", "chi-element-key-past-digit-limit",
        "chi-root-coordinate-past-digit-limit"])
def test_integer_texts_are_ascii_digits(path, value, line, tmp_path, capsys):
    """An integer text, value or key, is ASCII digits after an optional "-",
    as for --q: ``int`` alone read each of these values as 11 or 1.  A text
    longer than ``int`` reads is refused in the same words."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_with(bundled_doc("sl2_unramified_depth0"), path, value)))
    assert cli.main(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: scenario validation failed:\n  %s\n" % (bad, line)


def test_cli_verify_keeps_good_reports_when_a_file_fails(tmp_path, capsys):
    good = bundled_path("sl2_unramified_depth0")
    flagged = bundled_path("sl2_ramified_depth_half")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    missing = tmp_path / "missing.json"
    assert cli.main(["--format", "json", "verify", good, flagged]) == 0
    both = capsys.readouterr().out

    rc = cli.main(["--format", "json", "verify", good, str(bad), flagged, str(missing)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == both  # the good reports, in order, as without the bad files
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 2  # one per bad file, each naming its path
    assert errors[0].startswith("error: %s: scenario validation failed" % bad)
    assert errors[1].startswith("error: %s: " % missing)
    assert "Traceback" not in captured.err

    # the worst status wins: a validation error outranks a --strict failure
    assert cli.main(["--strict", "verify", flagged, str(bad)]) == 2
    assert "verdict=FLAGGED" in capsys.readouterr().out
    assert cli.main(["--strict", "verify", good, flagged]) == 1
    capsys.readouterr()

    # nothing loads: no report, one error per file
    assert cli.main(["verify", str(bad), str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert sum(line.startswith("error: ") for line in captured.err.splitlines()) == 2


def test_shape_failures_are_reported_together():
    doc = dict(bundled_doc("z4_a1_ramified_chi"), roots={}, options=[])
    doc["chi"] = dict(doc["chi"], **{"1": "0"})
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.failures == [
        ("galois_roots", "roots", "must be a JSON array, got object"),
        ("chi_data", "chi.1", 'must be a JSON object, got "0"'),
        ("cli", "options", "unknown field"),
    ]


@pytest.mark.parametrize("q,p,a", [
    ("1000000007", 1000000007, 1),
    (str((10 ** 9 + 7) ** 2), 10 ** 9 + 7, 2),
    ("3^2", 3, 2),
    ("81", 3, 4),
])
def test_cli_large_q_loads_quickly(q, p, a, capsys):
    rc = cli.main(["--q", q, "--format", "json", "verify",
                   bundled_path("sl2_unramified_depth0")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["q"] == p ** a
    assert PrimePower.from_q(p ** a) == PrimePower(p, a)


@pytest.mark.parametrize("q,message", [
    ("15", "q = 15 is not a prime power"),
    ("16", "p must be odd"),  # 2^4
    ("1", "q = 1 is not an odd prime power"),
    ("1000000016000000063", "q = 1000000016000000063 is not a prime power"),  # (10^9+7)(10^9+9)
    ("3^2^2", "must be Q or P^A, got '3^2^2'"),
    ("3^^2", "must be Q or P^A, got '3^^2'"),
    ("abc", "invalid literal for int()"),
    ("3^x", "invalid literal for int()"),
    ("1e3", "invalid literal for int()"),
    ("", "invalid literal for int()"),
    ("1_1", "invalid literal for int()"),       # int() alone takes these four
    ("\uff11\uff11", "invalid literal for int()"),  # full-width digits
    (" 11 ", "invalid literal for int()"),
    ("+11", "invalid literal for int()"),
    (LONG, "invalid literal for int()"),  # past the digit limit, in the same words
    # 2^89 - 1, a prime above the bound of the deterministic primality test
    (str(2 ** 89 - 1), "%d is too large to certify as prime" % (2 ** 89 - 1)),
])
def test_cli_refuses_bad_q(q, message, capsys):
    """One error line for the run, naming the flag."""
    rc = cli.main(["--q", q, "verify", bundled_path("sl2_unramified_depth0"),
                   bundled_path("z4_rank3_mixed")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --q: ") and err.count("\n") == 1
    assert message in err


# The loader reduces chi values mod 1 and stores each as a numerator over the
# group order; these are the pinned outcomes at that boundary on the Z/4
# model, whose stabilizer of the root 1 is {0, 2}.
_CHI_REFUSED_AT_ONE = ["chi(-a) != chi(a)^-1 at (-1,)",
                       "equivariance fails from (-1,) under 1",
                       "character at (1,) is not a stabilizer homomorphism"]
_CHI_TRIVIAL_AT_ONE = ["chi(-a) != chi(a)^-1 at (-1,)", "chi(-a) != chi(a)^-1 at (1,)",
                       "equivariance fails from (-1,) under 1",
                       "equivariance fails from (1,) under 1"]


@pytest.mark.parametrize("command", ["chi-check", "verify"])
@pytest.mark.parametrize("element,value,failures", [
    ("2", "1/3", _CHI_REFUSED_AT_ONE),  # denominator does not divide |G| = 4
    ("2", "1/8", _CHI_REFUSED_AT_ONE),  # likewise
    ("2", "5/4", _CHI_REFUSED_AT_ONE),  # 1/4 mod 1: not additive on {0, 2}
    ("2", "-1/2", []),                  # 1/2 mod 1: the bundled value
    ("2", "7", _CHI_TRIVIAL_AT_ONE),    # 0 mod 1: trivial at 1, not at -1
    ("1", "0", _CHI_REFUSED_AT_ONE),    # a key outside the stabilizer
], ids=["third", "eighth", "five-quarters", "minus-half", "seven", "outside-key"])
def test_cli_chi_parse_boundary_pinned(command, element, value, failures, tmp_path, capsys):
    doc = bundled_doc("z4_a1_ramified_chi")
    doc["chi"]["1"][element] = value
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(doc))
    rc = cli.main([command, str(path)])
    err = capsys.readouterr().err
    if not failures:
        assert (rc, err) == (0, "")
        return
    where = "%s: " % path if command == "verify" else ""
    assert (rc, err) == (2, "error: %sscenario validation failed:\n%s" % (
        where, "".join("  chi_data.chi: %s\n" % f for f in failures)))


@pytest.mark.parametrize("command", ["verify", "degree", "gamma", "chi-check"])
@pytest.mark.parametrize("element", ["4", "-1"])
def test_cli_refuses_chi_keys_outside_the_group(command, element, tmp_path, capsys):
    """A character defined at an element index outside 0..|G|-1 is refused
    under chi_data, naming the root and the key, with exit 2: it is not read
    as the element that index would wrap to, nor past the end of a row."""
    doc = bundled_doc("z4_a1_ramified_chi")
    doc["chi"]["-1"][element] = "0"
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(doc))
    rc = cli.main([command, str(path)])
    captured = capsys.readouterr()
    where = "%s: " % path if command == "verify" else ""
    assert (rc, captured.out, captured.err) == (
        2, "", "error: %sscenario validation failed:\n  chi_data.chi: character at (-1,) is "
        "defined at %s, which is not a group element\n" % (where, element))


@pytest.mark.parametrize("command", ["verify", "degree", "gamma", "chi-check"])
def test_cli_lists_every_stray_chi_key(command, tmp_path, capsys):
    """Every χ key the loader refuses is named in the one refusal, in the
    order the loader checks them: the keys that are no root, then each
    element outside 0..|G|-1 under its root."""
    doc = bundled_doc("z4_a1_ramified_chi")
    doc["chi"]["3"] = {"0": "0"}
    doc["chi"]["-1"]["4"] = "0"
    doc["chi"]["1"]["7"] = "1/2"
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(doc))
    rc = cli.main([command, str(path)])
    captured = capsys.readouterr()
    where = "%s: " % path if command == "verify" else ""
    assert (rc, captured.out, captured.err) == (
        2, "", "error: %sscenario validation failed:\n"
        "  chi_data.chi: character at (3,) is not a root\n"
        "  chi_data.chi: character at (-1,) is defined at 4, which is not a group element\n"
        "  chi_data.chi: character at (1,) is defined at 7, which is not a group element\n"
        % where)


def test_chi_round_trips_through_numerators():
    """Loading stores chi values as numerators over the group order and
    to_json_dict renders them back: the "chi" field survives a round trip,
    on the bundled scenarios with chi data and on generated ones."""
    docs = [bundled_doc(name) for name in BUNDLED if "chi" in bundled_doc(name)]
    assert len(docs) == 4
    rng = random.Random(2024)
    generated = 0
    while generated < 60:
        scen = generate_scenario(rng)
        if scen.chi is not None:
            docs.append(scen.to_json_dict())
            generated += 1
    for doc in docs:
        assert scenario_from_dict(doc).to_json_dict()["chi"] == doc["chi"]


def test_unreduced_rationals_report_as_their_lowest_terms(tmp_path, capsys):
    """Depths, the total depth and an offset written unreduced, one of them
    over a negative denominator, load as the same rationals as the bundled
    file: the ``verify`` report is the bundled file's, byte for byte.  An
    unreduced depth would break the negation-invariance check and the
    grouping of orbits by break, which compare the stored values."""
    doc = bundled_doc("sl2_ramified_depth_half")
    doc.update(theta_depths={"-2": "2/4"}, theta_total_depth="3/6",
               jump_offsets={"-2": "-3/-12"})
    path = tmp_path / "unreduced.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--format", "json", "verify", str(path)]) == 0
    unreduced = capsys.readouterr()
    assert cli.main(["--format", "json", "verify", bundled_path("sl2_ramified_depth_half")]) == 0
    assert unreduced == capsys.readouterr()


def test_depth_past_the_total_is_refused_in_lowest_terms(tmp_path, capsys):
    """A depth past the total depth is refused with both rationals written
    in lowest terms, whatever the document wrote."""
    doc = bundled_doc("sl2_ramified_depth_half")
    doc.update(theta_depths={"-2": "6/4"}, theta_total_depth="2/2")
    path = tmp_path / "past_total.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: %s: scenario validation failed:" % path,
        "  galois_roots.theta_depths: depth 3/2 of orbit -2 exceeds the total depth 1"]


def _opaque_document(tmp_path):
    doc = bundled_doc("sl2_unramified_depth0")
    doc["depth_zero"] = {"dim_rho": "2", "stab_index": 24}
    path = tmp_path / "opaque.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_opaque_degree_takes_no_smith_form(monkeypatch, tmp_path, capsys):
    """``degree`` on opaque depth-zero data reads rank M from the traces the
    datum recorded and builds no torus data, so no Smith form is taken
    (the regular route, run last, takes three)."""
    import fdc.zlattice
    original = fdc.zlattice.smith_normal_form
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("fdc") and getattr(module, "smith_normal_form", None) is original:
            monkeypatch.setattr(module, "smith_normal_form", counting)
    path = _opaque_document(tmp_path)
    for fmt in ("text", "json"):
        for q in ([], ["--q", "3^2"]):
            assert cli.main(q + ["--format", fmt, "degree", path]) == 0
    assert calls == []
    assert cli.main(["degree", bundled_path("sl2_unramified_depth0")]) == 0
    capsys.readouterr()
    assert len(calls) == 3
