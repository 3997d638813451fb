"""The one indented-JSON writer, against ``json.dumps(indent=2, sort_keys=True)``.

``fdc.scenario.json_text`` writes every ``--format json`` document and every
scenario file.  It must give the standard library's bytes on everything fdc
writes, refuse what it does not know, and be the only route: no
``json.dumps(..., indent=...)`` call is left in ``src/fdc``.
"""

import ast
import glob
import json
import os
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import fdc.cli as cli
import fdc.compare
from fdc.qexact import int_str, ratio_str
from fdc.scenario import generate_scenario, json_text, load_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(HERE, "..", "src", "fdc")
SCEN_DIR = os.path.join(SRC_DIR, "scenarios")


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def test_golden_json_documents():
    checked = 0
    for path in sorted(glob.glob(os.path.join(HERE, "golden", "*-json-*.out"))):
        with open(path, encoding="utf-8") as fh:
            text = fh.read().split("\n", 1)[1]  # the first line is the exit status
        if not text:
            continue  # a refused input writes no document
        doc = json.loads(text)
        assert json_text(doc) + "\n" == reference(doc) + "\n" == text, path
        checked += 1
    assert checked == 27


EDGE_CASES = [
    {}, [], "", 0, -1, -10 ** 30, 10 ** 300, True, False, None,
    -1.5, 0.1, -0.0, 1e300, 5e-324, float("inf"), float("-inf"), float("nan"),
    {"a": []}, {"a": {}}, [[]], [{}], [[], {}, [[]]], {"a": {"b": {"c": []}}},
    "café", "  ", "\x00\x01\x1f\x7f", "\"\\/\b\f\n\r\t", "\U0001d11e",
    {"é": "x", "e": 1, "E": 2, "_": 3, "10": 4, "9": 5, "": 6, "\x00": 7},
    {"b": [1, "2", None, True], "a": {"z": -3.25, "y": [False, {"k": []}]}},
    [1, [2, [3, [4, []]]], {"deep": {"er": {"est": "ÿ"}}}],
]


@pytest.mark.parametrize("obj", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_edge_cases(obj):
    assert json_text(obj) == reference(obj)


@pytest.mark.parametrize("obj", [Fraction(1, 2), (1, 2), {1: "a"}, {"a": (1,)},
                                 [Fraction(3)], {"a": {2: 0}}, {1, 2}],
                         ids=["fraction", "tuple", "int-key", "nested-tuple",
                              "nested-fraction", "nested-int-key", "set"])
def test_refuses_other_types(obj):
    with pytest.raises(TypeError):
        json_text(obj)


def test_huge_values_are_exact():
    """Integers past the interpreter's int-to-str digit limit, checked
    against Decimal, which converts without that limit."""
    for n in (97 ** 2256, -(10 ** 5000) - 7, 2 ** 20000 - 1, 10 ** 4299, 3 ** 1300):
        digits = str(Decimal(n))
        assert int_str(n) == digits
        assert json_text({"n": [n]}) == '{\n  "n": [\n    %s\n  ]\n}' % digits
        x = Fraction(n, 97 ** 2000 * 2 + 1)
        assert ratio_str(x.numerator, x.denominator) == "%s/%s" % (Decimal(x.numerator), Decimal(x.denominator))
    for n in (0, 1, -1, 2 ** 2000 - 1, -(2 ** 2000), 2 ** 2001):
        assert int_str(n) == str(Decimal(n))


def _scenarios():
    out = [load_scenario(path) for path in sorted(glob.glob(os.path.join(SCEN_DIR, "*.json")))]
    rng = random.Random(4242)
    out += [generate_scenario(rng) for _ in range(200)]
    return out


def test_cli_payloads_and_scenario_files(tmp_path, monkeypatch, capsys):
    """Every JSON document the verify, degree, gamma and chi-check commands
    write, with and without --timing, and every scenario file, on the
    bundled scenarios and 200 generated ones."""
    written = []

    def recording(obj):
        text = json_text(obj)
        written.append((obj, text))
        return text

    monkeypatch.setattr(cli, "json_text", recording)
    monkeypatch.setattr(fdc.compare, "json_text", recording)
    commands = 0
    for i, scen in enumerate(_scenarios()):
        text = scen.to_json()
        assert text == reference(scen.to_json_dict()) + "\n", scen.name
        path = tmp_path / ("%03d.json" % i)
        path.write_text(text, encoding="utf-8")
        runs = [["verify"], ["--timing", "verify"], ["degree"], ["gamma"]]
        if scen.chi is not None:
            runs.append(["chi-check"])
        for run in runs:
            written.clear()
            rc = cli.main(["--format", "json"] + run + [str(path)])
            out = capsys.readouterr().out
            assert rc in (0, 1), (scen.name, run)
            ((obj, text),) = written
            assert text == reference(obj), (scen.name, run)
            assert out == text + "\n"
            commands += 1
    assert commands > 4 * 206


def test_no_other_indented_json_route():
    """No ``json.dump``/``json.dumps`` call with an ``indent`` is left in
    the package: indented JSON has one route, :func:`json_text`."""
    offenders = []
    for path in sorted(glob.glob(os.path.join(SRC_DIR, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dump", "dumps")
                    and any(kw.arg == "indent" for kw in node.keywords)):
                offenders.append("%s:%d" % (os.path.basename(path), node.lineno))
    assert offenders == []
