"""Fuzzing of the scenario loader and the ``verify`` command.

Property-based: documents are arbitrary JSON values, or bundled scenarios
with a few nodes replaced by arbitrary JSON values or deleted.  Whatever
the document, only ``ScenarioError`` may leave ``scenario_from_dict``,
carrying none of Python's own error texts, and ``fdc verify`` must return 0
or 2 (never 1, which means a mathematical disagreement) without raising.
The example count is fixed and the search derandomized, so the test is
reproducible and its run time bounded.

Enumerated from the field table: every field of ``FIELDS`` is deleted, and
replaced by a value of each JSON kind its reader refuses, in a bundled
document that holds it; each such document is refused with exit 2, its
first refusal line naming that field.
"""

import contextlib
import copy
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fdc.cli as cli
from fdc.scenario import FIELDS, REQUIRED, Scenario, ScenarioError, scenario_from_dict

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")
BASES = []
for _name in sorted(os.listdir(SCEN_DIR)):
    with open(os.path.join(SCEN_DIR, _name)) as _fh:
        BASES.append(json.load(_fh))

SCALARS = (st.none() | st.booleans() | st.integers(-20, 40)
           | st.floats(allow_nan=False, allow_infinity=False, width=32)
           | st.sampled_from(["0", "1/2", "-1/3", "1/0", "x", "nonpositive", "regular", ""])
           | st.text(max_size=4))
JSON = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=12)


@st.composite
def mutated_documents(draw):
    """A bundled document with one to three nodes replaced or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        parent = doc
        key = draw(st.sampled_from(sorted(doc)))
        # descend while the node is a nonempty container and the draw says so
        while (isinstance(parent[key], (dict, list)) and parent[key]
               and draw(st.booleans())):
            parent = parent[key]
            key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                       else range(len(parent))))
        if draw(st.booleans()):
            parent[key] = draw(JSON)
        else:
            del parent[key]
        if not doc:
            break
    return doc


DOCUMENTS = JSON | mutated_documents()
FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# Python's own wording of a failed conversion or lookup: an int() message,
# its digit limit, indexing a list or a string with a string, a KeyError's
# quoted bare key, and the repr of a boolean or of None.
PYTHON_TEXT = re.compile(r"int\(\) argument|invalid literal for int\(\)|Exceeds the limit"
                         r"|object is not subscriptable|indices must be integers"
                         r"|(^|\s)'[^'\s]+'($|\s)|\bTrue\b|\bNone\b")


def assert_worded_by_the_loader(err):
    assert err.failures  # structured, with provenance
    for failure in err.failures:
        line = "%s.%s: %s" % failure
        assert not PYTHON_TEXT.search(line), line


@FUZZ
@given(DOCUMENTS)
def test_loader_raises_only_scenario_error(doc):
    try:
        scen = scenario_from_dict(doc)
    except ScenarioError as err:
        assert_worded_by_the_loader(err)
        return
    assert isinstance(scen, Scenario)


@FUZZ
@given(DOCUMENTS)
def test_cli_verify_never_exits_1_on_fuzzed_documents(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["verify", path])
    assert rc in (0, 2), err.getvalue()
    assert (rc == 2) == err.getvalue().startswith("error: %s: " % path)


# One value of each JSON kind, and the ones each kind of field reads.
SAMPLES = {"object": {}, "array": [], "string": "x", "integer": 7, "float": 1.5,
           "boolean": True, "null": None}
READS = {
    "nonempty string": {"string"},
    "integer": {"integer"},
    "integer array": {"array"},
    "integer table": {"array"},
    "rational": {"integer"},
    "rational mod 1": {"integer"},
    "depth": {"integer"},
    "object": {"object"},
    '"regular" or object': {"object"},
}
# The fields no bundled document holds
EXTRA = dict(BASES[0], depth_zero={"dim_rho": "1", "stab_index": 1})


def _site(path):
    """A copy of the first document (bundled, then EXTRA) that holds the
    field at the table path, with the keys leading to it: each <...>
    component is the first key of its object."""
    for base in BASES + [EXTRA]:
        node, keys = base, []
        for comp in path.split("."):
            if not isinstance(node, dict) or not node:
                break
            key = next(iter(node)) if comp.startswith("<") else comp
            if key not in node:
                break
            keys.append(key)
            node = node[key]
        else:
            return copy.deepcopy(base), keys
    raise AssertionError("no document holds %s" % path)


def _first_refusal(doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err.splitlines()[1].strip()


def _outcome(doc):
    try:
        return scenario_from_dict(doc).to_json_dict()
    except ScenarioError as err:
        return err.failures


@pytest.mark.parametrize("path,module,kind,default", FIELDS, ids=[row[0] for row in FIELDS])
def test_every_field_refused_by_its_path(path, module, kind, default, tmp_path, capsys):
    doc, keys = _site(path)
    *parents, last = keys
    holder = doc
    for key in parents:
        holder = holder[key]
    where = "%s.%s:" % (module, ".".join(keys))
    for name, value in SAMPLES.items():
        if name not in READS[kind]:
            holder[last] = value
            line = _first_refusal(doc, tmp_path, capsys)
            assert line.startswith(where), (name, line)
            with pytest.raises(ScenarioError) as err:
                scenario_from_dict(doc)
            assert_worded_by_the_loader(err.value)
    del holder[last]
    if default is REQUIRED:
        assert _first_refusal(doc, tmp_path, capsys) == where + " missing"
    elif default is not None:  # absent reads as the default
        absent = _outcome(doc)
        holder[last] = default
        assert absent == _outcome(doc)
