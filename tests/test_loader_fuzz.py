"""Property-based fuzzing of the scenario loader and the ``verify`` command.

Documents are arbitrary JSON values, or bundled scenarios with a few nodes
replaced by arbitrary JSON values or deleted.  Whatever the document, only
``ScenarioError`` may leave ``scenario_from_dict``, and ``fdc verify`` must
return 0 or 2 (never 1, which means a mathematical disagreement) without
raising.  The example count is fixed and the search derandomized, so the
test is reproducible and its run time bounded.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fdc.cli as cli
from fdc.scenario import Scenario, ScenarioError, scenario_from_dict

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


@FUZZ
@given(DOCUMENTS)
def test_loader_raises_only_scenario_error(doc):
    try:
        scen = scenario_from_dict(doc)
    except ScenarioError as err:
        assert err.failures  # structured, with provenance
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
