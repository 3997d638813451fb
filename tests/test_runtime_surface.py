"""Every function of the package runs: a runtime companion to the static
check of ``test_public_surface.py``.

The static check matches methods by attribute name and exempts dunders,
so a dead method hides behind a live one of the same name on another
class, and a dead ``__eq__`` or ``__iter__`` is never looked at.  Here a
fresh interpreter records each Python function it enters under
``sys.setprofile``, set before ``fdc`` is imported, while it runs:

* every subcommand in both formats on the six bundled files, with and
  without ``--q 3^2``;
* ``-h`` and a command line without FILE;
* an opaque depth-zero document through ``degree``, and a document whose
  character fails its checks through ``chi-check``;
* the refusal tests of ``test_scenario_cli.py`` (``-k refuses``);
* one ``generate_scenario`` draw written out by ``Scenario.to_json``.

Each ``def`` in ``src/fdc`` (methods and nested functions included) must
have been entered, save the few in ``ALLOWED``.  Run as a script, this
file performs the traced run and writes what ran as JSON to the file its
argument names.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src")
PACKAGE = os.path.join(SRC, "fdc")

# Functions no traced run enters, each with the reason it stays.
ALLOWED = {
    "qexact:Frozen.__setattr__": "refuses assignment to a record field; runs only on misuse",
    "qexact:Frozen.__delattr__": "refuses deletion of a record field; runs only on misuse",
    "qexact:Frozen.__repr__": "the data model's repr of a record, for debugging and "
                              "tracebacks; no report prints a record",
    "qexact:Value.__hash__": "the data model requires a hash beside __eq__; no record is "
                             "hashed on the traced runs",
    "qexact:padic_split": "moves a p-part of a coefficient into the exponent; every "
                          "coefficient a tame scenario yields is a p-unit",
}


def defined_functions():
    """``module:Qualified.name`` of each ``def`` in the package, keyed by
    (file name, line of its first decorator or of ``def``), which is the
    first line of its code object."""
    out = {}
    for fn in sorted(os.listdir(PACKAGE)):
        if not fn.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fn), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), fn)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qual = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        out[(fn, first)] = "%s:%s" % (fn[:-3], qual)
                    visit(child, qual + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


@pytest.fixture(scope="module")
def never_run(tmp_path_factory):
    """The defined functions the traced run of this file as a script never
    entered."""
    out = tmp_path_factory.mktemp("traced") / "ran.json"
    proc = subprocess.run([sys.executable, __file__, str(out)], cwd=os.path.join(HERE, ".."),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    ran = {tuple(x) for x in json.loads(out.read_text())}
    return sorted(name for key, name in defined_functions().items() if key not in ran)


def test_every_function_runs(never_run):
    dead = [name for name in never_run if name not in ALLOWED]
    assert dead == [], "functions of src/fdc that no traced run enters: %s" % dead


def test_runtime_allow_list_is_current(never_run):
    """Each allowed function still exists and still never runs: once a
    traced run enters it, its entry goes."""
    assert set(never_run) & set(ALLOWED) == set(ALLOWED)


def _traced_run(out_path):
    """Run the command lines, documents and tests the module docstring
    lists under a profiler, and write the (file name, first line) of each
    package function entered to ``out_path``."""
    package = os.path.realpath(PACKAGE)
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            ran.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(record)
    sys.path.insert(0, SRC)
    import contextlib
    import io
    import random

    import fdc.cli as cli
    from fdc.scenario import generate_scenario

    work = os.path.dirname(os.path.abspath(out_path))
    scenarios = os.path.join(PACKAGE, "scenarios")
    files = sorted(os.path.join(scenarios, f) for f in os.listdir(scenarios))

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except SystemExit:
                pass

    def document(name, edit):
        with open(os.path.join(scenarios, name + ".json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        path = os.path.join(work, name + ".edited.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    for q in ([], ["--q", "3^2"]):
        for fmt in ("text", "json"):
            for command in ("verify", "degree", "gamma", "chi-check"):
                for path in files:
                    run(q + ["--format", fmt, command, path])
    run(["-h"])
    run(["verify"])
    run(["degree", document("sl2_unramified_depth0", lambda doc: doc.update(
        depth_zero={"dim_rho": "2", "stab_index": 24}))])
    run(["chi-check", document("z4_a1_ramified_chi", lambda doc: doc["chi"]["1"].update(
        {"2": "0"}))])
    rc = pytest.main(["-q", "-p", "no:cacheprovider", "--basetemp", os.path.join(work, "pytest"),
                      "-k", "refuses", os.path.join(HERE, "test_scenario_cli.py")])
    generate_scenario(random.Random(1)).to_json()
    sys.setprofile(None)
    if rc != 0:
        sys.exit("the refusal tests failed")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(sorted((os.path.basename(f), line) for f, line in ran
                         if os.path.dirname(os.path.realpath(f)) == package), fh)


if __name__ == "__main__":
    _traced_run(sys.argv[1])
