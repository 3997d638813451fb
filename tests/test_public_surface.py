"""Every module of the package is reached from the command line, every
symbol has a caller in the package, and every record field is read.

The source of ``src/fdc`` is parsed with ``ast``, not imported.  A
module-level function, class or private constant must be referenced (as
a name or as an attribute) from some module of the package, outside its
own definition.  A method or property of any class (public or private,
the dunders aside) must be read as an attribute (``x.name`` in a load):
a bare name of the same spelling, such as a local variable, does not
count.  Methods are matched by attribute name alone, so the test can miss
a dead method whose name is read on a record of another class.
"""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "fdc")

# Symbols without a caller in the package, each with the reason it stays.
ALLOWED = {
    "generate_scenario": "entry point of the benchmark workloads (bench/workloads.py)",
    "Scenario.to_json": "entry point of the benchmark workloads (bench/workloads.py)",
    "__version__": "the package version attribute; pyproject.toml declares the same",
}


# Record fields (``__slots__`` entries) no module reads, each with the reason it stays.
ALLOWED_FIELDS = {
    "OrbitInfo.symmetric": "the orbit classification ROADMAP item 4 decides FLAGGED from",
    "OrbitInfo.ramified": "the orbit classification ROADMAP item 4 decides FLAGGED from",
}


def _public(name):
    return not name.startswith("_")


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, bare name, node) of each public module-level
    function and class and each method, other than a dunder, of any class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            out.append((node.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [("%s.%s" % (node.name, item.name), item.name, item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not _dunder(item.name)]
    return out


def _private_definitions(tree):
    """(name, name, node) of each private module-level function, class and
    constant (a name assigned at module level)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(name, name, node) for name in names if not _public(name)]
    return out


def _references(tree):
    """(name, line, attribute load) of every name and attribute in the
    module; the flag is set for an ``x.name`` read."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, isinstance(node.ctx, ast.Load)))
    return out


def _modules():
    out = {}
    for fn in sorted(os.listdir(SRC)):
        if fn.endswith(".py"):
            with open(os.path.join(SRC, fn), encoding="utf-8") as fh:
                out[fn] = ast.parse(fh.read(), fn)
    return out


def unreferenced_symbols():
    """Qualified names of the symbols, public and private, that no module
    references outside their own definition, as ``module:name``.  A
    method (qualified as ``Class.name``) counts only attribute loads."""
    modules = _modules()
    refs = {fn: _references(tree) for fn, tree in modules.items()}
    missing = []
    for fn, tree in modules.items():
        for qual, name, node in _definitions(tree) + _private_definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            method = "." in qual
            used = any(ref == name and (load or not method) and not (mod == fn and line in inside)
                       for mod, module_refs in refs.items() for ref, line, load in module_refs)
            if not used:
                missing.append("%s:%s" % (fn[:-3], qual))
    return missing


def test_every_public_symbol_has_a_caller():
    dead = [m for m in unreferenced_symbols() if m.split(":")[1] not in ALLOWED]
    assert dead == [], "symbols without a caller in src/fdc: %s" % dead


def test_allow_list_is_current():
    """Each allowed symbol still exists and still lacks a caller: once it
    gains one, its entry goes."""
    allowed_now = {m.split(":")[1] for m in unreferenced_symbols()} & set(ALLOWED)
    assert allowed_now == set(ALLOWED)


def _imported_modules(tree):
    """File names of the package modules that a module imports at module
    level, by ``from .mod import x`` or ``from . import mod``."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            out |= {name + ".py" for name in names}
    return out


def test_every_module_is_reached_from_the_cli():
    """The package holds only code the command line runs: each module is
    reached from ``cli.py`` through module-level imports.  An import inside
    a function does not count, so a module only one subcommand loads on
    demand fails here."""
    modules = _modules()
    reached, todo = set(), ["cli.py"]
    while todo:
        fn = todo.pop()
        if fn not in reached:
            reached.add(fn)
            todo += _imported_modules(modules[fn]) - reached
    assert sorted(set(modules) - reached - {"__init__.py"}) == []


def test_cli_import_leaves_out_dataclasses_and_random():
    """Importing the command line in a fresh interpreter loads neither
    ``dataclasses`` (the records are plain slotted classes) nor ``random``
    (only the generator uses it, with a ``Random`` its caller made), nor
    ``argparse`` and the ``gettext`` it pulls in (the argv parser is
    hand-written).  ``-S`` skips ``site``, whose installed packages may
    import any of them on their own."""
    code = ("import sys; sys.path.insert(0, %r); import fdc.cli; "
            "print(sorted({'argparse', 'dataclasses', 'gettext', 'random'} & set(sys.modules)))"
            % os.path.join(os.path.dirname(__file__), "..", "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def _slot_fields(tree):
    """(Class.field, field) of each ``__slots__`` entry of a class of the module."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in item.targets)):
                    out += [("%s.%s" % (node.name, field), field)
                            for field in ast.literal_eval(item.value)]
    return out


def unread_fields():
    """The record fields that no module of the package reads as an
    attribute (``x.field`` in a load), as ``module:Class.field``.  Writes
    do not count, and neither do the generic reads of every field by
    ``Frozen.__repr__`` and ``Value.__eq__``.  Fields are matched by name
    only: a field is counted as read when any module reads an attribute of
    that name, on a record of any class."""
    modules = _modules()
    read = {node.attr for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return ["%s:%s" % (fn[:-3], qual) for fn, tree in modules.items()
            for qual, field in _slot_fields(tree) if field not in read]


def test_every_record_field_is_read():
    dead = [m for m in unread_fields() if m.split(":")[1] not in ALLOWED_FIELDS]
    assert dead == [], "record fields no module of src/fdc reads: %s" % dead


def test_field_allow_list_is_current():
    """Each allowed field still exists and is still unread: once a module
    reads it, its entry goes."""
    assert {m.split(":")[1] for m in unread_fields()} == set(ALLOWED_FIELDS)
