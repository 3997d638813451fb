"""The tests import nothing that the ``test`` extra of ``pyproject.toml``
does not declare.

Each top-level module imported by a file under ``tests/`` (parsed with
``ast``, not imported) must be part of the standard library, ``fdc``
itself, a module of ``tests/``, or a package named in the ``test`` extra,
so that ``pip install -e ".[test]"`` is all a fresh checkout needs.
"""

import ast
import os
import re
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
PYPROJECT = os.path.join(TESTS, "..", "pyproject.toml")


def declared_test_extra():
    """The import names of the packages the ``test`` extra declares: each
    requirement up to its first version or marker character, lower case,
    with "-" read as "_"."""
    with open(PYPROJECT, encoding="utf-8") as fh:
        match = re.search(r'^test = \[(.*)\]$', fh.read(), re.M)
    assert match, "pyproject.toml declares no test extra on one line"
    names = re.findall(r'"([A-Za-z0-9_.-]+)', match.group(1))
    return {name.lower().replace("-", "_") for name in names}


def imported_modules(path):
    """The top-level names of the absolute imports of one file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_every_test_import_is_declared():
    files = sorted(f for f in os.listdir(TESTS) if f.endswith(".py"))
    local = {f[:-3] for f in files}
    extra = declared_test_extra()
    assert {"pytest", "hypothesis"} <= extra  # the extra line was read
    allowed = set(sys.stdlib_module_names) | {"fdc"} | local | extra
    undeclared = {(f, name) for f in files
                  for name in imported_modules(os.path.join(TESTS, f)) - allowed}
    assert not undeclared
