"""Every rational between a loaded document and a report is a reduced
integer pair: no ``fractions.Fraction`` is built on the way.  The
generator keeps its own Fraction arithmetic, and its draws leave it as
pairs, so it is not run here."""

import fractions
import json

import fdc.cli as cli
from test_coxeter import coxeter_document
from test_scenario_cli import BUNDLED, _opaque_document, bundled_path


def test_no_fraction_is_built_by_any_subcommand(monkeypatch, tmp_path, capsys):
    """Every subcommand in both formats, on the bundled files, the opaque
    depth-zero document and the A_3 ... A_11 Coxeter documents, unramified
    and totally ramified, with ``Fraction.__new__`` counting its calls."""
    paths = [bundled_path(name) for name in BUNDLED] + [_opaque_document(tmp_path)]
    for n in range(4, 13):
        for ramified in (False, True):
            path = tmp_path / ("coxeter_%d_%d.json" % (n, ramified))
            path.write_text(json.dumps(coxeter_document(n, ramified)))
            paths.append(str(path))
    original = fractions.Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting))
    assert fractions.Fraction(1, 2) and built == [(1, 2)]  # the spy sees a build
    built.clear()
    runs = 0
    for path in paths:
        for fmt in ("text", "json"):
            for command in ("verify", "degree", "gamma", "chi-check"):
                cli.main(["--format", fmt, command, path])
                runs += 1
    monkeypatch.undo()
    capsys.readouterr()
    assert runs == 4 * 2 * 25
    assert built == []
