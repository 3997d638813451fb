"""``fdc chi-check`` against the route that compares every subgroup.

The command compares the two sides of base change only on the proper
nontrivial subgroups, since on {0} and G they are equal by construction
(see ``cli._cmd_chi_check``).  The reference here is the earlier route: it
calls :func:`verify_base_change` on every subgroup from ``all_subgroups()``
and renders the report the same way.  The two must print the same bytes.
"""

import contextlib
import io
import json
import os
import random

import pytest

import fdc.chi_data as chi_data
import fdc.cli as cli
from fdc.chi_data import BaseChange, CompatiblePair, SectionChoices, verify_base_change
from fdc.scenario import generate_scenario, json_text, load_scenario

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")
WITH_CHI = ["d4_b2_depth_quarter", "s3_a2_depth_third",
            "sl2_unramified_depth0", "z4_a1_ramified_chi"]
GENERATED_SEED = 31415
GENERATED_COUNT = 200


def reference_chi_check(path, fmt):
    """Exit status and stdout of chi-check with every subgroup compared."""
    scen = load_scenario(path)
    base = BaseChange(scen.chi, scen.datum, scen.frame, scen.orbits)
    results = []
    for sub in scen.frame.group.all_subgroups():
        rep = verify_base_change(base, sub)
        entry = {"subgroup": sorted(sub), "ok": rep.ok}
        if not rep.ok:
            entry["witness"] = rep.witness
        results.append(entry)
    ok_all = all(entry["ok"] for entry in results)
    if fmt == "json":
        out = json_text({"name": scen.name, "ok": ok_all, "subgroups": results}) + "\n"
    else:
        out = "".join("  H=%s %s\n" % (entry["subgroup"], "ok" if entry["ok"] else "FAIL")
                      for entry in results)
        out += "chi-check %s: %s\n" % (scen.name, "ok" if ok_all else "FAIL")
    return 0 if ok_all else 1, out


def run_chi_check(path, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--format", fmt, "chi-check", path])
    return code, buf.getvalue()


def generated_paths(tmp_dir):
    """The first GENERATED_COUNT generated scenarios with character data,
    each written to a file under ``tmp_dir``."""
    rng = random.Random(GENERATED_SEED)
    paths = []
    while len(paths) < GENERATED_COUNT:
        scen = generate_scenario(rng)
        if scen.chi is not None:
            path = os.path.join(tmp_dir, "%03d.json" % len(paths))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(scen.to_json())
            paths.append(path)
    return paths


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", WITH_CHI)
def test_chi_check_matches_every_subgroup_route_bundled(name, fmt):
    path = os.path.join(SCEN_DIR, name + ".json")
    assert run_chi_check(path, fmt) == reference_chi_check(path, fmt)


def test_chi_check_matches_every_subgroup_route_generated(tmp_path):
    """Byte-identical text and JSON on 200 generated scenarios, which
    include frames with only {0} and G and frames with proper subgroups."""
    has_middle = set()
    for path in generated_paths(str(tmp_path)):
        for fmt in ("text", "json"):
            assert run_chi_check(path, fmt) == reference_chi_check(path, fmt), path
        has_middle.add(len(load_scenario(path).frame.group.all_subgroups()) > 2)
    assert has_middle == {False, True}


def test_chi_check_skips_trivial_and_whole_subgroups(monkeypatch, capsys):
    """verify_base_change is never called on {0} or G, once on every other
    subgroup, and no BaseChange is built for the frame Z/2, which has no
    other subgroup."""
    built, compared = [], []

    def counting_base(*args):
        built.append(args)
        return BaseChange(*args)

    def counting_verify(base, sub):
        compared.append(sub)
        return verify_base_change(base, sub)

    monkeypatch.setattr(cli, "BaseChange", counting_base)
    monkeypatch.setattr(cli, "verify_base_change", counting_verify)
    for name in WITH_CHI:
        del built[:], compared[:]
        path = os.path.join(SCEN_DIR, name + ".json")
        assert cli.main(["--format", "json", "chi-check", path]) == 0
        listed = json.loads(capsys.readouterr().out)["subgroups"]
        group = load_scenario(path).frame.group
        middle = [sub for sub in group.all_subgroups() if 1 < len(sub) < group.order]
        assert compared == middle, name
        assert len(built) == (1 if middle else 0), name
        assert len(listed) == len(middle) + 2 and all(entry["ok"] for entry in listed)
        if name == "sl2_unramified_depth0":
            assert group.order == 2 and built == [] and compared == []


def test_chi_check_failures_match_every_subgroup_route(tmp_path, monkeypatch):
    """With the top outer section left at its default instead of rebuilt
    from the subgroup's sections, base change fails on some proper
    subgroups; both routes print the same FAIL lines and witnesses."""
    original = chi_data.compatible_choices

    def default_top(choices, subgroup, datum, frame):
        pair = original(choices, subgroup, datum, frame)
        top = SectionChoices(pair.top.reps, {cid: {x: x for x in u}
                                             for cid, u in pair.top.u.items()}, pair.top.v)
        return CompatiblePair(top, pair.sub)

    monkeypatch.setattr(chi_data, "compatible_choices", default_top)
    paths = [os.path.join(SCEN_DIR, name + ".json") for name in WITH_CHI]
    failed = 0
    for path in paths + generated_paths(str(tmp_path))[:50]:
        for fmt in ("text", "json"):
            code, out = run_chi_check(path, fmt)
            assert (code, out) == reference_chi_check(path, fmt), path
        failed += code
    assert failed > 0
