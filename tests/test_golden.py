"""Byte-for-byte pins of the CLI output on the bundled scenarios.

Each file under ``tests/golden/`` holds one command's exit status on its
first line (``exit=N``) followed by its exact stdout.  To re-capture them
after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/`` before committing it.  The same
run prints the digests of ``chi-check`` over generated scenarios
(``GENERATED_CHI_SHA256``) and of ``verify``, ``degree`` and ``gamma`` over
generated and Coxeter scenarios (``GENERATED_VERIFY_SHA256``), which are
pinned here rather than in files.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import pytest

import fdc.cli as cli
from fdc.scenario import generate_scenario
from test_coxeter import coxeter_document

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
SCEN_DIR = os.path.join(HERE, "..", "src", "fdc", "scenarios")

BUNDLED = [
    "d4_b2_depth_quarter",
    "s3_a2_depth_third",
    "sl2_ramified_depth_half",
    "sl2_unramified_depth0",
    "z4_a1_ramified_chi",
    "z4_rank3_mixed",
]
WITH_CHI = ["d4_b2_depth_quarter", "s3_a2_depth_third",
            "sl2_unramified_depth0", "z4_a1_ramified_chi"]

# sha256 of the exit status and stdout of ``--format json chi-check`` on the
# first GENERATED_CHI_COUNT generated scenarios that carry character data,
# drawn from random.Random(GENERATED_CHI_SEED).
GENERATED_CHI_SEED = 20261019
GENERATED_CHI_COUNT = 300
GENERATED_CHI_SHA256 = "8c03b7425cbe686f74ed377708bb9e233265c0f1b95156418cf95df3b293845c"

# sha256 of the exit status and stdout of VERIFY_COMMANDS on the first
# GENERATED_VERIFY_COUNT generated scenarios drawn from
# random.Random(GENERATED_VERIFY_SEED), then on the Coxeter documents
# A_3 ... A_11 (tests/test_coxeter.py), unramified and totally ramified.
GENERATED_VERIFY_SEED = 20261021
GENERATED_VERIFY_COUNT = 200
VERIFY_COMMANDS = (
    ["--format", "json", "verify"],
    ["--format", "text", "verify"],
    ["--format", "json", "degree"],
    ["--format", "text", "degree"],
    ["--format", "json", "gamma"],
    ["--format", "text", "gamma"],
)
GENERATED_VERIFY_SHA256 = "03bb482d9d40e54c793a42a8bfecc8e87457fb0134b6ea53df2ce5c9b71fb55c"


def cases():
    """(case id, argv with the scenario path relative to SCEN_DIR)."""
    out = []
    for name in BUNDLED:
        path = name + ".json"
        out.append(("verify-json-" + name, ["--format", "json", "verify", path]))
        out.append(("verify-text-" + name, ["--format", "text", "verify", path]))
        out.append(("verify-q9-json-" + name, ["--q", "9", "--format", "json", "verify", path]))
        out.append(("degree-json-" + name, ["--format", "json", "degree", path]))
        out.append(("gamma-json-" + name, ["--format", "json", "gamma", path]))
    for name in WITH_CHI:
        out.append(("chi-check-json-" + name, ["--format", "json", "chi-check", name + ".json"]))
        out.append(("chi-check-text-" + name, ["--format", "text", "chi-check", name + ".json"]))
    return out


def run_case(argv):
    argv = [os.path.join(SCEN_DIR, a) if a.endswith(".json") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return "exit=%d\n%s" % (code, buf.getvalue())


@pytest.mark.parametrize("case_id,argv", cases(), ids=[c[0] for c in cases()])
def test_golden_output(case_id, argv):
    assert run_case(argv) == _golden(case_id)


def generated_chi_digest(tmp_dir):
    """The digest pinned by GENERATED_CHI_SHA256, each scenario written to a
    file under ``tmp_dir`` and checked by an in-process CLI call."""
    rng = random.Random(GENERATED_CHI_SEED)
    digest = hashlib.sha256()
    count = 0
    while count < GENERATED_CHI_COUNT:
        scen = generate_scenario(rng)
        if scen.chi is None:
            continue
        path = os.path.join(tmp_dir, "%03d.json" % count)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(scen.to_json())
        digest.update(run_case(["--format", "json", "chi-check", path]).encode())
        count += 1
    return digest.hexdigest()


def test_chi_check_generated_digest(tmp_path):
    """chi-check output beyond the four bundled goldens: every byte of the
    JSON reports on 300 generated scenarios with character data."""
    assert generated_chi_digest(str(tmp_path)) == GENERATED_CHI_SHA256


def generated_verify_digest(tmp_dir):
    """The digest pinned by GENERATED_VERIFY_SHA256, each document written
    to a file under ``tmp_dir`` and run through every command of
    VERIFY_COMMANDS by an in-process CLI call."""
    rng = random.Random(GENERATED_VERIFY_SEED)
    texts = [generate_scenario(rng).to_json() for _ in range(GENERATED_VERIFY_COUNT)]
    texts += [json.dumps(coxeter_document(n, ramified))
              for n in range(4, 13) for ramified in (False, True)]
    digest = hashlib.sha256()
    for k, text in enumerate(texts):
        path = os.path.join(tmp_dir, "%03d.json" % k)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in VERIFY_COMMANDS:
            digest.update(run_case(command + [path]).encode())
    return digest.hexdigest()


def test_verify_generated_digest(tmp_path):
    """verify, degree and gamma output beyond the six bundled goldens:
    every byte of both report formats on 200 generated scenarios and 18
    Coxeter documents, so no change of the exact arithmetic alters a
    report unseen."""
    assert generated_verify_digest(str(tmp_path)) == GENERATED_VERIFY_SHA256


def _fresh_process_env(**extra):
    env = dict(os.environ)
    src = os.path.join(HERE, "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(extra)
    return env


def _run_fresh(python, argv, env):
    """The golden-file text of one ``python -m fdc.cli`` run in a new
    process of the interpreter ``python``."""
    argv = [os.path.join(SCEN_DIR, a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run([python, "-m", "fdc.cli"] + argv,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    return "exit=%d\n%s" % (proc.returncode, proc.stdout)


def _golden(case_id):
    with open(os.path.join(GOLDEN_DIR, case_id + ".out"), encoding="utf-8") as fh:
        return fh.read()


def test_golden_output_in_a_fresh_process():
    """``python -m fdc.cli`` builds its parser once in a new process and
    prints what the in-process calls print."""
    name = "z4_a1_ramified_chi"
    argv = ["--format", "json", "verify", name + ".json"]
    assert _run_fresh(sys.executable, argv, _fresh_process_env()) == _golden("verify-json-" + name)


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_golden_json_under_hash_seeds(hash_seed):
    """Orbit ids are strings, so the order of a set of them changes with
    the interpreter's hash seed; no such order reaches a JSON report.
    Every bundled ``verify`` and ``chi-check`` report is byte-identical to
    its golden file under two seeds, each in its own process."""
    env = _fresh_process_env(PYTHONHASHSEED=hash_seed)
    for case_id, argv in _json_cases():
        assert _run_fresh(sys.executable, argv, env) == _golden(case_id), case_id


def _json_cases():
    """The ``verify`` and ``chi-check`` JSON cases, one per bundled file
    and one per file with character data."""
    out = [(case_id, argv) for case_id, argv in cases()
           if case_id.startswith(("verify-json-", "chi-check-json-"))]
    assert len(out) == len(BUNDLED) + len(WITH_CHI)
    return out


def _starts(command):
    """Whether ``command`` is on PATH and runs an empty program."""
    path = shutil.which(command)
    if path is None:
        return False
    try:
        return subprocess.run([path, "-c", ""], capture_output=True, timeout=60).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_golden_json_under_each_interpreter(minor):
    """The package declares ``requires-python = ">=3.10"``.  Every bundled
    ``verify`` and ``chi-check`` JSON report is byte-identical to its
    golden file under ``python3.N``, each case in a new process; an
    interpreter that is not on PATH or does not start is skipped."""
    command = "python3.%d" % minor
    if not _starts(command):
        pytest.skip("%s does not start" % command)
    env = _fresh_process_env()
    for case_id, argv in _json_cases():
        assert _run_fresh(command, argv, env) == _golden(case_id), (command, case_id)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case_id, argv in cases():
        with open(os.path.join(GOLDEN_DIR, case_id + ".out"), "w", encoding="utf-8") as fh:
            fh.write(run_case(argv))
    sys.stdout.write("wrote %d golden files to %s\n" % (len(cases()), GOLDEN_DIR))
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("GENERATED_CHI_SHA256 = %r\n" % generated_chi_digest(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("GENERATED_VERIFY_SHA256 = %r\n" % generated_verify_digest(tmp))
