"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs a tiny pass of every workload, untraced and traced, and checks that
the result line carries exactly the declared metrics, that two runs give
the same digests and that the traced call counts match the pipeline's
shape.  Then it injects faults (a corrupted expected value, a patched
UNEQUAL verdict, missing sources) and checks that each one fails the
command.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from typing import Dict, List, Tuple

import run
import workloads

TINY = {
    "gen_batch": functools.partial(workloads.gen_batch, gen_count=3),
    "coxeter_ladder": functools.partial(workloads.coxeter_ladder, ns=(4,)),
    "chi_sweep": functools.partial(workloads.chi_sweep, min_items=6),
}
FAILURES: List[str] = []


def check(ok: bool, label: str) -> None:
    print("%-68s %s" % (label, "ok" if ok else "FAIL"))
    if not ok:
        FAILURES.append(label)


def invoke(workload: str, trace: int = 0) -> Tuple[int, Dict[str, object], Dict[str, object]]:
    """run.main on one workload for a single pass; (exit code, result
    line, full result document)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace)])
    last = json.loads(out.getvalue().splitlines()[-1])
    with open(run.OUT / ("%s.result.json" % workload), encoding="utf-8") as fh:
        return rc, last, json.load(fh)


def tiny_passes() -> None:
    declared = run.declared_metrics()
    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            rc, last, doc = invoke(name, trace)
            tag = "%s trace=%d" % (name, trace)
            check(rc == 0 and last["correct"] and last["failed"] == 0
                  and last["attempted"] == doc["meta"]["items"] * doc["meta"]["passes"],
                  tag + ": every item correct")
            check(set(last["metrics"]) == {m["name"] for m in declared[kind]}
                  and set(last["metrics"]) <= set(doc["metrics"]),
                  tag + ": exactly the declared metrics, all measured")
            if trace == 0:
                check(all(m["value"] > 0 for m in last["metrics"].values()),
                      tag + ": every end-to-end metric is positive")
                continue
            items = doc["meta"]["items"]
            metric = {k: v["value"] for k, v in last["metrics"].items()}
            verify = name != "chi_sweep"
            check(metric["galois_roots.torus_lattice_data.calls"] == (2 if verify else 1) * items,
                  tag + ": torus data computed %d time(s) per item" % (2 if verify else 1))
            check((metric["chi_data.verify_base_change.calls"] > 0) != verify,
                  tag + ": base change runs only under chi-check")
        digests = [invoke(name)[2] for _ in range(2)]
        check(len({(d["report_sha256"], d["inputs_sha256"]) for d in digests}) == 1,
              name + ": two runs give the same digests")


def corrupted_expected_value() -> None:
    original = workloads.coxeter_expected

    def wrong(n: int, ramified: bool) -> workloads.Expected:
        exp = original(n, ramified)
        coeff, pexp = exp.value
        return workloads.Expected(exp.verdict, (coeff * 2, pexp))

    workloads.coxeter_expected = wrong
    try:
        rc, last, doc = invoke("coxeter_ladder")
    finally:
        workloads.coxeter_expected = original
    check(rc != 0 and not last["correct"] and doc["error_rate"] > 0,
          "fault: a corrupted expected value fails the command")


def patched_unequal_verdict() -> None:
    original = run.import_fdc

    def import_with_fault():
        cli = original()
        compare = sys.modules["fdc.compare"]
        honest = compare.run_compare

        def unequal(scenario):
            report = honest(scenario)
            report.verdict = compare.VERDICT_UNEQUAL
            return report

        compare.run_compare = cli.run_compare = unequal
        return cli

    run.import_fdc = import_with_fault
    try:
        rc, last, doc = invoke("gen_batch")
    finally:
        run.import_fdc = original
    check(rc != 0 and not last["correct"] and doc["error_rate"] == 1,
          "fault: an UNEQUAL verdict fails every item and the command")


def missing_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in (run.ROOT / "bench").glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gen_batch",
                           "--seconds", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180, check=False)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "fault: without the fdc sources the command fails with no result")


def closed_forms() -> None:
    exp = workloads.coxeter_expected(4, False)
    check(exp.value == (Fraction(1, 40), Fraction(15)), "closed form: 1/40 * 3^(15) at n = 4")
    exp = workloads.coxeter_expected(12, True)
    check(exp.value == (Fraction(1, 12), Fraction(275, 2)),
          "closed form: 1/12 * 13^(275/2) at n = 12")


def main() -> int:
    workloads.WORKLOADS.update(TINY)
    closed_forms()
    tiny_passes()
    corrupted_expected_value()
    patched_unequal_verdict()
    missing_sources()
    print("benchmark selftest: %s" % ("FAIL (%d)" % len(FAILURES) if FAILURES else "ok"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
