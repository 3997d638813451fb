"""Benchmark of ``fdc``: one workload per process, in-process CLI calls.

Usage (from the repository root)::

    python3 bench/run.py --workload gen_batch [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all      # every workload, one process each

A run sets up several times (import ``fdc`` afresh, build the inputs from
the seed, write them to files) and reports the median as ``setup_s``.  It
then calls ``fdc.cli.main(["--format", "json", CMD, FILE])`` once per input
file, pass after pass, for ``--seconds`` seconds, with stdout captured, and
checks every output.  The end-to-end times (``setup_s``, ``pass_norm_s``,
``item_p50_norm_ms``, ``item_p90_norm_ms``) are normalised to a fixed host
speed measured alongside each span (see ``speed.py``), because the shared
host's own speed drifts more between runs than the changes to detect; the
raw times are printed and written beside them.  With ``--trace 1`` the first third of the time runs
untraced and the rest with spans recorded around the public functions of
each module (see ``tracer.py``); that run reports the per-layer metrics
instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
the ones declared in ``BENCHMARK.json``.  Any failed item makes the exit
code 1.  Without the ``fdc`` sources next to the benchmark the exit code
is 2 and no result is printed.  Full results, run metadata and the spans
are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import workloads
from speed import SpeedSampler
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 20260809  # the fdc selftest default
DEFAULT_SECONDS = 32
# Set-up runs at least SETUP_MIN times and until SETUP_SECONDS have passed.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 20, 2.0


def import_fdc():
    """Import ``fdc.cli`` from scratch out of this checkout's sources."""
    for name in [n for n in sys.modules if n == "fdc" or n.startswith("fdc.")]:
        del sys.modules[name]
    cli = importlib.import_module("fdc.cli")
    if SRC.resolve() not in Path(sys.modules["fdc"].__file__).resolve().parents:
        raise ImportError("fdc was imported from %s, not from %s"
                          % (sys.modules["fdc"].__file__, SRC))
    return cli


def setup(name: str, seed: int, in_dir: Path):
    """Import, build the inputs and write them; returns the CLI module,
    the items, their paths and the sha256 of the written files."""
    cli = import_fdc()
    items = workloads.WORKLOADS[name](SRC, seed)
    digest = hashlib.sha256()
    paths = []
    for i, item in enumerate(items):
        path = in_dir / ("%03d.json" % i)
        path.write_text(item.text, encoding="utf-8")
        paths.append(path)
        digest.update(path.name.encode() + b"\0" + item.text.encode() + b"\0")
    return cli, items, paths, digest.hexdigest()


def call_cli(cli, argv: List[str]) -> Tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed item, not a benchmark crash
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class Passes:
    """Per-pass times, per-item call times and the correctness tally.

    With a ``SpeedSampler`` each call is timed raw and normalised (see
    ``speed.py``) and a pass's time is the sum of its calls' times;
    without one (the traced run) only raw times are kept.
    """

    def __init__(self, items: List[workloads.Item], paths: List[Path]) -> None:
        self.items, self.paths = items, paths
        self.walls: List[float] = []       # elapsed per pass, sampling included
        self.raw_walls: List[float] = []
        self.norm_walls: List[float] = []
        self.item_times: List[List[float]] = [[] for _ in items]
        self.norm_item_times: List[List[float]] = [[] for _ in items]
        self.first: Optional[List[Tuple[int, str, str]]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, cli, tracer: Optional[Tracer] = None,
            sampler: Optional[SpeedSampler] = None) -> float:
        results, raw_wall, norm_wall = [], 0.0, 0.0
        t_pass = perf_counter()
        for i, (item, path) in enumerate(zip(self.items, self.paths)):
            if tracer is not None:
                tracer.item = item.name
            argv = ["--format", "json", item.command, str(path)]
            if sampler is None:
                t0 = perf_counter()
                results.append(call_cli(cli, argv))
                raw = perf_counter() - t0
            else:
                result, raw, norm = sampler.time(lambda: call_cli(cli, argv))
                results.append(result)
                self.norm_item_times[i].append(norm)
                norm_wall += norm
            self.item_times[i].append(raw)
            raw_wall += raw
        wall = perf_counter() - t_pass
        self.walls.append(wall)
        self.raw_walls.append(raw_wall)
        if sampler is not None:
            self.norm_walls.append(norm_wall)
        self._check(results)
        return wall

    def _check(self, results: List[Tuple[int, str, str]]) -> None:
        for i, (item, (rc, out, err)) in enumerate(zip(self.items, results)):
            self.attempted += 1
            if self.first is not None and self.first[i] == (rc, out, err):
                continue  # byte-identical to an output already checked
            problems = workloads.check_output(item, rc, out)
            if self.first is not None:
                problems.append("output differs from the first pass")
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    stderr = err.strip().splitlines()[-1:]
                    self.problems.append("%s: %s" % (item.name, "; ".join(problems + stderr)))
        if self.first is None:
            self.first = results

    @property
    def report_sha256(self) -> str:
        """sha256 of every item's output in the first pass."""
        return hashlib.sha256("".join(out for _rc, out, _err in self.first).encode()).hexdigest()

    def run_for(self, cli, seconds: float, tracer: Optional[Tracer] = None,
                sampler: Optional[SpeedSampler] = None) -> List[float]:
        """Whole passes while another one is expected to end within
        ``seconds`` (at least one), so a run lasts about ``seconds``."""
        start, walls = perf_counter(), []
        while not walls or perf_counter() - start + statistics.median(walls) <= seconds:
            walls.append(self.run(cli, tracer, sampler))
        return walls


def loc_counts() -> Dict[str, int]:
    counts = {}
    for path in sorted((SRC / "fdc").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    return counts


def layer_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """Per-pass figures of every wrapped function, as ``module.function.stat``."""
    out: Dict[str, float] = {}
    for name, agg in tracer.summary().items():
        for stat in ("calls", "total_s", "self_s"):
            out["%s.%s" % (name, stat)] = agg[stat] / passes
        if "hits" in agg:
            out[name + ".hit_ratio"] = agg["hits"] / agg["calls"]
        if "max_dim" in agg:
            out[name + ".max_dim"] = agg["max_dim"]
    out.setdefault("zlattice.solve_rational.hit_ratio", 0.0)
    out.setdefault("zlattice.smith_normal_form.max_dim", 0)
    return out


def time_metrics(walls: List[float], item_times: List[List[float]],
                 tag: str) -> Dict[str, float]:
    """Median pass time and the p50/p90 over items of each item's median."""
    per_item = [statistics.median(t) for t in item_times]
    return {
        "pass%s_s" % tag: statistics.median(walls),
        "item_p50%s_ms" % tag: 1000 * statistics.median(per_item),
        "item_p90%s_ms" % tag: 1000 * statistics.quantiles(per_item, n=10,
                                                           method="inclusive")[8],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """One benchmark run; returns the full result document."""
    in_dir = OUT / "inputs" / name
    shutil.rmtree(in_dir, ignore_errors=True)
    in_dir.mkdir(parents=True)

    setup_raw, setup_times, input_digests = [], [], set()
    with SpeedSampler() as sampler:
        while len(setup_times) < SETUP_MIN or (sum(setup_raw) < SETUP_SECONDS
                                               and len(setup_times) < SETUP_MAX):
            (cli, items, paths, inputs_sha), raw, norm = sampler.time(
                lambda: setup(name, seed, in_dir))
            setup_raw.append(raw)
            setup_times.append(norm)
            input_digests.add(inputs_sha)
            gc.collect()  # the previous import's modules, so peak RSS does not grow with repeats

    # Freeze what set-up left behind, so the collector sees only what each
    # call allocates, as in a fresh ``fdc`` process.
    gc.collect()
    gc.freeze()
    passes = Passes(items, paths)
    if len(input_digests) != 1:
        passes.problems.append("setup is not deterministic: %d input digests"
                               % len(input_digests))
        passes.failed += 1
    metrics: Dict[str, float] = {"setup_s": statistics.median(setup_times)}
    raw_metrics: Dict[str, float] = {}
    notes: List[str] = []
    try:
        if not trace:
            with SpeedSampler() as sampler:
                passes.run_for(cli, seconds, sampler=sampler)
            metrics.update(time_metrics(passes.norm_walls, passes.norm_item_times, "_norm"))
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            raw_metrics = time_metrics(passes.raw_walls, passes.item_times, "")
            raw_metrics["setup_s"] = statistics.median(setup_raw)
        else:
            plain = passes.run_for(cli, seconds / 3)
            tracer = Tracer()
            tracer.install()
            try:
                traced = passes.run_for(cli, seconds * 2 / 3, tracer)
            finally:
                tracer.uninstall()
            metrics.update(layer_metrics(tracer, len(traced)))
            metrics["trace.overhead_frac"] = (statistics.median(traced)
                                              / statistics.median(plain) - 1)
            loc = loc_counts()
            metrics.update({"loc." + k: v for k, v in loc.items()})
            metrics["loc.total"] = sum(loc.values())
            if tracer.missing:
                notes.append("not traced, absent from fdc: " + ", ".join(tracer.missing))
            tracer.write(OUT / ("%s.spans.jsonl" % name))
    finally:
        gc.unfreeze()

    slowest = max(range(len(items)), key=lambda i: statistics.median(passes.item_times[i]))
    return {
        "workload": name,
        "meta": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "items": len(items),
            "passes": len(passes.walls),
            "seconds": seconds,
            "trace": int(trace),
            "setup_repeats": len(setup_times),
        },
        "report_sha256": passes.report_sha256,
        "inputs_sha256": sorted(input_digests)[0],
        "attempted": passes.attempted,
        "failed": passes.failed,
        "error_rate": passes.failed / passes.attempted,
        "problems": passes.problems,
        "notes": notes,
        "slowest_item": {"name": items[slowest].name,
                         "median_s": statistics.median(passes.item_times[slowest])},
        "pass_walls_s": passes.walls,
        "item_median_s": {item.name: statistics.median(times)
                          for item, times in zip(items, passes.item_times)},
        "metrics": metrics,
        "raw_metrics": raw_metrics,
    }


def declared_metrics() -> Dict[str, List[Dict[str, str]]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def contract_line(result: Dict[str, object], trace: bool) -> Dict[str, object]:
    """The final stdout object: exactly the metrics BENCHMARK.json declares."""
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in declared},
    }


def print_result(result: Dict[str, object]) -> None:
    meta = result["meta"]
    print("workload %s  seed %d  items %d  passes %d  python %s  nproc %s  trace %d"
          % (result["workload"], meta["seed"], meta["items"], meta["passes"],
             meta["python"], meta["nproc"], meta["trace"]))
    print("report_sha256 %s" % result["report_sha256"])
    print("inputs_sha256 %s" % result["inputs_sha256"])
    print("error_rate    %s  (%d failed of %d attempted)"
          % (result["error_rate"], result["failed"], result["attempted"]))
    for problem in result["problems"]:
        print("  FAIL %s" % problem)
    for note in result["notes"]:
        print("  note: %s" % note)
    print("slowest item  %s  %.4f s" % (result["slowest_item"]["name"],
                                        result["slowest_item"]["median_s"]))
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
             for m in declared_metrics()[kind]}
    for key, value in result["metrics"].items():
        print("  %-48s %14.6g %s" % (key, value, units.get(key, "")))
    for key, value in result["raw_metrics"].items():
        print("  raw %-44s %14.6g %s" % (key, value, "ms" if key.endswith("_ms") else "s"))


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    rc, merged = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        rc = max(rc, proc.returncode)
        if proc.returncode == 2 or not lines:
            continue
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            merged["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(merged, sort_keys=True))
    return rc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fdc" / "__init__.py").is_file():
        print("error: no fdc sources at %s" % SRC, file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        import_fdc()
    except ImportError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(OUT / ("%s.result.json" % args.workload), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print_result(result)
    print(json.dumps(contract_line(result, bool(args.trace)), sort_keys=True))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
