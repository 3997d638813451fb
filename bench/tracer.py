"""In-memory span recorder wrapped around the public functions of ``fdc``.

Spans are recorded from outside the program: each listed function is
replaced, in every ``fdc.*`` module that holds the same object, by a
wrapper that records (name, start, end, parent, item).  Self time is a
span's duration minus the time covered by its child spans.  Per-element
helpers (``mat_vec``, ``identity_matrix``, ``QMonomial`` methods, anything
in ``qexact``) are deliberately not wrapped: they run 10^4-10^5 times per
pass and would swamp the measurement with tracing overhead.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Observer = Callable[[Dict[str, float], tuple, object], None]


def _count_hit(counters: Dict[str, float], args: tuple, result: object) -> None:
    counters["hits"] += result is not None


def _max_dim(counters: Dict[str, float], args: tuple, result: object) -> None:
    a = args[0]
    counters["max_dim"] = max(counters["max_dim"], len(a), len(a[0]) if a else 0)


# (module, attribute, observer); "Class.method" attributes are patched on the class.
TARGETS: List[Tuple[str, str, Optional[Observer]]] = [
    ("cli", "main", None),
    ("scenario", "scenario_from_dict", None),
    ("galois_roots", "classify_orbits", None),
    ("galois_roots", "GRootDatum.check_against_frame", None),
    ("galois_roots", "howe_filtration", None),
    ("galois_roots", "torus_lattice_data", None),
    ("zlattice", "smith_normal_form", _max_dim),
    ("zlattice", "solve_integer", None),
    ("zlattice", "solve_rational", _count_hit),
    ("zlattice", "group_coinvariants", None),
    ("zlattice", "dual_action", None),
    ("chi_data", "validate_chi", None),
    ("chi_data", "verify_base_change", None),
    ("formal_degree", "regular_degree", None),
    ("formal_degree", "volume_exponent_raw", None),
    ("mp_filtration", "count_torsor_points", None),
    ("weil_gamma", "galois_side", None),
    ("compare", "run_compare", None),
    ("compare", "emit_report", None),
]


def span_name(module: str, attr: str) -> str:
    return "%s.%s" % (module, attr.rsplit(".", 1)[-1])


class Tracer:
    """Records one span per call of a wrapped function.

    Set ``item`` before each top-level call so its spans share that id.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int, Optional[str]]]] = []
        self.counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.item: Optional[str] = None
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer]) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item)
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the currently imported ``fdc`` modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fdc" or n.startswith("fdc."))]
        for module, attr, observe in TARGETS:
            name = span_name(module, attr)
            owner: object = sys.modules.get("fdc." + module)
            *cls, func = attr.split(".")
            for part in cls:
                owner = getattr(owner, part, None)
            original = getattr(owner, func, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, observe)
            holders = [owner] if cls else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """calls, total_s and self_s per span name, plus observer counters."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _item in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: Dict[str, Dict[str, float]] = {
            span_name(m, a): {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for m, a, _ in TARGETS}
        for (name, t0, t1, _parent, _item), cov in zip(self.spans, covered):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - cov
        for name, extra in self.counters.items():
            out[name].update(extra)
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": t0 - base, "end": t1 - base,
                                     "parent": parent, "item": item}) + "\n")
