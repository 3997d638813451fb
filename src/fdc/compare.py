"""Two-sided comparison of a scenario and report emission.

For each scenario both pipelines run on the scenario's one copy of the
torus lattice data: the automorphic degree in its two prefactor
normalizations, and the assembled adjoint gamma value divided by the
component-group order.  Every torus order the verdict, the diagnostics
and the report use is read from ``scenario.torus`` by field name; no
record of either side keeps a copy.  The two sides are separate code
that meets only at the verdict: the automorphic exponent carries Yu's
break term, the Galois exponent the orbitwise conductors.  The verdict
compares the full-index normalization against the Galois value; when
they agree but the printed special-fiber normalization differs (their
ratio is the Kottwitz-style index), the verdict is FLAGGED rather than
EQUAL, with the discrepancy factor recorded.

The prefactors meet only in the verdict as well: the Galois side divides
the Frobenius coinvariants of the inertia-fixed character lattice by the
full cocharacter coinvariants, the automorphic side inverts the Kottwitz
count on the cocharacter lattice, and these three orders are computed
separately, so the verdict itself checks
|(X^I)_F| * |(X_{*,I})^F| = |X_{*,Gamma}|.  The special-fiber order
divides both sides and cancels.  The one internal identity left compares
the volume exponent by torsor point count against its closed form; its
failure is an internal error, not a verdict.

Reports are deterministic: the machine-readable form contains no wall
times (they are available in the text form on request), so identical
inputs produce byte-identical documents.  The verdict compares the two
monomials' integers, and every monomial of the report is written from
them.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List, Sequence

from .formal_degree import (
    depth_zero_quotient_dim,
    heisenberg_dims,
    heisenberg_indices,
    regular_degree,
    volume_exponent_closed,
    volume_exponent_raw,
)
from .qexact import QMonomial, Ratio, int_str, qmon, ratio_str
from .scenario import Scenario, json_text
from .weil_gamma import GaloisSide, galois_side

VERDICT_EQUAL = "EQUAL"
VERDICT_FLAGGED = "FLAGGED"
VERDICT_UNEQUAL = "UNEQUAL"


def _mono_dict(m: QMonomial) -> Dict[str, str]:
    """The report form of c * p^e: the coefficient, the exponent and p, and
    when e is an integer the value as a rational, written from the
    monomial's integers.  The coefficient is a p-unit in lowest terms, so
    multiplying its numerator by p^e (e > 0) or its denominator by p^-e
    (e < 0) leaves the pair in lowest terms, and no gcd is taken."""
    num, den, e, p = m.coeff_num, m.coeff_den, m.pexp_num, m.pp.p
    out = {"coeff": ratio_str(num, den), "pexp": ratio_str(e, m.pexp_den), "p": "%d" % p}
    if m.pexp_den == 1:
        if e > 0:
            num *= p ** e
        elif e < 0:
            den *= p ** -e
        out["rational"] = ratio_str(num, den)
    return out


class ComparisonReport:
    """Both sides of one scenario and the verdict on them.

    ``degree`` is the q-part of the automorphic degree, its prefactors
    being read from ``scenario.torus``.  ``value_automorphic`` is the degree
    in the full-index normalization and ``value_galois`` the Galois value
    with its prefactor applied: the two values the verdict compared, kept
    for the report.
    """

    __slots__ = ("scenario", "verdict", "degree", "galois", "value_automorphic",
                 "value_galois", "volume_exponent", "diagnostics", "elapsed_s")

    def __init__(self, scenario: Scenario, verdict: str, degree: QMonomial,
                 galois: GaloisSide, value_automorphic: QMonomial, value_galois: QMonomial,
                 volume_exponent: Ratio, diagnostics: List[str], elapsed_s: float) -> None:
        self.scenario = scenario
        self.verdict = verdict
        self.degree = degree
        self.galois = galois
        self.value_automorphic = value_automorphic
        self.value_galois = value_galois
        self.volume_exponent = volume_exponent
        self.diagnostics = diagnostics
        self.elapsed_s = elapsed_s

    @property
    def intermediates(self) -> Dict[str, object]:
        """The lattice orders and summand values behind both sides, rendered
        for the JSON report; built when read, so the text report never
        builds them."""
        scen, gal = self.scenario, self.galois
        torus = scen.torus
        indices = heisenberg_indices(scen.filtration, scen.jumps, scen.pp)
        return {
            "rank_m": torus.rank_m,
            "special_fiber_order": torus.special_fiber_order,
            "kottwitz_fixed_order": torus.kottwitz_fixed_order,
            "full_point_index": torus.full_point_index,
            "m_frob_coinvariants": torus.m_frob_coinvariants,
            "component_group_order": torus.cochar_full_coinvariants,
            "heisenberg_indices": [_mono_dict(m) for m in indices],
            "heisenberg_dims": [_mono_dict(m) for m in heisenberg_dims(indices)],
            "volume_exponent": ratio_str(*self.volume_exponent),
            "toral_gamma": {
                "monomial": _mono_dict(gal.toral.monomial),
                "rational": ratio_str(*gal.toral.rational),
                "l0_inverse": torus.m_frob_coinvariants,
                # |L(1)|^-1 = q^-dim(M) times the twisted fixed order
                "l1_inverse": _mono_dict(qmon(scen.pp, torus.special_fiber_order,
                                              -scen.pp.a * torus.rank_m)),
            },
            "root_gamma": {
                "monomial": _mono_dict(gal.root.monomial),
                "orbit_conductors": {oid: ratio_str(*c)
                                     for oid, c in gal.root.orbit_conductors},
            },
        }

    def to_json_dict(self, with_timing: bool = False) -> Dict[str, object]:
        gal, torus = self.galois, self.scenario.torus
        doc: Dict[str, object] = {
            "name": self.scenario.name,
            "q": self.scenario.pp.q,
            "verdict": self.verdict,
            "automorphic": {
                "monomial": _mono_dict(self.degree),
                "prefactor_special_fiber": ratio_str(1, torus.special_fiber_order),
                "prefactor_full_index": ratio_str(1, torus.full_point_index),
                "prefactor_discrepancy": torus.kottwitz_fixed_order,
                "value_full_index": _mono_dict(self.value_automorphic),
            },
            "galois": {
                "monomial": _mono_dict(gal.monomial),
                "prefactor": ratio_str(*gal.prefactor),
                "value": _mono_dict(self.value_galois),
            },
            "intermediates": self.intermediates,
            "diagnostics": list(self.diagnostics),
        }
        if with_timing:
            doc["elapsed_s"] = round(self.elapsed_s, 6)
        return doc


def run_compare(scenario: Scenario) -> ComparisonReport:
    """Evaluate both sides exactly and compare.

    Raises AssertionError when the two routes to the volume exponent
    disagree; disagreement of the two sides is a verdict, not an error.
    Raises ValueError on opaque depth-zero data: the automorphic side here
    is the regular degree and the Galois side assumes a regular parameter,
    so such a scenario lies outside what the comparison covers.
    """
    if not scenario.depth_zero.regular:
        raise ValueError("formal_degree.depth_zero: verify compares regular depth-zero "
                         "data only; fdc degree evaluates the opaque form")
    t0 = time.monotonic()
    torus, filtration, jumps = scenario.torus, scenario.filtration, scenario.jumps
    degree = regular_degree(scenario.datum, filtration, torus.rank_m, scenario.pp)
    gal: GaloisSide = galois_side(scenario.datum, scenario.frame, filtration, torus)

    diagnostics: List[str] = []

    # Volume normalization: torsor point count against the closed form.
    dim_quot = depth_zero_quotient_dim(filtration, jumps, torus.rank_m)
    raw = volume_exponent_raw(filtration, jumps, dim_quot)
    closed = volume_exponent_closed(filtration, dim_quot)
    if raw != closed:
        raise AssertionError("volume exponent mismatch: raw %s vs closed %s"
                             % (ratio_str(*raw), ratio_str(*closed)))

    # A symmetric odd-degree orbit jumping at 0 is legal scenario data, but
    # the depth-zero quotient it gives has an odd root count, which no
    # reductive quotient has.
    if (dim_quot - torus.rank_m) % 2:
        diagnostics.append("depth-zero quotient has an odd root count; "
                           "it matches no reductive quotient")

    value_aut = degree.scale(1, torus.full_point_index)
    value_gal = gal.monomial.scale(*gal.prefactor)
    if value_aut != value_gal:
        verdict = VERDICT_UNEQUAL
    elif torus.kottwitz_fixed_order != 1:
        verdict = VERDICT_FLAGGED
        diagnostics.append(
            "prefactor normalizations differ by the Kottwitz index %s: "
            "special-fiber form 1/%s, full-index form 1/%s"
            % (int_str(torus.kottwitz_fixed_order), int_str(torus.special_fiber_order),
               int_str(torus.full_point_index)))
    else:
        verdict = VERDICT_EQUAL

    # Loading refuses a break outside (1/e) Z, and (1/e) Z lies in (1/2e) Z,
    # so each orbit of positive depth is in both lattices.
    for o, r in filtration.orbit_breaks:
        if r is not None:
            diagnostics.append("depth-lattice at %s: break %s, value-group True, "
                               "half-lattice True" % (o.orbit_id, ratio_str(*r)))
    for flag in scenario.unverified_assumptions:
        diagnostics.append("unverified: %s" % flag)

    return ComparisonReport(
        scenario=scenario,
        verdict=verdict,
        degree=degree,
        galois=gal,
        value_automorphic=value_aut,
        value_galois=value_gal,
        volume_exponent=raw,
        diagnostics=diagnostics,
        elapsed_s=time.monotonic() - t0,
    )


def emit_report(reports: Sequence[ComparisonReport], fmt: str = "text",
                with_timing: bool = False) -> str:
    """Deterministic rendering; the json form round-trips exact values as
    strings and omits timing unless asked."""
    counts = Counter(r.verdict for r in reports)
    eq, fl, un = counts[VERDICT_EQUAL], counts[VERDICT_FLAGGED], counts[VERDICT_UNEQUAL]
    if fmt == "json":
        doc = {
            "reports": [r.to_json_dict(with_timing=with_timing) for r in reports],
            "summary": {"total": len(reports), "equal": eq, "flagged": fl, "unequal": un},
        }
        return json_text(doc) + "\n"
    if fmt != "text":
        raise ValueError("unknown format %r" % fmt)
    lines: List[str] = []
    for r in reports:
        gal, torus = r.galois, r.scenario.torus
        lines.append("scenario %-28s q=%-4s verdict=%s"
                     % (r.scenario.name, int_str(r.scenario.pp.q), r.verdict))
        lines.append("  automorphic  %s  (monomial %s, prefactors 1/%s | 1/%s)"
                     % (r.value_automorphic, r.degree,
                        int_str(torus.special_fiber_order), int_str(torus.full_point_index)))
        lines.append("  galois       %s  (monomial %s, prefactor %s)"
                     % (r.value_galois, gal.monomial, ratio_str(*gal.prefactor)))
        if torus.kottwitz_fixed_order != 1:
            lines.append("  note: prefactor normalizations differ by %s"
                         % int_str(torus.kottwitz_fixed_order))
        if with_timing:
            lines.append("  elapsed %.4f s" % r.elapsed_s)
    lines.append("summary: %d scenario(s), %d EQUAL, %d FLAGGED, %d UNEQUAL"
                 % (len(reports), eq, fl, un))
    return "\n".join(lines) + "\n"
