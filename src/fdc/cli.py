"""Command-line entry point.

Subcommands:
  verify     run the two-sided comparison on scenario files
  degree     automorphic side only
  gamma      Galois side only
  chi-check  base-change verification of bundled character data

Global options: --q overrides the residue size, --format selects text or
json output, --strict makes FLAGGED count as failure.  Exit code 0 means
every comparison came back EQUAL (or FLAGGED without --strict), 1 means
an UNEQUAL verdict or a failed check, 2 a usage or validation error, 3
(verify only) a disagreement of the raw and closed routes to the volume
exponent, an internal identity (a bug in fdc, not a property of the input).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import List, Optional

from .compare import VERDICT_FLAGGED, VERDICT_UNEQUAL, emit_report, run_compare
from .chi_data import BaseChange, verify_base_change
from .formal_degree import general_degree, regular_degree
from .qexact import PrimePower, fraction_str, int_str
from .scenario import Scenario, json_text, load_scenario
from .weil_gamma import galois_side


def _parse_q(text: Optional[str]) -> Optional[PrimePower]:
    """The residue size ``--q`` names (``9`` or ``3^2``), or None without
    one.  Every refusal starts with the flag's name."""
    if text is None:
        return None
    try:
        if "^" in text:
            p, a = text.split("^")
            return PrimePower(int(p), int(a))
        return PrimePower.from_q(int(text))
    except ValueError as e:
        raise ValueError("--q: %s" % e) from None


def _load(path: str, pp: Optional[PrimePower]) -> Scenario:
    """Load a scenario, moved to the residue size ``pp`` if given."""
    scen = load_scenario(path)
    return scen if pp is None else scen.with_q(pp)


def _cmd_verify(args: argparse.Namespace) -> int:
    """Reports for the files that load and pass the internal checks, one
    error line per file that does not; the exit status is the worst over
    all files."""
    reports = []
    status = 0
    for path in args.files:
        try:
            reports.append(run_compare(_load(path, args.q)))
        except (ValueError, OSError) as e:
            print("error: %s: %s" % (path, e), file=sys.stderr)
            status = max(status, 2)
        except AssertionError as e:  # the volume exponent's two routes disagree
            print("error: %s: internal check failed: %s" % (path, e), file=sys.stderr)
            status = max(status, 3)
    if reports:
        sys.stdout.write(emit_report(reports, args.format, with_timing=args.timing))
    if any(r.verdict == VERDICT_UNEQUAL for r in reports):
        status = max(status, 1)
    if args.strict and any(r.verdict == VERDICT_FLAGGED for r in reports):
        status = max(status, 1)
    return status


def _cmd_degree(args: argparse.Namespace) -> int:
    scen = _load(args.file, args.q)
    shape = scen.shape()
    torus = scen.torus
    if scen.depth_zero.regular:
        reg = regular_degree(shape, torus)
        coeff, pexp = reg.monomial.as_pair()
        payload = {
            "name": scen.name,
            "q": scen.pp.q,
            "monomial": {"coeff": coeff, "pexp": pexp},
            "prefactor_special_fiber": fraction_str(Fraction(1, reg.special_fiber_order)),
            "prefactor_full_index": fraction_str(Fraction(1, reg.full_point_index)),
            "prefactor_discrepancy": reg.discrepancy,
        }
        text = ["scenario %s  q=%d" % (scen.name, scen.pp.q),
                "  degree (special-fiber prefactor): %s / %s"
                % (reg.monomial, int_str(reg.special_fiber_order)),
                "  degree (full-index prefactor):    %s / %s"
                % (reg.monomial, int_str(reg.full_point_index))]
    else:
        dim_quot = shape.depth_zero_quotient_dim(torus.rank_m)
        mono, pref = general_degree(shape, scen.depth_zero, dim_quot)
        coeff, pexp = mono.as_pair()
        payload = {
            "name": scen.name,
            "q": scen.pp.q,
            "monomial": {"coeff": coeff, "pexp": pexp},
            "prefactor": fraction_str(pref),
        }
        text = ["scenario %s  q=%d" % (scen.name, scen.pp.q),
                "  degree: %s * %s" % (fraction_str(pref), mono)]
    if args.format == "json":
        sys.stdout.write(json_text(payload) + "\n")
    else:
        sys.stdout.write("\n".join(text) + "\n")
    return 0


def _cmd_gamma(args: argparse.Namespace) -> int:
    scen = _load(args.file, args.q)
    gal = galois_side(scen.datum, scen.frame, scen.filtration, scen.orbits, scen.torus)
    coeff, pexp = gal.monomial.as_pair()
    payload = {
        "name": scen.name,
        "q": scen.pp.q,
        "monomial": {"coeff": coeff, "pexp": pexp},
        "prefactor": fraction_str(gal.prefactor),
        "component_group_order": gal.component_order,
        "toral": {"monomial_pexp": gal.toral.monomial.as_pair()[1],
                  "rational": fraction_str(gal.toral.rational)},
        "root": {"monomial_pexp": gal.root.monomial.as_pair()[1],
                 "orbit_conductors": {oid: fraction_str(c)
                                      for oid, c in gal.root.orbit_conductors}},
    }
    if args.format == "json":
        sys.stdout.write(json_text(payload) + "\n")
    else:
        sys.stdout.write("scenario %s  q=%d\n  gamma value: %s * %s\n"
                         % (scen.name, scen.pp.q, fraction_str(gal.prefactor), gal.monomial))
    return 0


def _cmd_chi_check(args: argparse.Namespace) -> int:
    """Base change on every subgroup H: the cocycle of the restriction to H
    against the restriction of the cocycle, at every element of H."""
    scen = _load(args.file, args.q)
    if scen.chi is None:
        print("error: scenario %s bundles no character data" % scen.name, file=sys.stderr)
        return 2
    base = BaseChange(scen.chi, scen.datum, scen.frame)
    results = []
    ok_all = True
    for sub in scen.frame.group.all_subgroups():
        rep = verify_base_change(base, sub)
        ok_all = ok_all and rep.ok
        entry = {"subgroup": sorted(sub), "ok": rep.ok}
        if not rep.ok:
            entry["witness"] = rep.witness
        results.append(entry)
    if args.format == "json":
        sys.stdout.write(json_text({"name": scen.name, "ok": ok_all,
                                    "subgroups": results}) + "\n")
    else:
        for entry in results:
            sys.stdout.write("  H=%s %s\n" % (entry["subgroup"], "ok" if entry["ok"] else "FAIL"))
        sys.stdout.write("chi-check %s: %s\n" % (scen.name, "ok" if ok_all else "FAIL"))
    return 0 if ok_all else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every later
    :func:`main` call in the process: parsing keeps no state in it, since
    each call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="fdc",
        description="Exact two-sided verification of formal-degree identities "
                    "on tame elliptic scenario data.")
    parser.add_argument("--q", help="override the residue size (an odd prime power, "
                                    "e.g. 9 or 3^2)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--strict", action="store_true",
                        help="treat FLAGGED verdicts as failures")
    parser.add_argument("--timing", action="store_true",
                        help="include wall times in output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="two-sided comparison")
    p_verify.add_argument("files", nargs="+")
    p_verify.set_defaults(func=_cmd_verify)

    p_degree = sub.add_parser("degree", help="automorphic side only")
    p_degree.add_argument("file")
    p_degree.set_defaults(func=_cmd_degree)

    p_gamma = sub.add_parser("gamma", help="Galois side only")
    p_gamma.add_argument("file")
    p_gamma.set_defaults(func=_cmd_gamma)

    p_chi = sub.add_parser("chi-check", help="character base-change verification")
    p_chi.add_argument("file")
    p_chi.set_defaults(func=_cmd_chi_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand.  ``--q`` is parsed here, once, so a bad value is
    one error for the run, reported before any file is read."""
    args = _parser().parse_args(argv)
    try:
        args.q = _parse_q(args.q)
        return args.func(args)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
