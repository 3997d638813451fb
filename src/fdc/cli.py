"""Command-line entry point.

Subcommands:
  verify     run the two-sided comparison on scenario files
  degree     automorphic side only
  gamma      Galois side only
  chi-check  base-change verification of bundled character data

Global options, before the subcommand: --q overrides the residue size,
--format selects text or json output; --strict makes FLAGGED count as
failure and --timing adds wall times, both read by verify only.  The
command line is read by :func:`parse_args` from the two tables
``_OPTIONS`` and ``_COMMANDS``, which also give the usage and help text.
Exit code 0 means every comparison came back EQUAL (or FLAGGED without
--strict), 1 means an UNEQUAL verdict or a failed check, 2 a usage or
validation error, 3 (verify only) a disagreement of the raw and closed
routes to the volume exponent, an internal identity (a bug in fdc, not a
property of the input).
"""

from __future__ import annotations

import re
import sys
from typing import Dict, List, NoReturn, Optional, Tuple

from .compare import VERDICT_FLAGGED, VERDICT_UNEQUAL, emit_report, run_compare
from .chi_data import BaseChange, verify_base_change
from .formal_degree import depth_zero_quotient_dim, general_degree, regular_degree
from .qexact import PrimePower, fraction_str, int_str, ratio_str
from .scenario import Scenario, json_text, load_scenario, parse_int
from .weil_gamma import galois_side


def _digits(text: str) -> int:
    """``text`` read as the loader reads an integer text, refused in
    ``int``'s words."""
    try:
        return parse_int(text)
    except ValueError:
        raise ValueError("invalid literal for int() with base 10: %r" % text) from None


def _parse_q(text: Optional[str]) -> Optional[PrimePower]:
    """The residue size ``--q`` names (``9`` or ``3^2``), or None without
    one.  Every refusal starts with the flag's name."""
    if text is None:
        return None
    try:
        if "^" in text:
            p, a = text.split("^")
            return PrimePower(_digits(p), _digits(a))
        return PrimePower.from_q(_digits(text))
    except ValueError as e:
        raise ValueError("--q: %s" % e) from None


def _load(path: str, pp: Optional[PrimePower]) -> Scenario:
    """Load a scenario, moved to the residue size ``pp`` if given."""
    scen = load_scenario(path)
    return scen if pp is None else scen.with_q(pp)


def _cmd_verify(args: Args) -> int:
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


def _cmd_degree(args: Args) -> int:
    scen = _load(args.files[0], args.q)
    torus = scen.torus
    if scen.depth_zero.regular:
        reg = regular_degree(scen.datum, scen.filtration, torus, scen.pp)
        mono = reg.monomial
        payload: Dict[str, object] = {
            "prefactor_special_fiber": ratio_str(1, reg.special_fiber_order),
            "prefactor_full_index": ratio_str(1, reg.full_point_index),
            "prefactor_discrepancy": reg.discrepancy,
        }
    else:
        dim_quot = depth_zero_quotient_dim(scen.filtration, scen.jumps, torus.rank_m)
        mono, pref = general_degree(scen.datum, scen.filtration, scen.depth_zero, dim_quot,
                                    scen.pp)
        payload = {"prefactor": fraction_str(pref)}
    if args.format == "json":
        coeff, pexp = mono.as_pair()
        payload.update(name=scen.name, q=scen.pp.q, monomial={"coeff": coeff, "pexp": pexp})
        sys.stdout.write(json_text(payload) + "\n")
        return 0
    lines = ["scenario %s  q=%s" % (scen.name, int_str(scen.pp.q))]
    if scen.depth_zero.regular:
        lines += ["  degree (special-fiber prefactor): %s / %s"
                  % (mono, int_str(reg.special_fiber_order)),
                  "  degree (full-index prefactor):    %s / %s"
                  % (mono, int_str(reg.full_point_index))]
    else:
        lines.append("  degree: %s * %s" % (payload["prefactor"], mono))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_gamma(args: Args) -> int:
    scen = _load(args.files[0], args.q)
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
        sys.stdout.write("scenario %s  q=%s\n  gamma value: %s * %s\n"
                         % (scen.name, int_str(scen.pp.q), fraction_str(gal.prefactor),
                            gal.monomial))
    return 0


def _cmd_chi_check(args: Args) -> int:
    """Base change to the subgroups H of the frame: the cocycle of the
    restriction to H against the restriction of the cocycle, at every
    element of H.  A failing H is listed with its witness, the least
    element where the two differ (:func:`verify_base_change`).

    Only the H other than {0} and G are compared.  The report lists those
    two as ok, since there the two sides are equal by construction, and no
    :class:`BaseChange` is built when there is no other subgroup.

    H = G: :func:`compatible_choices` meets one double coset (c = 0) and
    rebuilds exactly the default minimal-element sections on both sides,
    and ``class_data(..., within=G)`` equals ``BaseChange.top``, so both
    sides call ``cocycle`` on equal arguments.

    H = {0}: at w = 0, k = u_x u_x^-1 = 0 and the inner value is
    chi_a(v0 v0^-1) = chi_a(0) = 0, as loading checked that each chi_a is
    a homomorphism; both sides are the zero vector.
    """
    scen = _load(args.files[0], args.q)
    if scen.chi is None:
        print("error: scenario %s bundles no character data" % scen.name, file=sys.stderr)
        return 2
    subgroups = scen.frame.group.all_subgroups()  # by size: {0} first, G last
    base = (BaseChange(scen.chi, scen.datum, scen.frame, scen.orbits) if len(subgroups) > 2
            else None)
    results = [{"subgroup": sorted(sub), "ok": True} for sub in subgroups]
    for sub, entry in zip(subgroups[1:-1], results[1:-1]):
        witness = verify_base_change(base, sub)
        if witness is not None:
            entry.update(ok=False, witness=witness)
    ok_all = all(entry["ok"] for entry in results)
    if args.format == "json":
        sys.stdout.write(json_text({"name": scen.name, "ok": ok_all,
                                    "subgroups": results}) + "\n")
    else:
        for entry in results:
            sys.stdout.write("  H=%s %s\n" % (entry["subgroup"], "ok" if entry["ok"] else "FAIL"))
        sys.stdout.write("chi-check %s: %s\n" % (scen.name, "ok" if ok_all else "FAIL"))
    return 0 if ok_all else 1


_FORMATS = ("text", "json")
# The global options, read before the subcommand: the metavar of the value
# each takes (None for a flag) and its help line.
_OPTIONS = {
    "--q": ("Q", "override the residue size (an odd prime power, e.g. 9 or 3^2)"),
    "--format": ("{%s}" % ",".join(_FORMATS), "output format (default: text)"),
    "--strict": (None, "treat FLAGGED verdicts as failures (verify only)"),
    "--timing": (None, "include wall times in the output (verify only)"),
}

# The subcommands: the function that runs one, whether it takes several
# files (else exactly one) and its help line.
_COMMANDS = {
    "verify": (_cmd_verify, True, "two-sided comparison"),
    "degree": (_cmd_degree, False, "automorphic side only"),
    "gamma": (_cmd_gamma, False, "Galois side only"),
    "chi-check": (_cmd_chi_check, False, "character base-change verification"),
}
_FILES = {False: "FILE", True: "FILE [FILE ...]"}

_HELP = ("-h", "--help")
_TOP_NAMES = _HELP + tuple(_OPTIONS)
# A negative number reads as an argument, not as an option.
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class Args:
    """One parsed command line: the global options (``q`` still as text),
    the subcommand and its files."""

    __slots__ = ("q", "format", "strict", "timing", "command", "files")

    def __init__(self) -> None:
        self.q = None
        self.format = "text"
        self.strict = False
        self.timing = False
        self.command = None
        self.files: List[str] = []


def _usage(command: Optional[str]) -> str:
    if command is None:
        return ("usage: fdc [-h]%s {%s} ...\n"
                % ("".join(" [%s%s]" % (opt, "" if meta is None else " " + meta)
                           for opt, (meta, _) in _OPTIONS.items()),
                   ",".join(_COMMANDS)))
    return "usage: fdc %s [-h] %s\n" % (command, _FILES[_COMMANDS[command][1]])


def _help(command: Optional[str], name: str, value: Optional[str]) -> NoReturn:
    """Print the help of the top level or of one subcommand for ``-h``,
    ``--help`` or ``-hh...``, and exit 0; refuse a value joined to either."""
    if value is not None and (name == "--help" or not value or value.strip("h")):
        _refuse(command, "argument -h/--help: ignored explicit argument %r" % value)
    if command is None:
        rows = [("%s %s" % (cmd, _FILES[several]), text)
                for cmd, (_, several, text) in _COMMANDS.items()]
        options = [("-h, --help", "show this help message and exit")]
        options += [(opt if meta is None else "%s %s" % (opt, meta), text)
                    for opt, (meta, text) in _OPTIONS.items()]
        body = ("\nExact two-sided verification of formal-degree identities on tame "
                "elliptic scenario data.\n\ncommands:\n%s\noptions (before the command):\n%s"
                % ("".join("  %-24s %s\n" % row for row in rows),
                   "".join("  %-24s %s\n" % row for row in options)))
    else:
        body = "\n%s\n" % _COMMANDS[command][2]
    sys.stdout.write(_usage(command) + body)
    raise SystemExit(0)


def _refuse(command: Optional[str], message: str) -> NoReturn:
    """Print the usage line and the error to stderr, and exit 2."""
    sys.stderr.write("%sfdc: error: %s\n" % (_usage(command), message))
    raise SystemExit(2)


def _option(token: str, names: Tuple[str, ...]) -> Optional[Tuple[Optional[str], Optional[str]]]:
    """``token`` read against the option ``names``: None for an argument,
    else the option it names (None for an unknown one) and the value joined
    to it (after ``=``, or run on after ``-h``; None if there is none).  A
    long option may be abbreviated to any unique prefix."""
    if len(token) < 2 or token[0] != "-":
        return None
    if token in names:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in names:
        return head, value
    if token[1] == "-":
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            _refuse(None, "ambiguous option: %s could match %s" % (token, ", ".join(found)))
        if found:
            return found[0], value if eq else None
    elif token[:2] in names:
        return token[:2], token[2:]
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def parse_args(argv: List[str]) -> Args:
    """Read ``fdc [OPTION...] COMMAND FILE...``.  Every argument before the
    first ``--`` is classed as an option or not before any is acted on, and
    options act left to right; a repeated option's last value wins.  A usage
    error exits 2 and ``-h`` exits 0, through :class:`SystemExit`."""
    cut = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(token, _TOP_NAMES) for token in argv[:cut]]
    args, unknown, i = Args(), [], 0
    while i < cut and kinds[i] is not None:
        name, value = kinds[i]
        i += 1
        if name is None:
            unknown.append(argv[i - 1])
        elif name in _HELP:
            _help(None, name, value)
        elif _OPTIONS[name][0] is None:
            if value is not None:
                _refuse(None, "argument %s: ignored explicit argument %r" % (name, value))
            setattr(args, name[2:], True)
        else:
            if value is None:
                if i == cut or kinds[i] is not None:
                    _refuse(None, "argument %s: expected one argument" % name)
                value = argv[i]
                i += 1
            if name == "--format" and value not in _FORMATS:
                _refuse(None, "argument --format: invalid choice: %r (choose from %s)"
                        % (value, ", ".join(map(repr, _FORMATS))))
            setattr(args, name[2:], value)
    if i == len(argv):
        _refuse(None, "the following arguments are required: command")
    command = argv[i]  # a "--" before the command is refused as its name
    if command not in _COMMANDS:
        _refuse(None, "argument command: invalid choice: %r (choose from %s)"
                % (command, ", ".join(map(repr, _COMMANDS))))
    args.command = command

    rest = argv[i + 1:]
    cut = rest.index("--") if "--" in rest else len(rest)
    words = []
    for token in rest[:cut]:
        kind = _option(token, _HELP)
        if kind is None:
            words.append(token)
        elif kind[0] is None:
            unknown.append(token)
        else:
            _help(command, *kind)
    words += rest[cut + 1:]
    if not words:
        _refuse(command, "the following arguments are required: FILE")
    args.files = words if _COMMANDS[command][1] else words[:1]
    unknown += words[len(args.files):]
    if unknown:
        _refuse(None, "unrecognized arguments: %s" % " ".join(unknown))
    return args


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand.  ``--q`` is parsed here, once, so a bad value is
    one error for the run, reported before any file is read."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        args.q = _parse_q(args.q)
        return _COMMANDS[args.command][0](args)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
