"""The hand-written argv parser of ``fdc.cli`` against the ``argparse``
parser it replaced, rebuilt here as the reference.

Every argv in the table either parses to the same values under both, or is
refused (exit 2) by both, or prints help (exit 0) at the same level under
both.  The table also pins which of the three each argv is.
"""

import argparse
import contextlib
import io
import os

import pytest

import fdc.cli as cli

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "fdc")
SCENARIO = os.path.join(SRC, "scenarios", "sl2_unramified_depth0.json")
F, G = "f.json", "g.json"


def _reference():
    """The parser ``fdc.cli`` built with ``argparse`` (help texts left out)."""
    parser = argparse.ArgumentParser(prog="fdc")
    parser.add_argument("--q")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--timing", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify").add_argument("files", nargs="+")
    for name in ("degree", "gamma", "chi-check"):
        sub.add_parser(name).add_argument("file")
    return parser


def _outcome(parse, argv):
    """("ok", values), ("refused", stderr lines) or ("help", the first
    three words of the usage line, which name the level)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as e:
            if e.code == 0:
                return "help", out.getvalue().split()[:3]
            assert (e.code, out.getvalue()) == (2, "")
            return "refused", err.getvalue().splitlines()
    files = args.files if hasattr(args, "files") else [args.file]
    return "ok", (args.q, args.format, args.strict, args.timing, args.command, files)


CASES = [
    (["verify", F], "ok"),
    (["--format", "json", "verify", F, G], "ok"),
    (["--form", "json", "verify", F], "ok"),             # unique prefix
    (["--fo=json", "degree", F], "ok"),                  # unique prefix with =
    (["--format=json", "gamma", F], "ok"),
    (["--q=9", "chi-check", F], "ok"),
    (["--q=", "verify", F], "ok"),                       # an empty value, refused later
    (["--q", "3^2", "--q", "27", "verify", F], "ok"),    # the last one wins
    (["--format", "json", "--format", "text", "verify", F], "ok"),
    (["--strict", "--strict", "--timing", "verify", F], "ok"),
    (["--s", "--t", "verify", F], "ok"),
    (["verify", "--", F, "-g.json"], "ok"),              # -- before files
    (["degree", "--", "-f.json"], "ok"),
    (["verify", F, "--", "--"], "ok"),                   # only the first -- is dropped
    (["--q", "-5", "verify", F], "ok"),                  # a negative number is a value
    (["--q", "-1.5", "verify", F], "ok"),
    (["verify", "-5"], "ok"),
    (["verify", "-x y.json"], "ok"),                     # a space makes an argument
    ([], "refused"),
    (["--strict"], "refused"),                           # no command
    (["selftest", F], "refused"),
    (["verify"], "refused"),                             # no file
    (["verify", "--"], "refused"),
    (["degree", F, G], "refused"),                       # a second file
    (["--strict", "verify", F, "--timing"], "refused"),  # a global option after the command
    (["verify", "--format", "json", F], "refused"),
    (["--format", "xml", "verify", F], "refused"),
    (["--format=JSON", "verify", F], "refused"),
    (["--format", "verify", F], "refused"),
    (["--q"], "refused"),                                # an option missing its value
    (["--q", "--strict", "verify", F], "refused"),
    (["--q", "--", "9", "verify", F], "refused"),
    (["--q", "-x", "verify", F], "refused"),
    (["--bogus", "verify", F], "refused"),
    (["-x", "verify", F], "refused"),
    (["--", "verify", F], "refused"),
    (["--=x", "verify", F], "refused"),                  # a prefix of every option
    (["-h", "--=x"], "refused"),                         # read before -h acts
    (["--strict=1", "verify", F], "refused"),
    (["-hx"], "refused"),
    (["verify", "--help=x"], "refused"),
    (["-h"], "help"),
    (["--help", "verify", F], "help"),
    (["--he"], "help"),
    (["-hh", "verify"], "help"),
    (["--bogus", "-h"], "help"),
    (["verify", "-h"], "help"),
    (["chi-check", F, "--help"], "help"),
    (["--format", "json", "degree", "-h", F, G], "help"),
]


@pytest.mark.parametrize("argv,kind", CASES, ids=[" ".join(a) or "empty" for a, _ in CASES])
def test_parse_args_matches_argparse(argv, kind):
    ours = _outcome(cli.parse_args, argv)
    reference = _outcome(_reference().parse_args, argv)
    assert ours[0] == reference[0] == kind
    if kind == "refused":
        assert len(ours[1]) == 2
        assert ours[1][0].startswith("usage: fdc ") and ours[1][1].startswith("fdc: error: ")
    else:
        assert ours == reference


def test_refusals_keep_their_messages():
    assert _outcome(cli.parse_args, ["selftest"])[1][1] == (
        "fdc: error: argument command: invalid choice: 'selftest' "
        "(choose from 'verify', 'degree', 'gamma', 'chi-check')")
    assert _outcome(cli.parse_args, ["verify"])[1] == [
        "usage: fdc verify [-h] FILE [FILE ...]",
        "fdc: error: the following arguments are required: FILE"]


def test_double_dash_joined_to_an_option_is_its_value(capsys):
    """``--q=--`` and ``--format=--`` give ``--`` as the value, which is
    then refused; ``argparse`` had dropped it and left an empty list."""
    assert cli.main(["--q=--", "verify", SCENARIO]) == 2
    assert capsys.readouterr().err.startswith("error: --q: invalid literal for int()")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--format=--", "verify", SCENARIO])
    assert exc.value.code == 2
    assert "invalid choice: '--'" in capsys.readouterr().err


def test_package_no_longer_names_argparse():
    for folder, _, names in os.walk(SRC):
        if os.path.basename(folder) == "__pycache__":
            continue
        for name in names:
            with open(os.path.join(folder, name), "rb") as fh:
                assert b"argparse" not in fh.read(), name
