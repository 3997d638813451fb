"""Relations between reports that need no expected value.

*Products.*  The direct sum X + X of a scenario with itself, its roots
embedded in both halves of the doubled lattice, is the scenario of
pi x pi on G x G over the same frame and q.  The formal degree is
multiplicative under product Haar measure, Ad(phi x phi) = Ad phi + Ad phi
multiplies |gamma|, and the component group of a product is the product
of the component groups.  So both values of ``verify`` come out squared,
coefficient squared and p-exponent doubled, with the same verdict.  The
relation runs the whole exponent side, the Howe filtration's layers, the
Levi closure, the break term and the root conductors, on a doubled datum
whose two halves the Levi closure must never join.
"""

import json
from fractions import Fraction

import pytest

import fdc.cli as cli
from test_scenario_cli import BUNDLED, bundled_doc


def _embed_key(key, rank, half):
    """A root key of X, written as the key of its copy in half 0 or 1."""
    zeros = ["0"] * rank
    parts = key.split(",")
    return ",".join(parts + zeros if half == 0 else zeros + parts)


def direct_square(doc):
    """The document of X + X: a block-diagonal action, the roots and every
    key naming a root or an orbit (its least root) embedded in both halves;
    group, frame, q, depths, offsets and character values unchanged."""
    rank = doc["lattice_rank"]
    zeros = [0] * rank

    def by_key(field):
        return {_embed_key(k, rank, half): v for k, v in doc[field].items() for half in (0, 1)}

    out = dict(doc, lattice_rank=2 * rank)
    out["action"] = {g: [row + zeros for row in m] + [zeros + row for row in m]
                     for g, m in doc["action"].items()}
    out["roots"] = [r + zeros for r in doc["roots"]] + [zeros + r for r in doc["roots"]]
    for field in ("jump_offsets", "theta_depths", "chi"):
        if field in doc:
            out[field] = by_key(field)
    return out


def _values(report):
    """The two compared values as (coefficient, p-exponent) pairs."""
    return [(Fraction(v["coeff"]), Fraction(v["pexp"]))
            for v in (report["automorphic"]["value_full_index"], report["galois"]["value"])]


@pytest.mark.parametrize("name", BUNDLED)
def test_direct_square_squares_both_values(name, tmp_path, capsys):
    doc = bundled_doc(name)
    reports = []
    for d, file_name in ((doc, "x.json"), (direct_square(doc), "x_plus_x.json")):
        path = tmp_path / file_name
        path.write_text(json.dumps(d))
        assert cli.main(["--format", "json", "verify", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        (report,) = json.loads(captured.out)["reports"]
        reports.append(report)
    single, square = reports
    assert square["verdict"] == single["verdict"]
    assert _values(square) == [(c * c, 2 * e) for c, e in _values(single)]
