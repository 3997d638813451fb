"""The scenario generator draws the same scenarios whether its templates'
memo is empty or full.

Each template keeps the frames, checked root data and χ menus its draws
derive (``scenario._Template``).  The digest below was captured before
that memo existed, from the documents of the first 300 draws of the
benchmark seed and of seed 7.
"""

import hashlib
import random
from fractions import Fraction

from fdc import scenario
from fdc.qexact import fraction_str

GENERATOR_SEEDS = (20260809, 7)
GENERATOR_DRAWS = 300
GENERATOR_SHA256 = "521d0eafec16b3d0c41e7a21fda294615f3f03ca4477bcc7b2020dedf1c4af11"


def generated_digest():
    digest = hashlib.sha256()
    for seed in GENERATOR_SEEDS:
        rng = random.Random(seed)
        for _ in range(GENERATOR_DRAWS):
            digest.update(scenario.generate_scenario(rng).to_json().encode())
    return digest.hexdigest()


def memo_sizes(templates):
    return [(len(t.frames), len(t.data), len(t.chi_menus)) for t in templates]


def test_generator_output_pinned_with_fresh_and_warm_memo(monkeypatch):
    monkeypatch.setattr(scenario, "_TEMPLATE_CACHE", None)
    templates = scenario.generator_templates()
    assert memo_sizes(templates) == [(0, 0, 0)] * len(templates)
    assert generated_digest() == GENERATOR_SHA256  # every entry derived afresh
    filled = memo_sizes(templates)
    assert generated_digest() == GENERATOR_SHA256  # every entry read from the memo
    assert scenario.generator_templates() is templates
    assert memo_sizes(templates) == filled and sum(map(sum, filled)) > 0
    for tpl in templates:
        choices = len(tpl.inertia_choices) * tpl.group.order
        assert len(tpl.frames) <= choices * len(tpl.primes) * 2  # a in {1, 2}
        assert len(tpl.data) <= choices * len(tpl.seed_choices)
        assert set(tpl.chi_menus) <= {k for k, v in tpl.data.items() if not isinstance(v, str)}


def test_chi_values_written_as_reduced_pairs():
    for n in range(1, 25):
        for k in range(n):
            assert scenario._mod1_str(k, n) == fraction_str(Fraction(k, n))
