"""Exact values c * p^e: the prime powers, the canonical monomials and
their report forms.

``QMonomial`` computes on reduced integers.  The last tests check it
against the ``Fraction`` formulas it replaced, kept here as the oracle,
on random odd primes, exponents a >= 1 and nonzero rationals, integers
past Python's 4,300-digit ``str`` limit among them.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fdc.compare import _mono_dict
from fdc.formal_degree import heisenberg_dims
from fdc.qexact import (
    PrimePower,
    QMonomial,
    exp_q,
    int_str,
    padic_split,
    qmon,
)


def coeff(m):
    return Fraction(m.coeff_num, m.coeff_den)


def pexp(m):
    return Fraction(m.pexp_num, m.pexp_den)


def test_prime_power_validation():
    assert PrimePower(3, 2).q == 9
    with pytest.raises(ValueError):
        PrimePower(2, 3)  # p must be odd
    with pytest.raises(ValueError):
        PrimePower(9, 1)  # not prime
    with pytest.raises(ValueError):
        PrimePower(3, 0)
    assert PrimePower.from_q(27) == PrimePower(3, 3)
    with pytest.raises(ValueError):
        PrimePower.from_q(12)


def test_exp_q_examples():
    with pytest.raises(ValueError):
        exp_q(3, PrimePower.from_q(4))
    pp9 = PrimePower(3, 2)
    assert exp_q(0, pp9) == qmon(pp9, 1)
    # 9^(1/2) = 3: canonical form has coefficient 1 and p-exponent 1
    half = exp_q(Fraction(1, 2), pp9)
    assert coeff(half) == 1 and pexp(half) == 1
    assert half == qmon(pp9, 3)


def test_exp_q_counts_module_orders():
    pp = PrimePower(5, 1)
    for length in range(6):
        assert exp_q(length, pp) == qmon(pp, 5 ** length)


def test_from_integer_examples():
    pp7 = PrimePower(7, 1)
    assert qmon(pp7, 28) == qmon(pp7, 4, 1)
    assert qmon(pp7, 1) == qmon(pp7, 1)
    pp3 = PrimePower(3, 1)
    assert qmon(pp3, -5) == QMonomial(pp3, -5)
    assert qmon(pp3, Fraction(-5, 7), Fraction(1, 2)) == QMonomial(pp3, -5, 7, 1, 2)
    for fields in [(3, 1), (1, 3), (2, 4), (1, -2), (1, 1, 2, 4), (1, 1, 1, -2)]:
        with pytest.raises(ValueError):
            QMonomial(pp3, *fields)  # not a p-unit, or not in normal form
    with pytest.raises(ValueError):
        qmon(pp3, 0)


def test_canonicality():
    pp3 = PrimePower(3, 1)
    rng = random.Random(5)
    for _ in range(500):
        num = rng.choice([n for n in range(-40, 41) if n])
        den = rng.randint(1, 40)
        m = qmon(pp3, Fraction(num, den), Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        assert m * qmon(pp3, 1) == m
        assert coeff(m).numerator % 3 and coeff(m).denominator % 3


def test_group_laws_randomized():
    rng = random.Random(11)
    pp = PrimePower(3, 2)

    def rand_mono():
        num = rng.choice([n for n in range(-30, 31) if n])
        den = rng.randint(1, 30)
        return qmon(pp, Fraction(num, den), Fraction(rng.randint(-8, 8), rng.randint(1, 4)))

    for _ in range(10_000):
        a, b, c = rand_mono(), rand_mono(), rand_mono()
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_exp_q_homomorphism():
    rng = random.Random(13)
    pp = PrimePower(7, 1)
    for _ in range(2000):
        s = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        t = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        assert exp_q(s + t, pp) == exp_q(s, pp) * exp_q(t, pp)


def test_rational_round_trip():
    """The report writes c * p^e for an integral e from integers, with no
    gcd (``compare._mono_dict``); it matches the Fraction value of the
    monomial's input, for exponents of either sign.  A half-integral
    exponent gets no rational entry."""
    rng = random.Random(17)
    pp = PrimePower(5, 1)
    for _ in range(500):
        num = rng.choice([n for n in range(-30, 31) if n])
        den = rng.randint(1, 30)
        k = rng.randint(-10, 10)
        m = qmon(pp, Fraction(num, den), k)
        expected = Fraction(num, den) * Fraction(5) ** k
        assert pexp(m).denominator == 1
        assert _mono_dict(m)["rational"] == str(expected)
    assert "rational" not in _mono_dict(exp_q(Fraction(1, 2), PrimePower(5, 1)))


def test_negative_coefficient():
    pp = PrimePower(3, 1)
    m = qmon(pp, -6, 0)
    assert coeff(m) == -2 and pexp(m) == 1


def test_serialization_pair():
    pp = PrimePower(3, 2)
    m = qmon(pp, Fraction(4, 7), Fraction(3, 2))
    assert m.as_pair() == ("4/7", "3/2")


# -- the integer route against the Fraction formulas ---------------------------


def _ref_str(x):
    """The serialized form of a Fraction as the Fraction route wrote it."""
    if x.denominator == 1:
        return int_str(x.numerator)
    return "%s/%s" % (int_str(x.numerator), int_str(x.denominator))


def ref_qmon(pp, coeff, pexp=0):
    """The Fraction route's canonical form (pp, coeff, pexp): the p-part
    of the coefficient moved into the exponent."""
    c, e = Fraction(coeff), Fraction(pexp)
    if c == 0:
        raise ValueError("zero is not a q-monomial")
    num, knum = padic_split(c.numerator, pp.p)
    den, kden = padic_split(c.denominator, pp.p)
    return pp, Fraction(num, den), e + knum - kden


def ref_mul(x, y):
    return ref_qmon(x[0], x[1] * y[1], x[2] + y[2])


def ref_pair(x):
    return _ref_str(x[1]), _ref_str(x[2])


def ref_text(x):
    head = "" if x[1] == 1 else "%s * " % _ref_str(x[1])
    return "%s%d^(%s)" % (head, x[0].p, _ref_str(x[2]))


def agrees(m, ref):
    """The monomial holds the reference value, field by field and in its
    report forms."""
    return ((m.pp, coeff(m), pexp(m)) == ref and m.as_pair() == ref_pair(ref)
            and str(m) == ref_text(ref))


PRIMES = st.sampled_from([3, 5, 7, 11, 13, 31, 97, 101, 65537, 2 ** 61 - 1])
PRIME_POWERS = st.builds(PrimePower, PRIMES, st.integers(1, 4))
# nonzero integers: small, carrying a power of a small prime, and past 4,300 digits
INTEGERS = (st.integers(-10 ** 6, 10 ** 6).filter(bool)
            | st.builds(lambda u, k, p: u * p ** k, st.integers(-50, 50).filter(bool),
                        st.integers(0, 12), PRIMES)
            | st.builds(lambda u, k: u * (10 ** k + 1), st.integers(-9, 9).filter(bool),
                        st.integers(4301, 4400)))
RATIONALS = st.builds(Fraction, INTEGERS, INTEGERS.map(abs)) | INTEGERS
EXPONENTS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)) | st.integers(-9, 9)
ORACLE = settings(max_examples=150, derandomize=True, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@ORACLE
@given(PRIME_POWERS, RATIONALS, EXPONENTS, RATIONALS, EXPONENTS)
def test_integer_route_matches_fraction_formulas(pp, c1, e1, c2, e2):
    """qmon, * and scale, with as_pair, str, == and hash,
    against the Fraction formulas."""
    x, y = qmon(pp, c1, e1), qmon(pp, c2, e2)
    rx, ry = ref_qmon(pp, c1, e1), ref_qmon(pp, c2, e2)
    assert agrees(x, rx) and agrees(y, ry)
    assert agrees(x * y, ref_mul(rx, ry))
    assert agrees(x.scale(c2), ref_qmon(pp, rx[1] * c2, rx[2]))
    den = abs(Fraction(c1).numerator)
    assert agrees(x.scale(c2, den), ref_qmon(pp, rx[1] * Fraction(c2) / den, rx[2]))
    assert (x == y) is (rx == ry)
    z = qmon(pp, Fraction(c2) * pp.p ** 3, Fraction(e2) - 3)  # y's value, written otherwise
    assert z == y and hash(z) == hash(y)


@ORACLE
@given(PRIME_POWERS, EXPONENTS, st.integers(1, 30), RATIONALS)
def test_exp_q_and_halving_match_fraction_formulas(pp, t, den, coeff):
    """exp_q (with and without a denominator) and the halving of
    heisenberg_dims against the Fraction formulas."""
    t = Fraction(t)
    ref = (pp, Fraction(1), Fraction(pp.a * t.numerator, t.denominator))
    assert agrees(exp_q(t, pp), ref)
    assert agrees(exp_q(t.numerator, pp, t.denominator), ref)
    assert agrees(exp_q(t, pp, den), (pp, Fraction(1), pp.a * t / den))
    m = qmon(pp, coeff, t)
    (half,) = heisenberg_dims([m])
    _, c, e = ref_qmon(pp, coeff, t)
    assert agrees(half, (pp, c, e / 2))


@pytest.mark.parametrize("p", [3, 5, 7, 101, 65537])
def test_square_root_of_q_at_a_two_is_p(p):
    """q^(1/2) at q = p^2 is the integer p, both as exp_q and as the
    Heisenberg dimension of a quotient of order q."""
    pp = PrimePower(p, 2)
    assert exp_q(Fraction(1, 2), pp) == qmon(pp, p) == QMonomial(pp, 1, 1, 1, 1)
    assert heisenberg_dims([exp_q(1, pp)]) == [qmon(pp, p)]
    assert str(exp_q(Fraction(1, 2), pp)) == "%d^(1)" % p
