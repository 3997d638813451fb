import random
from fractions import Fraction

import pytest

from fdc.compare import _mono_dict
from fdc.qexact import (
    PrimePower,
    QMonomial,
    exp_q,
    fraction_str,
    qmon,
)


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
    assert half.coeff == 1 and half.pexp == 1
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
    assert qmon(pp3, -5) == QMonomial(pp3, Fraction(-5), Fraction(0))
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
        assert m.coeff.numerator % 3 and m.coeff.denominator % 3


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
    # inverse law
    for _ in range(1000):
        a = rand_mono()
        assert a * a.inverse() == qmon(pp, 1)


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
        assert m.pexp.denominator == 1
        assert _mono_dict(m)["rational"] == fraction_str(expected)
    assert "rational" not in _mono_dict(exp_q(Fraction(1, 2), PrimePower(5, 1)))


def test_negative_and_abs():
    pp = PrimePower(3, 1)
    m = qmon(pp, -6, 0)
    assert m.coeff == -2 and m.pexp == 1
    assert abs(m) == qmon(pp, 6, 0)
    assert not m.is_positive and abs(m).is_positive


def test_serialization_pair():
    pp = PrimePower(3, 2)
    m = qmon(pp, Fraction(4, 7), Fraction(3, 2))
    assert m.as_pair() == ("4/7", "3/2")
