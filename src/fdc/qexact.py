"""Exact arithmetic for values of the form c * p^e.

Every degree and gamma computation in this package produces a value of this
shape: a rational p-unit c times a (possibly fractional) power of the
residue characteristic p.  Canonicalizing over p rather than over q = p^a
keeps structural equality decidable: q^(1/2) is an honest rational when a
is even (9^(1/2) = 3), so a q-based normal form would not be unique.

A value holds its coefficient and its p-exponent as reduced integer pairs,
not as ``Fraction`` objects: each operation does its own integer work (a
gcd, a p-adic split) and writes its report form from those integers.

All values are immutable; arithmetic never leaves the exact world.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd
from typing import Tuple, Union

RationalLike = Union[int, Fraction]


class Frozen:
    """Base of the immutable records of the package.  A record lists its
    fields in ``__slots__`` and sets them once, in ``__init__``, through
    ``object.__setattr__``; assigning or deleting a field afterwards raises
    ``AttributeError``.  A record compares by identity unless it is a
    :class:`Value`."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in type(self).__slots__))


class Value(Frozen):
    """A frozen record that compares and hashes as the tuple of its fields,
    in ``__slots__`` order, and equals only records of its own class."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # a plain callable, not a method: read it as self._fields(self)
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))


# Miller-Rabin with the first thirteen prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases ``_MR_BASES``: a witness proves n
    composite at any size, and passing every base proves n prime below
    ``_MR_BOUND``; above it the test refuses to decide."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ValueError("%d is too large to certify as prime" % n)
    return True


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton iteration from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


class PrimePower(Value):
    """An odd prime power q = p**a (the residue field size)."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, a: int) -> None:
        if not _is_prime(p):
            raise ValueError("p = %r is not prime" % (p,))
        if p == 2:
            raise ValueError("p must be odd")
        if a < 1:
            raise ValueError("exponent a = %r must be a positive integer" % (a,))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)

    @property
    def q(self) -> int:
        return self.p ** self.a

    @staticmethod
    def from_q(q: int) -> "PrimePower":
        """Factor an integer known to be a prime power into (p, a): for
        each exponent a up to log2(q), test whether the exact a-th root of
        q is prime."""
        if q < 3:
            raise ValueError("q = %r is not an odd prime power" % (q,))
        for a in range(1, q.bit_length() + 1):
            p = _integer_root(q, a)
            if p < 2:
                break
            if p ** a == q and _is_prime(p):
                return PrimePower(p, a)
        raise ValueError("q = %r is not a prime power" % (q,))


def padic_split(n: int, p: int) -> Tuple[int, int]:
    """Write n = u * p**k with p not dividing u; returns (u, k).  n != 0."""
    if n == 0:
        raise ValueError("0 has no p-adic decomposition")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return n, k


class QMonomial(Value):
    """Canonical value (coeff_num / coeff_den) * p**(pexp_num / pexp_den).

    The coefficient is a nonzero p-unit and both pairs are in lowest terms
    with a positive denominator, so equality of the fields is value
    equality.  Build values through :func:`qmon` and :func:`exp_q` (or the
    module operations), which bring the integers to that normal form; the
    constructor refuses fields that are not in it.
    """

    __slots__ = ("pp", "coeff_num", "coeff_den", "pexp_num", "pexp_den")

    def __init__(self, pp: PrimePower, coeff_num: int, coeff_den: int = 1,
                 pexp_num: int = 0, pexp_den: int = 1) -> None:
        if coeff_num == 0:
            raise ValueError("zero is not a q-monomial")
        p = pp.p
        if coeff_num % p == 0 or coeff_den % p == 0:
            raise ValueError("coefficient %s is not a %d-unit"
                             % (ratio_str(coeff_num, coeff_den), p))
        if (coeff_den < 1 or pexp_den < 1 or gcd(coeff_num, coeff_den) != 1
                or gcd(pexp_num, pexp_den) != 1):
            raise ValueError("%s and %s are not in lowest terms over positive denominators"
                             % (ratio_str(coeff_num, coeff_den), ratio_str(pexp_num, pexp_den)))
        _fill(self, pp, coeff_num, coeff_den, pexp_num, pexp_den)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "QMonomial") -> "QMonomial":
        pp = self.pp
        if other.pp is not pp and other.pp != pp:
            raise ValueError("mixed prime powers: %s vs %s" % (pp, other.pp))
        # A product of p-units is a p-unit, so only the gcds are taken.
        num, den = _lowest(self.coeff_num * other.coeff_num, self.coeff_den * other.coeff_den)
        a, b, c, d = self.pexp_num, self.pexp_den, other.pexp_num, other.pexp_den
        enum, eden = (a + c, 1) if b == d == 1 else _lowest(a * d + c * b, b * d)
        return _monomial(pp, num, den, enum, eden)

    def scale(self, c: RationalLike, den: int = 1) -> "QMonomial":
        """Multiply by the nonzero rational c / den, den > 0 (the p-part is
        moved into the exponent)."""
        return _normal(self.pp, self.coeff_num * c.numerator,
                       self.coeff_den * c.denominator * den, self.pexp_num, self.pexp_den)

    # -- report forms -------------------------------------------------------

    def as_pair(self) -> Tuple[str, str]:
        """Serialized form: ("num/den" coefficient, "num/den" p-exponent)."""
        return (ratio_str(self.coeff_num, self.coeff_den),
                ratio_str(self.pexp_num, self.pexp_den))

    def __str__(self) -> str:
        num, den = self.coeff_num, self.coeff_den
        head = "" if num == den == 1 else "%s * " % ratio_str(num, den)
        return "%s%d^(%s)" % (head, self.pp.p, ratio_str(self.pexp_num, self.pexp_den))


# The slot descriptors' setters, called directly: each field is set once, on
# a new instance, and this skips the attribute lookup of object.__setattr__.
_set_pp, _set_coeff_num, _set_coeff_den, _set_pexp_num, _set_pexp_den = (
    QMonomial.__dict__[name].__set__ for name in QMonomial.__slots__)


def _fill(m: QMonomial, pp: PrimePower, coeff_num: int, coeff_den: int, pexp_num: int,
          pexp_den: int) -> QMonomial:
    _set_pp(m, pp)
    _set_coeff_num(m, coeff_num)
    _set_coeff_den(m, coeff_den)
    _set_pexp_num(m, pexp_num)
    _set_pexp_den(m, pexp_den)
    return m


def _monomial(pp: PrimePower, coeff_num: int, coeff_den: int, pexp_num: int,
              pexp_den: int) -> QMonomial:
    """A QMonomial from fields its caller has already brought to normal
    form; unlike the constructor, it checks nothing."""
    return _fill(object.__new__(QMonomial), pp, coeff_num, coeff_den, pexp_num, pexp_den)


def _lowest(num: int, den: int) -> Tuple[int, int]:
    """num/den in lowest terms, for den > 0."""
    g = gcd(num, den)
    return (num, den) if g == 1 else (num // g, den // g)


def _normal(pp: PrimePower, num: int, den: int, pexp_num: int, pexp_den: int) -> QMonomial:
    """The canonical monomial (num/den) * p**(pexp_num/pexp_den), for any
    nonzero num, den and an exponent already in lowest terms with
    pexp_den > 0: the fraction is reduced, its sign put on the numerator and
    its p-part moved into the exponent.  Adding an integer k to the exponent
    keeps it in lowest terms, since gcd(n + k d, d) = gcd(n, d)."""
    if num == 0:
        raise ValueError("zero is not a q-monomial")
    if den < 0:
        num, den = -num, -den
    num, den = _lowest(num, den)
    p = pp.p
    if num % p == 0:
        num, k = padic_split(num, p)
        pexp_num += k * pexp_den
    if den % p == 0:
        den, k = padic_split(den, p)
        pexp_num -= k * pexp_den
    return _monomial(pp, num, den, pexp_num, pexp_den)


# Below 2,000 bits an integer has at most 603 decimal digits, under the
# smallest limit CPython lets a process set on int-to-str conversion (640).
_STR_SAFE_BITS = 2000


def int_str(n: int) -> str:
    """Exact decimal digits of n at any size.

    Past ``_STR_SAFE_BITS`` the number is split by divmod at a power of ten
    near the middle of its digits and each half is written on its own, so
    the interpreter's digit limit on ``str(int)`` never applies and no
    process-wide setting is changed.
    """
    if n.bit_length() <= _STR_SAFE_BITS:
        return "%d" % n
    if n < 0:
        return "-" + int_str(-n)
    # n >= 2^2000 > 10^k for this k, so the high half is nonzero.
    k = n.bit_length() * 3 // 20
    hi, lo = divmod(n, 10 ** k)
    return int_str(hi) + int_str(lo).zfill(k)


def ratio_str(num: int, den: int) -> str:
    """The serialized form of num/den for a pair already in lowest terms
    with den > 0: "num/den", or "num" when den is 1.  No gcd is taken."""
    if den == 1:
        return int_str(num)
    if num.bit_length() <= _STR_SAFE_BITS and den.bit_length() <= _STR_SAFE_BITS:
        return "%d/%d" % (num, den)
    return "%s/%s" % (int_str(num), int_str(den))


def fraction_str(x: Fraction) -> str:
    """The serialized form of a rational: "num/den", or "num" when integral."""
    return ratio_str(x.numerator, x.denominator)


def qmon(pp: PrimePower, coeff: RationalLike, pexp: RationalLike = 0) -> QMonomial:
    """Canonical constructor: migrates the p-part of coeff into the exponent.
    A coefficient that is already a p-unit is kept as it is."""
    return _normal(pp, coeff.numerator, coeff.denominator, pexp.numerator, pexp.denominator)


def exp_q(t: RationalLike, pp: PrimePower, den: int = 1) -> QMonomial:
    """q**(t/den), den > 0, as a canonical monomial: coefficient 1,
    p-exponent a*t/den.

    Satisfies exp_q(len M) = |M| for finite modules over the ring with
    residue field of size q, and exp_q(s + t) = exp_q(s) * exp_q(t).
    """
    num, den = _lowest(pp.a * t.numerator, t.denominator * den)
    return _monomial(pp, 1, 1, num, den)
