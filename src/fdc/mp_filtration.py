"""Jump torsors and the length bookkeeping of filtrations.

The jump set of a root orbit is a torsor under (1/e)Z, recorded by a
single offset; the length of a filtration step at t is the orbit's
residue degree when t lies in the torsor and zero otherwise.  An index is
r or r+ (infinitesimally above r); the torsor points at or above one are
found by one floor division (:func:`_first_point`).  Offsets are reduced
pairs (numerator, denominator); an index t = n/d is passed as the two
integers n and d > 0, not necessarily reduced, so a half-break r/2 is
passed as (r_num, 2 r_den) and never reduced.

:func:`twice_length_to` is the one length kernel: the volume exponent of
``verify`` sums it, and the master length identity of ``tests/lemmas.py``
takes its left side from it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from .galois_roots import OrbitInfo
from .qexact import Frozen, Ratio, lowest_terms


# -- jump assignments ------------------------------------------------------------


class JumpAssignment(Frozen):
    """Per-orbit offsets of the jump torsors, canonicalized into [0, 1/e).

    The jump set of orbit a is offset + (1/e)Z; negation sends the torsor
    of a to minus the torsor of -a, which forces offset(-a) = -offset(a)
    modulo (1/e)Z.  That symmetry is validated against the orbit list.
    ``offsets`` maps each orbit id to its canonical offset, a reduced pair
    (numerator, denominator).
    """

    __slots__ = ("offsets",)

    def __init__(self, offsets: Mapping[str, Ratio]) -> None:
        object.__setattr__(self, "offsets", offsets)  # orbit_id -> canonical offset

    @staticmethod
    def build(offsets: Mapping[str, Ratio], orbits: Sequence[OrbitInfo]) -> "JumpAssignment":
        """The canonical offsets of the pairs (n, d), d > 0, not necessarily
        reduced, that ``offsets`` gives each orbit."""
        by_id = {o.orbit_id: o for o in orbits}
        if set(offsets.keys()) != set(by_id.keys()):
            raise ValueError("jump offsets must cover exactly the orbits")
        canon: Dict[str, Ratio] = {}
        for oid, (n, d) in offsets.items():
            # n/d mod 1/e is ((n e) mod d) / (d e)
            e = by_id[oid].e
            canon[oid] = lowest_terms(n * e % d, d * e)
        for oid, o in by_id.items():
            (na, da), (nb, db) = canon[oid], canon[o.negation_id]
            # e (a + b) = e (na db + nb da) / (da db) must be an integer
            if (na * db + nb * da) * o.e % (da * db):
                raise ValueError("offsets of %s and %s are not negation-symmetric"
                                 % (oid, o.negation_id))
        return JumpAssignment(canon)

    def offset(self, orbit: OrbitInfo) -> Ratio:
        return self.offsets[orbit.orbit_id]

    def contains(self, orbit: OrbitInfo, n: int, d: int = 1) -> bool:
        """Whether t = n/d (d > 0) lies in offset + (1/e)Z: for the offset
        a/b, t - offset = (n b - a d) / (d b) lies in (1/e)Z exactly when
        d b divides e (n b - a d), whether or not n/d is in lowest terms."""
        a, b = self.offsets[orbit.orbit_id]
        return (n * b - a * d) * orbit.e % (d * b) == 0


def jump_length_at(orbit: OrbitInfo, jumps: JumpAssignment, n: int, d: int = 1) -> int:
    """Length of the one-step filtration quotient of the orbit space at
    t = n/d (d > 0): the residue degree if it lies in the jump torsor,
    else 0."""
    return orbit.f if jumps.contains(orbit, n, d) else 0


def _first_point(off: Ratio, e: int, n: int, d: int, plus: bool) -> int:
    """The least k with off + k/e >= x in the extended order, for the index
    x = n/d (d > 0), or x = (n/d)+ when plus is set.

    For x = r, off + k/e >= r exactly when k >= e (r - off), so k is the
    ceiling of e (r - off); for x = r+, off + k/e > r exactly when
    k > e (r - off), so k is its floor plus one.
    """
    a, b = off
    num = e * (n * b - a * d)
    den = d * b
    return num // den + 1 if plus else -(-num // den)


def twice_length_to(orbit: OrbitInfo, jumps: JumpAssignment, n: int, d: int = 1) -> int:
    """Twice the length of the orbit space from 0 to t = n/d (d > 0) with
    both endpoints weighted one half:
    2 f #(torsor points in (0, t)) + len(0) + len(t).

    This is the left side of the master length identity for one orbit; the
    volume exponent by torsor point count sums it over each layer, so the
    identity's randomized suite checks the code ``verify`` runs.  The
    points in (0, t) are those with k from the first point above 0+ up to,
    not including, the first point at t.
    """
    off, e = jumps.offset(orbit), orbit.e
    inside = max(0, _first_point(off, e, n, d, False) - _first_point(off, e, 0, 1, True))
    return (2 * orbit.f * inside + jump_length_at(orbit, jumps, 0)
            + jump_length_at(orbit, jumps, n, d))
