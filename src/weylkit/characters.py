"""Shifted Euler characteristic, Weyl dimension formula, volume polynomial.

All three are built from the same product of linear forms over the positive
coroots, evaluated in exact rational arithmetic:

    chi(D)  = prod <D, cv> / <rho, cv>
    dim(L)  = chi(L + rho)            (a positive integer for dominant L)
    vol(D)  = m! * chi(D)             (m = number of positive coroots)

rho is the weight pairing to 1 with every simple coroot; it is represented
in fundamental-weight coordinates as the all-ones vector, which sidesteps
the fact that it need not lie in the root lattice.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .cartan import WeylkitError
from .roots import RootSystem, check_weight


class CharacterError(WeylkitError):
    """Base for character, dimension and volume failures."""


class NotDominant(CharacterError):
    def __init__(self, weight):
        self.weight = tuple(weight)
        super().__init__(f"{tuple(weight)} has a negative coordinate")


class EulerData(namedtuple("EulerData", "rs rho positive_coroots rho_pairings m")):
    """Positive coroots with their rho-pairings, ready for evaluation.

    ``rho_pairings`` holds <rho, cv>, the height of each coroot, and ``m``
    the number of positive coroots, the degree.
    """

    __slots__ = ()

    @classmethod
    def from_root_system(cls, rs: RootSystem) -> "EulerData":
        coroots = tuple(r.coroot for r in rs.positives)
        return cls(rs, tuple(1 for _ in range(rs.rank)), coroots,
                   tuple(sum(cv) for cv in coroots), len(coroots))


def shifted_euler_characteristic(ed: EulerData, weight) -> Fraction:
    """Product over positive coroots of <D, cv> / <rho, cv>, exact."""
    w = check_weight(ed.rs, weight)
    num = 1
    for cv in ed.positive_coroots:
        num *= sum(x * y for x, y in zip(w, cv))
        if num == 0:
            return Fraction(0)
    den = 1
    for h in ed.rho_pairings:
        den *= h
    return Fraction(num, den)


def weyl_dim(ed: EulerData, highest_weight) -> int:
    """Dimension of the irreducible with the given dominant highest weight."""
    lam = check_weight(ed.rs, highest_weight)
    if any(x < 0 for x in lam):
        raise NotDominant(lam)
    shifted = tuple(x + r for x, r in zip(lam, ed.rho))
    return int(shifted_euler_characteristic(ed, shifted))


def volume(ed: EulerData, weight) -> Fraction:
    """Degree-m volume form: m! times the (homogeneous) characteristic."""
    return factorial(ed.m) * shifted_euler_characteristic(ed, weight)
