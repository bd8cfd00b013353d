"""Shifted Euler characteristic, Weyl dimension formula, volume polynomial.

All three are built from the same product of linear forms over the positive
coroots, evaluated in exact rational arithmetic:

    chi(D)  = prod <D, cv> / <rho, cv>
    dim(L)  = chi(L + rho)            (a positive integer for dominant L)
    vol(D)  = m! * chi(D)             (m = number of positive coroots)

rho is the weight pairing to 1 with every simple coroot; it is represented
in fundamental-weight coordinates as the all-ones vector, which sidesteps
the fact that it need not lie in the root lattice. ``selfcheck`` samples
two identities these obey under the Weyl group.
"""

from collections import namedtuple
from fractions import Fraction
from math import factorial
from operator import mul

from . import weyl
from .checks import check_weight
from .core import WeylkitError
from .roots import RootSystem


class CharacterError(WeylkitError):
    """Base for character, dimension and volume failures."""


class NotDominant(CharacterError):
    def __init__(self, weight):
        self.weight = tuple(weight)
        super().__init__(f"{tuple(weight)} has a negative coordinate")


# most work a ``selfcheck`` may ask for, in samples x (rank + 1) chi
# evaluations x positive roots: E8 at ``cli.MAX_SAMPLES`` (10 000 samples),
# where A60 would take 68 s
SELFCHECK_BUDGET = 10_000 * 9 * 120


class SelfcheckTooLarge(CharacterError):
    details = ("work", "bound")

    def __init__(self, work: int, bound: int):
        self.work, self.bound = work, bound
        super().__init__(f"selfcheck would take {work} units of work, past the bound "
                         f"{bound} (samples x (rank + 1) x positive roots)")


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
        num *= sum(map(mul, w, cv))
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


def formula_report(rs: RootSystem, formula: str, weight) -> dict:
    """The ``dim`` or ``vol`` document's fields: the function ``formula``
    names (``weyl_dim`` or ``volume``) at one weight, a rational as p/q."""
    value = {"weyl_dim": weyl_dim, "volume": volume}[formula](
        EulerData.from_root_system(rs), weight)
    if not isinstance(value, int):
        value = str(value)
    return {"weight": weight, "value": value}


def selfcheck(rs: RootSystem, samples: int, seed: int) -> dict:
    """The ``selfcheck`` document's fields: at each of ``samples`` weights d
    drawn by ``random.Random(seed)``, whether chi(s_i d) = -chi(d) for every
    simple reflection (``antisymmetry``) and vol(w d) = det(w) vol(d) for w
    the element of a drawn word (``equivariance``). Work past
    ``SELFCHECK_BUDGET`` is refused with SelfcheckTooLarge before any
    sample."""
    work = samples * (rs.rank + 1) * rs.num_positive
    if work > SELFCHECK_BUDGET:
        raise SelfcheckTooLarge(work, SELFCHECK_BUDGET)
    import random   # here alone, so no other request loads it

    ed = EulerData.from_root_system(rs)
    rng = random.Random(seed)
    anti = True
    equi = True
    for _ in range(samples):
        d = tuple(rng.randint(-6, 6) for _ in range(rs.rank))
        chi = shifted_euler_characteristic(ed, d)
        for i in range(rs.rank):
            if shifted_euler_characteristic(ed, weyl.reflect(rs, i, d)) != -chi:
                anti = False
        word = [rng.randrange(rs.rank) for _ in range(rng.randint(0, 8))]
        w = weyl.element_from_word(rs, word)
        if volume(ed, w.act_weight(d)) != w.det() * volume(ed, d):
            equi = False
    return {"seed": seed, "samples": samples, "antisymmetry": anti, "equivariance": equi}
