"""Root-string structure constants and the short-root ideal checks.

The bracket of the basis vectors attached to roots a and b with a + b a
root has magnitude m(a, b), the smallest positive integer m with b - m a
not a root; equivalently one more than the number of steps the a-string
through b extends below b. For a short and a + b long the string data obey
the length identity (down + 1) = up * length(a+b) / length(a), which is
what makes the span of the torus directions and the short root vectors an
ideal closed under p-th powers when p is the squared-length ratio.

``short_root_ideal_check`` walks the a-string through b once for each short
a and root b with a + b a root. That one string gives the bracket row and
its Steinberg row (the length identity) when a + b is long, and for short b
the square row when up >= 2, as strings are unbroken.
"""

from __future__ import annotations

from collections import namedtuple

from .cartan import WeylkitError
from .isogeny import is_prime
from .roots import RootSystem, root_string


class ChevalleyError(WeylkitError):
    """Base for structure-constant and ideal-check failures."""


class SumNotARoot(ChevalleyError):
    def __init__(self, alpha, beta):
        self.alpha, self.beta = tuple(alpha), tuple(beta)
        super().__init__(f"{tuple(alpha)} + {tuple(beta)} is not a root")


class HypothesesNotMet(ChevalleyError):
    """The pair is outside the identity's context; not a failure."""

    def __init__(self, which: str):
        self.which = which
        super().__init__(which)


class SimplyLaced(ChevalleyError):
    def __init__(self):
        super().__init__("root system has a single length class")


class StructureConstant(namedtuple("StructureConstant", "alpha beta m down up")):
    """The bracket magnitude ``m`` of alpha and beta, always 1, 2 or 3 in
    finite type, with the steps of the alpha-string below (``down``) and
    above (``up``) beta."""

    __slots__ = ()


def bracket_constant(rs: RootSystem, alpha, beta) -> StructureConstant:
    """The magnitude m(alpha, beta) read off the alpha-string through beta."""
    a = tuple(alpha)
    b = tuple(beta)
    total = tuple(x + y for x, y in zip(a, b))
    rs.root(a)
    rs.root(b)
    if not rs.is_root(total):
        raise SumNotARoot(a, b)
    s = root_string(rs, b, a)
    return StructureConstant(a, b, s.down + 1, s.down, s.up)


class SteinbergReport(namedtuple("SteinbergReport", "alpha beta down up length_ratio holds")):
    """The alpha-string through beta, ``length_ratio`` = length(alpha+beta) /
    length(alpha), and whether down + 1 == up * length_ratio ``holds``."""

    __slots__ = ()


def steinberg_check(rs: RootSystem, alpha, beta) -> SteinbergReport:
    """Check the string-length identity for alpha short and alpha+beta long."""
    a = rs.root(alpha)
    b = rs.root(beta)
    if a.length != 1:
        raise HypothesesNotMet("alpha-not-short")
    total = tuple(x + y for x, y in zip(a.coords, b.coords))
    if not rs.is_root(total):
        raise HypothesesNotMet("sum-not-a-root")
    t = rs.root(total)
    if t.length == 1:
        raise HypothesesNotMet("sum-not-long")
    s = root_string(rs, b.coords, a.coords)
    ratio = t.length // a.length
    return SteinbergReport(a.coords, b.coords, s.down, s.up, ratio,
                           s.down + 1 == s.up * ratio)


class IdealCheckReport(namedtuple("IdealCheckReport",
                                   "p bracket_triples square_triples violations steinberg")):
    """Exhaustive evidence that the short-root span is a p-closed ideal.

    ``bracket_triples`` lists (alpha, beta, alpha+beta, m) for every short
    alpha and root beta with a long root sum: the ideal property needs p to
    divide every such m. ``steinberg`` holds, row for row with
    ``bracket_triples``, the SteinbergReport of the same pair, read off the
    same string. ``square_triples`` lists (alpha, beta, 2a+b) for short
    pairs whose double step lands in the roots: p-closure needs each
    landing root to be long. Rows are ordered by alpha, then beta, in root
    order; bracket violations come before square violations. Both
    violation lists are empty on the types where the ideal exists.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def short_root_ideal_check(rs: RootSystem, p: int) -> IdealCheckReport:
    """Run both ideal checks, one string walk per pair; report every triple."""
    if not is_prime(p):
        raise ChevalleyError(f"{p} is not prime")
    if all(r.length == 1 for r in rs.roots):
        raise SimplyLaced()
    report = IdealCheckReport(p, [], [], [], [])
    square_violations = []
    for a in (r for r in rs.roots if r.length == 1):
        for b in rs.roots:
            idx = rs.index_of(tuple(x + y for x, y in zip(a.coords, b.coords)))
            if idx is None:
                continue
            total = rs.roots[idx]
            if total.length == 1 and b.length != 1:
                continue
            s = root_string(rs, b.coords, a.coords)
            if total.length > 1:
                m = s.down + 1
                report.bracket_triples.append((a.coords, b.coords, total.coords, m))
                report.steinberg.append(SteinbergReport(
                    a.coords, b.coords, s.down, s.up, total.length,
                    m == s.up * total.length))
                if m % p != 0:
                    report.violations.append(
                        ("bracket", a.coords, b.coords, total.coords, m)
                    )
            if b.length == 1 and s.up >= 2:   # unbroken: 2a + b is a root
                double = tuple(2 * x + y for x, y in zip(a.coords, b.coords))
                report.square_triples.append((a.coords, b.coords, double))
                if rs.root(double).length == 1:
                    square_violations.append(("square", a.coords, b.coords, double))
    report.violations.extend(square_violations)
    return report
