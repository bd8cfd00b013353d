"""The order and Poincare polynomial of a Weyl group, counted without its
elements.

Both come from the invariant degrees, read off the root heights
(Kostant): |W| is their product and W(q) the product of the q-integers
[d]_q over them (Chevalley; Humphreys, Reflection Groups and Coxeter
Groups, 3.15), a polynomial of degree N, the number of positive roots.
Both counts, and ``weyl``'s element walk ``enumerate_weyl``, admit a group
by |W| (``_admit``): one over the cap (E8 at the default) is refused before
any work, and so is one whose int16 layers would pass ``MAX_LAYER_BYTES``
(E8 at any cap). The ``weyl`` and ``classify`` subcommands count W of a
Cartan matrix through this module alone (``weyl_counts``), reading the
heights off ``gcm.positive_roots``, so they run neither ``roots`` nor
``weyl``.
"""

from collections import Counter
from itertools import accumulate
from math import prod
from operator import sub

# roots is named in annotations only, so the weyl subcommand never runs it
from . import gcm, roots
from .core import GCM, WeylkitError

DEFAULT_CAP = 3_000_000
# most bytes of int16 layers (|W| * rank * 2) any enumeration may build,
# whatever the cap: E7's 41 MB pass, E8's 11.1 GB do not
MAX_LAYER_BYTES = 256 * 2 ** 20


class WeylError(WeylkitError):
    """Base for Weyl-group failures."""


class CapExceeded(WeylError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"Weyl group enumeration would exceed {cap} elements")


class LayersTooLarge(WeylError):
    details = ("layer_bytes", "bound")

    def __init__(self, layer_bytes: int):
        self.layer_bytes, self.bound = layer_bytes, MAX_LAYER_BYTES
        super().__init__(f"Weyl group layers would take {layer_bytes} bytes, "
                         f"past the bound {MAX_LAYER_BYTES}")


def degrees(rs: "roots.RootSystem") -> list[int]:
    """Degrees of the basic invariants, in increasing order (Kostant).

    The exponents form the partition dual to the height distribution of the
    positive roots: if m_h roots have height h, exactly m_h - m_{h+1}
    exponents equal h. The degrees are the exponents plus one.
    """
    return _degrees(Counter(r.height for r in rs.positives))


def _degrees(heights: Counter) -> list[int]:
    return [h + 1 for h in sorted(heights) for _ in range(heights[h] - heights[h + 1])]


def matrix_degrees(c: GCM) -> list[int]:
    """``degrees`` of the root system of C, read off the heights of the keys
    ``gcm.positive_roots`` finds, the sum of their bytes, with no root
    system built."""
    n = c.n
    return _degrees(Counter(sum(key.to_bytes(n, "little")) for key in gcm.positive_roots(c)))


def weyl_order(rs: "roots.RootSystem") -> int:
    """Group order as the product of the invariant degrees."""
    return prod(degrees(rs))


def _admit(rank: int, order: int, cap: int | None) -> None:
    """Admit W, of order ``order`` and rank ``rank``, to a count: CapExceeded
    when |W| passes the cap (``DEFAULT_CAP`` when None), LayersTooLarge when
    its int16 layers pass ``MAX_LAYER_BYTES``. ``enumerate_weyl``,
    ``poincare_series`` and ``weyl_counts`` share this one rule."""
    cap = DEFAULT_CAP if cap is None else cap
    if order > cap:
        raise CapExceeded(cap)
    layer_bytes = order * rank * 2  # one int16 row per element
    if layer_bytes > MAX_LAYER_BYTES:
        raise LayersTooLarge(layer_bytes)


def _q_product(degrees: list[int]) -> list[int]:
    """The product of the q-integers [d]_q = 1 + q + ... + q**(d - 1): each
    factor turns the coefficients into their running sums over windows of
    d, a difference of two prefix sums."""
    poly = [1]
    for d in degrees:
        sums = [0, *accumulate(poly + [0] * (d - 1))]
        poly = list(map(sub, sums[1:], [0] * (d - 1) + sums))
    return poly


def poincare_series(rs: "roots.RootSystem", cap: int | None = None) -> list[int]:
    """The Poincare polynomial of W, b_l = number of elements of length l,
    as the product of [d]_q over the degrees d, counted with no element.
    It admits W as ``enumerate_weyl`` does, with the same errors, and its
    histogram equals that of ``enumerate_weyl``.

    >>> from weylkit.gcm import parse_type
    >>> from weylkit.roots import generate_roots
    >>> poincare_series(generate_roots(parse_type("G2")))
    [1, 2, 2, 2, 2, 2, 1]
    """
    degs = degrees(rs)
    _admit(rs.rank, prod(degs), cap)
    return _q_product(degs)


def weyl_counts(c: GCM, cap: int | None) -> tuple:
    """|W|, the number of positive roots N, then the order as W(q) at q = 1
    and W(q), both "skipped" when the admission refuses |W| past the cap,
    as ``poincare_series`` does: the counts the ``weyl`` and ``classify``
    documents hold, for the root system of C. The degrees are read once,
    and no root system is built."""
    degs = matrix_degrees(c)
    order, num_positive = prod(degs), sum(degs) - len(degs)
    try:
        _admit(c.n, order, cap)
    except CapExceeded:
        return order, num_positive, "skipped", "skipped"
    poly = _q_product(degs)
    return order, num_positive, sum(poly), poly


def weyl_report(c: GCM, cap: int | None) -> dict:
    """The ``weyl`` document's fields: the counts of ``weyl_counts``, and
    the longest element's length, which is the number of reflections N."""
    order, num_positive, enumerated, poincare = weyl_counts(c, cap)
    return {
        "order": order,
        "longest_length": num_positive,
        "reflections": num_positive,
        "enumerated": enumerated,
        "poincare": poincare,
    }
