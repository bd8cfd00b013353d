"""The order and Poincare polynomial of a Weyl group, counted without its
elements.

|W| comes from the invariant degrees read off the root heights, and
``poincare_series`` counts the elements by length through parabolic cosets:
a few orbits of fundamental weights, each within 2 160 vectors (E8) on the
catalog labels, in place of |W| rows. Both counts, and ``weyl``'s element
walk ``enumerate_weyl``, admit a group by |W| (``_admit``): one over the
cap (E8 at the default) is refused before any work, and so is one whose
int16 layers would pass ``MAX_LAYER_BYTES`` (E8 at any cap). The ``weyl``
and ``classify`` subcommands count W through this module alone, so they do
not run ``weyl``, which re-exports every name here.
"""

from collections import Counter
from math import prod

from .core import WeylkitError
from .roots import RootSystem

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


def degrees(rs: RootSystem) -> list[int]:
    """Degrees of the basic invariants, in increasing order (Kostant).

    The exponents form the partition dual to the height distribution of the
    positive roots: if m_h roots have height h, exactly m_h - m_{h+1}
    exponents equal h. The degrees are the exponents plus one.
    """
    heights = Counter(r.height for r in rs.positives)
    return [h + 1 for h in sorted(heights) for _ in range(heights[h] - heights[h + 1])]


def weyl_order(rs: RootSystem) -> int:
    """Group order as the product of the invariant degrees."""
    return prod(degrees(rs))


def _admit(rs: RootSystem, order: int, cap: int | None) -> None:
    """Admit W, of order ``order`` (``weyl_order(rs)``, which the caller
    reads once), to a count: CapExceeded when |W| passes the cap
    (``DEFAULT_CAP`` when None), LayersTooLarge when its int16 layers pass
    ``MAX_LAYER_BYTES``. ``enumerate_weyl``, ``poincare_series`` and
    ``weyl_counts`` share this one rule."""
    cap = DEFAULT_CAP if cap is None else cap
    if order > cap:
        raise CapExceeded(cap)
    layer_bytes = order * rs.rank * 2  # one int16 row per element
    if layer_bytes > MAX_LAYER_BYTES:
        raise LayersTooLarge(layer_bytes)


def poincare_series(rs: RootSystem, cap: int | None = None) -> list[int]:
    """The Poincare polynomial of W, b_l = number of elements of length l,
    counted by parabolic cosets instead of by element.

    W(q) = W_I(q) * W^I(q) for I = S minus a node j, and the minimal coset
    representatives W^I biject with the orbit of the fundamental weight w_j,
    lengths included (Humphreys, Reflection Groups and Coxeter Groups,
    1.10-1.11). So the polynomial is a product of orbit layer sizes, one
    orbit per node removed. It admits W as ``enumerate_weyl`` does, with the
    same errors, and its histogram equals that of ``enumerate_weyl``.

    >>> from weylkit.gcm import parse_type
    >>> from weylkit.roots import generate_roots
    >>> poincare_series(generate_roots(parse_type("G2")))
    [1, 2, 2, 2, 2, 2, 1]
    """
    _admit(rs, weyl_order(rs), cap)
    return _coset_chain(rs)


def _coset_chain(rs: RootSystem) -> list[int]:
    """W(q) as the product of the coset orbits' layer sizes, with no admission.

    Each step removes the smallest-index leaf j of the Dynkin graph on the
    nodes left, I, and walks the orbit of w_j under W_{I+j} in weight
    coordinates over I + j. As in the rho walk, a child s_i v of v with
    v[i] > 0 is kept only when no coordinate before i is negative, so each
    coset representative comes once from its smallest-descent parent; the
    coordinates may now be 0, where the rho walk's never are. A leaf keeps
    every orbit small: D_n's first node has 2n, its spin node 2**(n - 1).
    """
    c = rs.gcm
    live = list(range(rs.rank))
    poly = [1]
    while live:
        j = next(k for k in live if sum(1 for m in live if m != k and c[k][m]) <= 1)
        rows = [[c[i][m] for m in live] for i in live]
        layer = [tuple(int(m == j) for m in live)]
        sizes = []
        while layer:
            sizes.append(len(layer))
            layer = [child for i, row in enumerate(rows) for v in layer if v[i] > 0
                     for child in [tuple(x - v[i] * a for x, a in zip(v, row))]
                     if min(child[:i], default=0) >= 0]
        live.remove(j)
        product = [0] * (len(poly) + len(sizes) - 1)
        for a, x in enumerate(poly):
            for b, y in enumerate(sizes):
                product[a + b] += x * y
        poly = product
    return poly


def weyl_counts(rs: RootSystem, cap: int | None) -> tuple:
    """|W| from the degrees, then the order counted by cosets and the
    Poincare polynomial, both "skipped" when the admission refuses |W| past
    the cap, as ``poincare_series`` does: the counts the ``weyl`` and
    ``classify`` documents hold. The degrees are read once."""
    order = weyl_order(rs)
    try:
        _admit(rs, order, cap)
    except CapExceeded:
        return order, "skipped", "skipped"
    poly = _coset_chain(rs)
    return order, sum(poly), poly


def weyl_report(rs: RootSystem, cap: int | None) -> dict:
    """The ``weyl`` document's fields: the counts of ``weyl_counts``, and
    the longest element's length, which is the number of reflections."""
    order, enumerated, poincare = weyl_counts(rs, cap)
    return {
        "order": order,
        "longest_length": rs.num_positive,
        "reflections": rs.num_positive,
        "enumerated": enumerated,
        "poincare": poincare,
    }
