#!/usr/bin/env python3
"""Walk a few matrices through the full recognition pipeline and print what
each stage sees: validation, finite-type verdict, Dynkin type, root counts,
Weyl data and the fundamental group.

Usage: python scripts/recognize.py
"""

from weylkit import axioms, cartan, core, cosets, roots
from weylkit.cartan import fundamental_group

EXAMPLES = [
    ("the A2 matrix", [[2, -1], [-1, 2]]),
    ("the G2 matrix", [[2, -1], [-3, 2]]),
    # the F4 catalog matrix with its nodes listed in the order (2,0,3,1)
    ("a relabeled F4", [[2, 0, -1, -1], [0, 2, 0, -1], [-1, 0, 2, 0], [-2, -1, 0, 2]]),
    ("an affine rank-2 matrix", [[2, -2], [-2, 2]]),
    ("a 3-cycle (affine A2)", [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]),
    ("an asymmetric zero pattern", [[2, 0], [-1, 2]]),
]


def main():
    for label, matrix in EXAMPLES:
        print(f"== {label}: {matrix}")
        try:
            g = axioms.validate_gcm(matrix)
        except core.GCMError as exc:
            print(f"   not a generalized Cartan matrix: {exc}")
            print()
            continue
        if not core.is_finite_type(g):
            print("   valid generalized Cartan matrix, but not finite type")
            print()
            continue
        dtype = cartan.classify(g)
        sym = roots.symmetrizer(g)
        rs = roots.generate_roots(g)
        poly = cosets.poincare_series(rs)
        print(f"   type {dtype.label()}   symmetrizer {list(sym.d)}")
        print(f"   {rs.num_positive} positive roots, flag dimension {rs.num_positive}")
        print(f"   |W| = {sum(poly)}   Poincare {poly}")
        print(f"   fundamental group invariant factors {list(fundamental_group(g))}")
        print()


if __name__ == "__main__":
    main()
