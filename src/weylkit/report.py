"""The ``classify`` report of a matrix, the shape ``schemas.REPORT``.

The matrix is checked against the Cartan axioms (``axioms``) and tested
for finite type (``core``, with ``bareiss`` for the leading minors); a
finite one is classified (``cartan``) and given its symmetrizer
(``roots``); ``cosets`` reads the root count N, |W| and W(q) off the
invariant degrees, from the root heights, with no root system built. Only
``classify`` runs this module, so no ``--type`` request compiles it.
"""

# each module is read on use, through the module object, so a matrix that
# is not of finite type runs none of cartan, gcm, intmat, roots or cosets
from . import axioms, cartan, core, cosets, roots, schemas


def classify_report(matrix: list, transpose: bool = False, cap: int | None = None) -> dict:
    """Every field of the report, those past the first failed stage None:
    ``gcm`` is false with the ``errors`` of a matrix that is no generalized
    Cartan matrix, and ``finite`` false for one not of finite type. With
    ``transpose``, a square list of lists is transposed first, for the
    opposite pairing convention. ``cap`` is the Weyl order past which
    ``cosets.weyl_counts`` skips W(q) and the order read off it."""
    if transpose and all(isinstance(row, list) and len(row) == len(matrix) for row in matrix):
        matrix = [list(row) for row in zip(*matrix)]
    report = dict.fromkeys(schemas.REPORT) | {
        "matrix": matrix if schemas.matches(matrix, "int_matrix") else None,
        "gcm": False,
        "errors": [],
    }
    try:
        gcm = axioms.validate_gcm(matrix)
    except core.GCMError as exc:
        report["errors"].append(exc.to_json())
        return report
    report["gcm"] = True
    report["finite"] = core.is_finite_type(gcm)
    if not report["finite"]:
        return report
    dtype = cartan.classify(gcm)
    report["type"] = [(f, r) for f, r, _ in dtype.components]
    report["node_maps"] = [nodes for _, _, nodes in dtype.components]
    report["symmetrizer"] = roots.symmetrizer(gcm).d
    report["fundamental_group"] = cartan.fundamental_group(gcm)
    (report["weyl_order"], report["positive_roots"], report["weyl_order_enumerated"],
     report["poincare"]) = cosets.weyl_counts(gcm, cap)
    report["dimension"] = report["positive_roots"]
    return report
