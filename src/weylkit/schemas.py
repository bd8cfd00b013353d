"""Published shapes of the CLI's JSON documents, with a small checker.

Every top-level JSON document carries a versioned ``schema`` key, the
``"schema"`` literal of its spec; ``BY_SCHEMA`` is built from those
literals. ``cli`` writes each subcommand's name a second time, as a string
default of its parser, so a successful ``--type`` request never runs this
module; ``validate_document``, which the tests apply to every golden and
fuzz document, looks the written name up here, so the two cannot drift
apart unnoticed. The shape language is deliberately
tiny: a spec is one of the types ``int``, ``bool``, ``str``, ``list``,
``dict``; a named shape ``"rational"``, ``"int_list"`` or ``"int_matrix"``;
a literal value or ``None``; a dict of field specs; or the namedtuples
``ListOf(spec)`` and ``OneOf(spec, ...)``. The CLI checks the documents it
reads with the same ``check``.
"""

from collections import namedtuple


class ListOf(namedtuple("ListOf", "item")):
    """A list each of whose items has the shape ``item``."""

    __slots__ = ()


class OneOf(namedtuple("OneOf", "alternatives")):
    """A value of one of the shapes in ``alternatives``."""

    __slots__ = ()

    def __new__(cls, *alternatives):
        return super().__new__(cls, alternatives)

    def __getnewargs__(self):
        return self.alternatives


DATUM = {
    "rank": int,
    "roots": "int_matrix",
    "coroots": "int_matrix",
    "simple": "int_list",
}

REPORT = {
    "schema": "weylkit/report/1",
    "matrix": OneOf("int_matrix", None),
    "gcm": bool,
    "finite": OneOf(bool, None),
    "type": OneOf(list, None),
    "node_maps": OneOf(list, None),
    "symmetrizer": OneOf("int_list", None),
    "positive_roots": OneOf(int, None),
    "dimension": OneOf(int, None),
    "weyl_order": OneOf(int, None),
    "weyl_order_enumerated": OneOf(int, None, "skipped"),
    "poincare": OneOf("int_list", None, "skipped"),
    "fundamental_group": OneOf("int_list", None),
    "errors": list,
}

ROOTS = {
    "schema": "weylkit/roots/1",
    "type": str,
    "roots": ListOf({"root": "int_list", "coroot": "int_list",
                     "positive": bool, "length": OneOf("short", "long")}),
}

WEYL = {
    "schema": "weylkit/weyl/1",
    "type": str,
    "order": int,
    "enumerated": OneOf(int, "skipped"),
    "longest_length": int,
    "poincare": OneOf("int_list", "skipped"),
    "reflections": int,
}

BS_WEIGHTS = {
    "schema": "weylkit/bs-weights/1",
    "type": str,
    "word": "int_list",
    "weight": "int_list",
    "entries": ListOf({"weight": "int_list", "degree": int, "mult": int}),
}

DIM = {
    "schema": "weylkit/dim/1",
    "type": str,
    "weight": "int_list",
    "value": int,
}

VOL = {
    "schema": "weylkit/vol/1",
    "type": str,
    "weight": "int_list",
    "value": "rational",
}

# one item of ``isogenies``, and the document ``isogeny validate`` reads
PMORPHISM = {"source": DATUM, "target": DATUM, "f": "int_matrix",
             "u": "int_list", "q": "int_list", "p": int}

ISOGENIES = {
    "schema": "weylkit/isogenies/1",
    "type": str,
    "p": int,
    "isogenies": ListOf(PMORPHISM),
}

ISOGENY_VALIDATION = {
    "schema": "weylkit/isogeny-validation/1",
    "valid": bool,
    "primitive": OneOf(bool, None),
    "constant": OneOf(bool, None),
    "frobenius_exponent": OneOf(int, None),
    "error": OneOf(dict, None),
}

CHEVALLEY = {
    "schema": "weylkit/chevalley/1",
    "type": str,
    "p": int,
    "passed": bool,
    "bracket_triples": ListOf({"alpha": "int_list", "beta": "int_list",
                               "sum": "int_list", "m": int}),
    "square_triples": ListOf({"alpha": "int_list", "beta": "int_list",
                              "sum": "int_list"}),
    "violations": list,
    "steinberg": ListOf({"alpha": "int_list", "beta": "int_list",
                         "down": int, "up": int, "ratio": int, "holds": bool}),
}

DATUM_DOC = {
    "schema": "weylkit/datum/1",
    "type": str,
    "kind": OneOf("adjoint", "simply-connected"),
    **DATUM,
}

SELFCHECK = {
    "schema": "weylkit/selfcheck/1",
    "type": str,
    "seed": int,
    "samples": int,
    "antisymmetry": bool,
    "equivariance": bool,
}

ERROR = {
    "schema": "weylkit/error/1",
    "error": dict,
}

BY_SCHEMA = {spec["schema"]: spec for spec in (
    REPORT, ROOTS, WEYL, BS_WEIGHTS, DIM, VOL, ISOGENIES, ISOGENY_VALIDATION,
    CHEVALLEY, DATUM_DOC, SELFCHECK, ERROR)}


class SchemaViolation(ValueError):
    pass


def matches(value, spec) -> bool:
    """Whether ``check`` accepts the value."""
    try:
        check(value, spec)
        return True
    except SchemaViolation:
        return False


def check(value, spec, path: str = "") -> None:
    """Raise SchemaViolation naming the path of the first mismatch, unless
    the value has the shape ``spec``; a dict spec allows extra keys."""
    if spec is None:
        if value is not None:
            raise SchemaViolation(f"{path}: expected null, got {value!r}")
    elif spec is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaViolation(f"{path}: expected int, got {value!r}")
    elif spec is bool or spec is str:
        if not isinstance(value, spec):
            raise SchemaViolation(f"{path}: expected {spec.__name__}, got {value!r}")
    elif spec is list or spec is dict:
        if not isinstance(value, spec):
            raise SchemaViolation(f"{path}: expected {spec.__name__}")
    elif spec == "rational":
        if not isinstance(value, str):
            raise SchemaViolation(f"{path}: expected p/q rational string")
        from fractions import Fraction   # here alone: only a rational spec needs it

        try:
            Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaViolation(f"{path}: expected p/q rational string") from None
    elif spec == "int_list":
        if not isinstance(value, list) or any(
            not isinstance(x, int) or isinstance(x, bool) for x in value
        ):
            raise SchemaViolation(f"{path}: expected list of ints")
    elif spec == "int_matrix":
        if not isinstance(value, list):
            raise SchemaViolation(f"{path}: expected list of rows")
        for row in value:
            check(row, "int_list", path)
    elif isinstance(spec, ListOf):
        if not isinstance(value, list):
            raise SchemaViolation(f"{path}: expected list")
        for k, item in enumerate(value):
            check(item, spec.item, f"{path}[{k}]")
    elif isinstance(spec, OneOf):
        if not any(matches(value, alt) for alt in spec.alternatives):
            raise SchemaViolation(f"{path}: matches no alternative")
    elif isinstance(spec, dict):
        if not isinstance(value, dict):
            raise SchemaViolation(f"{path}: expected object")
        for key, sub in spec.items():
            if key not in value:
                raise SchemaViolation(f"{path}.{key}: missing")
            check(value[key], sub, f"{path}.{key}")
    elif isinstance(spec, str):
        if value != spec:
            raise SchemaViolation(f"{path}: expected literal {spec!r}, got {value!r}")
    else:
        raise SchemaViolation(f"{path}: unknown spec {spec!r}")


def validate_document(doc) -> None:
    """Check a CLI JSON document against its declared schema."""
    if not isinstance(doc, dict) or "schema" not in doc:
        raise SchemaViolation("document must be an object with a schema key")
    name = doc["schema"]
    if name not in BY_SCHEMA:
        raise SchemaViolation(f"unknown schema {name!r}")
    check(doc, BY_SCHEMA[name], name)
