"""Command-line front end.

Subcommands mirror the library modules; all output is deterministic JSON
(sorted keys, no timestamps) unless ``--format text`` asks for tables.
Words are passed and printed 1-based on the command line; weight vectors
are read in coroot coordinates (the fundamental-weight basis) unless
``--basis root`` converts them through the Cartan matrix. Each handler
returns only its own fields; ``main`` adds the ``schema`` name its
subcommand's parser carries (a spec in ``schemas``, which a successful
``--type`` request never loads) and, for a subcommand that takes
``--type``, echoes the label as ``type``. ``main`` builds only the parser
of the subcommand its argv names. Called with no argv, as ``python -m
weylkit.cli`` and the ``weylkit`` script call it, ``main`` owns the process:
it runs the request with the cyclic garbage collector off and freezes the
heap after writing, so nothing is collected during the request and the
collections at exit skip the heap it leaves; a caller that passes argv keeps
its collector as it was.

Exit codes for ``classify``: 0 finite type, 2 valid Cartan matrix but not
finite, 3 not a generalized Cartan matrix, 4 unreadable input, and 1 with a
``RankTooLarge`` error document for a valid matrix of rank over
``cartan.MAX_RANK``, refused before the finite-type test. Other
subcommands exit 0 on success and 1 with a machine-readable error object;
a ``--type`` label whose ranks sum past ``cartan.MAX_RANK`` is one.
``classify`` and ``weyl`` alike exit 1 with a ``LayersTooLarge`` error
document when a ``--cap`` lets through a group whose Weyl layers would pass
``weyl.MAX_LAYER_BYTES`` (E8 at any cap): they count W by cosets, but admit
it as ``enumerate_weyl`` does.
A usage error (an unknown subcommand, a missing or malformed option) is
unreadable input too: it writes one ``ParseError`` error document and exits
4 under ``classify``, 1 otherwise. A ``selfcheck`` whose samples x (rank + 1)
x positive roots passes ``SELFCHECK_BUDGET`` is refused before any sample
with one ``SelfcheckTooLarge`` error document and exit 1. A result or
message with an integer past the interpreter's int-to-str digit limit is
refused with one ``DigitLimitExceeded`` document and exit 1; the limit
guards the conversion against quadratic time, so it is kept. Every run
writes exactly one document.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys

from . import (cartan, characters, chevalley, isogeny, pushforward, rootdata, roots,
               schemas, weyl)

# let values like "-2,1" pass as option arguments rather than flags
_NEGATIVE_VECTOR = re.compile(r"^-\d+(,-?\d+)*$")

# most samples ``selfcheck`` draws; E8 at the cap takes about 5 s
MAX_SAMPLES = 10_000
# most work a ``selfcheck`` may ask for, in samples x (rank + 1) chi
# evaluations x positive roots: E8 at MAX_SAMPLES, where A60 would take 68 s
SELFCHECK_BUDGET = MAX_SAMPLES * 9 * 120

# the message CPython gives an int past its int-to-str digit limit
_DIGIT_LIMIT_MESSAGE = "for integer string conversion"


class ParseError(cartan.WeylkitError):
    """Unreadable input: bad JSON, a malformed document or a usage error."""


class SelfcheckTooLarge(cartan.WeylkitError):
    details = ("work", "bound")

    def __init__(self, work: int):
        self.work, self.bound = work, SELFCHECK_BUDGET
        super().__init__(f"selfcheck would take {work} units of work, past the bound "
                         f"{SELFCHECK_BUDGET} (samples x (rank + 1) x positive roots)")


class DigitLimitExceeded(cartan.WeylkitError):
    def __init__(self):
        super().__init__(f"an integer to print has more than "
                         f"{sys.get_int_max_str_digits()} decimal digits")


def _render(doc: dict, fmt: str) -> str:
    """The document as one line of JSON, or as ``key: value`` lines under
    ``--format text``. Either way a tuple is written as an array, so handlers
    pass the library's tuples as they are; a text rendering writes a list of
    dicts as a table, one row per dict."""
    if fmt == "text":
        return _render_text(doc)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _render_text(doc: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, list) and value and all(isinstance(x, dict) for x in value):
            lines.append(f"{indent}{key}:")
            cols = sorted({k for item in value for k in item})
            rows = [[_cell(item.get(c)) for c in cols] for item in value]
            widths = [max(len(c), *(len(r[i]) for r in rows)) for i, c in enumerate(cols)]
            lines.append(indent + "  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths)))
            for r in rows:
                lines.append(indent + "  " + "  ".join(x.ljust(w) for x, w in zip(r, widths)))
        elif isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  ").rstrip("\n"))
        else:
            lines.append(f"{indent}{key}: {_cell(value)}")
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, (list, tuple)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _parse_ints(text: str) -> list[int]:
    """Comma-separated integers; an empty or blank field is refused, so
    "1,,2" or "3," is not read as a shorter list."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from None


def _parse_word(text: str, rank: int) -> tuple[int, ...]:
    letters = _parse_ints(text) if text else []
    word = []
    for x in letters:
        if not 1 <= x <= rank:
            raise roots.IndexOutOfRange(x, rank)
        word.append(x - 1)
    return tuple(word)


def _parse_weight(text: str, gcm: cartan.GCM, basis: str) -> tuple[int, ...]:
    coords = _parse_ints(text)
    if len(coords) != gcm.n:
        raise ParseError(f"weight must have {gcm.n} coordinates")
    return roots.weight_of(gcm, coords) if basis == "root" else tuple(coords)


def _load_json(path: str, spec):
    """The JSON document in a file, or on stdin when the path is "-"; it
    must have the shape ``spec`` (see ``schemas.check``). Anything else,
    an integer past the digit limit or nesting past the recursion limit
    included, is a ParseError."""
    try:
        if path and path != "-":
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
        schemas.check(doc, spec, "input")
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from None
    return doc


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _weyl_counts(rs: roots.RootSystem, cap: int | None) -> tuple:
    """|W| from the degrees, then the order counted by cosets and the
    Poincare polynomial, both "skipped" when ``poincare_series`` refuses |W|
    past the cap."""
    order = weyl.weyl_order(rs)
    try:
        poly = weyl.poincare_series(rs, cap)
    except weyl.CapExceeded:
        return order, "skipped", "skipped"
    return order, sum(poly), poly


def _rows(fields: str, tuples) -> list[dict]:
    """One dict per tuple, keyed by the space-separated field names in turn;
    fields past the last name are left out."""
    names = fields.split()
    return [dict(zip(names, t)) for t in tuples]


def _cmd_classify(args) -> tuple[dict, int]:
    matrix = _load_json(args.input, {"matrix": list})["matrix"]
    if args.transpose and all(isinstance(row, list) and len(row) == len(matrix)
                              for row in matrix):
        matrix = [list(row) for row in zip(*matrix)]

    report = dict.fromkeys(schemas.REPORT) | {
        "matrix": matrix if schemas.matches(matrix, "int_matrix") else None,
        "gcm": False,
        "errors": [],
    }
    try:
        gcm = cartan.validate_gcm(matrix)
    except cartan.GCMError as exc:
        report["errors"].append(exc.to_json())
        return report, 3
    report["gcm"] = True
    if not cartan.is_finite_type(gcm):
        report["finite"] = False
        return report, 2
    report["finite"] = True
    dtype = cartan.classify(gcm)
    report["type"] = [(f, r) for f, r, _ in dtype.components]
    report["node_maps"] = [nodes for _, _, nodes in dtype.components]
    rs = roots.generate_roots(gcm)
    report["symmetrizer"] = rs.sym.d
    report["positive_roots"] = rs.num_positive
    report["dimension"] = rs.num_positive
    report["fundamental_group"] = cartan.fundamental_group(gcm)
    (report["weyl_order"], report["weyl_order_enumerated"],
     report["poincare"]) = _weyl_counts(rs, args.cap)
    return report, 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _root_system(args) -> roots.RootSystem:
    """The root system of the catalog type ``--type`` names."""
    return roots.generate_roots(cartan.parse_type(args.type))


def _cmd_roots(args) -> tuple[dict, int]:
    return {
        "roots": [
            {"root": r.coords, "coroot": r.coroot,
             "positive": r.positive, "length": r.length_class}
            for r in _root_system(args).roots
        ],
    }, 0


def _cmd_weyl(args) -> tuple[dict, int]:
    rs = _root_system(args)
    order, enumerated, poincare = _weyl_counts(rs, args.cap)
    return {
        "order": order,
        "longest_length": rs.num_positive,
        "reflections": rs.num_positive,
        "enumerated": enumerated,
        "poincare": poincare,
    }, 0


def _cmd_bs_weights(args) -> tuple[dict, int]:
    rs = _root_system(args)
    word = _parse_word(args.word, rs.rank)
    weight = _parse_weight(args.weight, rs.gcm, args.basis)
    gw = pushforward.pushforward_word(rs, word, weight)
    return {
        "word": [i + 1 for i in word],
        "weight": weight,
        "entries": _rows("weight degree mult", pushforward.sorted_entries(gw)),
    }, 0


def _cmd_character(args) -> tuple[dict, int]:
    """``dim`` or ``vol``: the ``characters`` function ``args.formula``
    names at one weight, a rational as p/q."""
    rs = _root_system(args)
    weight = _parse_weight(args.weight, rs.gcm, args.basis)
    formula = getattr(characters, args.formula)
    value = formula(characters.EulerData.from_root_system(rs), weight)
    if not isinstance(value, int):
        value = str(value)
    return {"weight": weight, "value": value}, 0


def _cmd_isogeny_enumerate(args) -> tuple[dict, int]:
    parts = cartan.parse_label(args.type)
    if len(parts) != 1:
        raise isogeny.IsogenyError("special isogeny search expects an irreducible type")
    return {
        "p": args.p,
        "isogenies": [m.to_json() for m in isogeny.enumerate_special(*parts[0], args.p)],
    }, 0


def _cmd_isogeny_validate(args) -> tuple[dict, int]:
    phi = isogeny.PMorphism.from_json(_load_json(args.file, schemas.PMORPHISM))
    doc = dict.fromkeys(schemas.ISOGENY_VALIDATION) | {"valid": False}
    try:
        isogeny.validate_pmorphism(phi)
    except isogeny.IsogenyError as exc:
        doc["error"] = exc.to_json()
        return doc, 1
    doc["valid"] = True
    doc["primitive"] = isogeny.is_primitive(phi)
    doc["constant"] = isogeny.is_constant(phi)
    doc["frobenius_exponent"] = isogeny.factor_primitive_constant(phi)[1]
    return doc, 0


def _cmd_chevalley(args) -> tuple[dict, int]:
    report = chevalley.short_root_ideal_check(_root_system(args), args.p)
    return {
        "p": args.p,
        "passed": report.passed,
        "bracket_triples": _rows("alpha beta sum m", report.bracket_triples),
        "square_triples": _rows("alpha beta sum", report.square_triples),
        # a bracket violation's m is left out
        "violations": _rows("kind alpha beta sum", report.violations),
        "steinberg": [{"alpha": r.alpha, "beta": r.beta, "down": r.down, "up": r.up,
                       "ratio": r.length_ratio, "holds": r.holds} for r in report.steinberg],
    }, 0


def _cmd_datum(args) -> tuple[dict, int]:
    build, kind = {"adjoint": (rootdata.adjoint_datum, "adjoint"),
                   "sc": (rootdata.simply_connected_datum, "simply-connected")}[args.kind]
    return {"kind": kind, **build(cartan.parse_type(args.type)).to_json()}, 0


def _cmd_selfcheck(args) -> tuple[dict, int]:
    import random   # here alone, so no other subcommand loads it

    rs = _root_system(args)
    work = args.samples * (rs.rank + 1) * rs.num_positive
    if work > SELFCHECK_BUDGET:
        raise SelfcheckTooLarge(work)
    ed = characters.EulerData.from_root_system(rs)
    rng = random.Random(args.seed)
    anti = True
    equi = True
    for _ in range(args.samples):
        d = tuple(rng.randint(-6, 6) for _ in range(rs.rank))
        chi = characters.shifted_euler_characteristic(ed, d)
        for i in range(rs.rank):
            if characters.shifted_euler_characteristic(ed, weyl.reflect(rs, i, d)) != -chi:
                anti = False
        word = [rng.randrange(rs.rank) for _ in range(rng.randint(0, 8))]
        w = weyl.element_from_word(rs, word)
        if characters.volume(ed, w.act_weight(d)) != w.det() * characters.volume(ed, d):
            equi = False
    return {
        "seed": args.seed,
        "samples": args.samples,
        "antisymmetry": anti,
        "equivariance": equi,
    }, 0 if anti and equi else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VECTOR

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _count(text: str) -> int:
    """A ``--samples`` value, an integer in [0, MAX_SAMPLES]."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in [0, {MAX_SAMPLES}]")
    return value


def _common(p, type_arg=True):
    p.add_argument("--format", choices=("json", "text"), default="json")
    if type_arg:
        p.add_argument("--type", required=True,
                       help="catalog type label, e.g. G2 or A1+A1")


def _weight_args(p):
    _common(p)
    p.add_argument("--weight", required=True, help="coroot coordinates, e.g. -2,1")
    p.add_argument("--basis", choices=("coroot", "root"), default="coroot")


# Each subcommand's ``_*_args`` function adds its arguments and sets as
# defaults its handler and the name of its document's schema, a spec in
# ``schemas`` (``validate_document`` checks every golden against it).

def _classify_args(p):
    p.add_argument("input", nargs="?", default="-",
                   help="path to {\"matrix\": [[...]]} JSON, or - for stdin")
    p.add_argument("--transpose", action="store_true",
                   help="transpose the input (for the opposite pairing convention)")
    p.add_argument("--cap", type=int)
    _common(p, type_arg=False)
    p.set_defaults(func=_cmd_classify, schema="weylkit/report/1")


def _roots_args(p):
    _common(p)
    p.set_defaults(func=_cmd_roots, schema="weylkit/roots/1")


def _weyl_args(p):
    _common(p)
    p.add_argument("--cap", type=int)
    p.set_defaults(func=_cmd_weyl, schema="weylkit/weyl/1")


def _bs_weights_args(p):
    _weight_args(p)
    p.add_argument("--word", required=True, help="1-based letters, e.g. 1,2,1")
    p.set_defaults(func=_cmd_bs_weights, schema="weylkit/bs-weights/1")


def _dim_args(p):
    _weight_args(p)
    p.set_defaults(func=_cmd_character, schema="weylkit/dim/1", formula="weyl_dim")


def _vol_args(p):
    _weight_args(p)
    p.set_defaults(func=_cmd_character, schema="weylkit/vol/1", formula="volume")


def _isogeny_args(p):
    act = p.add_subparsers(dest="action", required=True)
    pe = act.add_parser("enumerate")
    _common(pe)
    pe.add_argument("--p", type=int, required=True)
    pe.set_defaults(func=_cmd_isogeny_enumerate, schema="weylkit/isogenies/1")
    pv = act.add_parser("validate")
    _common(pv, type_arg=False)
    pv.add_argument("--file", required=True)
    pv.set_defaults(func=_cmd_isogeny_validate, schema="weylkit/isogeny-validation/1")


def _chevalley_args(p):
    act = p.add_subparsers(dest="action", required=True)
    pc = act.add_parser("check")
    _common(pc)
    pc.add_argument("--p", type=int, required=True)
    pc.set_defaults(func=_cmd_chevalley, schema="weylkit/chevalley/1")


def _datum_args(p):
    _common(p)
    p.add_argument("--kind", choices=("adjoint", "sc"), default="adjoint")
    p.set_defaults(func=_cmd_datum, schema="weylkit/datum/1")


def _selfcheck_args(p):
    _common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_count, default=100)
    p.set_defaults(func=_cmd_selfcheck, schema="weylkit/selfcheck/1")


# every subcommand, in the order ``weylkit -h`` lists them: its help line
# and the function that adds its arguments
_SUBCOMMANDS = {
    "classify": ("validate and classify a Cartan matrix", _classify_args),
    "roots": ("list roots with coroots and lengths", _roots_args),
    "weyl": ("Weyl group order, histogram, longest length", _weyl_args),
    "bs-weights": ("push a weight down a word", _bs_weights_args),
    "dim": ("Weyl dimension of a dominant weight", _dim_args),
    "vol": ("volume polynomial value", _vol_args),
    "isogeny": ("special isogenies and validation", _isogeny_args),
    "chevalley": ("structure-constant and ideal checks", _chevalley_args),
    "datum": ("pinned root datum of a catalog type", _datum_args),
    "selfcheck": ("sampled reflection/volume identities", _selfcheck_args),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with the subcommand ``only``
    alone. The latter parses an argv that starts with that subcommand as
    the full one does, so ``main`` builds it for such an argv; any other
    argv gets the full parser, whose usage errors and help list every
    subcommand."""
    top = _Parser(
        prog="weylkit",
        description="Exact root-system, Weyl-group and root-datum computations",
    )
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in _SUBCOMMANDS if only is None else (only,):
        help_line, add_args = _SUBCOMMANDS[name]
        add_args(sub.add_parser(name, help=help_line))
    return top


def main(argv=None) -> int:
    owns_process = argv is None
    if owns_process:
        # a request leaves only a few hundred cyclic objects, so a launch
        # collects none; gc.freeze() below keeps the collections at exit
        # off the heap the request leaves
        gc.disable()
    argv = sys.argv[1:] if owns_process else list(argv)
    args = None
    try:
        only = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        args = _build_parser(only).parse_args(argv)
        doc, code = args.func(args)
        # after the handler's fields: a document built from its spec holds "schema": None
        doc["schema"] = args.schema
        if "type" in vars(args):
            doc["type"] = args.type
        out = _render(doc, args.format)
    except ValueError as exc:
        if not isinstance(exc, cartan.WeylkitError):
            if _DIGIT_LIMIT_MESSAGE not in str(exc):
                raise
            exc = DigitLimitExceeded()
        doc = {"schema": schemas.ERROR["schema"], "error": exc.to_json()}
        code = 4 if isinstance(exc, ParseError) and argv[:1] == ["classify"] else 1
        out = _render(doc, getattr(args, "format", "json"))
    sys.stdout.write(out)
    if owns_process:
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
