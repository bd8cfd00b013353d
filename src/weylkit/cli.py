"""Command-line front end.

Subcommands mirror the library modules; all output is deterministic JSON
(sorted keys, no timestamps) unless ``--format text`` asks for tables.
Words are passed and printed 1-based on the command line; weight vectors
are read in coroot coordinates (the fundamental-weight basis) unless
``--basis root`` converts them through the Cartan matrix. Each handler
returns only its own fields; ``main`` adds the ``schema`` name its
subcommand's row of ``_COMMANDS`` carries (a spec in ``schemas``, which a
successful ``--type`` request never loads) and, for a subcommand that
takes ``--type``, echoes the label as ``type``. ``_parse`` reads argv
against that one table as argparse read it, and no request imports
argparse, gettext or locale: on ``weyl --type E6`` (medians of 41 fresh
processes on a 2-core x86-64 machine) reading argv takes 0.03 ms, where
importing argparse, building the parser and parsing took about 4-5 ms.
``-h`` writes the help of the words before it and exits 0. Called with no
argv, as ``python -m weylkit.cli`` and the ``weylkit`` script call it,
``main`` owns the process: it runs the request with the cyclic garbage
collector off and freezes the heap after writing, so nothing is collected
during the request and the collections at exit skip the heap it leaves; a
caller that passes argv keeps its collector as it was.

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

import gc
import json
import re
import sys
from types import SimpleNamespace

from . import (cartan, characters, chevalley, isogeny, pushforward, rootdata, roots,
               schemas, weyl)

# a value like "-2,1" is an argument, not an option; compiled on first use,
# so a request with no such token compiles no pattern
_NEGATIVE_VECTOR = r"^-\d+(,-?\d+)*$"

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
            # the last column is not padded, so no line ends in a space
            widths = [max(len(c), *(len(r[i]) for r in rows))
                      for i, c in enumerate(cols[:-1])] + [0]
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
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
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

def _count(text: str) -> int:
    """A ``--samples`` value, an integer in [0, MAX_SAMPLES]."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= MAX_SAMPLES:
        raise ParseError(f"{text!r} is not an integer in [0, {MAX_SAMPLES}]")
    return value


_REQUIRED = object()   # the default of an option that must be given
_FORMAT = {"--format": (("json", "text"), "json")}
_TYPE = {**_FORMAT, "--type": (str, _REQUIRED)}
_WEIGHT = {**_TYPE, "--weight": (str, _REQUIRED), "--basis": (("coroot", "root"), "coroot")}

# Every command word, in the order ``weylkit -h`` lists them: its help line
# and either its action words (``isogeny``, ``chevalley``), each with its own
# help line, or its leaf. A leaf is the handler, the name of its document's
# schema (a spec in ``schemas``; ``validate_document`` checks every golden
# against it), fixed values and the options. An option maps to its kind
# (``str``, ``int``, ``_count``, a tuple of choices, or ``bool`` for a flag)
# and its default or ``_REQUIRED``; ``input``, with no dashes, is
# ``classify``'s optional positional.
_COMMANDS = {
    "classify": ("validate and classify a Cartan matrix", (
        _cmd_classify, "weylkit/report/1", {},
        {"input": (str, "-"), "--transpose": (bool, False), "--cap": (int, None), **_FORMAT})),
    "roots": ("list roots with coroots and lengths", (
        _cmd_roots, "weylkit/roots/1", {}, _TYPE)),
    "weyl": ("Weyl group order, histogram, longest length", (
        _cmd_weyl, "weylkit/weyl/1", {}, {**_TYPE, "--cap": (int, None)})),
    "bs-weights": ("push a weight down a word", (
        _cmd_bs_weights, "weylkit/bs-weights/1", {}, {**_WEIGHT, "--word": (str, _REQUIRED)})),
    "dim": ("Weyl dimension of a dominant weight", (
        _cmd_character, "weylkit/dim/1", {"formula": "weyl_dim"}, _WEIGHT)),
    "vol": ("volume polynomial value", (
        _cmd_character, "weylkit/vol/1", {"formula": "volume"}, _WEIGHT)),
    "isogeny": ("special isogenies and validation", {
        "enumerate": ("special isogenies of an irreducible type at a prime p", (
            _cmd_isogeny_enumerate, "weylkit/isogenies/1", {},
            {**_TYPE, "--p": (int, _REQUIRED)})),
        "validate": ("check a p-morphism given as a JSON file", (
            _cmd_isogeny_validate, "weylkit/isogeny-validation/1", {},
            {**_FORMAT, "--file": (str, _REQUIRED)})),
    }),
    "chevalley": ("structure-constant and ideal checks", {
        "check": ("short-root ideal and Steinberg checks at a prime p", (
            _cmd_chevalley, "weylkit/chevalley/1", {}, {**_TYPE, "--p": (int, _REQUIRED)})),
    }),
    "datum": ("pinned root datum of a catalog type", (
        _cmd_datum, "weylkit/datum/1", {}, {**_TYPE, "--kind": (("adjoint", "sc"), "adjoint")})),
    "selfcheck": ("sampled reflection/volume identities", (
        _cmd_selfcheck, "weylkit/selfcheck/1", {},
        {**_TYPE, "--seed": (int, 0), "--samples": (_count, 100)})),
}

# what an option's help line says besides its choices and default
_HINTS = {
    "input": 'path to {"matrix": [[...]]} JSON, or - for stdin',
    "--transpose": "transpose the input (for the opposite pairing convention)",
    "--cap": "count |W| a second way only up to this order (default weyl.DEFAULT_CAP)",
    "--type": "catalog type label, e.g. G2 or A1+A1",
    "--weight": "coroot coordinates, e.g. -2,1",
    "--word": "1-based letters, e.g. 1,2,1",
    "--p": "a prime",
    "--file": "path to a p-morphism's JSON, or - for stdin",
}


class _Help(Exception):
    """Carries the help text that a ``-h`` asks for."""


def _help(prog: str, entry) -> str:
    """The help text of a table entry: its words, or its leaf's options."""
    if isinstance(entry, dict):
        rows = [(word, line) for word, (line, _) in entry.items()]
    else:
        rows = []
        for name, (kind, default) in entry[3].items():
            notes = [_HINTS.get(name, "")]
            if isinstance(kind, tuple):
                notes.append("{%s}" % ",".join(kind))
            if default is _REQUIRED:
                notes.append("(required)")
            elif kind is not bool and default is not None:
                notes.append(f"(default {default})")
            rows.append((name, " ".join(notes).strip()))
    rows.append(("-h, --help", "show this help"))
    return f"usage: {prog} ...\n\n" + "".join(f"  {left:14}{right}\n" for left, right in rows)


def _read(token: str, names) -> tuple | None:
    """``token`` as argparse read it where the long options ``names``
    (``--help`` among them) and ``-h`` are defined: None for an argument,
    else the option it names (None for none) and its value after "=" (None
    for no "="). A long option may be cut to a prefix no other one shares.
    ``-h`` may repeat its letter (``-hh``); with any other tail the whole
    token is its value, which help refuses."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[:2] == "-h":
        return "--help", None if re.fullmatch(r"(=?h+)?", token[2:]) else token
    name, eq, value = token.partition("=")
    found = [] if token[1] != "-" else [name] if name in names else \
        [n for n in names if n.startswith(name)]
    if len(found) > 1:
        raise ParseError(f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    return None if re.match(_NEGATIVE_VECTOR, token) or " " in token else (None, None)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The handler, schema name, fixed values and options that ``argv`` asks
    for in ``_COMMANDS``, read as the argparse parser this table replaced
    read it (``tests/oracles.py`` keeps it as the reference). Raises
    ``_Help`` where that parser printed help first and ``ParseError`` on a
    usage error. An ambiguous prefix is refused before any option of its
    command is read; options a word does not know and arguments nothing
    takes are refused after the last one, so a later ``-h`` still helps."""
    prog, entry, unknown = "weylkit", _COMMANDS, []
    while isinstance(entry, dict):
        # "" stands for a missing word: no entry has it
        for i, token in enumerate([*argv, ""]):
            read = _read(token, ("--help",))
            if not read or read[0]:
                break
            unknown.append(token)
        if read:
            raise _Help(_help(prog, entry)) if read[1] is None \
                else ParseError(f"{prog}: {token} takes no value")
        if token not in entry:
            raise ParseError(f"{prog}: expected one of {', '.join(entry)}, got {token!r}")
        prog, entry, argv = f"{prog} {token}", entry[token][1], argv[i + 1:]

    handler, schema, fixed, options = entry
    cut = argv.index("--") if "--" in argv else len(argv)   # no option after the first "--"
    reads = [_read(token, [*options, "--help"]) for token in argv[:cut]]
    args = {name.lstrip("-"): d for name, (_, d) in options.items() if d is not _REQUIRED}
    free, taken, i = "input" in options, None, 0
    while i < len(argv):
        token, read = argv[i], reads[i] if i < cut else None
        if read is None:
            # the positional takes one argument, and a "--" before it or right after
            if free and i != cut:
                args["input"], free, taken = token, False, i
            elif not (i == cut and (free or taken == i - 1)):
                unknown.append(token)
        elif read[0] is None:
            unknown.append(token)
        else:
            name, value = read
            kind = options.get(name, (bool,))[0]
            if kind is bool:
                if value is not None:
                    raise ParseError(f"{prog}: {name} takes no value")
                if name == "--help":
                    raise _Help(_help(prog, entry))
                value = True
            elif value is None:
                if i + 1 >= cut or reads[i + 1]:
                    raise ParseError(f"{prog}: {name} expects a value")
                i += 1
                value = argv[i]
            if isinstance(kind, tuple):
                if value not in kind:
                    raise ParseError(f"{prog}: {name} takes one of {', '.join(kind)}")
            elif kind is not bool:
                try:
                    value = kind(value)
                except ValueError as exc:
                    raise ParseError(f"{prog}: {name}: {exc}") from None
            args[name.lstrip("-")] = value
        i += 1
    missing = [name for name, (_, d) in options.items()
               if d is _REQUIRED and name.lstrip("-") not in args]
    if missing or unknown:
        raise ParseError(f"{prog}: missing {', '.join(missing)}" if missing
                         else f"{prog}: unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(func=handler, schema=schema, **fixed, **args)


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
        args = _parse(argv)
        doc, code = args.func(args)
        # after the handler's fields: a document built from its spec holds "schema": None
        doc["schema"] = args.schema
        if "type" in vars(args):
            doc["type"] = args.type
        out = _render(doc, args.format)
    except _Help as exc:
        out, code = exc.args[0], 0
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
