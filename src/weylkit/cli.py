"""Command-line front end.

Subcommands mirror the library modules; all output is deterministic JSON
(sorted keys, no timestamps) unless ``--format text`` asks for tables.
Words are passed and printed 1-based on the command line; weight vectors
are read in coroot coordinates (the fundamental-weight basis) unless
``--basis root`` converts them through the Cartan matrix. Each handler
returns only its own fields; ``main`` adds the ``schema`` name its
subcommand's row of ``_COMMANDS`` carries (a spec in ``schemas``, which a
successful ``--type`` request never loads; an error document writes
``_ERROR_SCHEMA`` and loads it no more) and, for a subcommand that takes
``--type``, echoes the label as ``type``. A handler reads its input and
asks the module its request runs for the fields (``to_json`` or a
``*_report`` function there), reading a ``--type`` label before it names
that module, so a refused label runs ``gcm`` alone. ``checks`` reads the
comma-separated ``--word`` and ``--weight`` values, and ``clitext`` writes
``--format text`` and ``-h``, so this module holds only what every request
runs. A ``classify`` runs only the stages its input reaches: unreadable
input stops here and in ``core``, a matrix that fails the Cartan axioms in
``schemas``, ``report`` and ``axioms``, one not of finite type at the
leading minors (``bareiss``), and only a finite one runs ``cartan``,
``gcm``, ``intmat``, ``roots`` and ``cosets``. ``_parse``
reads argv against that one table as argparse read it, and no request
imports argparse, gettext or locale: on ``weyl --type E6`` (medians of 41 fresh
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
``core.MAX_RANK``, refused before the finite-type test. Other
subcommands exit 0 on success and 1 with a machine-readable error object;
a ``--type`` label whose ranks sum past ``core.MAX_RANK`` is one.
``classify`` and ``weyl`` alike exit 1 with a ``LayersTooLarge`` error
document when a ``--cap`` lets through a group whose Weyl layers would pass
``cosets.MAX_LAYER_BYTES`` (E8 at any cap): they count W from its
invariant degrees, with no element, but admit it as ``enumerate_weyl``
does. ``weyl`` reads the degrees off the root heights that ``gcm``'s
raising pass gives, so it runs no ``roots``.
A usage error (an unknown subcommand, a missing or malformed option) is
unreadable input too: it writes one ``ParseError`` error document and exits
4 under ``classify``, 1 otherwise. A ``selfcheck`` whose samples x (rank + 1)
x positive roots passes ``characters.SELFCHECK_BUDGET`` is refused before
any sample with one ``SelfcheckTooLarge`` error document and exit 1. A
result or message with an integer past the interpreter's int-to-str digit
limit is refused with one ``DigitLimitExceeded`` document and exit 1; the
limit guards the conversion against quadratic time, so it is kept. Every
run writes exactly one document.
"""

import gc
import json
import re
import sys
from types import SimpleNamespace

from . import (characters, checks, chevalley, clitext, core, cosets, gcm, isogeny, pushforward,
               report, rootdata, roots, schemas)
# built in core, beside the error base, so that the input rules in checks
# raise it too; every usage error and unreadable input writes one
from .core import ParseError

# a value like "-2,1" is an argument, not an option; compiled on first use,
# so a request with no such token compiles no pattern
_NEGATIVE_VECTOR = r"^-\d+(,-?\d+)*$"

# most samples ``selfcheck`` draws; E8 at the cap takes about 5 s, and
# ``characters.SELFCHECK_BUDGET`` admits E8 at the cap
MAX_SAMPLES = 10_000

# the schema name of every error document, ``schemas.ERROR["schema"]``,
# written from here as each ``_COMMANDS`` row writes its own, so an error
# document runs no schemas
_ERROR_SCHEMA = "weylkit/error/1"


class DigitLimitExceeded(core.WeylkitError):
    def __init__(self):
        super().__init__(f"an integer to print has more than "
                         f"{sys.get_int_max_str_digits()} decimal digits")


def _render(doc: dict, fmt: str) -> str:
    """The document as one line of JSON, or under ``--format text`` as
    ``clitext.render`` writes it. Either way a tuple is written as an array,
    so handlers pass the library's tuples as they are."""
    if fmt == "text":
        return clitext.render(doc)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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

def _cmd_classify(args) -> tuple[dict, int]:
    matrix = _load_json(args.input, {"matrix": list})["matrix"]
    doc = report.classify_report(matrix, args.transpose, args.cap)
    return doc, 0 if doc["finite"] else 2 if doc["gcm"] else 3


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Each handler reads its label (or its root system) before it names the
# module that takes it, so a label the catalog refuses runs none of them.

def _root_system(args) -> "roots.RootSystem":
    """The root system of the catalog type ``--type`` names."""
    c = gcm.parse_type(args.type)
    return roots.generate_roots(c)


def _cmd_roots(args) -> tuple[dict, int]:
    return {
        "roots": [
            {"root": r.coords, "coroot": r.coroot,
             "positive": r.positive, "length": r.length_class}
            for r in _root_system(args).roots
        ],
    }, 0


def _cmd_weyl(args) -> tuple[dict, int]:
    c = gcm.parse_type(args.type)
    return cosets.weyl_report(c, args.cap), 0


def _cmd_bs_weights(args) -> tuple[dict, int]:
    rs = _root_system(args)
    word = checks.parse_word(args.word, rs.rank)
    weight = checks.parse_weight(args.weight, rs.gcm, args.basis)
    return pushforward.word_report(rs, word, weight), 0


def _cmd_character(args) -> tuple[dict, int]:
    """``dim`` or ``vol``: the ``characters`` function ``args.formula`` names."""
    rs = _root_system(args)
    weight = checks.parse_weight(args.weight, rs.gcm, args.basis)
    return characters.formula_report(rs, args.formula, weight), 0


def _cmd_isogeny_enumerate(args) -> tuple[dict, int]:
    return isogeny.enumeration_report(args.type, args.p), 0


def _cmd_isogeny_validate(args) -> tuple[dict, int]:
    doc = isogeny.validation_report(
        isogeny.PMorphism.from_json(_load_json(args.file, schemas.PMORPHISM)))
    return doc, 0 if doc["valid"] else 1


def _cmd_chevalley(args) -> tuple[dict, int]:
    rs = _root_system(args)
    return chevalley.short_root_ideal_check(rs, args.p).to_json(), 0


def _cmd_datum(args) -> tuple[dict, int]:
    c = gcm.parse_type(args.type)
    return rootdata.datum_report(c, args.kind), 0


def _cmd_selfcheck(args) -> tuple[dict, int]:
    rs = _root_system(args)
    doc = characters.selfcheck(rs, args.samples, args.seed)
    return doc, 0 if doc["antisymmetry"] and doc["equivariance"] else 1


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


# the default of an option that must be given, which clitext's help reads
# with no import
_REQUIRED = ...
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

class _Help(Exception):
    """Carries the program name and table entry whose help a ``-h`` asks for."""


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
            raise _Help(prog, entry) if read[1] is None \
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
                    raise _Help(prog, entry)
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
        out, code = clitext.help_text(*exc.args), 0
    except ValueError as exc:
        if not isinstance(exc, core.WeylkitError):
            # the message CPython gives an int past its int-to-str digit limit
            if "for integer string conversion" not in str(exc):
                raise
            exc = DigitLimitExceeded()
        doc = {"schema": _ERROR_SCHEMA, "error": exc.to_json()}
        code = 4 if isinstance(exc, ParseError) and argv[:1] == ["classify"] else 1
        out = _render(doc, getattr(args, "format", "json"))
    sys.stdout.write(out)
    if owns_process:
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
