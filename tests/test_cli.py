import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import (cartan, cli, intmat, isogeny, pushforward, rootdata, roots, schemas,
                     weyl)
from weylkit.cli import main
from weylkit.schemas import validate_document

from cli_cases import ALL_CASES, SUBCOMMAND_CASES
from oracles import all_pairs_ideal_check, reference_parser

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, stdin_payload=None):
    buf = io.StringIO()
    old_stdin = sys.stdin
    collector = (gc.isenabled(), gc.get_freeze_count())
    try:
        if stdin_payload is not None:
            sys.stdin = io.StringIO(stdin_payload)
        with redirect_stdout(buf):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    # only a run that owns the process, main() with no argv, changes the collector
    assert (gc.isenabled(), gc.get_freeze_count()) == collector
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv,payload,expected_code", ALL_CASES,
                         ids=[c[0] for c in ALL_CASES])
def test_golden_byte_equality(name, argv, payload, expected_code):
    code, out = run_cli(argv, payload)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.golden").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv,payload,expected_code", ALL_CASES,
                         ids=[c[0] for c in ALL_CASES])
def test_outputs_validate_against_schemas(name, argv, payload, expected_code):
    _, out = run_cli(argv, payload)
    validate_document(json.loads(out))


def test_runs_are_byte_stable():
    for name, argv, payload, _ in SUBCOMMAND_CASES:
        _, first = run_cli(argv, payload)
        _, second = run_cli(argv, payload)
        assert first == second, name


def test_parse_error_exit_code():
    code, out = run_cli(["classify"], "this is not json")
    assert code == 4
    doc = json.loads(out)
    assert doc["error"]["code"] == "ParseError"
    validate_document(doc)


# each usage error and its exit code, with its test id
USAGE_ERRORS = [
    (["classify", "--cap", "many"], 4),
    (["classify", "--no-such-option"], 4),
    (["weyl", "--type", "A2", "--cap", "1.5"], 1),
    (["weyl", "--type", "A2", "--cap", "1" * 5_000], 1),
    (["dim", "--type", "A2"], 1),
    (["bs-weights", "--type", "A2", "--word", "1"], 1),
    (["chevalley", "check", "--type", "B2"], 1),
    (["roots", "--type", "A2", "--format", "xml"], 1),
    (["frobnicate"], 1),
    ([], 1),
    (["selfcheck", "--type", "A2", "--samples", "-5"], 1),
    (["selfcheck", "--type", "E8", "--samples", "10001"], 1),
    (["selfcheck", "--type", "A2", "--samples", "abc"], 1),
    (["bs-weights", "--type", "A2", "--word", "1", "--weight", "1,x"], 1),
    (["bs-weights", "--type", "A2", "--word", "a", "--weight", "1,1"], 1),
    # an empty or blank field is refused, not dropped
    (["bs-weights", "--type", "A2", "--word", "1,,2", "--weight", "1,1"], 1),
    (["bs-weights", "--type", "A2", "--word", "1, ", "--weight", "1,1"], 1),
    (["bs-weights", "--type", "A2", "--word", ",1", "--weight", "1,1"], 1),
    (["dim", "--type", "A1", "--weight", "3,"], 1),
    (["vol", "--type", "A2", "--weight", "1,,2"], 1),
]
USAGE_ERROR_IDS = [
    "classify-bad-cap", "classify-unknown-option", "weyl-bad-cap",
    "weyl-cap-past-the-digit-limit",
    "dim-missing-weight", "bs-weights-missing-weight",
    "chevalley-missing-p", "bad-format", "unknown-subcommand", "no-subcommand",
    "selfcheck-negative-samples", "selfcheck-too-many-samples",
    "selfcheck-samples-not-int", "bs-weights-weight-not-int",
    "bs-weights-word-not-int", "bs-weights-word-empty-field",
    "bs-weights-word-blank-field", "bs-weights-word-leading-comma",
    "dim-weight-trailing-comma", "vol-weight-empty-field",
]


@pytest.mark.parametrize("argv,expected_code", USAGE_ERRORS, ids=USAGE_ERROR_IDS)
def test_usage_error_is_one_parse_error_document(argv, expected_code):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv, '{"matrix": [[2]]}')
    assert code == expected_code
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    validate_document(doc)
    assert doc["error"]["code"] == "ParseError"
    assert "Traceback" not in err.getvalue()


def parsed_by(parse, argv) -> tuple:
    """("help",), ("error",) or ("request", fields) for one parse of argv: the
    fields are the handler, schema name, fixed values and options, without
    the reference parser's names for the command and action words."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            fields = dict(vars(parse(list(argv))))
    except (SystemExit, cli._Help) as exc:
        assert getattr(exc, "code", 0) == 0
        return ("help",)
    except cli.ParseError:
        return ("error",)
    fields.pop("command", None)
    fields.pop("action", None)
    return ("request", fields)


REFERENCE = reference_parser()
# the corners of argparse's reading, each with its test id
PARSER_EDGES = [
    (["classify", "m.json", "--"], "classify-input-then-dashes"),
    (["classify", "--", "m.json"], "classify-dashes-then-input"),
    (["classify", "--cap", "3", "--"], "classify-dashes-after-an-option"),
    (["classify", "m.json", "--cap", "3", "--"], "classify-dashes-after-input-and-option"),
    (["classify", "m.json", "n.json"], "classify-two-inputs"),
    (["roots", "--type", "A2", "--"], "roots-trailing-dashes"),
    (["--", "roots", "--type", "A2"], "dashes-before-the-command"),
    (["roots", "--ty=A2", "--form", "text", "--format=json"], "prefixes-and-last-repeat"),
    (["bs-weights", "-h", "--w", "1"], "ambiguous-prefix-before-help"),
    (["--bogus", "roots", "-h"], "unknown-option-then-help"),
    (["roots", "--type", "-h"], "help-where-a-value-is-due"),
    (["roots", "--type", "--", "A2"], "dashes-where-a-value-is-due"),
    (["weyl", "--type", "-2,1"], "negative-vector-value"),
    (["weyl", "--type", "-x"], "dash-token-where-a-value-is-due"),
    (["roots", "-hh"], "repeated-h"), (["roots", "-hx"], "h-with-a-tail"),
    (["roots", "-h=h"], "h-equals-h"), (["roots", "--he="], "help-with-an-empty-value"),
    (["classify", "--transpose=1"], "flag-with-a-value"),
]
PARSER_CASES = ([argv for argv, _ in USAGE_ERRORS] + [argv for _, argv, _, _ in ALL_CASES]
                + [["-h"], ["roots", "-h"], ["isogeny", "validate", "-h"]]
                + [argv for argv, _ in PARSER_EDGES])
PARSER_IDS = ([f"usage-{i}" for i in USAGE_ERROR_IDS] + [c[0] for c in ALL_CASES]
              + ["help", "roots-help", "isogeny-validate-help"]
              + [i for _, i in PARSER_EDGES])


@pytest.mark.parametrize("argv", PARSER_CASES, ids=PARSER_IDS)
def test_one_subparser_parses_as_the_full_parser(argv):
    # cli._parse reads the one table row its words name; the reference is
    # the full argparse parser the table replaced
    assert parsed_by(cli._parse, argv) == parsed_by(REFERENCE.parse_args, argv)


def _leaves(entry=cli._COMMANDS, words=()):
    """(words, options) of every leaf of the command table."""
    for word, (_, sub) in entry.items():
        if isinstance(sub, dict):
            yield from _leaves(sub, (*words, word))
        else:
            yield (*words, word), sub[3]


LEAVES = list(_leaves())
OPTIONS = sorted({name for _, options in LEAVES for name in options if name[0] == "-"}
                 | {"--help"})
# every option and each of its prefixes down to "--" and one letter
OPTION_PREFIXES = sorted({name[:k] for name in OPTIONS for k in range(3, len(name) + 1)})
VALUES = ["A1", "A2", "B2", "G2", "1", "3", "1,0", "2,2", "json", "text", "root", "sc",
          "abc", "1.5", "", "-", "-2,1", "-5", "1" * 5_000, "-x", "-h", "x y"]
WORDS = [word for words, _ in LEAVES for word in words] + ["frobnicate"]
TOKENS = st.one_of(
    st.sampled_from(WORDS + OPTION_PREFIXES + VALUES
                    + ["--", "-h", "-hh", "-hx", "-h=h", "-x", "--bogus", "---", "--=x"]),
    # a value after "=", but for "--", which argparse turned into an empty list
    st.tuples(st.sampled_from(OPTION_PREFIXES), st.sampled_from(VALUES)).map("=".join))
REQUESTS = [argv for _, argv, _, _ in ALL_CASES] + [
    ["classify", "--transpose", "--cap", "5", "m.json"],
    ["classify", "m.json"],
    ["weyl", "--type", "A2", "--cap", "2"],
    ["dim", "--type", "A2", "--weight", "1,0", "--basis", "root"],
    ["isogeny", "validate", "--file", "phi.json"],
    ["selfcheck", "--type", "B2", "--seed", "3", "--samples", "2"],
]


@st.composite
def command_lines(draw):
    """A request with a few tokens inserted or deleted, or tokens alone."""
    argv = list(draw(st.sampled_from(REQUESTS + [[]])))
    for _ in range(draw(st.integers(0, 4))):
        if argv and draw(st.booleans()):
            del argv[draw(st.integers(0, len(argv) - 1))]
        else:
            argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    return argv


@settings(max_examples=2_000, deadline=None)
@given(argv=command_lines())
def test_table_parser_reads_drawn_command_lines_as_the_reference_parser(argv):
    assert parsed_by(cli._parse, argv) == parsed_by(REFERENCE.parse_args, argv)


@pytest.mark.parametrize("argv,code,error", [
    (["roots", "--type=--"], 1, "InvalidType"),
    (["weyl", "--type", "A2", "--cap=--"], 1, "ParseError"),
    (["roots", "--type", "A2", "--format=--"], 1, "ParseError"),
], ids=["type", "cap", "format"])
def test_a_value_of_two_dashes_after_equals_is_read_as_given(argv, code, error):
    # argparse made "--opt=--" an empty list: a traceback for --type and
    # --cap, and JSON for --format
    got, out = run_cli(argv)
    assert (got, json.loads(out)["error"]["code"]) == (code, error)


def listed(help_text: str) -> list[str]:
    """The first word of each indented line of a help text."""
    return [line.split()[0] for line in help_text.splitlines() if line.startswith("  ")]


def test_help_lists_every_subcommand_in_table_order():
    code, out = run_cli(["-h"])
    assert code == 0
    assert listed(out) == [*cli._COMMANDS, "-h,"]


@pytest.mark.parametrize("words,options", LEAVES, ids=[" ".join(w) for w, _ in LEAVES])
def test_subcommand_help_lists_each_of_its_options(words, options):
    code, out = run_cli([*words, "-h"])
    assert code == 0
    assert out.startswith(f"usage: weylkit {' '.join(words)} ")
    assert listed(out) == [*options, "-h,"]


def test_empty_word_is_the_identity():
    code, out = run_cli(["bs-weights", "--type", "A2", "--word", "", "--weight", "1,1"])
    assert code == 0
    assert json.loads(out)["word"] == []


def test_classify_transpose_adapter():
    # the transposed G2 matrix classifies identically through the adapter
    code, out = run_cli(["classify", "--transpose"], '{"matrix": [[2,-3],[-1,2]]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == [["G", 2]]
    assert doc["matrix"] == [[2, -1], [-3, 2]]


@pytest.mark.parametrize("argv,payload,message,echoed", [
    (["classify"], '{"matrix": [1, 2]}', "matrix rows must be lists", None),
    (["classify"], '{"matrix": []}', "matrix is empty", []),
    (["classify"], '{"matrix": [[2, -1.5], [-1, 2]]}',
     "matrix entries must be integers", None),
    (["classify", "--transpose"], '{"matrix": [[2, -1], [-1]]}',
     "matrix is not square", [[2, -1], [-1]]),
], ids=["flat-list", "empty", "non-integer", "ragged-transpose"])
def test_classify_input_boundary(argv, payload, message, echoed):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv, payload)
    assert code == 3
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    validate_document(doc)
    assert doc["gcm"] is False
    assert doc["matrix"] == echoed
    assert [e["message"] for e in doc["errors"]] == [message]
    assert "Traceback" not in err.getvalue()


def test_classify_tests_finite_type_once(monkeypatch):
    calls = []
    minors = intmat.leading_principal_minors
    monkeypatch.setattr(intmat, "leading_principal_minors",
                        lambda a: calls.append(len(a)) or minors(a))
    code, _ = run_cli(["classify"],
                      json.dumps({"matrix": cartan.catalog("D", 7).rows()}))
    assert code == 0
    assert calls == [7]


def test_isogeny_enumerate_reads_the_label_without_classifying(monkeypatch):
    # the B4 source and C4 target are catalog matrices, finite by
    # construction: neither adjoint datum runs a finite-type test
    calls, classified = [], []
    minors, classify = intmat.leading_principal_minors, cartan.classify
    monkeypatch.setattr(intmat, "leading_principal_minors",
                        lambda a: calls.append(len(a)) or minors(a))
    monkeypatch.setattr(cartan, "classify",
                        lambda c: classified.append(c) or classify(c))
    code, out = run_cli(["isogeny", "enumerate", "--type", "B4", "--p", "2"])
    assert code == 0
    assert len(json.loads(out)["isogenies"]) == 1
    assert classified == []
    assert calls == []


def test_isogeny_enumerate_reuses_the_source_datum_as_its_own_target(monkeypatch):
    # G2 at p = 3 maps G2 onto itself: one adjoint datum, of a catalog
    # matrix, so no finite-type test
    calls, minors = [], intmat.leading_principal_minors
    monkeypatch.setattr(intmat, "leading_principal_minors",
                        lambda a: calls.append(len(a)) or minors(a))
    code, out = run_cli(["isogeny", "enumerate", "--type", "G2", "--p", "3"])
    assert code == 0
    assert [phi["target"] == phi["source"] for phi in json.loads(out)["isogenies"]] == [True]
    assert calls == []


@pytest.mark.parametrize("payload", [
    "[1, 2]",
    '{"rows": [[2]]}',
    '{"matrix": 3}',
    '{"matrix": [[' + "1" * 5000 + "]]}",
    '{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["not-an-object", "no-matrix-key", "matrix-not-a-list", "huge-integer",
        "deep-nesting"])
def test_classify_unreadable_input_is_one_parse_error(payload):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["classify"], payload)
    assert code == 4
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    validate_document(doc)
    assert doc["error"]["code"] == "ParseError"
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["isogeny", "enumerate", "--type", "G2", "--p", "4"],
    ["chevalley", "check", "--type", "B2", "--p", "0"],
], ids=["isogeny-p4", "chevalley-p0"])
def test_non_prime_p_is_an_error_document(argv):
    code, out = run_cli(argv)
    assert code == 1
    doc = json.loads(out)
    validate_document(doc)
    assert "is not prime" in doc["error"]["message"]


@pytest.mark.parametrize("argv,error_code", [
    (["isogeny", "enumerate", "--type", "A1+A1", "--p", "2"], "IsogenyError"),
    (["chevalley", "check", "--type", "B2", "--p", "3317044064679887385961981"],
     "PrimalityBoundExceeded"),
    (["isogeny", "enumerate", "--type", "G2", "--p", str(10 ** 30)],
     "PrimalityBoundExceeded"),
], ids=["isogeny-reducible-type", "chevalley-p-at-bound", "isogeny-p-past-bound"])
def test_isogeny_search_refusals_are_one_error_document(argv, error_code):
    code, out = run_cli(argv)
    assert code == 1
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    validate_document(doc)
    assert doc["error"]["code"] == error_code


def test_classify_exit_zero_report_fields():
    code, out = run_cli(["classify"], '{"matrix": [[2,-1],[-3,2]]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["positive_roots"] == 6
    assert doc["weyl_order"] == 12
    assert doc["weyl_order_enumerated"] == 12
    assert doc["fundamental_group"] == []
    assert doc["poincare"] == [1, 2, 2, 2, 2, 2, 1]
    assert doc["dimension"] == 6


def test_classify_cap_skips_enumeration():
    code, out = run_cli(["classify", "--cap", "5"], '{"matrix": [[2,-1],[-3,2]]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["weyl_order"] == 12
    assert doc["weyl_order_enumerated"] == "skipped"
    assert doc["poincare"] == "skipped"
    validate_document(doc)


def test_weight_in_root_basis():
    # -alpha1 in root coordinates is (-1, 0); through C it is (-2, 1)
    code, out = run_cli(["bs-weights", "--type", "A2", "--word", "1,2",
                         "--weight", "-1,0", "--basis", "root"])
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == [-2, 1]
    assert doc["entries"] == [{"degree": 1, "mult": 1, "weight": [0, 0]}]


def test_word_letters_are_one_based():
    code, out = run_cli(["bs-weights", "--type", "A2", "--word", "3",
                         "--weight", "0,0"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["code"] == "IndexOutOfRange"
    validate_document(doc)


@pytest.mark.parametrize("argv", [
    ["bs-weights", "--type", "A1", "--word", "1", "--weight", "1000000"],
    ["bs-weights", "--type", "F4", "--word", "1,2,3,4,3,2", "--weight", "10,10,10,10"],
    ["bs-weights", "--type", "A2", "--word", ",".join(["1,2,1"] * 20), "--weight", "15,15"],
], ids=["a1-huge-weight", "f4-long-word", "a2-word-past-the-budget"])
def test_oversized_pushforward_is_one_error_document(argv):
    # refused before the step that would exceed the bound, not after it
    code, out = run_cli(argv)
    assert code == 1
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    validate_document(doc)
    assert doc["schema"] == "weylkit/error/1"
    assert doc["error"]["code"] == "PushforwardTooLarge"


@pytest.mark.parametrize("argv", [
    ["roots", "--type", f"A{cartan.MAX_RANK + 1}"],
    ["datum", "--type", "A1000000000"],
    ["isogeny", "enumerate", "--type", f"B{cartan.MAX_RANK}+A1", "--p", "2"],
], ids=["one-past", "far-past", "sum-past"])
def test_rank_past_the_cap_is_one_error_document(argv, monkeypatch):
    # refused from the label, before a catalog matrix is built
    monkeypatch.setattr(cartan, "catalog", None)
    code, out = run_cli(argv)
    assert code == 1
    doc = json.loads(out)
    validate_document(doc)
    assert doc["error"]["code"] == "RankTooLarge"
    assert doc["error"]["rank"] > cartan.MAX_RANK


G2_MATRIX = json.dumps({"matrix": cartan.catalog("G", 2).rows()})


@pytest.mark.parametrize("argv, stdin", [(["weyl", "--type", "G2"], None),
                                         (["classify", "-"], G2_MATRIX)],
                         ids=["weyl", "classify"])
def test_layers_past_the_memory_bound_are_one_error_document(argv, stdin, monkeypatch):
    # G2's layers take 12 x 2 x 2 = 48 bytes: refused one byte under that
    monkeypatch.setattr(weyl, "MAX_LAYER_BYTES", 47)
    code, out = run_cli(argv, stdin)
    assert code == 1
    doc = json.loads(out)
    validate_document(doc)
    assert doc["error"] == {"code": "LayersTooLarge", "layer_bytes": 48, "bound": 47,
                            "message": "Weyl group layers would take 48 bytes, "
                                       "past the bound 47"}
    monkeypatch.setattr(weyl, "MAX_LAYER_BYTES", 48)
    code, out = run_cli(argv, stdin)
    assert code == 0 and json.loads(out)["poincare"] == [1, 2, 2, 2, 2, 2, 1]


def _address_space_of_1_gib():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


@pytest.mark.parametrize("argv, stdin", [
    (["weyl", "--type", "E8", "--cap", "700000000"], None),
    (["classify", "--cap", "700000000", "-"],
     json.dumps({"matrix": cartan.catalog("E", 8).rows()})),
], ids=["weyl", "classify"])
def test_e8_is_refused_at_any_cap_before_numpy(argv, stdin):
    # a cap over |W(E8)| = 696 729 600 would ask for 11.1 GB of layers; the
    # child's address space is capped so that a missing bound fails this
    # test instead of exhausting the machine
    code = ("import sys\n"
            "from weylkit.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], input=stdin,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_address_space_of_1_gib)
    assert proc.returncode == 0, proc.stderr
    out, seen = proc.stdout.splitlines()
    assert seen == "1 False"
    doc = json.loads(out)
    validate_document(doc)
    assert doc["error"]["code"] == "LayersTooLarge"
    assert doc["error"]["layer_bytes"] == 696_729_600 * 8 * 2


def test_classify_refuses_a_rank_past_the_cap_before_eliminating(monkeypatch):
    calls = []
    monkeypatch.setattr(intmat, "leading_principal_minors", calls.append)
    matrix = cartan.catalog("A", cartan.MAX_RANK + 1).rows()
    code, out = run_cli(["classify"], json.dumps({"matrix": matrix}))
    assert code == 1
    doc = json.loads(out)
    validate_document(doc)
    assert doc["error"] == {"code": "RankTooLarge", "rank": cartan.MAX_RANK + 1,
                            "message": f"rank {cartan.MAX_RANK + 1} exceeds the bound "
                                       f"{cartan.MAX_RANK}"}
    assert calls == []


def test_dim_rejects_negative_weight_with_error_doc():
    code, out = run_cli(["dim", "--type", "A2", "--weight", "-1,0"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["code"] == "NotDominant"


def test_invalid_type_label():
    code, out = run_cli(["roots", "--type", "Q7"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "InvalidType"


def test_isogeny_validate_round_trip(tmp_path):
    _, out = run_cli(["isogeny", "enumerate", "--type", "G2", "--p", "3"])
    phi_doc = json.loads(out)["isogenies"][0]
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi_doc), encoding="utf-8")
    code, out = run_cli(["isogeny", "validate", "--file", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["primitive"] is True
    assert doc["constant"] is False
    assert doc["frobenius_exponent"] == 0
    validate_document(doc)


def test_isogeny_validate_rejects_broken_morphism(tmp_path):
    _, out = run_cli(["isogeny", "enumerate", "--type", "G2", "--p", "3"])
    phi_doc = json.loads(out)["isogenies"][0]
    phi_doc["q"] = [1, 1]
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi_doc), encoding="utf-8")
    code, out = run_cli(["isogeny", "validate", "--file", str(path)])
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["error"]["code"] == "RootEquationFails"
    validate_document(doc)


def test_isogeny_validate_splits_no_frobenius_factor_that_f_lacks(tmp_path):
    # A1 adjoint to simply connected: q = 2, but f = 1 has no factor 2
    source = {"rank": 1, "roots": [[1], [-1]], "coroots": [[2], [-2]], "simple": [0]}
    target = {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]], "simple": [0]}
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"source": source, "target": target, "f": [[1]],
                                "u": [0], "q": [2], "p": 2}), encoding="utf-8")
    code, out = run_cli(["isogeny", "validate", "--file", str(path)])
    assert code == 0
    doc = json.loads(out)
    validate_document(doc)
    assert (doc["valid"], doc["primitive"], doc["constant"], doc["frobenius_exponent"]) == (
        True, False, True, 0)


def test_every_document_has_exactly_the_keys_of_its_spec(tmp_path):
    # ``check`` allows extra keys, so a stray envelope key would pass it
    _, out = run_cli(["isogeny", "enumerate", "--type", "G2", "--p", "3"])
    phi_doc = json.loads(out)["isogenies"][0]
    valid, broken = tmp_path / "valid.json", tmp_path / "broken.json"
    valid.write_text(json.dumps(phi_doc), encoding="utf-8")
    broken.write_text(json.dumps(dict(phi_doc, q=[1, 1])), encoding="utf-8")
    runs = [(argv, payload) for _, argv, payload, _ in ALL_CASES] + [
        (["selfcheck", "--type", "B2", "--samples", "5"], None),
        (["isogeny", "validate", "--file", str(valid)], None),
        (["isogeny", "validate", "--file", str(broken)], None),
        (["roots", "--type", "Q7"], None),
    ]
    seen = set()
    for argv, payload in runs:
        _, out = run_cli(argv, payload)
        doc = json.loads(out)
        assert set(doc) == set(schemas.BY_SCHEMA[doc["schema"]]), argv
        seen.add(doc["schema"])
    assert seen == set(schemas.BY_SCHEMA)


def _bad_isogeny_file(tmp_path, case):
    path = tmp_path / "phi.json"
    if case == "missing-file":
        return path
    if case == "non-json":
        path.write_text("{not json", encoding="utf-8")
        return path
    if case == "no-simple-roots":
        empty = {"rank": 0, "roots": [], "coroots": [], "simple": []}
        path.write_text(json.dumps({"source": empty, "target": empty, "f": [],
                                    "u": [], "q": [], "p": 2}), encoding="utf-8")
        return path
    if case == "simples-not-a-base":
        # pairing matrix [[2, 1], [1, 2]]: positive definite, not a Cartan matrix
        phi_doc = isogeny.frobenius(rootdata.adjoint_datum(cartan.parse_type("A2")),
                                    2).to_json()
        for side in ("source", "target"):
            phi_doc[side]["simple"] = [1, 3]
        path.write_text(json.dumps(phi_doc), encoding="utf-8")
        return path
    b2_cases = ("long-coroot", "root-off-its-coroot", "coroot-off-the-roots")
    label, p = ("B2", "2") if case in b2_cases else ("G2", "3")
    _, out = run_cli(["isogeny", "enumerate", "--type", label, "--p", p])
    phi_doc = json.loads(out)["isogenies"][0]
    if case == "long-coroot":
        for coroot in phi_doc["source"]["coroots"]:
            coroot.append(0)
    elif case in b2_cases:
        # root 2 is not simple, so the defining equations still hold
        for side in ("source", "target"):
            if case == "root-off-its-coroot":
                phi_doc[side]["roots"][2] = [5, 7]
            else:   # pairs to 2, but its reflection leaves the roots
                phi_doc[side]["coroots"][2] = [1, 1]
    elif case == "short-q":
        phi_doc["q"] = phi_doc["q"][:1]
    elif case == "string-p":
        phi_doc["p"] = str(phi_doc["p"])
    elif case == "string-q":
        phi_doc["q"] = [str(x) for x in phi_doc["q"]]
    elif case == "string-f":
        phi_doc["f"][0][0] = str(phi_doc["f"][0][0])
    elif case == "u-not-a-bijection":
        phi_doc["u"] = [0, 0]
    else:
        phi_doc["source"]["simple"] = [0, 99]
    path.write_text(json.dumps(phi_doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("case,code", [
    ("missing-file", "ParseError"),
    ("non-json", "ParseError"),
    ("short-q", "InvalidPMorphism"),
    ("simple-out-of-range", "InvalidPMorphism"),
    ("string-p", "ParseError"),
    ("string-q", "ParseError"),
    ("string-f", "ParseError"),
    ("no-simple-roots", "InvalidPMorphism"),
    ("long-coroot", "InvalidPMorphism"),
    ("root-off-its-coroot", "InvalidPMorphism"),
    ("coroot-off-the-roots", "InvalidPMorphism"),
    ("simples-not-a-base", "InvalidPMorphism"),
    ("u-not-a-bijection", "InvalidPMorphism"),
])
def test_isogeny_validate_input_boundary(tmp_path, case, code):
    path = _bad_isogeny_file(tmp_path, case)
    err = io.StringIO()
    with redirect_stderr(err):
        exit_code, out = run_cli(["isogeny", "validate", "--file", str(path)])
    assert exit_code == 1
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    validate_document(doc)
    assert doc["error"]["code"] == code
    assert doc.get("valid", False) is False
    assert "Traceback" not in err.getvalue()


def test_datum_axioms_hold_under_optimized_python(tmp_path):
    # the axiom checks raise rather than assert, so ``python -O`` keeps them
    path = _bad_isogeny_file(tmp_path, "root-off-its-coroot")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "weylkit.cli", "isogeny", "validate",
         "--file", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["valid"] is False and doc["error"]["code"] == "InvalidPMorphism"


def test_base_check_holds_under_optimized_python(tmp_path):
    path = _bad_isogeny_file(tmp_path, "simples-not-a-base")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "weylkit.cli", "isogeny", "validate",
         "--file", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["valid"] is False and doc["error"]["code"] == "InvalidPMorphism"


@pytest.mark.parametrize("k", [0, 3], ids=["b2-special", "a2-frobenius-cubed"])
def test_isogeny_validate_validates_once(tmp_path, monkeypatch, k):
    # k is the Frobenius exponent the document should report
    if k == 0:
        _, out = run_cli(["isogeny", "enumerate", "--type", "B2", "--p", "2"])
        phi_doc = json.loads(out)["isogenies"][0]
    else:
        datum = rootdata.adjoint_datum(cartan.parse_type("A2"))
        phi_doc = isogeny.frobenius(datum, 2, k).to_json()
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi_doc), encoding="utf-8")
    calls = []
    validate = isogeny.validate_pmorphism

    def counting(phi):
        calls.append(phi)
        return validate(phi)

    monkeypatch.setattr(isogeny, "validate_pmorphism", counting)
    code, out = run_cli(["isogeny", "validate", "--file", str(path)])
    assert code == 0 and len(calls) == 1
    doc = json.loads(out)
    assert (doc["valid"], doc["primitive"], doc["constant"], doc["frobenius_exponent"]) \
        == (True, k == 0, k > 0, k)


def test_numpy_loads_only_for_weyl_enumeration():
    # weyl and classify count W by cosets, so no request imports numpy, not
    # even for D7 (322 560 elements) or E7 (2 903 040); the library's numpy
    # walk of D7, called last in the same process, shows the check can see it
    code = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import weylkit\n"
        "seen = {'import weylkit': 'numpy' in sys.modules}\n"
        "import weylkit.cli\n"
        "seen['import weylkit.cli'] = 'numpy' in sys.modules\n"
        "for argv in (['roots', '--type', 'A1'], ['weyl', '--type', 'G2'],\n"
        "             ['weyl', '--type', 'E6'], ['weyl', '--type', 'D7'],\n"
        "             ['weyl', '--type', 'E7']):\n"
        "    with redirect_stdout(io.StringIO()) as out:\n"
        "        weylkit.cli.main(argv)\n"
        "    seen[' '.join(argv)] = ['numpy' in sys.modules, json.loads(out.getvalue())]\n"
        "from weylkit import cartan, roots, weyl\n"
        "weyl.enumerate_weyl(roots.generate_roots(cartan.parse_type('D7')))\n"
        "seen['enumerate_weyl D7'] = 'numpy' in sys.modules\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["import weylkit"] is False
    assert seen["import weylkit.cli"] is False
    assert seen["roots --type A1"][0] is False
    for label, order in [("G2", 12), ("E6", 51_840), ("D7", 322_560), ("E7", 2_903_040)]:
        numpy_loaded, weyl_doc = seen[f"weyl --type {label}"]
        assert numpy_loaded is False, label
        assert weyl_doc["order"] == weyl_doc["enumerated"] == order, label
    assert seen["enumerate_weyl D7"] is True


def test_classify_relabelled_d60_answers():
    # a relabelling of D60 on which the Smith elimination with transforms
    # swelled past 90 s; the timeout only stops a hang
    perm = list(range(60))
    random.Random(60014).shuffle(perm)
    d60 = cartan.catalog("D", 60)
    matrix = [[d60[a][b] for b in perm] for a in perm]
    proc = subprocess.run([sys.executable, "-m", "weylkit.cli", "classify", "-"],
                          input=json.dumps({"matrix": matrix}), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    validate_document(doc)
    assert doc["type"] == [["D", 60]] and doc["fundamental_group"] == [2, 2]


def test_cli_import_loads_no_heavy_stdlib_module():
    # -S keeps site hooks (a .pth file may import typing) out of the check
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys\nimport weylkit.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'typing', 'random'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_selfcheck_deterministic_under_seed():
    _, first = run_cli(["selfcheck", "--type", "B2", "--seed", "11",
                        "--samples", "25"])
    _, second = run_cli(["selfcheck", "--type", "B2", "--seed", "11",
                         "--samples", "25"])
    assert first == second
    doc = json.loads(first)
    assert doc["antisymmetry"] and doc["equivariance"]
    validate_document(doc)


class _Admitted(Exception):
    """Raised by a stubbed chi evaluation: the request got past the budget."""


@pytest.mark.parametrize("label,samples", [("A60", 97), ("C60", 50), ("D60", 10_000)])
def test_selfcheck_over_the_work_budget_is_one_error_document(label, samples, monkeypatch):
    # refused from the root counts, before any chi evaluation
    from weylkit import characters
    calls = 0

    def counting(ed, d):
        nonlocal calls
        calls += 1

    monkeypatch.setattr(characters, "shifted_euler_characteristic", counting)
    code, out = run_cli(["selfcheck", "--type", label, "--samples", str(samples)])
    assert code == 1
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    validate_document(doc)
    assert doc["error"]["code"] == "SelfcheckTooLarge"
    assert doc["error"]["work"] > doc["error"]["bound"]
    assert calls == 0


@pytest.mark.parametrize("label,samples", [("E8", 10_000), ("A60", 96), ("C60", 49), ("D60", 50)])
def test_selfcheck_at_the_work_budget_is_admitted(label, samples, monkeypatch):
    from weylkit import characters

    def admitted(ed, d):
        raise _Admitted

    monkeypatch.setattr(characters, "shifted_euler_characteristic", admitted)
    with pytest.raises(_Admitted):
        run_cli(["selfcheck", "--type", label, "--samples", str(samples)])


def test_text_format_renders_tables():
    code, out = run_cli(["roots", "--type", "A1", "--format", "text"])
    assert code == 0
    assert "length" in out and "short" in out
    code, out = run_cli(["weyl", "--type", "A2", "--format", "text"])
    assert code == 0
    assert "order: 6" in out


@pytest.mark.parametrize("argv,payload", [
    (["roots", "--type", "B3"], None),
    (["weyl", "--type", "A2"], None),
    (["chevalley", "check", "--type", "G2", "--p", "3"], None),
    (["classify", "-"], '{"matrix": [[2, -1], [-1, 2]]}'),
], ids=["roots", "weyl", "chevalley", "classify"])
def test_text_format_lines_end_without_a_space(argv, payload):
    code, out = run_cli([*argv, "--format", "text"], payload)
    assert code == 0
    assert [line for line in out.splitlines() if line.endswith(" ")] == []


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "weylkit.cli", "dim", "--type", "G2",
         "--weight", "1,0"],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout)["value"] == 7


def test_only_a_run_that_owns_the_process_changes_the_collector():
    # main() reads sys.argv, as `python -m weylkit.cli` and the console script
    # call it; run_cli checks that main(argv) leaves the collector as it was
    code = ("import gc, io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from weylkit.cli import main\n"
            "before = (gc.isenabled(), gc.get_freeze_count() > 0)\n"
            "sys.argv = ['weylkit', 'roots', '--type', 'A1']\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    code = main()\n"
            "print(code, before, (gc.isenabled(), gc.get_freeze_count() > 0))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 (True, False) (False, True)\n"


def _relabelled_d30():
    # a relabelling as perfbench.workloads.relabel makes one
    perm = list(range(30))
    random.Random(30).shuffle(perm)
    d30 = cartan.catalog("D", 30)
    return json.dumps({"matrix": [[d30[a][b] for b in perm] for a in perm]})


# A launch runs with the collector off, so the cycles a request makes stay
# allocated until exit. Every request below leaves no unreachable object,
# in-process and in a fresh process alike. The bound is the floor of 100,
# under the 870-3 540 positive roots of the rank-30 and rank-60 requests, so a
# change that leaves one cyclic object per root in any of them fails here.
MAX_CYCLIC_GARBAGE = 100
GARBAGE_CASES = [*ALL_CASES,
                 ("roots_d60", ["roots", "--type", "D60"], None, 0),
                 ("classify_relabelled_d30", ["classify", "-"], _relabelled_d30(), 0),
                 ("isogeny_enumerate_b30_p2",
                  ["isogeny", "enumerate", "--type", "B30", "--p", "2"], None, 0),
                 ("chevalley_check_c30_p2",
                  ["chevalley", "check", "--type", "C30", "--p", "2"], None, 0),
                 *((f"usage-{i}", argv, '{"matrix": [[2]]}', code)
                   for i, (argv, code) in zip(USAGE_ERROR_IDS, USAGE_ERRORS))]


@pytest.mark.parametrize("name,argv,payload,expected_code", GARBAGE_CASES,
                         ids=[c[0] for c in GARBAGE_CASES])
def test_a_request_leaves_little_cyclic_garbage(name, argv, payload, expected_code):
    gc.collect()
    gc.disable()
    try:
        code, _ = run_cli(argv, payload)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert code == expected_code
    assert unreachable <= MAX_CYCLIC_GARBAGE, unreachable


def test_e8_weyl_enumeration_refused_by_default():
    code, out = run_cli(["weyl", "--type", "E8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 696_729_600
    assert doc["enumerated"] == "skipped"
    validate_document(doc)


def test_text_format_indents_a_nested_object():
    code, out = run_cli(["roots", "--type", "X9", "--format", "text"])
    assert code == 1
    assert out == ("error:\n"
                   "  code: InvalidType\n"
                   "  family: X\n"
                   "  message: (X,9) is not a valid finite type\n"
                   "  rank: 9\n"
                   "schema: weylkit/error/1\n")


def test_text_format_of_a_failed_isogeny_validation(tmp_path):
    _, out = run_cli(["isogeny", "enumerate", "--type", "G2", "--p", "3"])
    phi_doc = json.loads(out)["isogenies"][0]
    phi_doc["q"] = [1, 1]
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi_doc), encoding="utf-8")
    code, out = run_cli(["isogeny", "validate", "--file", str(path), "--format", "text"])
    assert code == 1
    lines = out.splitlines()
    assert lines[lines.index("error:") + 1] == "  code: RootEquationFails"
    assert "valid: False" in lines


def test_text_format_writes_a_dict_cell_as_compact_json():
    # each isogeny's source and target are objects in a table cell
    _, out = run_cli(["isogeny", "enumerate", "--type", "G2", "--p", "3"])
    phi = json.loads(out)["isogenies"][0]
    code, text = run_cli(["isogeny", "enumerate", "--type", "G2", "--p", "3",
                          "--format", "text"])
    assert code == 0
    row = text.splitlines()[2].split()
    assert json.dumps(phi["source"], sort_keys=True, separators=(",", ":")) in row
    assert json.dumps(phi["target"], sort_keys=True, separators=(",", ":")) in row


def test_chevalley_check_square_rows_and_violations():
    code, out = run_cli(["chevalley", "check", "--type", "G2", "--p", "3"])
    assert code == 0
    doc = json.loads(out)
    validate_document(doc)
    assert len(doc["square_triples"]) == 12
    assert doc["passed"] is True
    code, out = run_cli(["chevalley", "check", "--type", "B2", "--p", "3"])
    assert code == 0
    doc = json.loads(out)
    validate_document(doc)
    assert [v["kind"] for v in doc["violations"]] == ["bracket"] * 8
    assert doc["passed"] is False


def _ideal_check_document(label, p):
    """The ``chevalley check`` document rebuilt from the pair-by-pair oracle,
    each Steinberg row from SteinbergReport's named fields: a library tuple
    whose fields move apart from the CLI's column names fails to match it."""
    rs = roots.generate_roots(cartan.parse_type(label))
    brackets, squares, violations, steinberg = all_pairs_ideal_check(rs, p)

    def named(fields, rows):
        return [dict(zip(fields.split(), row)) for row in rows]

    steinberg_rows = [row._asdict() for row in steinberg]
    for row in steinberg_rows:
        row["ratio"] = row.pop("length_ratio")
    doc = {"schema": schemas.CHEVALLEY["schema"], "type": label, "p": p,
           "passed": not violations,
           "bracket_triples": named("alpha beta sum m", brackets),
           "square_triples": named("alpha beta sum", squares),
           # a bracket violation's m is not written
           "violations": named("kind alpha beta sum", violations),
           "steinberg": steinberg_rows}
    return json.loads(json.dumps(doc))


def test_chevalley_check_rows_carry_the_library_fields_in_order():
    expected = _ideal_check_document("G2+C3", 3)
    assert expected["violations"] and expected["square_triples"]
    code, out = run_cli(["chevalley", "check", "--type", "G2+C3", "--p", "3"])
    assert code == 0
    assert json.loads(out) == expected
    code, out = run_cli(["chevalley", "check", "--type", "G2+C3", "--p", "3",
                         "--format", "text"])
    assert code == 0
    assert out == cli._render(expected, "text")


def test_bs_weights_entries_carry_the_library_fields_in_order():
    # B2, word s2 s1 s2 s2 at (1, -4): degrees 2 to 4, multiplicities up to 2
    rs = roots.generate_roots(cartan.parse_type("B2"))
    gw = pushforward.pushforward_word(rs, (1, 0, 1, 1), (1, -4))
    entries = [{"weight": list(weight), "degree": degree, "mult": mult}
               for (weight, degree), mult in sorted(gw.items(),
                                                    key=lambda kv: (kv[0][1], kv[0][0]))]
    assert len({e["degree"] for e in entries}) > 1 and max(e["mult"] for e in entries) > 1
    code, out = run_cli(["bs-weights", "--type", "B2", "--word", "2,1,2,2", "--weight", "1,-4"])
    assert code == 0
    assert json.loads(out) == {"schema": schemas.BS_WEIGHTS["schema"], "type": "B2",
                               "word": [2, 1, 2, 2], "weight": [1, -4], "entries": entries}


@pytest.mark.parametrize("doc,message", [
    ([], "document must be an object with a schema key"),
    ({"type": "A1"}, "document must be an object with a schema key"),
    ({"schema": "weylkit/nothing/1"}, "unknown schema 'weylkit/nothing/1'"),
], ids=["not-an-object", "no-schema-key", "unknown-schema"])
def test_validate_document_refusals(doc, message):
    with pytest.raises(schemas.SchemaViolation, match=message):
        validate_document(doc)


@pytest.mark.parametrize("value,spec,message", [
    ("3", schemas.OneOf(int, None), "matches no alternative"),
    ({}, schemas.ListOf(int), "expected list"),
    ("1/0", "rational", "expected p/q rational string"),
    ("x", "rational", "expected p/q rational string"),
], ids=["no-alternative", "not-a-list", "zero-denominator", "not-a-number"])
def test_schema_check_refusals(value, spec, message):
    with pytest.raises(schemas.SchemaViolation, match=message):
        schemas.check(value, spec, "doc")
