"""Fuzz the CLI boundary in-process.

Every input must end in a documented exit code with exactly one
schema-valid JSON document on stdout, and no exception may escape ``main``.
Over-bound inputs are drawn too, each refused before the work past its
bound starts: a
``--samples`` value past ``cli.MAX_SAMPLES``, negative or not a number, a
``--type`` label whose ranks sum past ``cartan.MAX_RANK``, a ``bs-weights``
word whose first step (its last letter) meets a weight coordinate too large
for ``pushforward.MAX_STEP_WEIGHTS``, and a long word at modest weights
whose steps sum past ``pushforward.MAX_PUSH_WEIGHTS``; each must be one
error document with exit 1. Inputs whose work grows without bound in the
numbers they give and that no bound refuses (huge weights under a small
step) are left out of the strategies.
"""

import copy
import functools
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import cartan, chevalley, isogeny, pushforward, rootdata, weyl
from weylkit.cli import MAX_SAMPLES, ParseError, main
from weylkit.schemas import validate_document

CLASSIFY_EXIT_CODES = {0, 2, 3, 4}
OTHER_EXIT_CODES = {0, 1}


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def check_one_document(argv, stdin_text=""):
    code, out, err = run_cli(argv, stdin_text)
    allowed = CLASSIFY_EXIT_CODES if argv[:1] == ["classify"] else OTHER_EXIT_CODES
    assert code in allowed, (argv, code)
    assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
    doc = json.loads(out)
    validate_document(doc)
    assert "Traceback" not in err
    return code, doc


# -- classify --------------------------------------------------------------

junk_json = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(width=16)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["matrix", "rows", "x"]), inner, max_size=3),
    max_leaves=12,
)

OFF_DIAGONAL_PAIRS = [(0, 0), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1),
                      (-2, -2), (-1, -4), (0, -1), (1, -1)]


@st.composite
def near_cartan_matrices(draw):
    """Diagonal-2 matrices of rank <= 4 whose off-diagonal pairs are mostly
    Cartan-like, so finite, affine, indefinite and invalid inputs all occur."""
    n = draw(st.integers(1, 4))
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j], rows[j][i] = draw(st.sampled_from(OFF_DIAGONAL_PAIRS))
    return rows


small_matrices = st.lists(st.lists(st.integers(-4, 3), max_size=4), max_size=4)

classify_stdin = st.one_of(
    st.text(max_size=12),
    junk_json.map(json.dumps),
    st.one_of(near_cartan_matrices(), small_matrices, junk_json).map(
        lambda m: json.dumps({"matrix": m})),
)


@settings(max_examples=200, deadline=None)
@given(stdin_text=classify_stdin, transpose=st.booleans(),
       cap=st.none() | st.integers(-1, 2000))
def test_classify_fuzz(stdin_text, transpose, cap):
    argv = ["classify"] + (["--transpose"] if transpose else [])
    argv += [] if cap is None else ["--cap", str(cap)]
    code, doc = check_one_document(argv, stdin_text)
    assert doc["schema"] == ("weylkit/error/1" if code == 4 else "weylkit/report/1")


# -- typed subcommands -----------------------------------------------------

CATALOG_PARTS = [(family, rank) for family, rank in cartan.catalog_types()
                 if rank <= 4]
type_parts = st.lists(
    st.sampled_from(CATALOG_PARTS)
    | st.tuples(st.sampled_from("ABCDEFGQa"), st.integers(0, 4)),
    min_size=1, max_size=2,
).filter(lambda parts: sum(r for _, r in parts) <= 4)


def _vector(values):
    return ",".join(str(x) for x in values)


over_bound_samples = (st.integers(MAX_SAMPLES + 1, 10 ** 30)
                      | st.integers(max_value=-1)).map(str) | st.text("x.e+_ ", min_size=1)


# (before --type, after it) for each subcommand that takes --type
TYPED_COMMANDS = [(["roots"], []), (["weyl"], []), (["datum"], []),
                  (["isogeny", "enumerate"], ["--p", "2"]),
                  (["chevalley", "check"], ["--p", "2"]), (["dim"], ["--weight", "0"]),
                  (["vol"], ["--weight", "0"]), (["bs-weights"], ["--word", "1", "--weight", "0"]),
                  (["selfcheck"], ["--samples", "1"])]


@st.composite
def over_bound_argv(draw):
    """(argv, the error code it must give) for an input refused before the
    work past its bound: an out-of-range ``--samples``, a label past the
    rank cap, a ``bs-weights`` word whose first step is past the pushforward
    step bound, or a long word past the whole-pushforward budget."""
    family, rank = draw(st.sampled_from(CATALOG_PARTS))
    label = f"{family}{rank}"
    # a long word takes about 0.6 s to pass the budget, so it is drawn rarely
    kind = draw(st.sampled_from(["samples", "rank", "step"] * 6 + ["word"]))
    if kind == "samples":
        return (["selfcheck", "--type", label, "--samples", draw(over_bound_samples)],
                "ParseError")
    if kind == "rank":
        # one piece past the cap, up to far past any allocation, or two
        # pieces under it whose sum is past it
        big = draw(st.integers(cartan.MAX_RANK + 1, 10 ** 9) | st.just(10 ** 9))
        half = cartan.MAX_RANK // 2 + 1
        label = draw(st.sampled_from([f"{draw(st.sampled_from('ABCD'))}{big}",
                                      f"A{half}+{label}+B{half}"]))
        before, after = draw(st.sampled_from(TYPED_COMMANDS))
        return before + ["--type", label] + after, "RankTooLarge"
    if kind == "word":
        # on A2, (1,2,1) and (2,1,2) repeated pass the budget within 20
        # repeats at these weights, each step under the step bound; the word
        # is read from its end, so more repeats are refused at the same step
        letters = draw(st.sampled_from(["1,2,1", "2,1,2"]))
        weight = draw(st.lists(st.integers(10, 16), min_size=2, max_size=2))
        return (["bs-weights", "--type", "A2", "--word",
                 ",".join([letters] * draw(st.integers(20, 100))),
                 "--weight", _vector(weight)], "PushforwardTooLarge")
    word = draw(st.lists(st.integers(1, rank), min_size=1, max_size=6))
    weight = draw(st.lists(st.integers(-10, 10), min_size=rank, max_size=rank))
    big = draw(st.integers(pushforward.MAX_STEP_WEIGHTS + 2, 10 ** 12))
    weight[word[-1] - 1] = draw(st.sampled_from([big, -big]))
    return (["bs-weights", "--type", label, "--word", _vector(word),
             "--weight", _vector(weight)], "PushforwardTooLarge")


@st.composite
def typed_argv_in_bounds(draw):
    parts = draw(type_parts)
    label = "+".join(f"{family}{rank}" for family, rank in parts)
    rank = sum(r for _, r in parts)
    weight = _vector(draw(st.lists(st.integers(-10, 10),
                                   min_size=rank, max_size=rank)
                          | st.lists(st.integers(-10, 10), max_size=5)))
    word = _vector(draw(st.lists(st.integers(-1, rank + 1), max_size=6)))
    p = str(draw(st.integers(-3, 12)))
    basis = draw(st.sampled_from(["coroot", "root"]))
    command = draw(st.sampled_from(["roots", "weyl", "bs-weights", "dim", "vol",
                                    "isogeny", "chevalley", "datum", "selfcheck"]))
    if command == "weyl":
        return ["weyl", "--type", label, "--cap", str(draw(st.integers(-1, 2000)))]
    if command == "bs-weights":
        return ["bs-weights", "--type", label, "--word", word, "--weight", weight,
                "--basis", basis]
    if command in ("dim", "vol"):
        return [command, "--type", label, "--weight", weight, "--basis", basis]
    if command in ("isogeny", "chevalley"):
        action = "enumerate" if command == "isogeny" else "check"
        return [command, action, "--type", label, "--p", p]
    if command == "datum":
        return ["datum", "--type", label,
                "--kind", draw(st.sampled_from(["adjoint", "sc"]))]
    if command == "selfcheck":
        return ["selfcheck", "--type", label, "--seed", p,
                "--samples", str(draw(st.integers(0, 3)))]
    return ["roots", "--type", label]


@st.composite
def typed_argv(draw):
    """(argv, None), or, one time in four, (argv, error code) for an
    over-bound input."""
    if draw(st.integers(0, 3)) == 0:
        return draw(over_bound_argv())
    return draw(typed_argv_in_bounds()), None


# 400 examples keep about 300 in bounds
@settings(max_examples=400, deadline=None)
@given(case=typed_argv())
def test_typed_subcommand_fuzz(case):
    argv, refusal = case
    code, doc = check_one_document(argv)
    if refusal is not None:
        assert code == 1 and doc["error"]["code"] == refusal, argv


# -- isogeny validate ------------------------------------------------------

@functools.cache
def seed_pmorphisms():
    """Valid p-morphism documents: ``isogeny enumerate`` items and a Frobenius."""
    docs = []
    for label, p in (("G2", "3"), ("B2", "2")):
        _, out, _ = run_cli(["isogeny", "enumerate", "--type", label, "--p", p])
        docs += json.loads(out)["isogenies"]
    frob = isogeny.frobenius(rootdata.adjoint_datum(cartan.parse_type("A2")), 2)
    return docs + [frob.to_json()]


def _paths(node, path=()):
    """The path of every node below the root, as key and index sequences."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_pmorphisms(draw):
    """One valid document with exactly one mutation applied."""
    doc = copy.deepcopy(draw(st.sampled_from(seed_pmorphisms())))
    kind = draw(st.sampled_from(["drop", "junk", "resize", "rank", "p"]))
    if kind == "rank":
        doc[draw(st.sampled_from(["source", "target"]))]["rank"] = draw(st.integers(-2, 5))
    elif kind == "p":
        doc["p"] = draw(st.integers(-5, 50))
    elif kind == "junk":
        *parent, key = draw(st.sampled_from(list(_paths(doc))))
        _at(doc, parent)[key] = draw(junk_json)
    else:
        node_type = dict if kind == "drop" else list
        path = draw(st.sampled_from([p for p in [(), *_paths(doc)]
                                     if isinstance(_at(doc, p), node_type)]))
        node = _at(doc, path)
        if kind == "drop":
            del node[draw(st.sampled_from(sorted(node)))]
        elif node and draw(st.booleans()):
            del node[draw(st.integers(0, len(node) - 1)):]
        else:
            # a copy of an element keeps the nesting: a vector gains an
            # entry, a list of vectors gains a vector
            extra = copy.deepcopy(draw(st.sampled_from(node))) if node else 1
            node.append(extra if isinstance(extra, list) else draw(st.integers(-3, 3)))
    return doc


def test_seed_pmorphisms_are_valid():
    for phi_doc in seed_pmorphisms():
        code, doc = check_one_document(["isogeny", "validate", "--file", "-"],
                                       json.dumps(phi_doc))
        assert code == 0 and doc["valid"] is True


@settings(max_examples=300, deadline=None)
@given(phi_doc=mutated_pmorphisms())
def test_isogeny_validate_fuzz(phi_doc):
    code, doc = check_one_document(["isogeny", "validate", "--file", "-"],
                                   json.dumps(phi_doc))
    assert (code == 0) == (doc.get("valid") is True)
    if code == 0:
        # a vector of the wrong length must not pass by zip truncation
        for datum in (phi_doc["source"], phi_doc["target"]):
            assert datum["simple"] and len(datum["coroots"]) == len(datum["roots"])
            assert all(len(v) == datum["rank"] for v in datum["roots"] + datum["coroots"])


# -- error payloads --------------------------------------------------------

@pytest.mark.parametrize("argv,stdin_text,code,keys", [
    (["classify"], '{"matrix": [[1, -1], [-1, 2]]}', "DiagonalNotTwo",
     {"code", "message", "i"}),
    (["classify"], '{"matrix": [[2, 0], [-1, 2]]}', "AsymmetricZero",
     {"code", "message", "i", "j"}),
    (["roots", "--type", "B1"], "", "InvalidType",
     {"code", "message", "family", "rank"}),
    (["bs-weights", "--type", "A2", "--word", "3", "--weight", "0,0"], "",
     "IndexOutOfRange", {"code", "message"}),
    (["chevalley", "check", "--type", "A2", "--p", "2"], "", "SimplyLaced",
     {"code", "message"}),
    (["dim", "--type", "A2"], "", "ParseError", {"code", "message"}),
], ids=["diagonal", "asymmetric-zero", "invalid-type", "index-out-of-range",
        "simply-laced", "usage"])
def test_error_payload_keys(argv, stdin_text, code, keys):
    _, doc = check_one_document(argv, stdin_text)
    error = doc["errors"][0] if doc["schema"] == "weylkit/report/1" else doc["error"]
    assert error["code"] == code
    assert set(error) == keys



@pytest.mark.parametrize("label,rank", [
    ("A", None), ("Ax", None), ("A1+", None), ("A" + "1" * 5000, None),
    ("X5", 5),
    ("A6_0", None), ("A1_1", None), ("A\u0666\u0660", None), ("A 2", None), ("A-2", None),
], ids=["no-rank", "letters", "empty-piece", "past-the-digit-limit", "unknown-family",
        "underscore", "underscore-one", "arabic-indic-digits", "space", "minus"])
def test_invalid_type_reports_the_rank_the_label_gives(label, rank):
    # a label that gives no rank leaves the rank out rather than report 0
    code, doc = check_one_document(["roots", "--type", label])
    assert code == 1
    assert doc["error"]["code"] == "InvalidType"
    assert ("rank" in doc["error"]) == (rank is not None)
    assert doc["error"].get("rank") == rank

@pytest.mark.parametrize("argv", [
    ["dim", "--type", "A2", "--weight", _vector(["1" * 4001] * 2)],
    ["vol", "--type", "E8", "--weight", _vector(["1" * 41] * 8)],
    ["bs-weights", "--type", "A2", "--word", "2", "--weight", _vector(["9" * 4300, 1])],
    ["bs-weights", "--type", "A2", "--word", "1", "--weight", _vector(["9" * 4300, 1])],
    ["dim", "--type", "A2", "--basis", "root", "--weight", _vector(["-" + "9" * 4300, 0])],
], ids=["dim-value", "vol-value", "bs-weights-entry", "bs-weights-refusal-message",
        "dim-refusal-message"])
def test_integer_past_the_digit_limit_is_one_error_document(argv):
    # each result, or the message refusing it, holds an integer longer than
    # the interpreter converts to decimal
    code, doc = check_one_document(argv)
    assert code == 1
    assert doc["error"]["code"] == "DigitLimitExceeded"
    assert str(sys.get_int_max_str_digits()) in doc["error"]["message"]


@pytest.mark.parametrize("exc", [
    cartan.DiagonalNotTwo(0), cartan.InvalidType("Q", 7), cartan.NotFiniteType(),
    weyl.IndexOutOfRange(3, 2), weyl.CapExceeded(10),
    chevalley.HypothesesNotMet("sum-not-long"), isogeny.RootEquationFails(0),
    ParseError("bad"),
])
def test_error_code_is_the_class_name(exc):
    assert isinstance(exc, cartan.WeylkitError)
    assert isinstance(exc, ValueError)
    assert exc.code == type(exc).__name__
    assert exc.to_json()["code"] == exc.code
