"""The package runs a submodule's body only when a request first uses it:
each subcommand executes exactly the modules it needs and compiles no more
source than it did, the package exports are the home modules' own objects,
and ``perfbench/tracer.py`` still finds every module and function it
patches."""

import importlib
import itertools
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import weylkit

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
GOLDEN = ROOT / "tests" / "golden" / "isogeny_g2_p3.golden"

MODULES = {"bareiss", "intmat", "schemas", "core", "gcm", "axioms", "cartan", "checks", "roots",
           "cosets", "report", "weyl", "characters", "pushforward", "rootdata", "isogeny",
           "chevalley", "clitext"}
# what every request runs: the front end, and the error base with the
# matrix type (core). A --type subcommand adds the catalog (gcm) and, but
# for weyl, which reads the root heights off gcm's raising pass, the root
# system (roots); a catalog matrix needs no validation (axioms), Dynkin
# search (cartan) or finite-type test (bareiss), and a success document
# only its schema name (no schemas)
BASE = {"cli", "core"}

# prints the weylkit modules whose bodies have run after the given code
EXECUTED = (
    "import json, sys, types\n"
    "{}\n"
    "print(json.dumps([n.split('.', 1)[1] for n, m in sys.modules.items()\n"
    "                  if n.startswith('weylkit.') and type(m) is types.ModuleType]))\n"
)
# runs one request in-process and checks its exit code
RUN_CLI_EXITING = ("import io, contextlib, weylkit.cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    code = weylkit.cli.main(sys.argv[1:])\n"
                   "assert code == {}, code")
RUN_CLI = RUN_CLI_EXITING.format(0)


def executed(code: str, argv=(), stdin: str = "") -> set:
    proc = subprocess.run([sys.executable, "-c", EXECUTED.format(code), *argv],
                          input=stdin, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_bare_import_executes_no_submodule():
    assert executed("import weylkit") == set()
    # cli's DigitLimitExceeded derives from core.WeylkitError
    assert executed("import weylkit.cli") == BASE


# stands for a file holding the first G2 isogeny at p = 3, written per test
PHI = "phi.json"

NOT_A_GCM = '{"matrix": [[2, 0], [-1, 2]]}'
AFFINE_A2 = '{"matrix": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}'
TRUNCATED = '{"matrix": [[2, -1], [-1'
E6 = [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
      [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]
# E6 with its nodes relabelled, so the Dynkin search is not matching the
# catalog's own numbering
E6_RELABELLED = json.dumps({"matrix": [[E6[a][b] for b in (3, 0, 5, 1, 4, 2)]
                                       for a in (3, 0, 5, 1, 4, 2)]})

# each classify outcome: its input, its exit code and the modules it runs
# besides BASE. A classify runs only the stages its input reaches: the
# Cartan axioms (axioms) on a matrix read as JSON (schemas), the leading
# minors (bareiss) on a Cartan matrix, and the rest on a finite one
CLASSIFY_OUTCOMES = {
    "finite": (E6_RELABELLED, 0, {"schemas", "report", "axioms", "bareiss", "cartan", "gcm",
                                  "intmat", "roots", "cosets"}),
    "not of finite type": (AFFINE_A2, 2, {"schemas", "report", "axioms", "bareiss"}),
    "not a Cartan matrix": (NOT_A_GCM, 3, {"schemas", "report", "axioms"}),
    "unreadable input": (TRUNCATED, 4, set()),
}
# what only a finite verdict reaches: the catalog and the Dynkin search,
# the lattice half of intmat, the symmetrizer (roots) and the count of W
PAST_THE_VERDICT = {"gcm", "cartan", "intmat", "roots", "cosets"}

# each subcommand and the modules it runs besides BASE
SUBCOMMANDS = [
    (["roots", "--type", "B2"], {"gcm", "roots"}),
    (["weyl", "--type", "B2"], {"gcm", "cosets"}),
    (["dim", "--type", "B2", "--weight", "1,0"], {"gcm", "roots", "checks", "characters"}),
    (["vol", "--type", "B2", "--weight", "1,0"], {"gcm", "roots", "checks", "characters"}),
    (["selfcheck", "--type", "B2", "--samples", "2"],
     {"gcm", "roots", "checks", "characters", "weyl", "cosets"}),
    (["bs-weights", "--type", "B2", "--word", "1,2", "--weight", "1,0"],
     {"gcm", "roots", "checks", "pushforward"}),
    (["datum", "--type", "B2"],
     {"gcm", "roots", "axioms", "cartan", "checks", "bareiss", "intmat", "rootdata"}),
    (["classify", "-"], CLASSIFY_OUTCOMES["finite"][2]),
    (["isogeny", "enumerate", "--type", "B2", "--p", "2"],
     {"gcm", "roots", "axioms", "cartan", "checks", "bareiss", "intmat", "rootdata", "isogeny"}),
    (["isogeny", "validate", "--file", PHI],
     {"gcm", "roots", "axioms", "cartan", "checks", "schemas", "bareiss", "intmat", "rootdata",
      "isogeny"}),
    (["chevalley", "check", "--type", "B2", "--p", "2"], {"gcm", "roots", "checks", "chevalley"}),
]


def subcommand(argv) -> str:
    """The words of argv before its first option, as the README names the subcommand."""
    return " ".join(itertools.takewhile(lambda a: not a.startswith("-"), argv))


# the first word, but for the one subcommand whose first word is taken
IDS = [a[0] if a[:2] != ["isogeny", "validate"] else "isogeny-validate" for a, _ in SUBCOMMANDS]


@pytest.mark.parametrize("argv, extra", SUBCOMMANDS, ids=IDS)
def test_subcommand_executes_only_the_modules_it_uses(argv, extra, tmp_path):
    if PHI in argv:
        phi = tmp_path / PHI
        phi.write_text(json.dumps(json.loads(GOLDEN.read_text())["isogenies"][0]))
        argv = [str(phi) if a == PHI else a for a in argv]
    stdin = '{"matrix": [[2, -1], [-2, 2]]}'
    assert executed(RUN_CLI, argv, stdin) == BASE | extra


def test_no_request_loads_argparse_gettext_or_locale(tmp_path):
    # argparse imports gettext, which imports locale for the first message
    # argparse translates: about 3 ms of each launch that a request no
    # longer pays
    from test_cli import USAGE_ERRORS
    phi = tmp_path / PHI
    phi.write_text(json.dumps(json.loads(GOLDEN.read_text())["isogenies"][0]))
    argvs = ([[str(phi) if a == PHI else a for a in argv] for argv, _ in SUBCOMMANDS]
             + [argv for argv, _ in USAGE_ERRORS] + [["-h"], ["roots", "-h"]])
    code = ("import contextlib, io, json, sys, weylkit.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    sys.stdin = io.StringIO('{\"matrix\": [[2, -1], [-2, 2]]}')\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        weylkit.cli.main(argv)\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# prints [file name, AST nodes] for each weylkit source file the interpreter
# compiles while it runs one request as ``python -m weylkit.cli`` runs it
COMPILED = r"""
import ast, builtins, json, runpy, sys
package, argv = sys.argv[1], json.loads(sys.argv[2])
compile_, seen = builtins.compile, []

def compile(source, filename, mode, flags=0, *args, **kwargs):
    if str(filename).startswith(package) and not flags & ast.PyCF_ONLY_AST:
        tree = compile_(source, filename, "exec", ast.PyCF_ONLY_AST)
        seen.append([str(filename)[len(package):], sum(1 for _ in ast.walk(tree))])
    return compile_(source, filename, mode, flags, *args, **kwargs)

builtins.compile = compile
sys.argv = ["weylkit", *argv]
try:
    runpy.run_module("weylkit.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
sys.stderr.write(json.dumps(seen) + "\n")
"""

# the AST nodes of weylkit source each subcommand compiles on Python 3.11,
# the figures it reached once every module imported only the names it
# reads (bs-weights: once the state walk summed word counts over lengths);
# README's table keeps the figures of earlier layouts beside these
NODES = {"roots": 5_608, "weyl": 4_879, "dim": 7_096, "vol": 7_096, "selfcheck": 8_988,
         "bs-weights": 7_762, "datum": 11_115, "classify": 10_409, "isogeny enumerate": 13_032,
         "isogeny validate": 14_133, "chevalley check": 7_817}
STDIN_IDS = {NOT_A_GCM: "classify-not-a-gcm", AFFINE_A2: "classify-affine-a2",
             TRUNCATED: "classify-truncated-json", E6_RELABELLED: "classify-relabelled-e6"}
COMPILE_CASES = [(argv, NODES[subcommand(argv)], None) for argv, _ in SUBCOMMANDS] + [
    (["classify", "-"], 4_884, NOT_A_GCM),
    (["classify", "-"], 5_232, AFFINE_A2),
    (["classify", "-"], 3_097, TRUNCATED),
    (["classify", "-"], 10_409, E6_RELABELLED),
    (["weyl", "--type", "E6", "--format", "text"], 5_478, None),
    (["weyl", "-h"], 3_696, None),
    (["weyl", "--type", "E6"], 4_879, None),
    # a label the catalog refuses: cli, core and gcm, no root system
    (["weyl", "--type", "X9"], 4_270, None),
]


@pytest.mark.parametrize("argv, bound, stdin", COMPILE_CASES,
                         ids=[" ".join(argv) if stdin is None else STDIN_IDS[stdin]
                              for argv, _, stdin in COMPILE_CASES])
def test_a_request_compiles_each_file_once_and_no_more_source_than_it_did(
        argv, bound, stdin, tmp_path):
    # a launch with no bytecode compiles the source of every module it runs,
    # and that compiling is most of the package's share of a small request;
    # an empty cache prefix keeps a stray __pycache__ from hiding a compile
    if PHI in argv:
        phi = tmp_path / PHI
        phi.write_text(json.dumps(json.loads(GOLDEN.read_text())["isogenies"][0]))
        argv = [str(phi) if a == PHI else a for a in argv]
    cache = tmp_path / "pycache"
    cache.mkdir()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(cache))
    package = str(Path(weylkit.__file__).parent) + os.sep
    proc = subprocess.run([sys.executable, "-c", COMPILED, package, json.dumps(argv)],
                          input=stdin or '{"matrix": [[2, -1], [-2, 2]]}', env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    compiled = json.loads(proc.stderr.splitlines()[-1])
    names = [name for name, _ in compiled]
    assert len(names) == len(set(names)), names
    assert "cli.py" in names
    assert sum(nodes for _, nodes in compiled) <= bound, compiled
    assert list(cache.iterdir()) == []


def test_readme_module_table_is_the_subcommand_rows():
    # each row: | `sub`, `sub` | `module`, `module` |, or "none" for no
    # module; a classify row names its outcome: | `classify` (finite) | ...
    text = (ROOT / "README.md").read_text()
    table = text.split("The modules each subcommand runs", 1)[1].split("\n\n", 2)[1]
    rows = {}
    for line in table.splitlines()[2:]:
        subs, modules = line.strip("|").split("|")
        for sub, outcome in re.findall(r"`([^`]+)`(?: \(([^)]+)\))?", subs):
            rows[f"{sub} ({outcome})" if outcome else sub] = \
                set(re.findall(r"`([^`]+)`", modules))
    expected = {subcommand(argv): extra for argv, extra in SUBCOMMANDS if argv[0] != "classify"}
    expected |= {f"classify ({outcome})": extra
                 for outcome, (_, _, extra) in CLASSIFY_OUTCOMES.items()}
    assert rows == expected


def test_readme_compile_table_now_column_is_the_guard_bounds():
    # each row: | `sub` | ... | now |, a classify row naming its outcome and
    # a row of a request beside the subcommand rows giving its whole argv
    text = (ROOT / "README.md").read_text()
    table = text.split("of weylkit source each request compiles", 1)[1].split("\n\n", 2)[1]
    rows = {}
    for line in table.splitlines()[2:]:
        cells = line.strip().strip("|").split("|")
        for sub, outcome in re.findall(r"`([^`]+)`(?: \(([^)]+)\))?", cells[0]):
            name = f"{sub} ({outcome})" if sub == "classify" else sub
            rows[name] = int(cells[-1].replace(" ", ""))
    outcomes = {stdin: outcome for outcome, (stdin, _, _) in CLASSIFY_OUTCOMES.items()}
    bounds = {}
    for argv, bound, stdin in COMPILE_CASES:
        if stdin is not None:
            name = f"classify ({outcomes[stdin]})"
        elif argv in [a for a, _ in SUBCOMMANDS]:
            name = "classify (finite)" if argv[0] == "classify" else subcommand(argv)
        else:
            name = " ".join(argv)
        assert bounds.setdefault(name, bound) == bound, name
    assert {name: bounds.get(name) for name in rows} == rows
    assert {subcommand(argv) for argv, _ in SUBCOMMANDS} - {"classify"} <= rows.keys()
    assert {f"classify ({outcome})" for outcome in CLASSIFY_OUTCOMES} <= rows.keys()


def test_readme_python_blocks_run_in_a_fresh_interpreter():
    # the library tour reads names from the package; a rename it misses
    # fails here rather than in a reader's hands
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert blocks
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr


def test_classify_of_d7_runs_no_rootdata_and_no_numpy():
    # D7's 322 560 elements are counted from its degrees, with no numpy;
    # the fundamental group comes from cartan, so a finite classify runs
    # cosets and never weyl or rootdata, and no input check (checks)
    code = RUN_CLI + "\nassert 'numpy' not in sys.modules"
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)}  # the chain forks at node 4
    d7 = [[2 if i == j else -1 if (i, j) in edges or (j, i) in edges else 0 for j in range(7)]
          for i in range(7)]
    assert executed(code, ["classify", "-"], json.dumps({"matrix": d7})) == \
        BASE | CLASSIFY_OUTCOMES["finite"][2]


@pytest.mark.parametrize("outcome", CLASSIFY_OUTCOMES)
def test_classify_runs_only_the_stages_its_input_reaches(outcome):
    # an input that never reaches a finite verdict runs no Dynkin search,
    # lattice code, symmetrizer or count of W
    stdin, code, extra = CLASSIFY_OUTCOMES[outcome]
    ran = executed(RUN_CLI_EXITING.format(code), ["classify", "-"], stdin)
    assert ran == BASE | extra
    assert bool(ran & PAST_THE_VERDICT) == (outcome == "finite")


@pytest.mark.parametrize("argv", [[*words, "--type", "X9", *rest]
                                  for words, rest in [(["roots"], []), (["weyl"], []),
                                                      (["datum"], []), (["selfcheck"], []),
                                                      (["chevalley", "check"], ["--p", "2"]),
                                                      (["dim"], ["--weight", "1"])]],
                         ids=subcommand)
def test_a_refused_label_runs_only_the_catalog(argv):
    # each handler reads its label before it names the module that takes it,
    # and the error document's schema name is cli's own
    assert executed(RUN_CLI_EXITING.format(1), argv) == BASE | {"gcm"}


def test_exports_are_the_home_module_objects():
    for home, names in weylkit._EXPORTS.items():
        module = importlib.import_module(f"weylkit.{home}")
        for name in names:
            obj = getattr(weylkit, name)
            assert obj is getattr(module, name), name
            # the table names where an object is defined, not a module that
            # imports it (GradedWeights is an alias of collections.Counter)
            assert obj.__module__ in (module.__name__, "collections"), name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from weylkit import *", namespace)
    assert set(weylkit.__all__) <= set(namespace)
    assert set(weylkit.__all__) <= set(dir(weylkit))
    assert MODULES <= set(dir(weylkit))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weylkit.no_such_name


def traced_spans(argv, stdin: str = "") -> dict:
    """The tracer's spans for one CLI run, whose stdout and exit code must be
    the plain run's."""
    plain = subprocess.run([sys.executable, "-m", "weylkit.cli", *argv], input=stdin,
                           capture_output=True, text=True, timeout=60)
    traced = subprocess.run([sys.executable, str(TRACER), "cli", *argv], input=stdin,
                            capture_output=True, text=True, timeout=60)
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    mark = runpy.run_path(str(TRACER))["MARK"]
    last = traced.stderr.rstrip("\n").rpartition("\n")[2]
    assert last.startswith(mark)
    return json.loads(last[len(mark):])["spans"]


# the entry points in the tracer's TRACED that no longer exist, whose spans
# read 0 on every workload
GONE_FROM_TRACED = {("intmat", "smith_normal_form"), ("isogeny", "enumerate_special_for_type")}


def test_every_traced_entry_point_still_resolves():
    # a function that moves out of the module the tracer names would leave
    # its per-layer span reading 0, with nothing failing
    absent = set()
    for module, attr in runpy.run_path(str(TRACER))["TRACED"]:
        owner = importlib.import_module(f"weylkit.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            absent.add((module, attr))
    assert absent == GONE_FROM_TRACED


def test_tracer_patches_the_lazily_loaded_modules():
    # the tracer reads sys.modules["weylkit.<module>"] right after importing
    # the package, so every module must be registered by then; symmetrizer
    # lives in roots and is_finite_type in core, and the tracer finds them
    # through cartan's bindings (symmetrizer's is kept for TRACED alone) and
    # swaps them where each module holds them
    spans = traced_spans(["roots", "--type", "B2"])
    for name in ("roots.generate_roots", "cartan.symmetrizer", "cartan.is_finite_type"):
        calls, _, _ = spans[name]
        assert calls > 0, name


def test_traced_classify_still_records_the_fundamental_group_span():
    # the tracer wraps rootdata's name for the function, which cartan owns,
    # at every module attribute holding it, cartan's included
    spans = traced_spans(["classify", "-"], '{"matrix": [[2, -1], [-3, 2]]}')
    calls, _, _ = spans["rootdata.fundamental_group"]
    assert calls == 1
