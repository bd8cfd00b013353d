"""Every name of the package has one home, the module that defines it.

No module binds a sibling's name it never uses, but for the four that
``perfbench/tracer.py`` reads, and every test and script reads a name in
its home; a test may patch a name only where a module defines or reads it,
so that no patch passes without reaching the code under test.
``weylkit.__init__``'s ``_EXPORTS`` is the one public facade."""

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weylkit"

# (module, name) bound without use: perfbench/tracer.py's TRACED reads each
# there, and ROADMAP item 2, step 1 (the tracer reads the profiler) frees them
TRACER_BINDINGS = {("cartan", "validate_gcm"), ("cartan", "symmetrizer"),
                   ("intmat", "leading_principal_minors"), ("rootdata", "fundamental_group")}


SOURCES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def defined(tree: ast.Module) -> set:
    """The names a module's top level defines, not those it imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def loaded(tree: ast.Module) -> set:
    """The names a module's code reads, in string annotations too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= loaded(ast.parse(note.value, mode="eval"))
    return names


DEFINES = {module: defined(tree) for module, tree in SOURCES.items()}
READS = {module: DEFINES[module] | loaded(tree) for module, tree in SOURCES.items()}


def unused_bindings() -> set:
    """(module, name) for each name a relative import binds and the module
    never reads."""
    unused = set()
    for module, tree in SOURCES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                unused |= {(module, alias.asname or alias.name) for alias in node.names
                           if (alias.asname or alias.name) not in READS[module]}
    return unused


def code_strings(tree: ast.Module):
    """The string constants that name the package and parse as Python: the
    code a test runs in a fresh interpreter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "weylkit" in node.value:
            try:
                ast.parse(node.value)
            except SyntaxError:
                continue
            yield node


def misreads(source: str) -> list:
    """Each read of a package name outside its home in test or script source,
    its code strings included, and each patch of a module that neither
    defines nor reads the name, as (line, module, name)."""
    tree = ast.parse(source)
    modules = {}   # local name -> package module it refers to
    found = [(node.lineno, module, name) for node in code_strings(tree)
             for _, module, name in misreads(node.value)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "weylkit":
            modules |= {alias.asname or alias.name: alias.name for alias in node.names
                        if alias.name in SOURCES}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("weylkit."):
            module = node.module.split(".", 1)[1]
            found += [(node.lineno, module, alias.name) for alias in node.names
                      if alias.name not in DEFINES.get(module, ())]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            if isinstance(owner, ast.Name):
                module = modules.get(owner.id)
            elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                  and owner.value.id == "weylkit"):
                module = owner.attr
            else:
                continue
            if module in SOURCES and not node.attr.startswith("__") \
                    and node.attr not in DEFINES[module]:
                found.append((node.lineno, module, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setattr" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "monkeypatch" and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
              and isinstance(node.args[1], ast.Constant)):
            module, name = modules[node.args[0].id], node.args[1].value
            if name not in READS[module]:
                found.append((node.lineno, module, name))
    return found


def test_no_module_binds_a_name_it_does_not_use_but_the_tracers():
    assert unused_bindings() == TRACER_BINDINGS
    traced = set(runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))["TRACED"])
    assert TRACER_BINDINGS <= traced


def test_the_home_check_flags_a_patch_that_misses_the_code():
    # intmat binds leading_principal_minors for the tracer alone: a patch
    # there reaches no caller, so the check must refuse it
    patch = 'from weylkit import {0}\nmonkeypatch.setattr({0}, "leading_principal_minors", f)\n'
    assert misreads(patch.format("intmat")) == [(2, "intmat", "leading_principal_minors")]
    assert misreads(patch.format("bareiss")) == []
    # a consumer's own binding may be patched, but is read in its home
    consumer = "from weylkit import rootdata\nmonkeypatch.setattr(rootdata, 'generate_roots', f)\n"
    assert misreads(consumer) == []
    assert misreads(consumer + "rootdata.generate_roots\n") == [(3, "rootdata", "generate_roots")]
    assert misreads("from weylkit.cartan import GCM\n") == [(1, "cartan", "GCM")]
    # code a test hands to a fresh interpreter is read too
    assert misreads('code = (\n    "from weylkit import cartan\\n"\n    "cartan.catalog"\n)\n') \
        == [(2, "cartan", "catalog")]


def test_tests_and_scripts_read_every_name_in_its_home():
    # this file's snippets misread on purpose
    paths = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")])
    found = {path.name: misreads(path.read_text()) for path in paths
             if path.name != Path(__file__).name}
    assert {name: reads for name, reads in found.items() if reads} == {}
