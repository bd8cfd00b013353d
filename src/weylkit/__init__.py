"""Exact combinatorics of Cartan matrices, root systems, Weyl groups,
weight pushforwards along words, pinned root data and p-isogenies.

The modules are arranged bottom-up, each importing only from those above it:

* ``bareiss``: the fraction-free elimination (``_bareiss``) and the leading
  principal minors the finite-type test reads
* ``intmat``: exact integer matrices, the modular elimination
  (``hermite_form``, ending in ``reduce_rows``, a back-reduction the lattice
  walk shares) and invariant factors from it
* ``schemas``: the shapes of the CLI's JSON documents, with a checker
* ``core``: the error base, ``ParseError``, the Cartan matrix type and its
  finite-type test: all that every request reads
* ``gcm``: catalog, type labels and the positive roots by raising
  reflections: the rest of what a ``--type`` request reads
* ``axioms``: the Cartan axioms a matrix from outside must satisfy
* ``checks``: the word, simple-index, weight, root and prime checks, and the
  command line's ``--word`` and ``--weight`` readers
* ``roots``: the symmetrizer, root systems and their coroots
* ``cartan``: matrices from outside past their finite-type verdict: Dynkin
  classification, fundamental group
* ``cosets``: the Weyl group's order and Poincare polynomial from the
  invariant degrees, read off the root heights, with the admission both
  share
* ``report``: the ``classify`` report of a matrix
* ``weyl``: the Weyl group as permutations of the roots, words, enumeration
* ``characters``: shifted Euler characteristic, Weyl dimension, volume, and
  the sampled identities ``selfcheck`` reports
* ``pushforward``: graded weight multisets pushed down words
* ``rootdata``: pinned root data, intermediate lattices
* ``isogeny``: p-morphisms (their JSON, word factors, root extension),
  Frobenius, special isogenies
* ``chevalley``: root strings, bracket constants, string-length identity,
  short-root ideal
* ``clitext``: the command line's ``--format text`` tables and ``-h`` help
* ``cli``: the command-line front end

Each module but ``cli`` runs on first use. The package registers them in
``sys.modules``, and as a package attribute, through
``importlib.util.LazyLoader``, so a module's body runs at the first access to
one of its attributes; the names in ``__all__`` are read from their home
module on access (PEP 562 ``__getattr__``). ``import weylkit`` runs none of
them, and a request runs only the modules it touches. ``_EXPORTS`` is the
one public facade: every other name is read in its home module.

Convention: the Cartan matrix entry ``C[i][j]`` pairs simple root i against
simple coroot j, so row i is simple root i in fundamental-weight
coordinates. All arithmetic is exact.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the package's modules, bottom-up
_MODULES = ("bareiss", "intmat", "schemas", "core", "gcm", "axioms", "checks", "roots", "cartan",
            "cosets", "report", "weyl", "characters", "pushforward", "rootdata", "isogeny",
            "chevalley", "clitext")

# each module and the names it exports from the package, in ``__all__`` order
_EXPORTS = {
    "axioms": ("validate_gcm",),
    "cartan": ("DynkinType", "catalog_types", "classify", "fundamental_group"),
    "characters": ("EulerData", "shifted_euler_characteristic", "volume", "weyl_dim"),
    "chevalley": ("RootString", "bracket_constant", "root_string", "short_root_ideal_check",
                  "steinberg_check"),
    "core": ("GCM", "is_finite_type"),
    "cosets": ("poincare_series", "weyl_order"),
    "gcm": ("catalog", "parse_type"),
    "isogeny": ("PMorphism", "enumerate_special", "factor_primitive_constant",
                "frobenius", "validate_pmorphism"),
    "pushforward": ("GradedWeights", "chi_restriction", "h0_rank", "occurs",
                    "pushforward_step", "pushforward_word"),
    "rootdata": ("PinnedRootDatum", "adjoint_datum", "intermediate_lattices",
                 "pinned_isomorphism", "simply_connected_datum"),
    "roots": ("Root", "RootSystem", "Symmetrizer", "generate_roots", "symmetrizer"),
    "weyl": ("WeylElement", "WeylGroup", "demazure_product", "enumerate_weyl",
             "is_reduced", "poincare_polynomial", "reduced_word", "reflect"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy(name: str):
    """The submodule ``name``, registered now and executed on first
    attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _name in _MODULES:
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
