"""Exact combinatorics of Cartan matrices, root systems, Weyl groups,
weight pushforwards along words, pinned root data and p-isogenies.

The modules are arranged bottom-up, each importing only from those above it:

* ``intmat``: exact integer matrices, two eliminations (``_bareiss``,
  fraction-free; ``hermite_form``, modular, ending in ``reduce_rows``, a
  back-reduction the lattice walk shares) and invariant factors from the latter
* ``schemas``: the shapes of the CLI's JSON documents, with a checker
* ``cartan``: matrix validation, finite-type test, fundamental group,
  symmetrizer, catalog, Dynkin classification
* ``roots``: root systems, their coroots and strings, the word, simple-index
  and weight checks
* ``weyl``: the Weyl group as permutations of the roots, words, enumeration
* ``characters``: shifted Euler characteristic, Weyl dimension, volume
* ``pushforward``: graded weight multisets pushed down words
* ``rootdata``: pinned root data, intermediate lattices
* ``isogeny``: p-morphisms (their JSON, word factors, root extension),
  Frobenius, special isogenies
* ``chevalley``: bracket constants, string-length identity, short-root ideal
* ``cli``: the command-line front end

Each module but ``cli`` runs on first use. The package registers them in
``sys.modules``, and as a package attribute, through
``importlib.util.LazyLoader``, so a module's body runs at the first access to
one of its attributes; the names in ``__all__`` are read from their home
module on access (PEP 562 ``__getattr__``). ``import weylkit`` runs none of
them, and a request runs only the modules it touches.

Convention: the Cartan matrix entry ``C[i][j]`` pairs simple root i against
simple coroot j, so row i is simple root i in fundamental-weight
coordinates. All arithmetic is exact.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the package's modules, bottom-up
_MODULES = ("intmat", "schemas", "cartan", "roots", "weyl", "characters",
            "pushforward", "rootdata", "isogeny", "chevalley")

# each module and the names it exports from the package, in ``__all__`` order
_EXPORTS = {
    "cartan": ("GCM", "DynkinType", "Symmetrizer", "catalog", "catalog_types",
               "classify", "fundamental_group", "is_finite_type", "parse_type",
               "symmetrizer", "validate_gcm"),
    "characters": ("EulerData", "shifted_euler_characteristic", "volume", "weyl_dim"),
    "chevalley": ("bracket_constant", "short_root_ideal_check", "steinberg_check"),
    "isogeny": ("PMorphism", "enumerate_special", "factor_primitive_constant",
                "frobenius", "validate_pmorphism"),
    "pushforward": ("GradedWeights", "chi_restriction", "h0_rank", "occurs",
                    "pushforward_step", "pushforward_word"),
    "rootdata": ("PinnedRootDatum", "adjoint_datum", "intermediate_lattices",
                 "pinned_isomorphism", "simply_connected_datum"),
    "roots": ("Root", "RootSystem", "RootString", "generate_roots", "root_string"),
    "weyl": ("WeylElement", "WeylGroup", "demazure_product", "enumerate_weyl",
             "is_reduced", "poincare_polynomial", "poincare_series", "reduced_word",
             "reflect", "weyl_order"),
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
