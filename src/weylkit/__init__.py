"""Exact combinatorics of Cartan matrices, root systems, Weyl groups,
weight pushforwards along words, pinned root data and p-isogenies.

The modules are arranged bottom-up, each importing only from those above it:

* ``intmat``: exact integer matrices, Smith and Hermite normal forms
* ``schemas``: the shapes of the CLI's JSON documents, with a checker
* ``cartan``: matrix validation, finite-type test, symmetrizer, catalog,
  Dynkin classification
* ``roots``: root systems with dual (root and coroot) bookkeeping, strings
* ``weyl``: the Weyl group as permutations of the roots, words, enumeration
* ``characters``: shifted Euler characteristic, Weyl dimension, volume
* ``pushforward``: graded weight multisets pushed down words
* ``rootdata``: pinned root data, fundamental group, intermediate lattices
* ``isogeny``: p-morphisms (their JSON, word factors, root extension),
  Frobenius, special isogenies
* ``chevalley``: bracket constants, string-length identity, short-root ideal
* ``cli``: the command-line front end

Convention: the Cartan matrix entry ``C[i][j]`` pairs simple root i against
simple coroot j, so row i is simple root i in fundamental-weight
coordinates. All arithmetic is exact.
"""

from .cartan import (GCM, DynkinType, Symmetrizer, catalog, catalog_types,
                     classify, is_finite_type, parse_type, symmetrizer,
                     validate_gcm)
from .characters import EulerData, shifted_euler_characteristic, volume, weyl_dim
from .chevalley import bracket_constant, short_root_ideal_check, steinberg_check
from .isogeny import (PMorphism, enumerate_special, factor_primitive_constant,
                      frobenius, validate_pmorphism)
from .pushforward import (GradedWeights, chi_restriction, h0_rank, occurs,
                          pushforward_step, pushforward_word)
from .rootdata import (PinnedRootDatum, adjoint_datum, fundamental_group,
                       intermediate_lattices, pinned_isomorphism,
                       simply_connected_datum)
from .roots import Root, RootSystem, RootString, generate_roots, root_string
from .weyl import (WeylElement, WeylGroup, demazure_product, enumerate_weyl,
                   is_reduced, poincare_polynomial, reduced_word, reflect,
                   weyl_order)

__version__ = "0.1.0"

__all__ = [
    "GCM", "DynkinType", "Symmetrizer", "catalog", "catalog_types",
    "classify", "is_finite_type", "parse_type", "symmetrizer", "validate_gcm",
    "EulerData", "shifted_euler_characteristic", "volume", "weyl_dim",
    "bracket_constant", "short_root_ideal_check", "steinberg_check",
    "PMorphism", "enumerate_special", "factor_primitive_constant",
    "frobenius", "validate_pmorphism",
    "GradedWeights", "chi_restriction", "h0_rank", "occurs",
    "pushforward_step", "pushforward_word",
    "PinnedRootDatum", "adjoint_datum", "fundamental_group",
    "intermediate_lattices", "pinned_isomorphism", "simply_connected_datum",
    "Root", "RootSystem", "RootString", "generate_roots", "root_string",
    "WeylElement", "WeylGroup", "demazure_product", "enumerate_weyl",
    "is_reduced", "poincare_polynomial", "reduced_word",
    "reflect", "weyl_order",
]
