"""p-morphisms of pinned root data.

A p-morphism from a source datum to a target datum consists of an integer
matrix f from the target character lattice to the source one, a bijection u
of the source simples onto the target simples, and a map q from source
simples to powers of a prime p, subject to

    f(u(a))            = q(a) * a          on the character lattices,
    transpose(f)(a~)   = q(a) * u(a)~      on the coroot side,

for every simple root a (a~ denotes its coroot); ``rootdata.equation_failure``
checks them, and a pinned isomorphism is the case u = id, q = 1. The two
families imply the Cartan compatibility q(a) <a, b~> = q(b) <u(a), u(b)~>,
and they determine the extension of u and q from the simple roots to all
roots; the extension is exposed as a derived map rather than stored. Along
a word of source simples, u translates the letters and q gives each its
scaling factor.
"""

from collections import namedtuple
from math import gcd

from . import intmat, rootdata, schemas
from .cartan import catalog_type
# the prime rule and its errors live in checks, beside the other input
# rules, so chevalley runs without this module
from .checks import IsogenyError, check_word, is_prime
from .core import GCM
from .gcm import catalog, parse_label
from .roots import symmetrizer


class InvalidPMorphism(IsogenyError):
    """The document is not a p-morphism; subclasses name the failing equation."""


class RootEquationFails(InvalidPMorphism):
    def __init__(self, k: int):
        self.k = k
        super().__init__(f"f(u(a)) = q(a) a fails at simple index {k}")


class CorootEquationFails(InvalidPMorphism):
    def __init__(self, k: int):
        self.k = k
        super().__init__(f"transpose(f) fails the coroot equation at simple index {k}")


class QNotPowerOfP(InvalidPMorphism):
    def __init__(self, k: int):
        self.k = k
        super().__init__(f"q value at simple index {k} is not a power of p")


class PMorphism(namedtuple("PMorphism", "source target f u q p")):
    """A p-morphism of pinned root data: ``f`` is the matrix from the target
    lattice to the source one, source simple k goes to target simple
    ``u[k]``, scaled by ``q[k]``."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "f": [list(r) for r in self.f],
            "u": list(self.u),
            "q": list(self.q),
            "p": self.p,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PMorphism":
        """The p-morphism of a ``to_json`` document (shape ``schemas.PMORPHISM``)."""
        return cls(rootdata.PinnedRootDatum.from_json(doc["source"]),
                   rootdata.PinnedRootDatum.from_json(doc["target"]),
                   tuple(map(tuple, doc["f"])), tuple(doc["u"]), tuple(doc["q"]),
                   doc["p"])


def _p_split(x: int, p: int) -> tuple[int, int]:
    """(k, m) with x = p^k m and m prime to p, for x >= 1 and p >= 2;
    anything else raises InvalidPMorphism.

    >>> _p_split(24, 2), _p_split(1, 3)
    ((3, 3), (0, 1))
    """
    if x < 1 or p < 2:
        raise InvalidPMorphism(f"{x} does not split into powers of {p}")
    k = 0
    while x % p == 0:
        x, k = x // p, k + 1
    return k, x


def validate_pmorphism(phi: PMorphism) -> None:
    """Verify the shapes and the root-datum axioms of both data, then the
    defining equations exactly; raises on the first failure.

    A datum that is both source and target is checked once.
    """
    src, tgt = phi.source, phi.target
    n = len(src.simples)
    if n == 0:
        raise InvalidPMorphism("the pinning has no simple roots")
    if len(tgt.simples) != n or sorted(phi.u) != list(range(n)):
        raise InvalidPMorphism("u is not a bijection of the simple roots")
    if len(phi.q) != n:
        raise InvalidPMorphism(f"q must have {n} entries, one per simple root")
    for datum in (src,) if tgt == src else (src, tgt):
        try:
            datum.validate()
        except rootdata.RootDatumError as exc:
            raise InvalidPMorphism(str(exc)) from exc
    _check_equations(phi)


def _check_equations(phi: PMorphism) -> None:
    """The prime, the shape of f, the q values and the defining equations of
    a p-morphism whose data are already known to be well formed."""
    src, tgt = phi.source, phi.target
    if not is_prime(phi.p):
        raise InvalidPMorphism(f"{phi.p} is not prime")
    if len(phi.f) != src.rank or any(len(r) != tgt.rank for r in phi.f):
        raise InvalidPMorphism("f has the wrong shape")
    for k, x in enumerate(phi.q):
        if x < 1 or _p_split(x, phi.p)[1] != 1:
            raise QNotPowerOfP(k)
    failure = rootdata.equation_failure(src, tgt, phi.f, phi.u, phi.q)
    if failure:
        k, side = failure
        raise (RootEquationFails if side == "root" else CorootEquationFails)(k)


def frobenius(datum: "rootdata.PinnedRootDatum", p: int, n: int = 1) -> PMorphism:
    """The constant p-morphism: multiplication by p^n on the same datum."""
    if n < 1:
        raise IsogenyError(f"Frobenius exponent {n} is not positive")
    scale = p ** n
    rank = datum.rank
    f = tuple(tuple(scale if i == j else 0 for j in range(rank)) for i in range(rank))
    phi = PMorphism(datum, datum, f,
                    tuple(range(len(datum.simples))),
                    tuple(scale for _ in datum.simples), p)
    validate_pmorphism(phi)
    return phi


def compose(outer: PMorphism, inner: PMorphism) -> PMorphism:
    """outer after inner (inner's target datum must equal outer's source)."""
    if inner.target != outer.source or inner.p != outer.p:
        raise InvalidPMorphism("morphisms do not compose")
    f = intmat.matmul([list(r) for r in inner.f], [list(r) for r in outer.f])
    u = tuple(outer.u[inner.u[k]] for k in range(len(inner.u)))
    q = tuple(inner.q[k] * outer.q[inner.u[k]] for k in range(len(inner.q)))
    phi = PMorphism(inner.source, outer.target,
                    tuple(tuple(r) for r in f), u, q, inner.p)
    validate_pmorphism(phi)
    return phi


def factor_primitive_constant(phi: PMorphism) -> tuple[PMorphism, int]:
    """Split off the largest constant Frobenius factor.

    Returns (primitive part, exponent k) with phi = frobenius(p, k) after
    the primitive part: p^k is the largest power of p that divides every q
    value and every entry of f, so the primitive part need not have a q
    value 1. phi must already be valid (``validate_pmorphism``); the
    primitive part then is too, because every defining equation is linear
    in (f, q). A q value below 1 or a p below 2 raises InvalidPMorphism.
    """
    entries = phi.q + tuple(abs(x) for row in phi.f for x in row if x)
    k = min(_p_split(x, phi.p)[0] for x in entries)
    if k == 0:
        return phi, 0
    scale = phi.p ** k
    return phi._replace(f=tuple(tuple(x // scale for x in row) for row in phi.f),
                        q=tuple(x // scale for x in phi.q)), k


def is_constant(phi: PMorphism) -> bool:
    return len(set(phi.q)) == 1


def is_primitive(phi: PMorphism) -> bool:
    return 1 in phi.q


def validation_report(phi: PMorphism) -> dict:
    """The ``isogeny validate`` document's fields: ``valid`` and, for a
    valid p-morphism, whether it is primitive and constant and its
    Frobenius exponent, else the error it fails with."""
    doc = dict.fromkeys(schemas.ISOGENY_VALIDATION) | {"valid": False}
    try:
        validate_pmorphism(phi)
    except IsogenyError as exc:
        doc["error"] = exc.to_json()
        return doc
    doc["valid"] = True
    doc["primitive"] = is_primitive(phi)
    doc["constant"] = is_constant(phi)
    doc["frobenius_exponent"] = factor_primitive_constant(phi)[1]
    return doc


def extend_to_roots(phi: PMorphism) -> list[tuple[int, int]]:
    """The unique extension of (u, q) from the simples to all roots.

    Returns, for each root index of the source datum, the pair (target root
    index, q value), determined by transpose(f)(coroot) = q * image coroot;
    q is the largest power of p dividing the image that leaves a coroot.
    """
    validate_pmorphism(phi)
    src, tgt = phi.source, phi.target
    ft = intmat.transpose([list(r) for r in phi.f])
    tgt_index = {cv: i for i, cv in enumerate(tgt.coroots)}
    out = []
    for i in range(len(src.roots)):
        img = intmat.matvec(ft, list(src.coroots[i]))
        for k in range(_p_split(gcd(*img), phi.p)[0], -1, -1):
            j = tgt_index.get(tuple(x // phi.p ** k for x in img))
            if j is not None:
                out.append((j, phi.p ** k))
                break
        else:
            raise InvalidPMorphism(f"no root image for source root {i}")
    return out


def pmorphism_chi_factors(phi: PMorphism, word) -> list[int]:
    """Per-position scaling factors q(letter) of a p-morphism along a word.

    The word is over the source's simple indices; the translated word is
    ``translated_word(phi, word)``.
    """
    validate_pmorphism(phi)
    return [phi.q[letter] for letter in check_word(len(phi.q), word)]


def translated_word(phi: PMorphism, word) -> tuple[int, ...]:
    """Image of a source word under the simple-root bijection of a p-morphism."""
    return tuple(phi.u[letter] for letter in check_word(len(phi.q), word))


def enumerate_special(family: str, rank: int, p: int) -> list[PMorphism]:
    """All primitive non-constant p-morphisms out of an irreducible type:
    the special isogenies of Borel-Tits ("Compléments à l'article « Groupes
    réductifs »", Publ. Math. IHÉS 41, 1972).

    The Cartan compatibility q(a) <a, b~> = q(b) <u(a), u(b)~> keeps each
    bond's multiplicity <a, b~> <b, a~>, so q changes only across a bond of
    multiplicity p, and is then p on its short side. So one exists only when
    max(d) = p min(d) for the symmetrizer d, with q = d / min(d): p on the
    short simples, 1 on the long ones. That gate passes only for a connected
    matrix with a multiple bond: B_n, C_n, F4 and G2. The target matrix,
    q(a) <a, b~> / q(b) = <b, a~>, is the source's transpose. It has a
    multiple bond too, so it matches exactly one catalog type, by exactly
    one node map, as a multiple bond's direction rules out any nontrivial
    node automorphism. So there is one result: u is that map's inverse, and
    f, between the adjoint data, the monomial matrix of (u, q).
    """
    if not is_prime(p):
        raise IsogenyError(f"{p} is not prime")
    src_gcm = catalog(family, rank)
    d = symmetrizer(src_gcm).d
    if max(d) != p * min(d):
        return []
    q = tuple(x // min(d) for x in d)
    target, v = catalog_type(GCM(rank, tuple(zip(*src_gcm))), range(rank))
    u = tuple(map(v.index, range(rank)))
    src_datum = rootdata.adjoint_datum(src_gcm)
    tgt_datum = src_datum if target == family else rootdata.adjoint_datum(catalog(target, rank))
    f = tuple(tuple(q[i] if j == u[i] else 0 for j in range(rank)) for i in range(rank))
    phi = PMorphism(src_datum, tgt_datum, f, u, q, p)
    _check_equations(phi)   # adjoint data are well formed by construction
    return [phi]


def enumeration_report(label: str, p: int) -> dict:
    """The ``isogeny enumerate`` document's fields: the special isogenies of
    the irreducible type ``label`` at p, each as ``PMorphism.to_json``
    writes it."""
    parts = parse_label(label)
    if len(parts) != 1:
        raise IsogenyError("special isogeny search expects an irreducible type")
    return {"p": p, "isogenies": [m.to_json() for m in enumerate_special(*parts[0], p)]}
