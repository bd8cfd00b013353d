"""What every request reads: the error base, the errors of unreadable input,
and the generalized Cartan matrix type with its finite-type verdict.

A ``classify`` input that is no Cartan matrix, or not of finite type, stops
here and in the two small modules beside it (``axioms``, ``bareiss``), so it
compiles no catalog, Dynkin search or lattice code.
"""

from functools import cached_property

from . import bareiss

# largest rank a type label or the finite-type test accepts. Root generation
# grows as n^3 in time and memory: end to end on a 2-core x86-64 machine,
# `roots --type A60` takes 0.2-0.3 s and `isogeny enumerate --type B60 --p 2`
# 0.5-0.6 s at 56 MB, and the latter 2.2-2.9 s at 184 MB for B100. Catalog and
# non-finite test inputs reach rank 60.
MAX_RANK = 60


class WeylkitError(ValueError):
    """Base of every error the package raises on bad input.

    The error code is the class name. ``to_json`` writes it, the message,
    and each attribute named in ``details`` that the instance has set.
    """

    details: tuple[str, ...] = ()

    @property
    def code(self) -> str:
        return type(self).__name__

    def to_json(self) -> dict:
        payload = {"code": self.code, "message": str(self)}
        for key in self.details:
            if hasattr(self, key):
                payload[key] = getattr(self, key)
        return payload


class ParseError(WeylkitError):
    """Unreadable input: bad JSON, a malformed document or a usage error."""


class RankTooLarge(WeylkitError):
    details = ("rank",)

    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(f"rank {rank} exceeds the bound {MAX_RANK}")


class GCMError(WeylkitError):
    """Base for Cartan-matrix validation and classification failures."""

    details = ("i", "j", "family", "rank")


class NotFiniteType(GCMError):
    def __init__(self):
        super().__init__("matrix is not of finite type")


class GCM(tuple):
    """A validated generalized Cartan matrix ``GCM(n, entries)``: the tuple
    of its rows, so ``gcm[i][j]`` is C[i][j], ``n`` is its rank and
    ``entries`` the matrix itself. Copies and pickles rebuild it from both.
    """

    def __new__(cls, n: int, entries: tuple[tuple[int, ...], ...]):
        return super().__new__(cls, entries)

    n = property(len)
    entries = property(lambda self: self)

    def __getnewargs__(self):
        return self.n, tuple(self)

    def __repr__(self) -> str:
        return f"GCM(n={self.n!r}, entries={tuple(self)!r})"

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self]

    @cached_property
    def leading_minors(self) -> tuple[int, ...]:
        """Determinants of the upper-left k-by-k blocks up to the first zero
        one, so all n of them, the last det C, in finite type.

        Cached on the immutable matrix, so one elimination serves every
        finite-type guard and every reading of det C, which comes after a
        finite verdict. A rank over MAX_RANK raises RankTooLarge first.
        """
        if self.n > MAX_RANK:
            raise RankTooLarge(self.n)
        return tuple(bareiss.leading_principal_minors(self.rows()))

    @cached_property
    def finite_type(self) -> bool:
        """Sylvester criterion in exact integers: all leading minors positive.

        ``gcm.catalog`` and ``gcm.block_diag`` of catalog matrices set it
        instead, as every catalog matrix is of finite type (Cartan-Killing),
        so reading it runs no elimination; a matrix from ``validate_gcm``
        gets the derived verdict.
        """
        return all(m > 0 for m in self.leading_minors)

    def components(self) -> list[list[int]]:
        """Connected components of the Dynkin graph, by sorted node index."""
        seen: set[int] = set()
        comps = []
        for start in range(self.n):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(self.n):
                    if j not in seen and self[i][j] != 0:
                        seen.add(j)
                        stack.append(j)
            comps.append(sorted(comp))
        return comps


def is_finite_type(c: GCM) -> bool:
    """The finite-type verdict ``GCM.finite_type``, computed once per matrix."""
    return c.finite_type
