"""The three Cartan axioms a matrix from outside must satisfy.

``validate_gcm`` is the first stage of ``classify``, which ``report`` runs
here before the finite-type verdict, so an input that fails it compiles no
Dynkin search.
"""

from .core import GCM, GCMError


class DiagonalNotTwo(GCMError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"diagonal entry at ({i},{i}) is not 2")


class PositiveOffDiagonal(GCMError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"off-diagonal entry at ({i},{j}) is positive")


class AsymmetricZero(GCMError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"entry ({i},{j}) is zero iff ({j},{i}) is not")


def validate_gcm(matrix) -> GCM:
    """Check the three Cartan axioms, reporting the first violation row-major."""
    n = len(matrix)
    if n == 0:
        raise GCMError("matrix is empty")
    if any(not isinstance(row, (list, tuple)) for row in matrix):
        raise GCMError("matrix rows must be lists")
    if any(len(row) != n for row in matrix):
        raise GCMError("matrix is not square")
    for row in matrix:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise GCMError("matrix entries must be integers")
    for i in range(n):
        for j in range(n):
            if i == j:
                if matrix[i][i] != 2:
                    raise DiagonalNotTwo(i)
            else:
                if matrix[i][j] > 0:
                    raise PositiveOffDiagonal(i, j)
                if (matrix[i][j] == 0) != (matrix[j][i] == 0):
                    raise AsymmetricZero(i, j)
    return GCM(n, tuple(tuple(row) for row in matrix))
