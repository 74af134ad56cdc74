"""The tensor-doubling gamma recursion on dense matrices, kept as a
test-only reference for the Pauli-string build in ``diracsym.clifford``.

Base system: gamma_0 = s3, gamma_1 = s3*s1, gamma_2 = s3*s2.  Each
doubling step maps gamma to kron(gamma, s3) and appends i*kron(1, s2)
and i*kron(1, s1).
"""

from diracsym import ExactMatrix, ExactScalar
from diracsym.exact import I_UNIT

from conftest import kron

SIGMA1 = ExactMatrix([[0, 1], [1, 0]])
SIGMA2 = ExactMatrix(
    [
        [ExactScalar(0), ExactScalar(0, -1)],
        [ExactScalar(0, 1), ExactScalar(0)],
    ]
)
SIGMA3 = ExactMatrix([[1, 0], [0, -1]])
I2 = ExactMatrix.identity(2)


def kron_gammas(d: int) -> list:
    """gamma_0 ... gamma_d of P(1,d) by the dense kron recursion."""
    gammas = [SIGMA3, SIGMA3 @ SIGMA1, SIGMA3 @ SIGMA2]
    while len(gammas) < d + 1:
        ident = ExactMatrix.identity(gammas[0].dim)
        gammas = [kron(g, SIGMA3) for g in gammas] + [
            kron(ident, SIGMA2).scale(I_UNIT),
            kron(ident, SIGMA1).scale(I_UNIT),
        ]
    return gammas
