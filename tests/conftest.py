"""Shared exact-matrix helpers for the test suite."""

from fractions import Fraction

import pytest

from diracsym import ExactMatrix, ExactScalar, pauli


def first_nonzero(m: ExactMatrix):
    for row in m.rows:
        for v in row:
            if v:
                return v
    return None


def dense_alphas(model) -> list:
    """The dense alpha matrices of a model, encoded from its alpha strings."""
    return [pauli.encode(*s, model.dim) for s in model.gamma.alpha]


def proj_equal(a: ExactMatrix, b: ExactMatrix) -> bool:
    """a == lambda * b for some nonzero scalar lambda."""
    vb = first_nonzero(b)
    va = first_nonzero(a)
    if vb is None or va is None:
        return vb is None and va is None
    lam = va / vb
    return a == b.scale(lam)


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product, a-index major block layout."""
    nb = b.dim
    n = a.dim * nb
    rows = [[ExactScalar(0)] * n for _ in range(n)]
    for i, ra in enumerate(a.rows):
        for j, aij in enumerate(ra):
            for k, rb in enumerate(b.rows):
                for l, bkl in enumerate(rb):
                    rows[i * nb + k][j * nb + l] = aij * bkl
    return ExactMatrix(rows)


def block_diag(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """[[a, 0], [0, b]]."""
    zero = [ExactScalar(0)] * a.dim
    return ExactMatrix([[*r, *zero] for r in a.rows] + [[*zero, *r] for r in b.rows])


def block_antidiag(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """[[0, a], [b, 0]]."""
    zero = [ExactScalar(0)] * a.dim
    return ExactMatrix([[*zero, *r] for r in a.rows] + [[*r, *zero] for r in b.rows])


def mat(entries) -> ExactMatrix:
    return ExactMatrix(
        [
            [
                e if isinstance(e, ExactScalar) else ExactScalar(*e)
                if isinstance(e, tuple)
                else ExactScalar(Fraction(e))
                for e in row
            ]
            for row in entries
        ]
    )


@pytest.fixture
def frac():
    return Fraction
