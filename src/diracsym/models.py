"""Dynamical objects: Dirac-type Hamiltonians and Poincare-type generators.

Generators are represented as operator symbols: normal-ordered polynomials
in t, x_1..x_d, p_1..p_d with exact matrix coefficients.  Normal order
puts every x factor to the left of every p factor; symbol multiplication
implements [x_k, p_l] = i*delta_kl exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .clifford import GammaSystem, system_for
from .exact import (
    ExactMatrix,
    ExactScalar,
    I_UNIT,
    ONE,
    ZERO,
    kron,
    matmul,
)

# A monomial is (t_exp, x_exps, p_exps) with x_exps/p_exps tuples of length d.
Monomial = tuple


def unit_monomial(d: int) -> Monomial:
    return (0, (0,) * d, (0,) * d)


def x_monomial(d: int, k: int) -> Monomial:
    e = [0] * d
    e[k - 1] = 1
    return (0, tuple(e), (0,) * d)


def p_monomial(d: int, k: int) -> Monomial:
    e = [0] * d
    e[k - 1] = 1
    return (0, (0,) * d, tuple(e))


def t_monomial(d: int) -> Monomial:
    return (1, (0,) * d, (0,) * d)


def _mul_vars(k_exp_p: int, k_exp_x: int):
    """Expansion of p^m x^n in normal order for one canonical pair.

    Yields (j, scalar) with the reordered term x^(n-j) p^(m-j) carrying
    scalar = C(m,j) C(n,j) j! (-i)^j.
    """
    m, n = k_exp_p, k_exp_x
    for j in range(min(m, n) + 1):
        coef = math.comb(m, j) * math.comb(n, j) * math.factorial(j)
        s = ExactScalar(coef)
        # (-i)^j
        for _ in range(j):
            s = s * ExactScalar(0, -1)
        yield j, s


class OperatorSymbol:
    """Normal-ordered polynomial in {t, x_k, p_k} with matrix coefficients."""

    __slots__ = ("d", "dim", "terms")

    def __init__(self, d: int, dim: int, terms: dict | None = None):
        self.d = d
        self.dim = dim
        self.terms: dict = {}
        if terms:
            for mono, mat in terms.items():
                self._add_term(mono, mat)

    def _add_term(self, mono: Monomial, mat: ExactMatrix) -> None:
        cur = self.terms.get(mono)
        new = mat if cur is None else cur + mat
        if new.is_zero():
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = new

    def coeff(self, mono: Monomial) -> ExactMatrix:
        return self.terms.get(mono, ExactMatrix.zero(self.dim))

    def copy(self) -> "OperatorSymbol":
        s = OperatorSymbol(self.d, self.dim)
        s.terms = dict(self.terms)
        return s

    def __add__(self, other: "OperatorSymbol") -> "OperatorSymbol":
        self._check(other)
        out = self.copy()
        for mono, mat in other.terms.items():
            out._add_term(mono, mat)
        return out

    def __sub__(self, other: "OperatorSymbol") -> "OperatorSymbol":
        return self + other.scale(ExactScalar(-1))

    def scale(self, c: ExactScalar) -> "OperatorSymbol":
        s = OperatorSymbol(self.d, self.dim)
        for mono, mat in self.terms.items():
            s._add_term(mono, mat.scale(c))
        return s

    def left_mul(self, mat: ExactMatrix) -> "OperatorSymbol":
        """Multiply every coefficient by ``mat`` on the left."""
        s = OperatorSymbol(self.d, self.dim)
        for mono, m in self.terms.items():
            s._add_term(mono, matmul(mat, m))
        return s

    def right_mul(self, mat: ExactMatrix) -> "OperatorSymbol":
        s = OperatorSymbol(self.d, self.dim)
        for mono, m in self.terms.items():
            s._add_term(mono, matmul(m, mat))
        return s

    def __mul__(self, other: "OperatorSymbol") -> "OperatorSymbol":
        """Symbol product with canonical reordering of p past x."""
        self._check(other)
        d = self.d
        out = OperatorSymbol(d, self.dim)
        for (t1, x1, p1), m1 in self.terms.items():
            for (t2, x2, p2), m2 in other.terms.items():
                mat = matmul(m1, m2)
                # reorder p1 (left factor) past x2 (right factor)
                per_var = [
                    list(_mul_vars(p1[k], x2[k])) for k in range(d)
                ]
                for choice in itertools.product(*per_var):
                    s = ONE
                    xe, pe = [], []
                    for k, (j, coef) in enumerate(choice):
                        s = s * coef
                        xe.append(x1[k] + x2[k] - j)
                        pe.append(p1[k] + p2[k] - j)
                    out._add_term(
                        (t1 + t2, tuple(xe), tuple(pe)), mat.scale(s)
                    )
        return out

    def commutator(self, other: "OperatorSymbol") -> "OperatorSymbol":
        return self * other - other * self

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorSymbol):
            return NotImplemented
        return (
            self.d == other.d
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def max_var_degree(self) -> int:
        deg = 0
        for t, x, p in self.terms:
            deg = max(deg, t, *x, *p) if self.d else max(deg, t)
        return deg

    def _check(self, other: "OperatorSymbol") -> None:
        if self.d != other.d or self.dim != other.dim:
            raise ValueError("operator symbols live on different spaces")

    def __repr__(self) -> str:
        return f"OperatorSymbol(d={self.d}, dim={self.dim}, terms={len(self.terms)})"


@dataclass(frozen=True)
class DiracModel:
    """A Dirac-type model for P(1,d): alphas, beta, mass and branch sign."""

    gamma: GammaSystem
    mass: Fraction
    branch: int = 1
    doubled: bool = False

    def __post_init__(self):
        if self.branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")
        object.__setattr__(self, "mass", Fraction(self.mass))

    @property
    def d(self) -> int:
        return self.gamma.d

    @property
    def dim(self) -> int:
        n = self.gamma.rep_dim
        return 2 * n if self.doubled else n

    @property
    def alphas(self) -> list[ExactMatrix]:
        base = self.gamma.alphas()
        if not self.doubled:
            return base
        return [block_diag(a, a) for a in base]

    @property
    def beta(self) -> ExactMatrix:
        b = self.gamma.beta
        if not self.doubled:
            return b
        return block_diag(b, -b)

    def hamiltonian_matrix(self, p) -> ExactMatrix:
        """H(p) for a rational momentum vector p of length d.

        One pass over the nonzero entries of the alphas and beta.
        """
        if len(p) != self.d:
            raise ValueError(f"momentum must have {self.d} components")
        n = self.dim
        rows = [[ZERO] * n for _ in range(n)]
        coeffs = [*p, self.branch * self.mass]
        for c, m in zip(coeffs, [*self.alphas, self.beta]):
            c = ExactScalar(Fraction(c))
            if not c:
                continue
            for out, r in zip(rows, m.rows):
                for j, v in enumerate(r):
                    if v:
                        s = out[j]
                        out[j] = c * v if s is ZERO else s + c * v
        return ExactMatrix._make(rows)


def block_diag(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """[[a, 0], [0, b]] as one exact matrix."""
    n = a.dim
    out = ExactMatrix.zero(2 * n)
    rows = [list(r) for r in out.rows]
    for i in range(n):
        for j in range(n):
            rows[i][j] = a.rows[i][j]
            rows[n + i][n + j] = b.rows[i][j]
    return ExactMatrix._make(rows)


def block_antidiag(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """[[0, a], [b, 0]] as one exact matrix."""
    n = a.dim
    out = ExactMatrix.zero(2 * n)
    rows = [list(r) for r in out.rows]
    for i in range(n):
        for j in range(n):
            rows[i][n + j] = a.rows[i][j]
            rows[n + i][j] = b.rows[i][j]
    return ExactMatrix._make(rows)


def model_for(
    d: int,
    mass=1,
    branch: int = 1,
    doubled: bool = False,
) -> DiracModel:
    return DiracModel(
        gamma=system_for(d), mass=Fraction(mass), branch=branch, doubled=doubled
    )


def doubled(model: DiracModel) -> DiracModel:
    """Join both energy branches into one block-diagonal model."""
    if model.doubled:
        raise ValueError("model is already doubled")
    return replace(model, doubled=True, branch=1)


def hamiltonian(model: DiracModel) -> OperatorSymbol:
    """H = sum_k alpha_k p_k + branch * mass * beta as a symbol."""
    d, n = model.d, model.dim
    sym = OperatorSymbol(d, n)
    for k, ak in enumerate(model.alphas, start=1):
        sym._add_term(p_monomial(d, k), ak)
    if model.mass:
        sym._add_term(
            unit_monomial(d),
            model.beta.scale(ExactScalar(model.branch * model.mass)),
        )
    return sym


def generator(model: DiracModel, which: str, k: int = 0, l: int = 0) -> OperatorSymbol:
    """One Poincare-type generator as a normal-ordered symbol.

    which: "P0", "Pk" (needs k), "Jkl" (needs k < l), "J0k" (needs k).
    The J0k symbol is the normal-ordered form t*p_k - x_k*H + (i/2)*alpha_k,
    the symmetrized boost reordered with [x_k, p_l] = i*delta_kl.
    """
    d, n = model.d, model.dim
    ident = ExactMatrix.identity(n)
    sym = OperatorSymbol(d, n)
    if which == "P0":
        return hamiltonian(model)
    if which == "Pk":
        _check_index(k, d)
        sym._add_term(p_monomial(d, k), ident)
        return sym
    if which == "Jkl":
        _check_index(k, d)
        _check_index(l, d)
        if k == l:
            raise ValueError("Jkl needs two distinct spatial indices")
        xk_pl = _mono_xp(d, k, l)
        xl_pk = _mono_xp(d, l, k)
        sym._add_term(xk_pl, ident)
        sym._add_term(xl_pk, -ident)
        spin = matmul(model.alphas[l - 1], model.alphas[k - 1]).scale(
            ExactScalar(0, Fraction(1, 2))
        )
        sym._add_term(unit_monomial(d), spin)
        return sym
    if which == "J0k":
        _check_index(k, d)
        tmono = (1, *p_monomial(d, k)[1:])
        sym._add_term(tmono, ident)
        h = hamiltonian(model)
        xk = OperatorSymbol(d, n)
        xk._add_term(x_monomial(d, k), ident)
        sym = sym - (xk * h)
        sym._add_term(
            unit_monomial(d),
            model.alphas[k - 1].scale(ExactScalar(0, Fraction(1, 2))),
        )
        return sym
    raise ValueError(f"unknown generator kind: {which}")


def _mono_xp(d: int, xk: int, pl: int) -> Monomial:
    xe = [0] * d
    pe = [0] * d
    xe[xk - 1] = 1
    pe[pl - 1] = 1
    return (0, tuple(xe), tuple(pe))


def _check_index(k: int, d: int) -> None:
    if not 1 <= k <= d:
        raise ValueError(f"index {k} out of range 1..{d}")


def square_of_hamiltonian(model: DiracModel) -> OperatorSymbol:
    """H*H as a symbol; collapses to (sum_k p_k^2 + mass^2) * I."""
    h = hamiltonian(model)
    return h * h


def dispersion_scalar(model: DiracModel) -> OperatorSymbol | None:
    """The scalar symbol S with H^2 == S*I, or None if H^2 is not scalar."""
    sq = square_of_hamiltonian(model)
    out = OperatorSymbol(model.d, 1)
    for mono, mat in sq.terms.items():
        c = mat.scalar_multiple_of_identity()
        if c is None:
            return None
        out._add_term(mono, ExactMatrix([[c]]))
    return out
