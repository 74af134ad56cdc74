"""Dynamical objects: Dirac-type Hamiltonians and Poincare-type generators.

The generators are given in closed form as {monomial: Pauli term}: a
monomial in t, x_1..x_d, p_1..p_d in normal order (every x factor left of
every p factor), and one term (r, k, x, z) = r * i^k * X^x Z^z of
``pauli`` as its matrix coefficient, so every coefficient is real or
imaginary by construction.  ``verify_tau`` works on these terms; the
solver reads its rows off their term types instead
(``symmetry._string_rows``).
Dense operator symbols, normal-ordered polynomials with exact matrix
coefficients, and their product, which implements [x_k, p_l] = i*delta_kl
and checks the closed forms, are in the tests' dense oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from . import pauli
from .clifford import GammaSystem, system_for
from .exact import ExactMatrix

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


def rotation_label(k: int, l: int) -> str:
    """Jkl for k < l, or Jk,l when l >= 10: J1,112 and J11,12 stay apart."""
    return f"J{k}{l}" if l < 10 else f"J{k},{l}"


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
    def beta_string(self) -> tuple:
        """beta = gamma_0 as a term.  A doubled model gains Z on its top
        qubit, diag(beta, -beta), and is the identity there on the alphas,
        whose terms ``gamma.alpha`` therefore serve both."""
        r, k, x, z = self.gamma.strings[0]
        if self.doubled:
            z |= self.gamma.rep_dim
        return r, k, x, z

    @property
    def beta(self) -> ExactMatrix:
        return pauli.encode(*self.beta_string, self.dim)

    @cached_property
    def generators(self) -> list:
        """Every generator as (class, label, {monomial: term}), grouped
        by class in a fixed order: P0, the d momenta, the d(d-1)/2
        rotations Jkl (k < l), the d boosts.  Built once per model."""
        d = self.d
        return [
            ("P0", "P0", generator(self, "P0")),
            *(("Pk", f"P{k}", generator(self, "Pk", k=k)) for k in range(1, d + 1)),
            *(
                ("Jkl", rotation_label(k, l), generator(self, "Jkl", k=k, l=l))
                for k in range(1, d + 1)
                for l in range(k + 1, d + 1)
            ),
            *(("J0k", f"J0{k}", generator(self, "J0k", k=k)) for k in range(1, d + 1)),
        ]

    def hamiltonian_strings(self, p) -> list:
        """The terms (r, k, x, z) of H(p) for a rational momentum vector p of
        length d: p_k times alpha_k and branch*mass times beta, the zero
        coefficients dropped.  A coefficient scales the magnitude alone, so
        the magnitude of a unit string is the coefficient itself."""
        if len(p) != self.d:
            raise ValueError(f"momentum must have {self.d} components")
        coeffs = [*p, self.branch * self.mass]
        strings = [*self.gamma.alpha, self.beta_string]
        terms = []
        for coef, (r, k, x, z) in zip(coeffs, strings):
            if coef:
                if type(coef) is not Fraction:
                    coef = Fraction(coef)
                terms.append((coef if r == 1 else coef * r, k, x, z))
        return terms

    def hamiltonian_matrix(self, p) -> ExactMatrix:
        """H(p) as a dense matrix, the encoding of ``hamiltonian_strings``."""
        return pauli.encode_sum(self.hamiltonian_strings(p), self.dim)


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


_IDENTITY = (1, 0, 0, 0)
_HALF = Fraction(1, 2)


def generator(model: DiracModel, which: str, k: int = 0, l: int = 0) -> dict:
    """One Poincare-type generator in closed form, as {monomial: term}.

    which: "P0", "Pk" (needs k), "Jkl" (needs k < l), "J0k" (needs k).
    With bm = branch*mass, and the beta terms dropped when the mass is 0:

        P0  = sum_j alpha_j p_j + bm*beta
        Pk  = p_k
        Jkl = x_k p_l - x_l p_k + (i/2)*alpha_l*alpha_k
        J0k = t p_k - sum_j alpha_j x_k p_j - bm*beta x_k + (i/2)*alpha_k

    J0k is t*p_k - x_k*H + (i/2)*alpha_k, the symmetrized boost
    t*p_k - (x_k*H + H*x_k)/2 reordered with [x_k, p_l] = i*delta_kl.
    The alpha and beta terms are the ones the gamma system holds, and a
    scaled term changes only the phase exponent and the magnitude:
    -alpha_j and -bm*beta add 2 to the exponent, (i/2)*alpha_k adds 1 and
    halves the magnitude, and bm*beta scales the magnitude by bm.  The
    only string product is alpha_l*alpha_k in Jkl.
    """
    d = model.d
    if which == "P0":
        gen = {p_monomial(d, j): a for j, a in enumerate(model.gamma.alpha, start=1)}
        if model.mass:
            r, ph, x, z = model.beta_string
            gen[unit_monomial(d)] = model.branch * model.mass * r, ph, x, z
        return gen
    if which == "Pk":
        _check_index(k, d)
        return {p_monomial(d, k): _IDENTITY}
    if which == "Jkl":
        _check_index(k, d)
        _check_index(l, d)
        if k == l:
            raise ValueError("Jkl needs two distinct spatial indices")
        alphas = model.gamma.alpha
        r, phase, x, z = pauli.mul(alphas[l - 1], alphas[k - 1])
        return {
            _mono_xp(d, k, l): _IDENTITY,
            _mono_xp(d, l, k): (1, 2, 0, 0),
            unit_monomial(d): (_HALF * r, (phase + 1) & 3, x, z),
        }
    if which == "J0k":
        _check_index(k, d)
        alphas = model.gamma.alpha
        gen = {(1, *p_monomial(d, k)[1:]): _IDENTITY}
        for j, (r, ph, x, z) in enumerate(alphas, start=1):
            gen[_mono_xp(d, k, j)] = r, (ph + 2) & 3, x, z
        if model.mass:
            r, ph, x, z = model.beta_string
            gen[x_monomial(d, k)] = model.branch * model.mass * r, (ph + 2) & 3, x, z
        r, ph, x, z = alphas[k - 1]
        gen[unit_monomial(d)] = _HALF * r, (ph + 1) & 3, x, z
        return gen
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
