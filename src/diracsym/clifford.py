"""Gamma-matrix systems for the groups P(1,d), d even.

Every gamma is one phase times one Pauli string, i^k * X^x Z^z
(``pauli``), and a system holds the d+1 terms (1, k, x, z); the dense
matrices are their encodings.  The d=2 base system lives on one qubit;
higher dimensions are built by a doubling step that adds one.  Two conventions
are fixed here once and for all:

* Metric (+, -, -, ..., -): gamma_0 squares to +I, spatial gammas to -I.
* The doubling step maps old gammas to ``gamma ox sigma_3`` and appends
  ``i*(1 ox sigma_2)`` and ``i*(1 ox sigma_1)`` as the two new spatial
  gammas.  The factor i is a normalization so the new spatial gammas
  square to -I; the sigma assignment is chosen so that the reality
  pattern of the derived alpha matrices (alpha_odd real, alpha_even
  imaginary, beta real) is preserved at every even d.  That pattern is
  what makes the classical intertwiner matrices (alpha_1*alpha_3 and
  friends) come out literally, not just up to a change of basis.

In terms: the d=2 gammas are Z, -XZ and -iX, with phase exponents
k = 0, 2 and 3.  The new qubit of a doubling step is bit 0 of the basis
index, as in ``kron(gamma, s3)``: the old masks shift up one bit, the
old gammas gain Z on bit 0 and keep their k, and the two new gammas are
-XZ (k = 2) and iX (k = 1) on bit 0 alone.  Every magnitude is the int
1, so the alphas and the gamma monomials are integer products and no
exact scalar is made until a matrix is encoded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import pauli
from .exact import ExactMatrix, matmul


@dataclass(frozen=True)
class GammaSystem:
    """d+1 gamma matrices with metric diag(+1, -1, ..., -1), held as the
    Pauli terms (r, k, x, z) of gamma_0 ... gamma_d."""

    d: int
    strings: tuple

    @cached_property
    def alpha(self) -> tuple:
        """alpha_k = gamma_0 * gamma_k for k = 1..d, as terms, derived
        from ``strings`` on first use and then held by the system."""
        g0 = self.strings[0]
        return tuple(pauli.mul(g0, g) for g in self.strings[1:])

    @property
    def rep_dim(self) -> int:
        return 2 ** (self.d // 2)

    def metric(self, mu: int, nu: int) -> int:
        if mu != nu:
            return 0
        return 1 if mu == 0 else -1

    @property
    def gammas(self) -> tuple:
        """gamma_0 ... gamma_d as dense matrices."""
        n = self.rep_dim
        return tuple(pauli.encode(*s, n) for s in self.strings)

    @property
    def gamma0(self) -> ExactMatrix:
        return pauli.encode(*self.strings[0], self.rep_dim)

    def check_relations(self) -> list[dict]:
        """Per-pair Clifford relation report, checked on the dense
        matrices independently of the string recursion (all exact)."""
        report = []
        gammas = self.gammas
        ident = ExactMatrix.identity(self.rep_dim)
        for mu in range(self.d + 1):
            for nu in range(mu, self.d + 1):
                lhs = matmul(gammas[mu], gammas[nu]) + matmul(gammas[nu], gammas[mu])
                want = ident.scale(2 * self.metric(mu, nu))
                report.append(
                    {"mu": mu, "nu": nu, "ok": lhs == want}
                )
        return report

    def relations_hold(self) -> bool:
        return all(r["ok"] for r in self.check_relations())


@dataclass(frozen=True)
class CliffordMonomial:
    """Ordered product of a subset of the gammas, as one term (r, k, x, z);
    ``pauli.encode(*string, n)`` is its matrix."""

    index_subset: tuple
    string: tuple


def base_system() -> GammaSystem:
    """The d=2 system: gamma_0 = s3, gamma_1 = s3*s1, gamma_2 = s3*s2,
    the strings Z, -XZ and -iX: phase exponents 0, 2 and 3.

    The derived alpha_1, alpha_2, beta are then s1, s2, s3.
    """
    return GammaSystem(d=2, strings=((1, 0, 0, 1), (1, 2, 1, 1), (1, 3, 1, 0)))


def extend(gs: GammaSystem) -> GammaSystem:
    """Doubling step P(1,d) -> P(1,d+2); the new qubit is bit 0."""
    old = tuple((r, k, x << 1, z << 1 | 1) for r, k, x, z in gs.strings)
    new = ((1, 2, 1, 1), (1, 1, 1, 0))  # -XZ and iX
    return GammaSystem(d=gs.d + 2, strings=old + new)


def system_for(d: int) -> GammaSystem:
    """Gamma system for P(1,d): base system plus (d-2)/2 doubling steps."""
    if d < 2 or d % 2 != 0:
        raise ValueError(f"spatial dimension must be even and >= 2, got {d}")
    gs = base_system()
    while gs.d < d:
        gs = extend(gs)
    return gs


def monomial_basis(gs: GammaSystem, max_degree: int) -> list[CliffordMonomial]:
    """All ordered-subset gamma products of degree <= max_degree.

    Deterministic order: by degree, then lexicographically by subset.
    """
    if max_degree > gs.d + 1:
        raise ValueError("max_degree exceeds the number of gammas")
    out = []
    for deg in range(max_degree + 1):
        for subset in itertools.combinations(range(gs.d + 1), deg):
            s = (1, 0, 0, 0)
            for idx in subset:
                s = pauli.mul(s, gs.strings[idx])
            out.append(CliffordMonomial(subset, s))
    return out
