"""Gamma-matrix systems for the groups P(1,d), d even.

The d=2 base system lives on 2x2 Pauli matrices; higher dimensions are
built by a tensor-product doubling step.  Two conventions are fixed here
once and for all:

* Metric (+, -, -, ..., -): gamma_0 squares to +I, spatial gammas to -I.
* The doubling step maps old gammas to ``gamma ox sigma_3`` and appends
  ``i*(1 ox sigma_2)`` and ``i*(1 ox sigma_1)`` as the two new spatial
  gammas.  The factor i is a normalization so the new spatial gammas
  square to -I; the sigma assignment is chosen so that the reality
  pattern of the derived alpha matrices (alpha_odd real, alpha_even
  imaginary, beta real) is preserved at every even d.  That pattern is
  what makes the classical intertwiner matrices (alpha_1*alpha_3 and
  friends) come out literally, not just up to a change of basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .exact import ExactMatrix, ExactScalar, I_UNIT, kron, matmul, rank

SIGMA1 = ExactMatrix([[0, 1], [1, 0]])
SIGMA2 = ExactMatrix(
    [
        [ExactScalar(0), ExactScalar(0, -1)],
        [ExactScalar(0, 1), ExactScalar(0)],
    ]
)
SIGMA3 = ExactMatrix([[1, 0], [0, -1]])
I2 = ExactMatrix.identity(2)


@dataclass(frozen=True)
class GammaSystem:
    """d+1 gamma matrices with metric diag(+1, -1, ..., -1)."""

    d: int
    gammas: tuple  # gamma_0 ... gamma_d, ExactMatrix each

    @property
    def rep_dim(self) -> int:
        return 2 ** (self.d // 2)

    def metric(self, mu: int, nu: int) -> int:
        if mu != nu:
            return 0
        return 1 if mu == 0 else -1

    @property
    def gamma0(self) -> ExactMatrix:
        return self.gammas[0]

    def alphas(self) -> list[ExactMatrix]:
        """alpha_k = gamma_0 * gamma_k for k = 1..d."""
        g0 = self.gammas[0]
        return [matmul(g0, g) for g in self.gammas[1:]]

    @property
    def beta(self) -> ExactMatrix:
        return self.gammas[0]

    def check_relations(self) -> list[dict]:
        """Per-pair Clifford relation report (all exact)."""
        report = []
        n = self.rep_dim
        ident = ExactMatrix.identity(n)
        for mu in range(self.d + 1):
            for nu in range(mu, self.d + 1):
                lhs = matmul(self.gammas[mu], self.gammas[nu]) + matmul(
                    self.gammas[nu], self.gammas[mu]
                )
                want = ident.scale(2 * self.metric(mu, nu))
                report.append(
                    {"mu": mu, "nu": nu, "ok": lhs == want}
                )
        return report

    def relations_hold(self) -> bool:
        return all(r["ok"] for r in self.check_relations())


@dataclass(frozen=True)
class CliffordMonomial:
    """Ordered product of a subset of the gammas."""

    index_subset: tuple
    matrix: ExactMatrix


def base_system() -> GammaSystem:
    """The d=2 system: gamma_0 = s3, gamma_1 = s3*s1, gamma_2 = s3*s2.

    The derived alpha_1, alpha_2, beta are then s1, s2, s3.
    """
    return GammaSystem(
        d=2,
        gammas=(
            SIGMA3,
            matmul(SIGMA3, SIGMA1),
            matmul(SIGMA3, SIGMA2),
        ),
    )


def extend(gs: GammaSystem) -> GammaSystem:
    """Doubling step P(1,d) -> P(1,d+2); rep dimension doubles."""
    old = [kron(g, SIGMA3) for g in gs.gammas]
    n = gs.rep_dim
    ident = ExactMatrix.identity(n)
    new1 = kron(ident, SIGMA2).scale(I_UNIT)
    new2 = kron(ident, SIGMA1).scale(I_UNIT)
    return GammaSystem(d=gs.d + 2, gammas=tuple(old) + (new1, new2))


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
    ident = ExactMatrix.identity(gs.rep_dim)
    indices = range(gs.d + 1)
    for deg in range(max_degree + 1):
        for subset in itertools.combinations(indices, deg):
            m = ident
            for idx in subset:
                m = matmul(m, gs.gammas[idx])
            out.append(CliffordMonomial(index_subset=subset, matrix=m))
    return out


def monomials_span_full_space(gs: GammaSystem) -> bool:
    """Exact rank check: degree <= d+1 monomials span all matrices."""
    n = gs.rep_dim
    mons = monomial_basis(gs, gs.d + 1)
    rows = []
    for mon in mons:
        rows.append(
            [mon.matrix[i, j] for i in range(n) for j in range(n)]
        )
    return rank(rows) == n * n
