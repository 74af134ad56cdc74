"""Discrete-symmetry candidates, intertwiner solving, and classification.

A candidate S = tau o K^a o R acts by an (anti)linear matrix tau, optional
complex conjugation K, and a coordinate reflection R.  For each generator
class it prescribes a bracket sign eps, and the intertwiner equation

    tau * T(G) - eps * G * tau == 0

is identified coefficient-by-coefficient on the orbital monomials of G.
T(G) is the transformed generator symbol: t -> t_sign*t, x -> x_sign*x,
p -> x_sign*p (with an extra sign flip of p and conjugated matrix
coefficients when S is antilinear).  The resulting homogeneous linear
system in the entries of tau is solved by exact nullspace computation.
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .clifford import monomial_basis
from .exact import (
    ExactMatrix,
    ExactScalar,
    ONE,
    ZERO,
    _Rref,
    nullspace_from_rref,
)
from .models import (
    DiracModel,
    OperatorSymbol,
    generator,
    model_for,
)

GENERATOR_CLASSES = ("P0", "Pk", "Jkl", "J0k")


@dataclass(frozen=True)
class SymmetryCandidate:
    """A discrete-symmetry specification."""

    name: str
    antilinear: bool
    t_sign: int
    x_sign: int
    # generator class -> bracket sign: +1 commute, -1 anticommute
    signature: tuple

    def __post_init__(self):
        if self.t_sign not in (1, -1) or self.x_sign not in (1, -1):
            raise ValueError("coordinate signs must be +1 or -1")
        sig = dict(self.signature)
        if set(sig) != set(GENERATOR_CLASSES) or not all(
            v in (1, -1) for v in sig.values()
        ):
            raise ValueError("signature must map every generator class to +-1")

    def eps(self, cls: str) -> int:
        return dict(self.signature)[cls]


def _cand(name, antilinear, t_sign, x_sign, p0, pk, jkl, j0k):
    return SymmetryCandidate(
        name=name,
        antilinear=antilinear,
        t_sign=t_sign,
        x_sign=x_sign,
        signature=(("P0", p0), ("Pk", pk), ("Jkl", jkl), ("J0k", j0k)),
    )


# Built-in candidates.  Tp uses the workable bracket signature
# {P0: anti, Pk: commute, Jkl: commute, J0k: anti}: with a linear
# time-reflection operator, an anticommuting-Pk bracket is already
# unsatisfiable on the orbital variables alone (it reads 2*tau*p_k = 0),
# so it cannot express the intended nontrivial condition on tau.  The
# literal variant is kept available as TP_LITERAL.
TP = _cand("Tp", antilinear=False, t_sign=-1, x_sign=1, p0=-1, pk=1, jkl=1, j0k=-1)
TP_LITERAL = _cand(
    "Tp-literal", antilinear=False, t_sign=-1, x_sign=1, p0=-1, pk=-1, jkl=1, j0k=-1
)
TW = _cand("Tw", antilinear=True, t_sign=-1, x_sign=1, p0=1, pk=-1, jkl=-1, j0k=1)
C = _cand("C", antilinear=True, t_sign=1, x_sign=1, p0=-1, pk=-1, jkl=-1, j0k=-1)
PARITY = _cand("P", antilinear=False, t_sign=1, x_sign=-1, p0=1, pk=-1, jkl=1, j0k=-1)

BUILTIN = {c.name: c for c in (PARITY, TP, TW, C)}


def composite_candidate(
    c1: SymmetryCandidate, c2: SymmetryCandidate, name: str | None = None
) -> SymmetryCandidate:
    """Candidate for the operator product c1 o c2."""
    sig = tuple(
        (cls, c1.eps(cls) * c2.eps(cls)) for cls in GENERATOR_CLASSES
    )
    return SymmetryCandidate(
        name=name or (c1.name + c2.name),
        antilinear=c1.antilinear != c2.antilinear,
        t_sign=c1.t_sign * c2.t_sign,
        x_sign=c1.x_sign * c2.x_sign,
        signature=sig,
    )


# Composite classification columns.  PTC is the product P o Tw o C: both
# antilinear factors cancel, so the full reflection is a linear operator.
TPC = composite_candidate(TP, C, "TpC")
TWC = composite_candidate(TW, C, "TwC")
PTC = composite_candidate(composite_candidate(PARITY, TW), C, "PTC")

CLASSIFY_ORDER = ("P", "Tp", "Tw", "C", "TpC", "TwC", "PTC")
CANDIDATES = dict(BUILTIN)
CANDIDATES.update({c.name: c for c in (TPC, TWC, PTC)})
CANDIDATES[TP_LITERAL.name] = TP_LITERAL


def transform(sym: OperatorSymbol, cand: SymmetryCandidate) -> OperatorSymbol:
    """Apply the candidate's coordinate/conjugation calculus to a symbol.

    tau is deliberately not applied; the result is T(G) so that the
    intertwiner constraint reads tau*T(G) = eps*G*tau.
    """
    p_sign = cand.x_sign * (-1 if cand.antilinear else 1)
    out = OperatorSymbol(sym.d, sym.dim)
    for (t, x, p), mat in sym.terms.items():
        sign = (
            cand.t_sign**t
            * cand.x_sign ** sum(x)
            * p_sign ** sum(p)
        )
        m = mat.conj() if cand.antilinear else mat
        if sign < 0:
            m = -m
        out._add_term((t, x, p), m)
    return out


@dataclass
class TauSolution:
    """Exact solution space of one intertwiner equation."""

    candidate: SymmetryCandidate
    d: int
    variant: str
    basis: list
    dim: int
    representative: ExactMatrix | None
    invertible_representative: ExactMatrix | None
    square_phase: ExactScalar | None
    orbital_inconsistencies: list
    ansatz: str

    @property
    def exists(self) -> bool:
        """Invertibility is required: a singular tau is no symmetry."""
        return self.invertible_representative is not None


def _generators(model: DiracModel):
    """Deterministic generator list, grouped by class."""
    d = model.d
    gens = [("P0", "P0", generator(model, "P0"))]
    for k in range(1, d + 1):
        gens.append(("Pk", f"P{k}", generator(model, "Pk", k=k)))
    for k in range(1, d + 1):
        for l in range(k + 1, d + 1):
            gens.append(("Jkl", f"J{k}{l}", generator(model, "Jkl", k=k, l=l)))
    for k in range(1, d + 1):
        gens.append(("J0k", f"J0{k}", generator(model, "J0k", k=k)))
    return gens


def _sparse_cols(m: ExactMatrix):
    n = m.dim
    cols = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = m.rows[i][j]
            if v:
                cols[j].append((i, v))
    return cols


def _sparse_rows(m: ExactMatrix):
    return [
        [(j, v) for j, v in enumerate(r) if v] for r in m.rows
    ]


def _constraint_pairs(model: DiracModel, cand: SymmetryCandidate, include_j: bool):
    """Yield (label, A, B, eps) with the per-monomial constraint
    tau*A - eps*B*tau = 0, plus a list of orbital inconsistencies."""
    inconsistencies = []
    pairs = []
    for cls, label, g in _generators(model):
        if not include_j and cls in ("Jkl", "J0k"):
            continue
        eps = cand.eps(cls)
        tg = transform(g, cand)
        monos = sorted(set(g.terms) | set(tg.terms))
        for mono in monos:
            a = tg.coeff(mono)
            b = g.coeff(mono)
            if a.is_zero() and b.is_zero():
                continue
            sa = a.scalar_multiple_of_identity()
            sb = b.scalar_multiple_of_identity()
            if sa is not None and sb is not None:
                resid = sa - ExactScalar(eps) * sb
                if resid.is_zero():
                    continue  # identically satisfied, no condition on tau
                inconsistencies.append(
                    {"generator": label, "monomial": mono, "scale": resid}
                )
            pairs.append((label, a, b, eps))
    return pairs, inconsistencies


def _constraint_rows(n: int, pairs):
    """Yield the nonzero sparse rows of tau*A - eps*B*tau = 0, one per
    entry (i, j) of every pair; unknown i*n + k is the entry tau[i][k]."""
    for _, a, b, eps in pairs:
        acols = _sparse_cols(a)
        brows = _sparse_rows(b)
        e = ExactScalar(eps)
        for i in range(n):
            bi = brows[i]
            for j in range(n):
                row = {}
                for k, av in acols[j]:
                    c = i * n + k
                    row[c] = row.get(c, ZERO) + av
                for k, bv in bi:
                    c = k * n + j
                    nv = row.get(c, ZERO) - e * bv
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
                row = {c: v for c, v in row.items() if v}
                if row:
                    yield row


def _solve_full(model, pairs):
    n = model.dim
    rref = _Rref()
    for row in _constraint_rows(n, pairs):
        rref.add_row(row)
    return [
        ExactMatrix._make([list(v[i * n : (i + 1) * n]) for i in range(n)])
        for v in nullspace_from_rref(rref, n * n)
    ]


def _solve_span(model, pairs, span):
    """The full system under the change of variables tau = sum_s c_s span[s].

    Each row sum_e r_e tau_e becomes sum_s (sum_e r_e span[s]_e) c_s, the
    (i, j) entry of span[s]*A - eps*B*span[s], with no matrix product.
    """
    n = model.dim
    # entry position -> [(s, nonzero entry of span[s] there)]
    members_at = {}
    for s, m in enumerate(span):
        for i, r in enumerate(m.rows):
            for k, v in enumerate(r):
                if v:
                    members_at.setdefault(i * n + k, []).append((s, v))
    rref = _Rref()
    for row in _constraint_rows(n, pairs):
        sub = {}
        for c, rv in row.items():
            for s, mv in members_at.get(c, ()):
                sub[s] = sub.get(s, ZERO) + rv * mv
        sub = {s: v for s, v in sub.items() if v}
        if sub:
            rref.add_row(sub)
    basis = []
    for v in nullspace_from_rref(rref, len(span)):
        m = ExactMatrix.zero(n)
        for coef, mat in zip(v, span):
            if coef:
                m = m + mat.scale(coef)
        basis.append(m)
    return basis


def clifford2_span(model: DiracModel) -> list[ExactMatrix]:
    """Degree <= 2 gamma-monomial span (the restricted ansatz space)."""
    if model.doubled:
        raise ValueError("the restricted ansatz is defined for single models")
    return [m.matrix for m in monomial_basis(model.gamma, 2)]


def _normalize(m: ExactMatrix) -> ExactMatrix:
    """Rescale so the first nonzero entry (row-major) is exactly 1."""
    for r in m.rows:
        for v in r:
            if v:
                return m.scale(ONE / v)
    return m


_COMBO_WEIGHTS = (0, 1, -1, 2, -2)


def _invertible_element(basis: list) -> ExactMatrix | None:
    """Deterministic scan for an invertible member of the solution space."""
    for b in basis:
        if b.is_invertible():
            return _normalize(b)
    k = len(basis)
    if k <= 1:
        return None
    if k <= 4:
        for weights in itertools.product(_COMBO_WEIGHTS, repeat=k):
            if all(w == 0 for w in weights):
                continue
            m = ExactMatrix.zero(basis[0].dim)
            for w, b in zip(weights, basis):
                if w:
                    m = m + b.scale(ExactScalar(w))
            if m.is_invertible():
                return _normalize(m)
        return None
    rng = random.Random(0)
    for _ in range(200):
        m = ExactMatrix.zero(basis[0].dim)
        for b in basis:
            w = rng.randint(-3, 3)
            if w:
                m = m + b.scale(ExactScalar(w))
        if not m.is_zero() and m.is_invertible():
            return _normalize(m)
    return None


def solve_tau(
    model: DiracModel,
    cand: SymmetryCandidate,
    ansatz: str = "full",
    include_j: bool = True,
    variant: str = "",
) -> TauSolution:
    """Solve the intertwiner equation of one candidate exactly."""
    pairs, inconsistencies = _constraint_pairs(model, cand, include_j)
    if ansatz == "full":
        basis = _solve_full(model, pairs)
    elif ansatz == "clifford2":
        basis = _solve_span(model, pairs, clifford2_span(model))
    else:
        raise ValueError(f"unknown ansatz mode: {ansatz}")
    representative = _normalize(basis[0]) if basis else None
    invertible = _invertible_element(basis)
    phase = None
    if len(basis) == 1 and invertible is not None:
        rep = invertible
        sq = rep @ (rep.conj() if cand.antilinear else rep)
        phase = sq.scalar_multiple_of_identity()
    return TauSolution(
        candidate=cand,
        d=model.d,
        variant=variant,
        basis=basis,
        dim=len(basis),
        representative=representative,
        invertible_representative=invertible,
        square_phase=phase,
        orbital_inconsistencies=inconsistencies,
        ansatz=ansatz,
    )


def verify_tau(
    model: DiracModel,
    cand: SymmetryCandidate,
    tau: ExactMatrix,
    include_j: bool = True,
) -> bool:
    """Re-check tau*T(G) - eps*G*tau == 0 by direct symbol algebra.

    Independent of the nullspace solver: works on whole generator
    symbols, not on the assembled row system.
    """
    for cls, _, g in _generators(model):
        if not include_j and cls in ("Jkl", "J0k"):
            continue
        eps = ExactScalar(cand.eps(cls))
        lhs = transform(g, cand).left_mul(tau)
        rhs = g.right_mul(tau).scale(eps)
        if not (lhs - rhs).is_zero():
            return False
    return True


def compose(
    c1: SymmetryCandidate,
    tau1: ExactMatrix,
    c2: SymmetryCandidate,
    tau2: ExactMatrix,
    name: str | None = None,
):
    """Operator product of two solved symmetries: candidate plus tau."""
    cand = composite_candidate(c1, c2, name)
    t2 = tau2.conj() if c1.antilinear else tau2
    return cand, tau1 @ t2


@dataclass
class ClassificationRecord:
    """Per-candidate existence table for one (d, variant) cell."""

    d: int
    variant: str
    entries: dict = field(default_factory=dict)


VARIANTS = ("single", "single-", "doubled", "massless")


def model_for_variant(d: int, variant: str, mass=1) -> DiracModel:
    if variant == "single":
        return model_for(d, mass=mass, branch=1)
    if variant == "single-":
        return model_for(d, mass=mass, branch=-1)
    if variant == "doubled":
        return model_for(d, mass=mass, branch=1, doubled=True)
    if variant == "massless":
        return model_for(d, mass=0, branch=1)
    raise ValueError(f"unknown variant: {variant}")


def _solve_cell(args):
    d, variant, cand_name, mass = args
    model = model_for_variant(d, variant, mass=mass)
    sol = solve_tau(model, CANDIDATES[cand_name], variant=variant)
    return (d, variant, cand_name, sol)


def classify(
    dims,
    variants=("single",),
    mass=1,
    jobs: int = 1,
    candidates=CLASSIFY_ORDER,
) -> list[ClassificationRecord]:
    """Existence table over (d, variant, candidate) cells.

    Cells are independent and pure; with jobs > 1 they are distributed
    over at most one worker process per cell and merged back in
    deterministic order.
    """
    cells = [
        (d, v, c, mass)
        for d in sorted(dims)
        for v in variants
        for c in candidates
    ]
    workers = min(jobs, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_solve_cell, cells))
    else:
        results = [_solve_cell(c) for c in cells]
    by_key = {(d, v, c): sol for d, v, c, sol in results}
    records = []
    for d in sorted(dims):
        for v in variants:
            rec = ClassificationRecord(d=d, variant=v)
            for c in candidates:
                sol = by_key[(d, v, c)]
                rec.entries[c] = sol
            records.append(rec)
    return records
