"""Discrete-symmetry candidates, intertwiner solving, and classification.

A candidate S = tau o K^a o R acts by an (anti)linear matrix tau, optional
complex conjugation K, and a coordinate reflection R.  For each generator
class it prescribes a bracket sign eps, and the intertwiner equation

    tau * T(G) - eps * G * tau == 0

is identified coefficient-by-coefficient on the orbital monomials of G.
T(G) is the transformed generator (``transform``): t -> t_sign*t,
x -> x_sign*x, p -> x_sign*p (with an extra sign flip of p and conjugated
coefficients when S is antilinear).

The generators are given in closed form, every coefficient one Pauli
term q*i^k*P (``models.generator``), so the equation is diagonal in
strings: a string tau either solves all of it or none of it, and the
strings that solve it are the solutions of an affine system over GF(2)
(``pauli``) with one row per distinct coefficient string.  A row's
right-hand side is an integer sign: a coefficient q*i^k*P keeps its
rational size q under T, so the monomial's sign and, for an antilinear
S, the parity of k decide it.  Each term is one of ten types, with
bm = branch*mass:

    (P0, p_j, alpha_j), (P0, 1, bm*beta), (Pk, p_k, I),
    (Jkl, x_k*p_l, I), (Jkl, x_l*p_k, -I), (Jkl, 1, (i/2)*alpha_l*alpha_k),
    (J0k, t*p_k, I), (J0k, x_k*p_j, -alpha_j), (J0k, x_k, -bm*beta),
    (J0k, 1, (i/2)*alpha_k).

A type fixes the term's sign, and the gamma phase exponents fix whether
its coefficient is real or imaginary.  The identity-string terms p_k,
+-x_k*p_l and t*p_k are a real +-1 on I, so a candidate whose eps differs
from one of their signs holds 0 = 1 and is absent, whatever its other
rows say (``_string_rows``).  Otherwise the rows are read off the P0 and
J0k types and the masks of beta and alpha_j: no generator is built, and
no string product or scalar arithmetic is done.  The rotations are
brackets of boosts, Jkl = i[J0k, J0l], so their other rows are not read.
``include_j=False`` reads the P0 and Pk types only.  Exact scalars enter
only the orbital residuals of identity-string terms.

The dense outputs are written down from the packed solution strings,
with entries +-1 and 0 only (``_solve_strings``): within one x mask the z
masks form z0 + V, rows r and r' fall in one class when (r^r').v = 0 for
every v in V, and each class is one basis matrix, signed relative to its
last row.  That is the basis an exact RREF of the dense strings gives,
with no elimination, rescaling or product.  Every string is unitary, so
a candidate is a symmetry exactly when a solution string exists, and
the first one is the reported invertible representative: no search over
the span is needed.  The clifford2 ansatz reads its basis off the span's
strings too (``_solve_span``): each span member on a solution string is
one basis matrix, its own encoding, with no elimination either.

``verify_tau`` re-checks any dense tau by a second route: it expands tau
in strings (``pauli.expand``) and multiplies it with every coefficient of
T(G) and of G, for every generator, Jkl included, with no row system.
It checks the linear equation only, so it does not decide existence.
The tests keep a dense form of the same check (``dense_verify_tau``) as
its oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import pauli
from .clifford import CliffordMonomial, monomial_basis
from .exact import (
    ExactMatrix,
    ExactScalar,
    MINUS_ONE,
    ONE,
    ZERO,
)
from .models import DiracModel, model_for, p_monomial, rotation_label, x_monomial

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


def transform(gen: dict, cand: SymmetryCandidate) -> dict:
    """T(G) of a generator {monomial: term (r, k, x, z)}: each monomial's
    term times its sign (``_term_sign``), which adds 2 to k, with the
    phase conjugated when S is antilinear, k -> -k.  The strings X^x Z^z
    and the magnitude r are real, so conjugation touches k alone.

    tau is deliberately not applied; the result is T(G) so that the
    intertwiner constraint reads tau*T(G) = eps*G*tau.
    """
    out = {}
    for mono, (r, k, x, z) in gen.items():
        if cand.antilinear:
            k = -k
        if _term_sign(mono, cand) < 0:
            k += 2
        out[mono] = r, k & 3, x, z
    return out


def _term_sign(mono, cand: SymmetryCandidate) -> int:
    """Sign of one monomial under t -> t_sign*t, x -> x_sign*x and
    p -> x_sign*p, with p flipped once more when S is antilinear."""
    t, x, p = mono
    p_sign = cand.x_sign * (-1 if cand.antilinear else 1)
    return cand.t_sign**t * cand.x_sign ** sum(x) * p_sign ** sum(p)


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
        """Invertibility is required: a singular tau is no symmetry.

        The solution space is spanned by solution strings, each unitary,
        so it holds an invertible tau iff it holds a string.
        """
        return self.invertible_representative is not None


def _string_rows(model: DiracModel, cand: SymmetryCandidate, include_j: bool):
    """GF(2) rows of tau*T(G) = eps*G*tau over single strings tau = S.

    Every generator coefficient is a term B = lam*P with lam = q*i^k, and
    its image in T(G) is A = lam_A*P with lam_A = s*lam, or s*conj(lam)
    when S is antilinear, s the monomial's sign.  Then S*A = eps*B*S iff
    (-1)^<S,P>*lam_A = eps*lam.  A real lam (k even) has lam_A = s*lam,
    and an imaginary one (k odd) under an antilinear S has
    lam_A = -s*lam, so lam_A/lam is an integer sign r and the row is
    <S,P> = [eps != r], whatever the rational size q.  The sign s is
    t_sign^#t * x_sign^#x * p_sign^#p, fixed by the term's type (the ten
    types are listed in the module docstring).

    The identity-string types are the orbital ones: p_k in Pk, +-x_k*p_l
    in Jkl and t*p_k in J0k, with the signs p_sign, x_sign*p_sign =
    (-1)^antilinear and t_sign*p_sign.  Each is a real +-1 on I, so its
    row is 0 = [eps != sign].  When one fails, no tau exists whatever the
    other rows say: its terms are inconsistencies, in generator order,
    with the exact residual (sign - eps) times the coefficient, and the
    rows are the one row 0 = 1.  Only then are monomials built, and no
    other type is read.

    Otherwise the rows are one per (type, string) of the P0 and J0k
    types.  The masks and the imaginary bit come from the gamma strings
    (``_type_strings``); (i/2)*alpha_k flips alpha_k's bit, and bm*beta
    has beta's.  So a cell makes no string product and no scalar
    arithmetic, and builds no generator.  The rotations are brackets of
    boosts, Jkl = i[J0k, J0l], and T is an automorphism of the
    normal-ordered algebra, conjugate-linear when S is antilinear:
    T(AB) = T(A)T(B) and T(i*A) = (-1)^antilinear*i*T(A).  So a tau with
    tau*T(J0k) = eps*J0k*tau for every k has
    tau*T(Jkl) = (-1)^antilinear*Jkl*tau: once the Jkl identity terms
    hold, every Jkl row holds on the solutions of the others.
    ``include_j=False`` reads the P0 and Pk types only.

    Returns (rows as (mask, rhs) pairs, orbital inconsistencies).
    """
    antilinear = cand.antilinear
    t_sign, x_sign = cand.t_sign, cand.x_sign
    p_sign = -x_sign if antilinear else x_sign
    d = model.d

    def rhs(eps, sign, imaginary):
        # eps != r with r = -sign for an imaginary coefficient under an
        # antilinear S, and r = sign otherwise
        return int((eps != sign) != (antilinear and imaginary))

    def momenta(prefix, t):
        # (label, monomial, coefficient) of the identity terms t^t*p_k
        for k in range(1, d + 1):
            yield f"{prefix}{k}", (t, *p_monomial(d, k)[1:]), 1

    def rotations():
        # x_l*p_k sorts before x_k*p_l, as the generator dicts do
        xs = [x_monomial(d, k)[1] for k in range(1, d + 1)]
        ps = [p_monomial(d, k)[2] for k in range(1, d + 1)]
        for k, l in itertools.combinations(range(d), 2):
            label = rotation_label(k + 1, l + 1)
            yield label, (0, xs[l], ps[k]), -1
            yield label, (0, xs[k], ps[l]), 1

    # (class, sign, terms) of each identity-string type
    classes = [("Pk", p_sign, momenta("P", 0))]
    if include_j:
        classes.append(("Jkl", -1 if antilinear else 1, rotations()))
        classes.append(("J0k", t_sign * p_sign, momenta("J0", 1)))
    inconsistencies = []
    for cls, sign, terms in classes:
        eps = cand.eps(cls)
        if eps != sign:
            resid = {1: ExactScalar(sign - eps), -1: ExactScalar(eps - sign)}
            inconsistencies += (
                {"generator": label, "monomial": mono, "scale": resid[c]}
                for label, mono, c in terms
            )
    if inconsistencies:
        return [(0, 1)], inconsistencies
    alphas, beta = _type_strings(model)
    eps = cand.eps("P0")
    rows = [(mask, rhs(eps, p_sign, im)) for mask, im in alphas]
    if beta:
        rows.append((beta[0], rhs(eps, 1, beta[1])))
    if include_j:
        eps = cand.eps("J0k")
        rows += [(mask, rhs(eps, x_sign * p_sign, im)) for mask, im in alphas]
        if beta:
            rows.append((beta[0], rhs(eps, x_sign, beta[1])))
        rows += [(mask, rhs(eps, 1, not im)) for mask, im in alphas]
    return list(dict.fromkeys(rows)), inconsistencies


def _type_strings(model: DiracModel):
    """(symplectic mask, imaginary) of alpha_1..alpha_d, and of beta, or
    None for beta when the mass is 0, read off the gamma terms with no
    product: alpha_j = gamma_0*gamma_j is the string x0^xj, z0^zj with
    phase exponent k0 + kj + 2|z0&xj|, odd exactly when one of k0, kj
    is."""
    nq = pauli.qubits(model.dim)
    (_, k0, x0, z0), *spatial = model.gamma.strings
    alphas = [
        (pauli.symplectic_mask(x0 ^ x, z0 ^ z, nq), bool((k0 ^ k) & 1))
        for _, k, x, z in spatial
    ]
    if not model.mass:
        return alphas, None
    _, k, x, z = model.beta_string
    return alphas, (pauli.symplectic_mask(x, z, nq), bool(k & 1))


def _signed_string(n: int, x: int, signs) -> ExactMatrix:
    """The n x n matrix with entry -1 or +1 at (r, r^x) for each (r, negative)
    in signs, and zero elsewhere: the shared scalars, no arithmetic."""
    rows = [[ZERO] * n for _ in range(n)]
    for r, negative in signs:
        rows[r][r ^ x] = MINUS_ONE if negative else ONE
    return ExactMatrix._make(rows)


def _solve_strings(strings: list, nq: int):
    """The basis of the span of the solution strings, and the representative,
    in closed form: the basis an exact RREF of the dense strings gives when
    it pivots on each matrix's last nonzero entry (row-major), with pivots
    scaled to 1 and the basis sorted by pivot.

    Strings with distinct x masks have disjoint supports.  Within one x, the
    z masks form z0 + V, and X^x Z^z has entry (-1)^|(r^x)&z| at (r, r^x),
    so the group spans (-1)^|(r^x)&z0| times the functions of r that are
    constant on the classes r ~ r' of (r^r').v = 0 for every v in V.  The
    masks z^z0 span V, so they decide the classes as a GF(2) basis of V
    would.  Each class K gives one basis matrix, with entry
    (-1)^|(r^r_max)&z0| at (r, r^x) for r in K, r_max the largest row of K
    (its pivot).  The representative is basis[0] taken relative to r_min
    instead, so that its first nonzero entry is 1.
    """
    n = 1 << nq
    groups = {}
    for s in strings:
        x, z = pauli.unpack(s, nq)
        groups.setdefault(x, []).append(z)
    classes = []  # (pivot, x, z0, rows of the class in increasing order)
    for x, zs in groups.items():
        z0 = zs[0]
        by_key = {}
        for r in range(n):
            key = tuple(pauli.parity(r & (z ^ z0)) for z in zs)
            by_key.setdefault(key, []).append(r)
        classes += [(k[-1] * n + (k[-1] ^ x), x, z0, k) for k in by_key.values()]
    classes.sort()
    basis = [
        _signed_string(n, x, ((r, pauli.parity((r ^ k[-1]) & z0)) for r in k))
        for _, x, z0, k in classes
    ]
    if not classes:
        return basis, None
    _, x, z0, k = classes[0]
    rep = _signed_string(n, x, ((r, pauli.parity((r ^ k[0]) & z0)) for r in k))
    return basis, rep


def _solve_span(model: DiracModel, rows, span: list):
    """Solutions tau = sum_s c_s span[s] for a span of gamma monomials,
    and the packed string of the first span member that solves it.

    tau solves the equation iff its component on every string outside the
    solution set vanishes.  Span members are phases times strings, so that
    is one condition per excluded string, on the members that lie on it
    alone, and the basis is read off the members in order: a member on a
    solution string gives its own matrix, and the first member on an
    excluded string is fixed by the later ones.
    """
    n = model.dim
    nq = pauli.qubits(n)
    basis = []
    excluded = set()
    first_string = None
    for mon in span:
        _, _, x, z = mon.string
        string = pauli.pack(x, z, nq)
        if all(pauli.parity(string & mask) == rhs for mask, rhs in rows):
            if first_string is None:
                first_string = string
            basis.append(pauli.encode(*mon.string, n))
        elif string in excluded:
            # This member less its multiple of the first member on the
            # string: the zero matrix, kept as a basis entry.  Members share
            # a string only at d = 2, where gamma_0*gamma_1 is a multiple of
            # gamma_2.  A known defect (ROADMAP item 2), kept because
            # perfbench/expected.json stores the dims it gives.
            basis.append(ExactMatrix.zero(n))
        else:
            excluded.add(string)
    return basis, first_string


def clifford2_span(model: DiracModel) -> list[CliffordMonomial]:
    """Degree <= 2 gamma monomials, spanning the restricted ansatz space."""
    if model.doubled:
        raise ValueError("the restricted ansatz is defined for single models")
    return monomial_basis(model.gamma, 2)


def _normalize(m: ExactMatrix) -> ExactMatrix:
    """Rescale so the first nonzero entry (row-major) is exactly 1."""
    for r in m.rows:
        for v in r:
            if v:
                return m.scale(ONE / v)
    return m


def solve_tau(
    model: DiracModel,
    cand: SymmetryCandidate,
    ansatz: str = "full",
    include_j: bool = True,
    variant: str = "",
) -> TauSolution:
    """Solve the intertwiner equation of one candidate exactly.

    The full ansatz reads every output off the packed solution strings
    (``_solve_strings``), with no elimination, rescaling or product; the
    clifford2 ansatz reads its basis off the span members that lie on
    solution strings (``_solve_span``).
    The invertible representative is the first solution string X^x Z^z
    scaled so its first nonzero entry is 1, that is Z^z X^x, with entry
    (-1)^|r&z| at (r, r^x); None when there is none.  On a line, the
    square phase is (X^x Z^z)^2 = (-1)^|x&z|, for an antilinear S too:
    the string is real, so tau*conj(tau) = tau^2.
    """
    if ansatz == "full":
        span = None
    elif ansatz == "clifford2":
        span = clifford2_span(model)
    else:
        raise ValueError(f"unknown ansatz mode: {ansatz}")
    rows, inconsistencies = _string_rows(model, cand, include_j)
    n = model.dim
    nq = pauli.qubits(n)
    if span is None:
        strings = pauli.solve_affine(rows, 2 * nq)
        basis, representative = _solve_strings(strings, nq)
        first_string = strings[0] if strings else None
    else:
        basis, first_string = _solve_span(model, rows, span)
        representative = _normalize(basis[0]) if basis else None
    invertible = phase = None
    if first_string is not None:
        x, z = pauli.unpack(first_string, nq)
        signs = ((r, pauli.parity(r & z)) for r in range(n))
        invertible = _signed_string(n, x, signs)
        if len(basis) == 1:
            phase = MINUS_ONE if pauli.parity(x & z) else ONE
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
    """Re-check tau*T(G) - eps*G*tau == 0 on every generator monomial.

    tau, any dense matrix on the model's space, is expanded in Pauli
    strings (``pauli.expand``: n^2 coefficients, each read from n
    entries), and both sides of each monomial's equation are products of
    string sums (``pauli.mul_sums``), which are equal matrices exactly
    when they are equal dicts.  The solver builds no generator and
    multiplies no string, so the check shares only the candidate's
    signs with it.  It builds no GF(2) row (``_string_rows``) and solves no
    affine system, so a fault in the solver's sign rule or elimination
    cannot hide in its own re-check.  It reads every generator
    (``DiracModel.generators``), the rotations Jkl included, of which
    the solver reads only the identity terms.

    The equation is linear, so a zero or singular tau passes too: True
    says tau intertwines, not that it is a symmetry.  Existence rests on
    the reported invertible representative being one string, hence
    unitary (``solve_tau``).
    """
    if tau.dim != model.dim:
        raise ValueError(
            f"tau is {tau.dim}x{tau.dim}, but the model acts on {model.dim} states"
        )
    terms = pauli.expand(tau)
    for cls, _, g in model.generators:
        if not include_j and cls in ("Jkl", "J0k"):
            continue
        shift = 0 if cand.eps(cls) > 0 else 2
        tg = transform(g, cand)
        for mono, (r, k, x, z) in g.items():
            lhs = pauli.mul_sums(terms, [tg[mono]])
            rhs = pauli.mul_sums([(r, (k + shift) & 3, x, z)], terms)
            if lhs != rhs:
                return False
    return True


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


def classify(
    dims,
    variants=("single",),
    mass=1,
    jobs: int = 1,
) -> list[ClassificationRecord]:
    """Existence table over (d, variant, candidate) cells.

    Every cell is solved in this process, in order, and the candidates of
    a (d, variant) row share one model.  ``jobs`` is accepted and ignored.
    """
    records = []
    for d in sorted(dims):
        for v in variants:
            model = model_for_variant(d, v, mass=mass)
            rec = ClassificationRecord(d=d, variant=v)
            for c in CLASSIFY_ORDER:
                rec.entries[c] = solve_tau(model, CANDIDATES[c], variant=v)
            records.append(rec)
    return records
