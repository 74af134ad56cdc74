"""The dense exact intertwiner solver and dispersion check, kept as
test-only oracles.

It writes tau*T(G) - eps*G*tau = 0 as one rational row per matrix entry
of every (generator, monomial) pair and eliminates the rows exactly, in
the n^2 entries of tau (``_solve_full``) or in the coordinates of a
matrix span (``_solve_span``).  It shares nothing with the Pauli-string
engine in ``diracsym.symmetry`` except the closed-form generators (here
encoded as dense symbols), the monomial signs and the exact kernels, so
the two check each other.  The oracle has no strings, so it finds its
invertible representative by a determinant scan (``invertible_element``)
where the engine takes its first solution string.

``dense_terms`` encodes a sum of Pauli terms (r, k, x, z) =
r * i^k * X^x Z^z entry by entry with exact scalar arithmetic
(``term_scalar``), apart from ``diracsym.pauli``; every dense form of a
term below goes through it.

``conj``, ``transpose``, ``dagger``, ``trace``, ``is_zero``,
``is_hermitian``, ``is_anti_hermitian`` and ``scalar_multiple_of_identity``
are the dense matrix predicates the tests and this oracle read; the
package builds no dense matrix that needs them.  ``dense_check_relations``
is the Clifford relation report on the encoded gammas, two n x n products
per pair, where ``GammaSystem.check_relations`` reads each pair off the
terms by the symplectic form.

``OperatorSymbol`` is a normal-ordered polynomial in t, x_k, p_k with
exact dense matrix coefficients; ``symbol`` encodes a closed-form
generator {monomial: term} as one, and ``dense_transform`` applies a
candidate's coordinate and conjugation calculus to it, entry by entry.
``dense_verify_tau`` is the intertwiner check on these symbols, with one
n x n matrix product per side and monomial, where
``diracsym.symmetry.verify_tau`` expands tau in Pauli strings and
multiplies strings.

``dense_little_group_labels`` is the labels' former dense path: it
encodes the engine's two Casimir string sums as dense matrices and
takes exact joint nullspaces with the energy eigenspaces, where the
engine reads the sign patterns of a GF(2) basis of their strings.

``dense_dispersion_check`` is the dense form of
``diracsym.spectra.dispersion_check``: it builds H(p) from the dense
gammas by matrix products and compares H(p) @ H(p) with omega2 * I
entry by entry, where the engine multiplies Pauli strings.

``dense_evolution_operator`` is the density evolution's former
construction: the exact dense H(p) converted entry by entry to floats,
where the engine writes the float H(p) from its strings.
``mul`` multiplies operator symbols in the canonical x-p algebra,
reordering with [x_k, p_l] = i*delta_kl; ``commutator``, ``coeff``,
``max_var_degree`` and ``hamiltonian`` build on it, and
``square_of_hamiltonian`` and ``dispersion_scalar`` square the symbol of
H and read off the scalar symbol of H^2.

``_last_pivot_basis`` is the engine's former full-ansatz basis: an
exact RREF of the dense solution strings, which the engine now writes
down in closed form.

``monomials_span_full_space`` checks by an exact rank that the gamma
monomials of degree <= d+1 span every matrix.

``reference_string_rows`` is the engine's row builder as it stood
before rows were decided by integer signs: one row per (generator,
monomial) of the generator dicts, with duplicates kept, each sign
decided by exact scalar comparisons.  It reads every generator, Jkl
included, and every row of a cell whose identity terms fail, where the
engine stops at those terms with the one row 0 = 1 and otherwise reads
only the P0 and J0k types.  The engine's rows must lie among its rows,
the true identity row 0 = 0 aside, and give the same solutions and
orbital inconsistencies.

``compose`` multiplies two solved symmetries as dense matrices,
tau1 * conj(tau2) when the first is antilinear.
"""

import itertools
import math
from fractions import Fraction

from diracsym import pauli
from diracsym.clifford import GammaSystem, monomial_basis
from diracsym.exact import (
    ONE, ExactMatrix, ExactScalar, ZERO, _Rref, matmul, nullspace, nullspace_from_rref,
    rank,
)
from diracsym.models import DiracModel, generator
from diracsym.spectra import RepLabel, _casimirs
from diracsym.symmetry import (
    SymmetryCandidate,
    TauSolution,
    _normalize,
    _term_sign,
    clifford2_span,
    composite_candidate,
)


_I_POWERS = (ExactScalar(1), ExactScalar(0, 1), ExactScalar(-1), ExactScalar(0, -1))


def term_scalar(r, k: int) -> ExactScalar:
    """The coefficient r * i^k of a term, by exact scalar arithmetic."""
    return ExactScalar(Fraction(r)) * _I_POWERS[k % 4]


def dense_terms(terms, n: int) -> ExactMatrix:
    """The n x n matrix of a sum of terms (r, k, x, z): X^x Z^z sends
    |col> with col = row^x to |row> with the sign (-1)^|col&z|, so each
    term adds r * i^k times that sign at (row, col)."""
    rows = [[ZERO] * n for _ in range(n)]
    for r, k, x, z in terms:
        c = term_scalar(r, k)
        for row in range(n):
            col = row ^ x
            v = -c if bin(col & z).count("1") % 2 else c
            old = rows[row][col]
            rows[row][col] = v if old is ZERO else old + v
    return ExactMatrix._make(rows)


def conj(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix._make([[a.conjugate() for a in r] for r in m.rows])


def transpose(m: ExactMatrix) -> ExactMatrix:
    n = m.dim
    return ExactMatrix._make([[m.rows[j][i] for j in range(n)] for i in range(n)])


def dagger(m: ExactMatrix) -> ExactMatrix:
    return conj(transpose(m))


def trace(m: ExactMatrix) -> ExactScalar:
    return sum((m.rows[i][i] for i in range(m.dim)), ZERO)


def is_zero(m: ExactMatrix) -> bool:
    return not any(a for r in m.rows for a in r)


def is_hermitian(m: ExactMatrix) -> bool:
    return m == dagger(m)


def is_anti_hermitian(m: ExactMatrix) -> bool:
    return m == -dagger(m)


def scalar_multiple_of_identity(m: ExactMatrix) -> ExactScalar | None:
    """Return c with m == c*I, or None if m is not a scalar matrix."""
    n = m.dim
    c = m.rows[0][0]
    for i in range(n):
        for j in range(n):
            want = c if i == j else ZERO
            if m.rows[i][j] != want:
                return None
    return c


def dense_check_relations(gs: GammaSystem) -> list[dict]:
    """Per-pair Clifford relation report, checked on the dense
    matrices independently of the string recursion (all exact)."""
    report = []
    gammas = gs.gammas
    ident = ExactMatrix.identity(gs.rep_dim)
    for mu in range(gs.d + 1):
        for nu in range(mu, gs.d + 1):
            lhs = matmul(gammas[mu], gammas[nu]) + matmul(gammas[nu], gammas[mu])
            want = ident.scale(2 * gs.metric(mu, nu))
            report.append(
                {"mu": mu, "nu": nu, "ok": lhs == want}
            )
    return report


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

    def _add_term(self, mono, mat: ExactMatrix) -> None:
        cur = self.terms.get(mono)
        new = mat if cur is None else cur + mat
        if is_zero(new):
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = new

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

    def _check(self, other: "OperatorSymbol") -> None:
        if self.d != other.d or self.dim != other.dim:
            raise ValueError("operator symbols live on different spaces")

    def __repr__(self) -> str:
        return f"OperatorSymbol(d={self.d}, dim={self.dim}, terms={len(self.terms)})"


def symbol(model: DiracModel, gen: dict) -> OperatorSymbol:
    """A {monomial: term} generator as a dense operator symbol."""
    n = model.dim
    terms = {mono: dense_terms([s], n) for mono, s in gen.items()}
    return OperatorSymbol(model.d, n, terms)


def dense_transform(sym: OperatorSymbol, cand: SymmetryCandidate) -> OperatorSymbol:
    """Apply the candidate's coordinate/conjugation calculus to a symbol.

    tau is deliberately not applied; the result is T(G) so that the
    intertwiner constraint reads tau*T(G) = eps*G*tau.
    """
    out = OperatorSymbol(sym.d, sym.dim)
    for mono, mat in sym.terms.items():
        m = conj(mat) if cand.antilinear else mat
        if _term_sign(mono, cand) < 0:
            m = -m
        out._add_term(mono, m)
    return out


def dense_verify_tau(
    model: DiracModel,
    cand: SymmetryCandidate,
    tau: ExactMatrix,
    include_j: bool = True,
) -> bool:
    """tau*T(G) - eps*G*tau == 0 by direct symbol algebra, on whole dense
    generator symbols."""
    for cls, _, g in model.generators:
        if not include_j and cls in ("Jkl", "J0k"):
            continue
        eps = ExactScalar(cand.eps(cls))
        sym = symbol(model, g)
        lhs = dense_transform(sym, cand).left_mul(tau)
        rhs = sym.right_mul(tau).scale(eps)
        if not (lhs - rhs).is_zero():
            return False
    return True


def monomials_span_full_space(gs: GammaSystem) -> bool:
    """Exact rank check: degree <= d+1 monomials span all matrices."""
    n = gs.rep_dim
    mons = monomial_basis(gs, gs.d + 1)
    rows = []
    for mon in mons:
        m = pauli.encode(*mon.string, n)
        rows.append([m[i, j] for i in range(n) for j in range(n)])
    return rank(rows) == n * n


def t_monomial(d: int):
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


def mul(a: OperatorSymbol, b: OperatorSymbol) -> OperatorSymbol:
    """Symbol product a*b with canonical reordering of p past x."""
    a._check(b)
    d = a.d
    out = OperatorSymbol(d, a.dim)
    for (t1, x1, p1), m1 in a.terms.items():
        for (t2, x2, p2), m2 in b.terms.items():
            mat = matmul(m1, m2)
            # reorder p1 (left factor) past x2 (right factor)
            per_var = [list(_mul_vars(p1[k], x2[k])) for k in range(d)]
            for choice in itertools.product(*per_var):
                s = ONE
                xe, pe = [], []
                for k, (j, coef) in enumerate(choice):
                    s = s * coef
                    xe.append(x1[k] + x2[k] - j)
                    pe.append(p1[k] + p2[k] - j)
                out._add_term((t1 + t2, tuple(xe), tuple(pe)), mat.scale(s))
    return out


def commutator(a: OperatorSymbol, b: OperatorSymbol) -> OperatorSymbol:
    return mul(a, b) - mul(b, a)


def coeff(sym: OperatorSymbol, mono) -> ExactMatrix:
    return sym.terms.get(mono, ExactMatrix.zero(sym.dim))


def max_var_degree(sym: OperatorSymbol) -> int:
    deg = 0
    for t, x, p in sym.terms:
        deg = max(deg, t, *x, *p) if sym.d else max(deg, t)
    return deg


def hamiltonian(model: DiracModel) -> OperatorSymbol:
    """H = sum_k alpha_k p_k + branch * mass * beta as a symbol."""
    return symbol(model, generator(model, "P0"))


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
    for cls, label, g in model.generators:
        if not include_j and cls in ("Jkl", "J0k"):
            continue
        eps = cand.eps(cls)
        g = symbol(model, g)
        tg = dense_transform(g, cand)
        monos = sorted(set(g.terms) | set(tg.terms))
        for mono in monos:
            a = coeff(tg, mono)
            b = coeff(g, mono)
            if is_zero(a) and is_zero(b):
                continue
            sa = scalar_multiple_of_identity(a)
            sb = scalar_multiple_of_identity(b)
            if sa is not None and sb is not None:
                resid = sa - ExactScalar(eps) * sb
                if not resid:
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


_COMBO_WEIGHTS = (0, 1, -1, 2, -2)


def _last_pivot_basis(mats: list) -> list:
    """The basis ``nullspace_from_rref`` gives for the span of ``mats``.

    That basis is the reduced echelon form that pivots on each vector's
    last nonzero entry (row-major), pivots scaled to 1, sorted by pivot:
    elimination on the reversed entry order.  The engine writes it down in
    closed form from the solution strings (``symmetry._solve_strings``).
    """
    if not mats:
        return []
    n = mats[0].dim
    last = n * n - 1
    rref = _Rref()
    for m in mats:
        rref.add_row(
            {
                last - (i * n + j): v
                for i, r in enumerate(m.rows)
                for j, v in enumerate(r)
                if v
            }
        )
    basis = []
    for p in sorted(rref.pivots, reverse=True):
        rows = [[ZERO] * n for _ in range(n)]
        for c, v in rref.pivots[p].items():
            i, j = divmod(last - c, n)
            rows[i][j] = v
        basis.append(ExactMatrix._make(rows))
    return basis


def invertible_element(basis: list):
    """Deterministic scan for an invertible member of the solution space.

    Up to four basis elements, small integer combinations are tried in a
    fixed order.  Past that the scan does not decide; no cell of the
    oracle's tests has more than four basis elements.
    """
    for b in basis:
        if b.determinant():
            return _normalize(b)
    k = len(basis)
    if k <= 1:
        return None
    if k > 4:
        raise ValueError(f"the scan decides at most four basis elements, got {k}")
    for weights in itertools.product(_COMBO_WEIGHTS, repeat=k):
        if all(w == 0 for w in weights):
            continue
        m = ExactMatrix.zero(basis[0].dim)
        for w, b in zip(weights, basis):
            if w:
                m = m + b.scale(ExactScalar(w))
        if m.determinant():
            return _normalize(m)
    return None


def dense_solve_tau(model, cand, ansatz="full", include_j=True, variant=""):
    """``solve_tau`` on the dense rows: same output fields and the same
    representative and square-phase rules, with the invertible
    representative from ``invertible_element``."""
    pairs, inconsistencies = _constraint_pairs(model, cand, include_j)
    if ansatz == "full":
        basis = _solve_full(model, pairs)
    else:
        span = [pauli.encode(*mon.string, model.dim) for mon in clifford2_span(model)]
        basis = _solve_span(model, pairs, span)
    invertible = invertible_element(basis)
    phase = None
    if len(basis) == 1 and invertible is not None:
        sq = invertible @ (conj(invertible) if cand.antilinear else invertible)
        phase = scalar_multiple_of_identity(sq)
    return TauSolution(
        candidate=cand,
        d=model.d,
        variant=variant,
        basis=basis,
        dim=len(basis),
        representative=_normalize(basis[0]) if basis else None,
        invertible_representative=invertible,
        square_phase=phase,
        orbital_inconsistencies=inconsistencies,
        ansatz=ansatz,
    )


def dense_hamiltonian(model: DiracModel, p) -> ExactMatrix:
    """sum_k p_k alpha_k + branch*mass*beta with alpha_k = gamma_0 @ gamma_k
    from the dense gammas; a doubled model is diag(H_+(p), H_-(p))."""
    g = model.gamma.gammas

    def branch_h(branch):
        h = g[0].scale(ExactScalar(branch * model.mass))
        for pk, gk in zip(p, g[1:]):
            h = h + (g[0] @ gk).scale(ExactScalar(Fraction(pk)))
        return h

    if not model.doubled:
        return branch_h(model.branch)
    zero = [ZERO] * model.gamma.rep_dim
    plus, minus = branch_h(1), branch_h(-1)
    return ExactMatrix(
        [[*r, *zero] for r in plus.rows] + [[*zero, *r] for r in minus.rows]
    )


def dense_dispersion_check(model: DiracModel, p) -> dict:
    p = [Fraction(x) for x in p]
    if len(p) != model.d:
        raise ValueError(f"momentum must have {model.d} components")
    h = dense_hamiltonian(model, p)
    omega2 = sum((x * x for x in p), Fraction(0)) + model.mass * model.mass
    want = ExactMatrix.identity(model.dim).scale(ExactScalar(omega2))
    square_ok = h @ h == want
    trace_zero = not trace(h)
    return {
        "d": model.d,
        "mass": model.mass,
        "p": p,
        "omega2": omega2,
        "square_is_scalar": square_ok,
        "trace_zero": trace_zero,
        "ok": square_ok and trace_zero,
    }


def dense_evolution_operator(model: DiracModel, p, t: float):
    """exp(-i H(p) t) = cos(omega t) I - i sin(omega t) / omega * H(p), with
    the float H(p) converted from the exact dense ``dense_hamiltonian``."""
    import numpy as np

    p = [Fraction(x) for x in p]
    h = np.array(
        [
            [complex(v.re) + 1j * complex(v.im) for v in row]
            for row in dense_hamiltonian(model, p).rows
        ]
    )
    omega = np.sqrt(float(sum((x * x for x in p), Fraction(0)) + model.mass**2))
    n = h.shape[0]
    if omega == 0.0:
        return np.eye(n, dtype=complex)
    return np.cos(omega * t) * np.eye(n) - 1j * np.sin(omega * t) / omega * h


_J_CANDIDATES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]


def _dense_casimirs(model: DiracModel) -> tuple[ExactMatrix, ExactMatrix]:
    """The engine's Casimir term sums, encoded once as dense matrices."""
    a2, b2 = _casimirs(model)
    return dense_terms(a2, model.dim), dense_terms(b2, model.dim)


def _shifted_rows(casimir: ExactMatrix) -> list:
    """Rows of casimir - j(j+1)*I for each candidate j."""
    ident = ExactMatrix.identity(casimir.dim)
    return [
        (casimir - ident.scale(ExactScalar(j * (j + 1)))).rows
        for j in _J_CANDIDATES
    ]


def _live_candidates(proj_rows, shifted, n: int) -> list:
    """(j, rows) for the candidates j with a nonzero eigenspace on the
    subspace cut out by proj_rows."""
    return [
        (j, rows)
        for j, rows in zip(_J_CANDIDATES, shifted)
        if nullspace([*proj_rows, *rows], n)
    ]


def dense_little_group_labels(model: DiracModel) -> list[RepLabel]:
    """Rest-frame little-group labels from dense exact nullspaces.

    Decomposes each energy eigenspace of H(0) into joint eigenspaces of
    the two dense Casimir matrices and reads off (j1, j2) and the
    multiplicity from the nullity, in the order of
    ``diracsym.spectra.little_group_labels``.
    """
    if model.d != 4:
        raise ValueError("little-group labels are computed for d == 4")
    if model.mass == 0:
        raise ValueError("massless little group is out of scope")
    a2, b2 = _dense_casimirs(model)
    n = model.dim
    # H(0)/mass = branch*beta squares to I, so the kernel of
    # branch*beta - s*I is the eigenspace of energy sign s
    r, k, x, z = model.beta_string
    branch_beta = (model.branch * r, k, x, z)
    a_shifted, b_shifted = _shifted_rows(a2), _shifted_rows(b2)
    labels = []
    for sign in (1, -1):
        proj_rows = dense_terms([branch_beta, (-sign, 0, 0, 0)], n).rows
        # a joint eigenspace lies inside both one-Casimir eigenspaces, so
        # only the j1 and j2 whose own eigenspace is nonzero are paired
        live_a = _live_candidates(proj_rows, a_shifted, n)
        live_b = _live_candidates(proj_rows, b_shifted, n)
        for j1, a_rows in live_a:
            for j2, b_rows in live_b:
                vecs = nullspace([*proj_rows, *a_rows, *b_rows], n)
                if not vecs:
                    continue
                block = int((2 * j1 + 1) * (2 * j2 + 1))
                if len(vecs) % block:
                    raise ArithmeticError(
                        "joint eigenspace is not a whole number of blocks"
                    )
                labels.append(RepLabel(sign, j1, j2, len(vecs) // block))
    total = sum(l.multiplicity * l.block_dim() for l in labels)
    if total != n:
        raise ArithmeticError("label multiplicities do not sum to rep_dim")
    return labels


def square_of_hamiltonian(model: DiracModel) -> OperatorSymbol:
    """H*H as a symbol; collapses to (sum_k p_k^2 + mass^2) * I."""
    h = hamiltonian(model)
    return mul(h, h)


def dispersion_scalar(model: DiracModel) -> OperatorSymbol | None:
    """The scalar symbol S with H^2 == S*I, or None if H^2 is not scalar."""
    sq = square_of_hamiltonian(model)
    out = OperatorSymbol(model.d, 1)
    for mono, mat in sq.terms.items():
        c = scalar_multiple_of_identity(mat)
        if c is None:
            return None
        out._add_term(mono, ExactMatrix([[c]]))
    return out


def reference_string_rows(
    model: DiracModel, cand: SymmetryCandidate, include_j: bool, generators=None
):
    """GF(2) rows of tau*T(G) = eps*G*tau over single strings tau = S.

    Every generator coefficient is a term B = lam*P, and its image
    in T(G) is A = lam_A*P with lam_A from the same sign and conjugation
    rule as ``dense_transform``.  Then S*A = eps*B*S iff
    (-1)^<S,P>*lam_A = eps*lam: one row per (generator, monomial),
    <S,P> = 0 when eps*lam = lam_A, <S,P> = 1 when eps*lam = -lam_A,
    and the contradiction 0 = 1 otherwise.  The rows come from
    ``generators``, every generator of the model by default, Jkl
    included.  Returns (rows as (mask, rhs) pairs, orbital
    inconsistencies).
    """
    nq = pauli.qubits(model.dim)
    rows = []
    inconsistencies = []
    for cls, label, g in model.generators if generators is None else generators:
        if not include_j and cls in ("Jkl", "J0k"):
            continue
        eps = ExactScalar(cand.eps(cls))
        for mono in sorted(g):
            r, k, x, z = g[mono]
            lam = term_scalar(r, k)
            lam_a = lam.conjugate() if cand.antilinear else lam
            if _term_sign(mono, cand) < 0:
                lam_a = -lam_a
            lam_b = eps * lam
            if not (x or z):
                resid = lam_a - lam_b
                if resid:
                    inconsistencies.append(
                        {"generator": label, "monomial": mono, "scale": resid}
                    )
            mask = pauli.symplectic_mask(x, z, nq)
            if lam_b == lam_a:
                rows.append((mask, 0))
            elif lam_b == -lam_a:
                rows.append((mask, 1))
            else:
                rows.append((0, 1))
    return rows, inconsistencies


def compose(
    c1: SymmetryCandidate,
    tau1: ExactMatrix,
    c2: SymmetryCandidate,
    tau2: ExactMatrix,
    name: str | None = None,
):
    """Operator product of two solved symmetries: candidate plus tau."""
    cand = composite_candidate(c1, c2, name)
    t2 = conj(tau2) if c1.antilinear else tau2
    return cand, tau1 @ t2
