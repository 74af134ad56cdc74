"""Spectral and representation-label checks, plus mass-fiber dynamics.

Everything about eigenvalues is phrased through exact identities on H^2
and traces, so irrational square roots never appear in exact mode.
The dispersion certificate is decided on the Pauli strings of H(p)
(``pauli``) and builds no dense matrix; the d=4 little-group labels build
their Casimirs as string sums and then take dense exact nullspaces, and
the d=4 fiber check squares a dense H.  Floating point is quarantined to
the density-matrix evolution, and so is numpy: ``DensityState``,
``_float_matrix`` and ``evolution_operator`` import it on first use, so
importing this module, and every exact check in it, loads no numerical
library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import pauli
from .exact import ZERO, ExactMatrix, ExactScalar, nullspace, parse_rational
from .models import DiracModel, model_for

HERMITICITY_TOL = 1e-12


def dispersion_check(model: DiracModel, p) -> dict:
    """Certify H(p)^2 == (sum p_k^2 + mass^2) * I without leaving rationals.

    Together with trace H(p) == 0 this pins the eigenvalues to
    +-sqrt(omega2) with equal multiplicities.  Both identities are decided
    on the d+1 Pauli strings of H(p): H(p)^2 is O(d^2) string products,
    and it equals omega2 * I exactly when only the identity string is
    left, with coefficient omega2, because distinct strings are linearly
    independent.  A string other than the identity has trace 0, so the
    trace vanishes exactly when the identity string's coefficient does.
    """
    p = [Fraction(x) for x in p]
    terms = model.hamiltonian_strings(p)
    omega2 = sum((x * x for x in p), Fraction(0)) + model.mass * model.mass
    want = {(0, 0): ExactScalar(omega2)} if omega2 else {}
    square_ok = pauli.mul_sums(terms, terms) == want
    trace_zero = not sum((c for c, x, z in terms if not x and not z), ZERO)
    return {
        "d": model.d,
        "mass": model.mass,
        "p": p,
        "omega2": omega2,
        "square_is_scalar": square_ok,
        "trace_zero": trace_zero,
        "ok": square_ok and trace_zero,
    }


@dataclass(frozen=True)
class RepLabel:
    """One irreducible little-group block on a fixed-energy subspace."""

    energy_sign: int
    j1: Fraction
    j2: Fraction
    multiplicity: int

    def block_dim(self) -> int:
        return int((2 * self.j1 + 1) * (2 * self.j2 + 1))


def _casimirs(model: DiracModel) -> tuple[ExactMatrix, ExactMatrix]:
    """The Casimirs A^2 = sum_i A_i^2 and B^2 = sum_i B_i^2 of the two
    commuting angular-momentum triples on a d=4 model, each built from
    string products and encoded once.

    A_i = (rot_i - S_i4) / 2 and B_i = (rot_i + S_i4) / 2 where rot_i is
    the spatial-rotation generator S_jk with (i, j, k) cyclic and
    S_kl = (i/2) alpha_l alpha_k.  The sign split is the orientation
    convention that puts (1/2, 0) on the positive-energy subspace of the
    branch=+1 model.
    """
    al = model.gamma.alpha

    def spin(k, l, sign=1):
        # sign * S_kl as one string
        half_i = ExactScalar(0, Fraction(sign, 2))
        return pauli.mul((half_i, 0, 0), pauli.mul(al[l - 1], al[k - 1]))

    quarter = ExactScalar(Fraction(1, 4))
    casimirs = []
    for sign in (-1, 1):
        terms = []
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            twice = [spin(j, k), spin(i, 4, sign)]  # 2*A_i, then 2*B_i
            square = pauli.mul_sums(twice, twice)
            terms += [(c * quarter, x, z) for (x, z), c in square.items()]
        casimirs.append(pauli.encode_sum(terms, model.dim))
    return casimirs[0], casimirs[1]


_J_CANDIDATES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]


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


def little_group_labels(model: DiracModel) -> list[RepLabel]:
    """Rest-frame little-group content of a massive d=4 model.

    Decomposes each energy eigenspace of H(0) into joint eigenspaces of
    the two exact Casimir matrices and reads off (j1, j2).
    """
    if model.d != 4:
        raise ValueError("little-group labels are computed for d == 4")
    if model.mass == 0:
        raise ValueError("massless little group is out of scope")
    a2, b2 = _casimirs(model)
    n = model.dim
    # H(0)/mass = branch*beta squares to I, so the kernel of
    # branch*beta - s*I is the eigenspace of energy sign s
    c, x, z = model.beta_string
    branch_beta = (c * ExactScalar(model.branch), x, z)
    a_shifted, b_shifted = _shifted_rows(a2), _shifted_rows(b2)
    labels = []
    for sign in (1, -1):
        proj_rows = pauli.encode_sum([branch_beta, (ExactScalar(-sign), 0, 0)], n).rows
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
                labels.append(
                    RepLabel(
                        energy_sign=sign,
                        j1=j1,
                        j2=j2,
                        multiplicity=len(vecs) // block,
                    )
                )
    total = sum(l.multiplicity * l.block_dim() for l in labels)
    if total != n:
        raise ArithmeticError("label multiplicities do not sum to rep_dim")
    return labels


def sqrt_dirac_fiber(m, p3) -> dict:
    """Fixed-mass fiber of the indefinite-mass equation: the usual
    3+1 Dirac Hamiltonian alpha.p + beta*m, with its exact square proof.

    Replacing the mass profile by a point mass recovers exactly this
    fiber, one copy per sample.
    """
    m = Fraction(m)
    if m <= 0:
        raise ValueError("fiber mass must be positive")
    p3 = [Fraction(x) for x in p3]
    if len(p3) != 3:
        raise ValueError("fiber momentum must have 3 components")
    model = model_for(4, mass=m)
    h = model.hamiltonian_matrix([*p3, 0])
    omega2 = sum((x * x for x in p3), Fraction(0)) + m * m
    ok = (h @ h) == ExactMatrix.identity(model.dim).scale(ExactScalar(omega2))
    return {"m": m, "p": p3, "hamiltonian": h, "omega2": omega2, "ok": ok}


@dataclass(frozen=True)
class MassProfile:
    """Discretized mass spread: weighted samples of m^2 on a support interval."""

    samples: tuple  # ((m2, weight), ...) with Fractions
    support: tuple  # (m2_lo, m2_hi)

    def __post_init__(self):
        samples = tuple(
            (Fraction(m2), Fraction(g)) for m2, g in self.samples
        )
        object.__setattr__(self, "samples", samples)
        lo, hi = (Fraction(x) for x in self.support)
        object.__setattr__(self, "support", (lo, hi))
        for m2, g in samples:
            if m2 <= 0:
                raise ValueError("mass-squared samples must be positive")
            if g < 0:
                raise ValueError("weights must be nonnegative")
            if g > 0 and not lo <= m2 <= hi:
                raise ValueError("positive weight outside the support interval")
        if not any(g for _, g in samples):
            raise ValueError("at least one weight must be positive")


def load_mass_profile(path) -> MassProfile:
    """Read a profile file: a JSON list of [m2, weight] pairs, values as
    numbers or rational strings.  The support interval is the hull of the
    positively weighted samples.  A string in exponent notation is
    refused (``exact.parse_rational``); a JSON number's exponent is bounded
    by the float it parses to, so numbers such as 1e-07 are read as
    written."""
    with open(path) as fh:
        data = json.load(fh)

    def value(v) -> Fraction:
        return parse_rational(v) if isinstance(v, str) else Fraction(str(v))

    samples = tuple((value(m2), value(g)) for m2, g in data)
    carried = [m2 for m2, g in samples if g > 0]
    if not carried:
        raise ValueError("profile has no positive weight")
    return MassProfile(samples=samples, support=(min(carried), max(carried)))


@dataclass(frozen=True)
class FiberState:
    """A normalized spinor on one (p, m) fiber."""

    p: tuple
    m: Fraction
    spinor: tuple  # ExactScalar components


def profile_apply_P2(profile: MassProfile, states):
    """Action of the squared-momentum operator on a discretized direct
    integral: each fiber is scaled by its m^2.

    Returns the scaled fibers plus the weight-normalized expectation of
    m^2, all exact.
    """
    if len(states) != len(profile.samples):
        raise ValueError("one state per profile sample is required")
    scaled = []
    for (m2, g), st in zip(profile.samples, states):
        if st.m * st.m != m2:
            raise ValueError("state mass does not match its profile sample")
        scaled.append(
            FiberState(
                p=st.p,
                m=st.m,
                spinor=tuple(c * ExactScalar(m2) for c in st.spinor),
            )
        )
    wsum = sum((g for _, g in profile.samples), Fraction(0))
    expectation = (
        sum((m2 * g for m2, g in profile.samples), Fraction(0)) / wsum
    )
    return scaled, expectation


@dataclass
class DensityState:
    """Hermitian unit-trace state on a fixed momentum fiber (floating point)."""

    p: tuple
    matrix: np.ndarray

    def __post_init__(self):
        import numpy as np

        rho = np.asarray(self.matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density matrix must be square")
        if np.abs(rho - rho.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > HERMITICITY_TOL:
            raise ValueError("density matrix must have unit trace")
        self.matrix = rho


def _float_matrix(m: ExactMatrix) -> np.ndarray:
    import numpy as np

    return np.array(
        [[complex(v.re) + 1j * complex(v.im) for v in row] for row in m.rows]
    )


def evolution_operator(model: DiracModel, p, t: float) -> np.ndarray:
    """exp(-i H(p) t) via the spectral split H^2 = omega^2 I."""
    import numpy as np

    p = [Fraction(x) for x in p]
    h = _float_matrix(model.hamiltonian_matrix(p))
    omega2 = float(sum((x * x for x in p), Fraction(0)) + model.mass**2)
    omega = np.sqrt(omega2)
    n = h.shape[0]
    if omega == 0.0:
        return np.eye(n, dtype=complex)
    return np.cos(omega * t) * np.eye(n) - 1j * np.sin(omega * t) / omega * h


def density_evolve(
    p, model: DiracModel, rho0: DensityState, t: float, steps: int = 1
) -> DensityState:
    """Unitary conjugation evolution of the fiber density matrix."""
    if steps < 1:
        raise ValueError("steps must be positive")
    rho = DensityState(p=tuple(rho0.p), matrix=rho0.matrix).matrix
    u = evolution_operator(model, p, t / steps)
    for _ in range(steps):
        rho = u @ rho @ u.conj().T
    return DensityState(p=tuple(p), matrix=rho)
