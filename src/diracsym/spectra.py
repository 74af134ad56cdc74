"""Spectral and representation-label checks, plus mass-fiber dynamics.

Everything about eigenvalues is phrased through exact identities on H^2
and traces, so irrational square roots never appear in exact mode.
The dispersion certificate, the d=4 fiber check and the d=4
little-group labels are decided on sums of Pauli strings (``pauli``),
the labels by the sign patterns of a GF(2) basis of their commuting
strings, and square or multiply no dense matrix.  Floating point is
quarantined to the density-matrix evolution, and so is numpy:
``DensityState`` and ``evolution_operator`` import it on first use, so
importing this module, and every exact check in it, loads no numerical
library.  The evolution writes its float H(p) straight from the Pauli
terms of H(p), n entries per term, with no exact dense matrix in
between.  The terms carry their phases as exponents of i and their
magnitudes as rationals (``pauli``), so a check makes exact complex
scalars only for its results: the dispersion check makes two, the
identity coefficient of H(p)^2 and omega2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import pauli
from .exact import ZERO, ExactScalar, parse_rational
from .models import DiracModel, model_for

HERMITICITY_TOL = 1e-12


def dispersion_check(model: DiracModel, p) -> dict:
    """Certify H(p)^2 == (sum p_k^2 + mass^2) * I without leaving rationals.

    Together with trace H(p) == 0 this pins the eigenvalues to
    +-sqrt(omega2) with equal multiplicities.  Both identities are decided
    on the d+1 Pauli terms of H(p).  ``pauli.square_sum`` squares them
    in d+1 term squares plus O(d^2) parity tests: a pair that
    anticommutes cancels in H(p)^2 without being multiplied.  H(p)^2
    equals omega2 * I exactly when only the identity string is left, with
    coefficient omega2, because distinct strings are linearly
    independent.  A string other than the identity has trace 0, so the
    trace vanishes exactly when the identity string's coefficient does.
    """
    p = [x if type(x) is Fraction else Fraction(x) for x in p]
    terms = model.hamiltonian_strings(p)
    omega2 = sum((x * x for x in p), Fraction(0)) + model.mass * model.mass
    want = {(0, 0): ExactScalar(omega2)} if omega2 else {}
    square_ok = pauli.square_sum(terms) == want
    trace = [pauli.scalar(r, k) for r, k, x, z in terms if not x and not z]
    trace_zero = not sum(trace, ZERO)
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


def _casimirs(model: DiracModel) -> tuple[list, list]:
    """The Casimirs A^2 = sum_i A_i^2 and B^2 = sum_i B_i^2 of the two
    commuting angular-momentum triples on a d=4 model, each a list of
    terms in which a string may repeat (``pauli.square_terms``, like
    strings not added).

    A_i = (rot_i - S_i4) / 2 and B_i = (rot_i + S_i4) / 2 where rot_i is
    the spatial-rotation generator S_jk with (i, j, k) cyclic and
    S_kl = (i/2) alpha_l alpha_k.  The sign split is the orientation
    convention that puts (1/2, 0) on the positive-energy subspace of the
    branch=+1 model.
    """
    al = model.gamma.alpha

    def half_spin(k, l, sign=1):
        # sign * S_kl / 2 = (sign/4) * i * alpha_l * alpha_k as one term
        r, phase, x, z = pauli.mul(al[l - 1], al[k - 1])
        return Fraction(sign, 4) * r, (phase + 1) & 3, x, z

    # rot_i / 2 = S_jk / 2 for i = 1, 2, 3, built once for both Casimirs
    rotations = [half_spin(2, 3), half_spin(3, 1), half_spin(1, 2)]
    casimirs = []
    for sign in (-1, 1):
        terms = []
        for i, rot in enumerate(rotations, start=1):
            a_i = [rot, half_spin(i, 4, sign)]  # A_i, then B_i
            terms += pauli.square_terms(a_i)
        casimirs.append(terms)
    return casimirs[0], casimirs[1]


_J_CANDIDATES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]


def little_group_labels(model: DiracModel) -> list[RepLabel]:
    """Rest-frame little-group content of a massive d=4 model.

    The Casimirs A^2, B^2 and the energy sign branch*beta = H(0)/mass
    stay sums of Pauli strings; no dense matrix is built.  Their strings
    commute pairwise (otherwise ArithmeticError), so
    ``pauli.joint_spectrum`` reads their joint eigenspaces off the sign
    patterns of a GF(2) basis g_1..g_k of those strings: each pattern
    fixes the eigenvalue of every g_i, and with it one eigenvalue of each
    operator on a space of dimension n / 2^k.  Every eigenvalue must be a
    candidate, j(j+1) for A^2 and B^2 and +-1 for the sign; the dimension
    of the joint eigenspace of (s, j1, j2) is then a whole number of
    (2 j1 + 1)(2 j2 + 1) blocks.
    """
    if model.d != 4:
        raise ValueError("little-group labels are computed for d == 4")
    if model.mass == 0:
        raise ValueError("massless little group is out of scope")
    a2, b2 = _casimirs(model)
    n = model.dim
    r, k, x, z = model.beta_string
    branch_beta = [(model.branch * r, k, x, z)]
    spins = {j * (j + 1): j for j in _J_CANDIDATES}
    labels = []
    for (s, a, b), dim in pauli.joint_spectrum([branch_beta, a2, b2], n).items():
        if s.im or a.im or b.im or abs(s.re) != 1 or not {a.re, b.re} <= spins.keys():
            raise ArithmeticError("an operator has an eigenvalue off its candidates")
        j1, j2 = spins[a.re], spins[b.re]
        block = int((2 * j1 + 1) * (2 * j2 + 1))
        if dim % block:
            raise ArithmeticError("eigenspace is not a whole number of blocks")
        labels.append(RepLabel(int(s.re), j1, j2, dim // block))
    if sum(l.multiplicity * l.block_dim() for l in labels) != n:
        raise ArithmeticError("label multiplicities do not sum to rep_dim")
    return sorted(labels, key=lambda l: (-l.energy_sign, l.j1, l.j2))


def sqrt_dirac_fiber(m, p3) -> dict:
    """Fixed-mass fiber of the indefinite-mass equation: the usual
    3+1 Dirac Hamiltonian alpha.p + beta*m, with its exact square proof.

    The proof is ``dispersion_check`` at (p, 0) on the d=4 model: ``ok``
    is its H^2 == omega2 * I verdict, decided on the Pauli terms.  The
    dense H is returned for the caller and is not squared.

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
    check = dispersion_check(model, [*p3, 0])
    omega2, ok = check["omega2"], check["square_is_scalar"]
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


_PHASES = (1, 1j, -1, -1j)


def evolution_operator(model: DiracModel, p, t: float) -> np.ndarray:
    """exp(-i H(p) t) via the spectral split H^2 = omega^2 I.

    H(p) is written in floats from its terms: r * i^k * X^x Z^z puts
    r * i^k * (-1)^|(row^x)&z| in each row, column row^x."""
    import numpy as np

    p = [Fraction(x) for x in p]
    n = model.dim
    rows = [[0j] * n for _ in range(n)]
    for r, k, x, z in model.hamiltonian_strings(p):
        v = float(r) * _PHASES[k]
        for i, row in enumerate(rows):
            col = i ^ x
            row[col] += -v if pauli.parity(col & z) else v
    h = np.array(rows)
    omega2 = float(sum((x * x for x in p), Fraction(0)) + model.mass**2)
    omega = np.sqrt(omega2)
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
