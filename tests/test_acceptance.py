"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion.  Criterion 9's ansatz-adequacy half is a faithful test of
a claimed property that is provably false (see the failure message); it
is expected to fail and is kept red rather than weakened.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from diracsym import (
    CANDIDATES,
    DensityState,
    ExactMatrix,
    FiberState,
    MassProfile,
    classify,
    density_evolve,
    dispersion_check,
    little_group_labels,
    model_for,
    pauli,
    profile_apply_P2,
    solve_tau,
    sqrt_dirac_fiber,
    system_for,
    verify_tau,
)
from diracsym.certificate import FLAGS, flags_for
from diracsym.symmetry import C, PARITY, PTC, TP, TW

from conftest import block_antidiag, block_diag, dense_alphas, proj_equal
from dense_oracle import compose, dense_check_relations
from gamma_reference import SIGMA1, SIGMA2, SIGMA3

BUILTIN_NAMES = ("P", "Tp", "Tw", "C")


def _alpha_prod(model, *ks):
    m = ExactMatrix.identity(model.dim)
    alphas = dense_alphas(model)
    for k in ks:
        m = m @ alphas[k - 1]
    return m


def _row(entries):
    return {k: v.exists for k, v in entries.items()}


def test_criterion_01_gamma_construction():
    """Clifford relations hold exactly for d = 2..10 in under 5 s."""
    t0 = time.monotonic()
    for d in (2, 4, 6, 8, 10):
        gs = system_for(d)
        assert gs.rep_dim == 2 ** (d // 2)
        report = dense_check_relations(gs)
        assert all(r["ok"] for r in report), f"relation failure at d={d}"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f} s"


def test_criterion_02_d4_single_massive():
    """Massive 3+1 single branch: Tw unique (alpha1*alpha3), Tp and C empty."""
    t0 = time.monotonic()
    model = model_for(4, mass=1)
    assert solve_tau(model, TP).dim == 0
    assert solve_tau(model, C).dim == 0
    tw = solve_tau(model, TW)
    assert tw.dim == 1 and tw.exists
    assert proj_equal(tw.invertible_representative, _alpha_prod(model, 1, 3))
    assert time.monotonic() - t0 < 1.0


def test_criterion_03_d4_massless():
    """Massless 3+1: representatives gamma0, alpha2*alpha4, alpha1*alpha3."""
    model = model_for(4, mass=0)
    assert proj_equal(
        solve_tau(model, TP).invertible_representative, model.gamma.gammas[0]
    )
    assert proj_equal(
        solve_tau(model, C).invertible_representative, _alpha_prod(model, 2, 4)
    )
    assert proj_equal(
        solve_tau(model, TW).invertible_representative, _alpha_prod(model, 1, 3)
    )


def test_criterion_04_d4_doubled():
    """Doubled 3+1: Tp/Tw/C all exist, published matrices verify, PTC by composition."""
    model = model_for(4, mass=1, doubled=True)
    sols = {name: solve_tau(model, CANDIDATES[name]) for name in ("P", "Tp", "Tw", "C")}
    assert all(s.exists for s in sols.values())
    single = model_for(4, mass=1)
    beta = pauli.encode(*single.beta_string, single.dim)
    assert verify_tau(model, TP, block_antidiag(beta, beta))
    a13 = _alpha_prod(single, 1, 3)
    a24 = _alpha_prod(single, 2, 4)
    assert verify_tau(model, TW, block_diag(a13, a13))
    assert verify_tau(model, C, block_antidiag(a24, a24))
    cand_pw, tau_pw = compose(
        PARITY,
        sols["P"].invertible_representative,
        TW,
        sols["Tw"].invertible_representative,
    )
    cand_ptc, tau_ptc = compose(
        cand_pw, tau_pw, C, sols["C"].invertible_representative, name="PTC"
    )
    assert not cand_ptc.antilinear
    assert tau_ptc.determinant()
    assert verify_tau(model, cand_ptc, tau_ptc)
    assert solve_tau(model, PTC).exists


def test_criterion_05_d2():
    """1+2: single massive C-only; doubled matrices verify; massless s3/s2."""
    massive = model_for(2, mass=1)
    assert not solve_tau(massive, TP).exists
    assert not solve_tau(massive, TW).exists
    assert solve_tau(massive, C).exists
    dbl = model_for(2, mass=1, doubled=True)
    assert verify_tau(dbl, TP, block_antidiag(SIGMA3, SIGMA3))
    assert verify_tau(dbl, TW, block_antidiag(SIGMA2, SIGMA2))
    assert verify_tau(dbl, C, block_diag(SIGMA1, SIGMA1))
    massless = model_for(2, mass=0)
    assert proj_equal(solve_tau(massless, TP).invertible_representative, SIGMA3)
    assert proj_equal(solve_tau(massless, TW).invertible_representative, SIGMA2)


def test_criterion_06_classification_sweep():
    """d = 2..8 sweep: period-4 pattern, d=8 flagged, under 60 s."""
    t0 = time.monotonic()
    records = classify([2, 4, 6, 8], variants=("single",), jobs=4)
    elapsed = time.monotonic() - t0
    rows = {r.d: _row(r.entries) for r in records}
    assert rows[6] == rows[2]
    assert rows[8] == rows[4]
    assert rows[8]["Tw"] is True  # engine verdict recorded as ground truth
    flags = flags_for([2, 4, 6, 8], ["single"])
    assert "d8_text_contradiction" in flags and FLAGS["d8_text_contradiction"]
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_07_spectra():
    """H(p)^2 scalar for 100 random momenta per (d, variant); spot value; labels."""
    rng = random.Random(20260825)

    def rand_p(d):
        return [
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d)
        ]

    for d in (2, 4, 6, 8):
        for doubled in (False, True):
            model = model_for(d, mass=Fraction(3, 2), doubled=doubled)
            for _ in range(100):
                p = rand_p(d)
                block = dispersion_check(model, p)
                assert block["ok"]
                assert block["omega2"] == sum(x * x for x in p) + Fraction(9, 4)
    spot = dispersion_check(model_for(4, mass=3), [0, 0, 0, 4])
    assert spot["ok"] and spot["omega2"] == Fraction(25)

    def tuples(labels):
        return sorted(
            (l.energy_sign, str(l.j1), str(l.j2), l.multiplicity) for l in labels
        )

    assert tuples(little_group_labels(model_for(4, mass=1, branch=1))) == [
        (-1, "0", "1/2", 1),
        (1, "1/2", "0", 1),
    ]
    assert tuples(little_group_labels(model_for(4, mass=1, branch=-1))) == [
        (-1, "1/2", "0", 1),
        (1, "0", "1/2", 1),
    ]
    dbl = model_for(4, mass=1, doubled=True)
    dbl_labels = little_group_labels(dbl)
    assert tuples(dbl_labels) == [
        (-1, "0", "1/2", 1),
        (-1, "1/2", "0", 1),
        (1, "0", "1/2", 1),
        (1, "1/2", "0", 1),
    ]
    assert sum(l.multiplicity * l.block_dim() for l in dbl_labels) == dbl.dim


def test_criterion_08_fibers_and_evolution():
    """Delta-profile fiber reduction exact; density evolution tolerances."""
    fiber = sqrt_dirac_fiber(Fraction(2), [1, -1, 2])
    assert fiber["ok"]
    profile = MassProfile(samples=((Fraction(4), Fraction(1)),), support=(4, 4))
    st = FiberState(
        p=(1, -1, 2),
        m=Fraction(2),
        spinor=tuple(fiber["hamiltonian"].rows[0]),
    )
    scaled, expectation = profile_apply_P2(profile, [st])
    assert expectation == Fraction(4)
    four = type(st.spinor[0])(4)
    for a, b in zip(scaled[0].spinor, st.spinor):
        assert a == b * four

    rng = np.random.default_rng(42)
    model = model_for(4, mass=1)
    for _ in range(3):
        p = [Fraction(int(x)) for x in rng.integers(-5, 6, size=4)]
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho0 = DensityState(p=tuple(p), matrix=rho / np.trace(rho).real)
        w0 = np.sort(np.linalg.eigvalsh(rho0.matrix))
        for t in (0.0, 3.7, 10.0):
            out = density_evolve(p, model, rho0, t).matrix
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.abs(out - out.conj().T).max() < 1e-12
            assert np.abs(np.sort(np.linalg.eigvalsh(out)) - w0).max() < 1e-12
        t1, t2 = 1.1, 2.6
        direct = density_evolve(p, model, rho0, t1 + t2).matrix
        chained = density_evolve(
            p, model, density_evolve(p, model, rho0, t1), t2
        ).matrix
        assert np.abs(direct - chained).max() < 1e-10


def test_criterion_09a_j_constraint_redundancy():
    """Dropping the J rows changes no built-in solution space, d <= 8."""
    for d in (2, 4, 6, 8):
        model = model_for(d, mass=1)
        for name in BUILTIN_NAMES:
            cand = CANDIDATES[name]
            full = solve_tau(model, cand, include_j=True)
            reduced = solve_tau(model, cand, include_j=False)
            assert full.dim == reduced.dim, (d, name)
            for b in reduced.basis:
                assert verify_tau(model, cand, b, include_j=True), (d, name)


def test_criterion_09b_clifford_ansatz_adequacy():
    """Degree-<=2 Clifford ansatz reproduces the full-space verdicts, d <= 8.

    This property is FALSE and the test is kept faithfully red: at d=6
    the charge-conjugation intertwiner is the degree-3 monomial
    gamma2*gamma4*gamma6, and at d=8 the antilinear time-reflection
    intertwiner is the degree-4 monomial gamma1*gamma3*gamma5*gamma7.
    Both lie outside the degree-<=2 span, so the restricted ansatz
    reports them as nonexistent while the full solve finds them.
    """
    mismatches = []
    for d in (2, 4, 6, 8):
        model = model_for(d, mass=1)
        for name in BUILTIN_NAMES:
            cand = CANDIDATES[name]
            full = solve_tau(model, cand, ansatz="full")
            restricted = solve_tau(model, cand, ansatz="clifford2")
            if full.exists != restricted.exists:
                mismatches.append(
                    (d, name, {"full": full.exists, "clifford2": restricted.exists})
                )
    assert not mismatches, f"ansatz disagreements: {mismatches}"
