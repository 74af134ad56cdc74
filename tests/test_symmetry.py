"""Intertwiner solving and the invariance classification."""

import json
from fractions import Fraction

import pytest

from diracsym import (
    CANDIDATES,
    CLASSIFY_ORDER,
    ExactMatrix,
    ExactScalar,
    classify,
    compose,
    composite_candidate,
    model_for,
    model_for_variant,
    solve_tau,
    verify_tau,
)
from diracsym import symmetry
from diracsym.clifford import SIGMA1, SIGMA2, SIGMA3
from diracsym.exact import _Rref, nullspace_from_rref
from diracsym.models import block_antidiag, block_diag
from diracsym.symmetry import (
    C,
    PARITY,
    PTC,
    TP,
    TP_LITERAL,
    TPC,
    TW,
    TWC,
    _constraint_pairs,
    _invertible_element,
    _normalize,
    clifford2_span,
)

from conftest import proj_equal


def _dense_span_basis(model, cand):
    """Reference for the clifford2 ansatz: one row per matrix entry of
    span[s]*A - eps*B*span[s], built by dense products."""
    pairs, _ = _constraint_pairs(model, cand, include_j=True)
    span = clifford2_span(model)
    n = model.dim
    rref = _Rref()
    for _, a, b, eps in pairs:
        mats = [(m @ a) - (b @ m).scale(ExactScalar(eps)) for m in span]
        for i in range(n):
            for j in range(n):
                row = {s: cm.rows[i][j] for s, cm in enumerate(mats) if cm.rows[i][j]}
                if row:
                    rref.add_row(row)
    basis = []
    for v in nullspace_from_rref(rref, len(span)):
        m = ExactMatrix.zero(n)
        for coef, mat in zip(v, span):
            if coef:
                m = m + mat.scale(coef)
        basis.append(m)
    return basis


def _dumps(mats):
    return json.dumps([m.to_json() if m is not None else None for m in mats])


def _alpha_prod(model, *ks):
    m = ExactMatrix.identity(model.dim)
    for k in ks:
        m = m @ model.alphas[k - 1]
    return m


class TestMassiveD4:
    """The 3+1 single-branch massive equation."""

    def test_tw_unique_and_equals_alpha1_alpha3(self):
        model = model_for(4, mass=1)
        sol = solve_tau(model, TW)
        assert sol.dim == 1
        assert sol.exists
        assert proj_equal(sol.invertible_representative, _alpha_prod(model, 1, 3))

    def test_tp_and_c_have_only_zero(self):
        model = model_for(4, mass=1)
        for cand in (TP, C):
            sol = solve_tau(model, cand)
            assert sol.dim == 0
            assert not sol.exists

    def test_tpc_exists_tw_c_absent_composites(self):
        model = model_for(4, mass=1)
        assert solve_tau(model, TPC).exists
        assert not solve_tau(model, TWC).exists
        assert not solve_tau(model, PTC).exists

    def test_parity_always_exists(self):
        model = model_for(4, mass=1)
        sol = solve_tau(model, PARITY)
        assert sol.exists
        assert proj_equal(sol.invertible_representative, model.beta)

    def test_mass_value_does_not_change_verdicts(self):
        for mass in (Fraction(1, 3), Fraction(7)):
            model = model_for(4, mass=mass)
            assert solve_tau(model, TW).exists
            assert not solve_tau(model, C).exists


class TestMasslessD4:
    def test_representatives(self):
        model = model_for(4, mass=0)
        tp = solve_tau(model, TP)
        c = solve_tau(model, C)
        tw = solve_tau(model, TW)
        assert tp.exists and c.exists and tw.exists
        assert proj_equal(tp.invertible_representative, model.gamma.gamma0)
        assert proj_equal(c.invertible_representative, _alpha_prod(model, 2, 4))
        assert proj_equal(tw.invertible_representative, _alpha_prod(model, 1, 3))


class TestDoubledD4:
    def test_all_three_reflections_exist(self):
        model = model_for(4, mass=1, doubled=True)
        for cand in (TP, TW, C):
            assert solve_tau(model, cand).exists

    def test_published_matrices_satisfy_all_constraints(self):
        model = model_for(4, mass=1, doubled=True)
        single = model_for(4, mass=1)
        beta = single.beta
        a13 = _alpha_prod(single, 1, 3)
        a24 = _alpha_prod(single, 2, 4)
        tau_p = block_antidiag(beta, beta)
        tau_w = block_diag(a13, a13)
        tau_c = block_antidiag(a24, a24)
        assert verify_tau(model, TP, tau_p)
        assert verify_tau(model, TW, tau_w)
        assert verify_tau(model, C, tau_c)

    def test_ptc_by_composition(self):
        model = model_for(4, mass=1, doubled=True)
        sol_p = solve_tau(model, PARITY)
        sol_w = solve_tau(model, TW)
        sol_c = solve_tau(model, C)
        cand_pw, tau_pw = compose(
            PARITY, sol_p.invertible_representative, TW, sol_w.invertible_representative
        )
        cand_ptc, tau_ptc = compose(
            cand_pw, tau_pw, C, sol_c.invertible_representative, name="PTC"
        )
        assert not cand_ptc.antilinear
        assert verify_tau(model, cand_ptc, tau_ptc)
        assert tau_ptc.is_invertible()
        # and the direct solve agrees
        assert solve_tau(model, PTC).exists


class TestD2:
    def test_massive_single(self):
        model = model_for(2, mass=1)
        assert not solve_tau(model, TP).exists
        assert not solve_tau(model, TW).exists
        sol_c = solve_tau(model, C)
        assert sol_c.exists
        assert proj_equal(sol_c.invertible_representative, SIGMA1)

    def test_doubled_published_matrices(self):
        model = model_for(2, mass=1, doubled=True)
        tau_p = block_antidiag(SIGMA3, SIGMA3)
        tau_w = block_antidiag(SIGMA2, SIGMA2)
        tau_c = block_diag(SIGMA1, SIGMA1)
        assert verify_tau(model, TP, tau_p)
        assert verify_tau(model, TW, tau_w)
        assert verify_tau(model, C, tau_c)

    def test_massless_representatives(self):
        model = model_for(2, mass=0)
        tp = solve_tau(model, TP)
        tw = solve_tau(model, TW)
        assert tp.exists and tw.exists
        assert proj_equal(tp.invertible_representative, SIGMA3)
        assert proj_equal(tw.invertible_representative, SIGMA2)


class TestSolverSoundness:
    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("name", ["P", "Tp", "Tw", "C", "TpC", "TwC", "PTC"])
    def test_every_basis_element_verifies(self, d, name):
        model = model_for(d, mass=1)
        sol = solve_tau(model, CANDIDATES[name])
        for b in sol.basis:
            assert verify_tau(model, sol.candidate, b)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_single_massive_solution_spaces_are_at_most_lines(self, d):
        model = model_for(d, mass=1)
        for name in ("P", "Tp", "Tw", "C"):
            sol = solve_tau(model, CANDIDATES[name])
            assert sol.dim <= 1
            if sol.exists:
                assert sol.dim == 1

    def test_phase_freedom(self):
        # any nonzero scalar multiple of a solution is a solution
        model = model_for(4, mass=1)
        sol = solve_tau(model, TW)
        tau = sol.invertible_representative
        for lam in (ExactScalar(0, 1), ExactScalar(Fraction(-3, 7), Fraction(2))):
            assert verify_tau(model, TW, tau.scale(lam))

    def test_square_phase_of_unique_solutions(self):
        model = model_for(4, mass=1)
        sol = solve_tau(model, TW)
        assert sol.square_phase is not None
        # tau * conj(tau) proportional to the identity with unit modulus
        assert sol.square_phase.abs2() == Fraction(1)

    def test_random_perturbed_matrix_fails_verification(self):
        model = model_for(4, mass=1)
        sol = solve_tau(model, TW)
        tau = sol.invertible_representative
        bad = tau + ExactMatrix.identity(model.dim).scale(ExactScalar(Fraction(1, 5)))
        assert not verify_tau(model, TW, bad)


class TestCandidateCalculus:
    def test_literal_linear_time_reflection_is_orbitally_inconsistent(self):
        model = model_for(4, mass=1)
        sol = solve_tau(model, TP_LITERAL)
        assert sol.orbital_inconsistencies
        assert not sol.exists

    def test_workable_time_reflection_has_no_inconsistencies(self):
        model = model_for(4, mass=1)
        assert not solve_tau(model, TP).orbital_inconsistencies

    def test_composite_signature_identities(self):
        assert TPC.signature == TW.signature
        assert TPC.antilinear == TW.antilinear
        assert TWC.signature == TP.signature
        assert TWC.antilinear == TP.antilinear
        assert not PTC.antilinear

    def test_composite_candidate_sign_algebra(self):
        cc = composite_candidate(C, C)
        assert not cc.antilinear
        assert all(v == 1 for _, v in cc.signature)
        assert cc.t_sign == 1 and cc.x_sign == 1


class TestAnsatzModes:
    def test_clifford2_agrees_with_full_at_d4(self):
        model = model_for(4, mass=1)
        for name in ("Tp", "Tw", "C"):
            full = solve_tau(model, CANDIDATES[name], ansatz="full")
            restricted = solve_tau(model, CANDIDATES[name], ansatz="clifford2")
            assert full.dim == restricted.dim
            assert full.exists == restricted.exists

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("variant", ["single", "single-", "massless"])
    def test_clifford2_matches_dense_product_assembly(self, d, variant):
        model = model_for_variant(d, variant)
        for name in CLASSIFY_ORDER:
            cand = CANDIDATES[name]
            sol = solve_tau(model, cand, ansatz="clifford2")
            basis = _dense_span_basis(model, cand)
            assert _dumps(sol.basis) == _dumps(basis), name
            reps = [_normalize(basis[0]) if basis else None, _invertible_element(basis)]
            assert _dumps([sol.representative, sol.invertible_representative]) == (
                _dumps(reps)
            ), name

    def test_unknown_ansatz_rejected(self):
        with pytest.raises(ValueError):
            solve_tau(model_for(2), TW, ansatz="nope")

    def test_clifford2_rejected_for_doubled(self):
        with pytest.raises(ValueError):
            solve_tau(model_for(2, doubled=True), TW, ansatz="clifford2")


class TestClassification:
    def test_d2_d4_rows(self):
        records = classify([2, 4], variants=("single",))
        table = {
            (r.d, r.variant): {k: v.exists for k, v in r.entries.items()}
            for r in records
        }
        assert table[(2, "single")] == {
            "P": True, "Tp": False, "Tw": False, "C": True,
            "TpC": False, "TwC": False, "PTC": False,
        }
        assert table[(4, "single")] == {
            "P": True, "Tp": False, "Tw": True, "C": False,
            "TpC": True, "TwC": False, "PTC": False,
        }

    def test_parallel_merge_is_deterministic(self):
        seq = classify([2, 4], variants=("single", "massless"))
        par = classify([2, 4], variants=("single", "massless"), jobs=2)
        assert len(seq) == len(par)
        for a, b in zip(seq, par):
            assert (a.d, a.variant) == (b.d, b.variant)
            for name in a.entries:
                assert a.entries[name].exists == b.entries[name].exists
                assert a.entries[name].dim == b.entries[name].dim

    def test_workers_capped_at_cell_count(self, monkeypatch):
        # records the pool size and runs the cells in this process, so no
        # worker is ever started
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(symmetry, "ProcessPoolExecutor", RecordingPool)
        records = classify([2], jobs=10**6)
        assert sizes == [len(CLASSIFY_ORDER)]
        assert [r.entries[c].dim for r in records for c in CLASSIFY_ORDER] == [
            r.entries[c].dim for r in classify([2]) for c in CLASSIFY_ORDER
        ]
        classify([2], candidates=("P",), jobs=8)
        assert sizes == [len(CLASSIFY_ORDER)]  # one cell runs in-process

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            model_for_variant(2, "triple")
