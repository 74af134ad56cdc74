"""Intertwiner solving and the invariance classification."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracsym import (
    CANDIDATES,
    CLASSIFY_ORDER,
    ExactMatrix,
    ExactScalar,
    classify,
    composite_candidate,
    model_for,
    model_for_variant,
    monomial_basis,
    solve_tau,
    system_for,
    verify_tau,
)
from diracsym import certificate, exact, models, pauli, symmetry
from diracsym.exact import _Rref, nullspace_from_rref
from diracsym.symmetry import (
    C,
    PARITY,
    PTC,
    TP,
    TP_LITERAL,
    TPC,
    TW,
    TWC,
    VARIANTS,
    _normalize,
    clifford2_span,
)

from conftest import block_antidiag, block_diag, dense_alphas, proj_equal
from dense_oracle import _constraint_pairs, _last_pivot_basis, compose, invertible_element
from gamma_reference import SIGMA1, SIGMA2, SIGMA3


def _dense_span_basis(model, cand):
    """Reference for the clifford2 ansatz: one row per matrix entry of
    span[s]*A - eps*B*span[s], built by dense products."""
    pairs, _ = _constraint_pairs(model, cand, include_j=True)
    n = model.dim
    span = [pauli.encode(*mon.string, n) for mon in clifford2_span(model)]
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
    alphas = dense_alphas(model)
    for k in ks:
        m = m @ alphas[k - 1]
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

    def test_every_invertible_representative_is_unitary(self):
        # the representative is a solution string scaled to a unit first
        # entry, so it is unitary, and on a line its square is +-1.
        # verify_tau accepts zero and singular matrices, so these dense
        # checks are what tells a broken representative from a good one.
        sols = [
            solve_tau(model_for_variant(d, v), CANDIDATES[name], variant=v)
            for d in (2, 4, 6, 8)
            for v in VARIANTS
            for name in CLASSIFY_ORDER
        ]
        sols += [
            solve_tau(model_for_variant(d, v), CANDIDATES[name], "clifford2", variant=v)
            for d in (2, 4, 6, 8)
            for v in ("single", "single-", "massless")
            for name in CLASSIFY_ORDER
        ]
        reported = [sol for sol in sols if sol.exists]
        assert len(reported) > len(sols) // 3
        for sol in reported:
            rep = sol.invertible_representative
            key = (sol.d, sol.variant, sol.candidate.name, sol.ansatz)
            assert rep @ rep.dagger() == ExactMatrix.identity(rep.dim), key
            if sol.dim == 1:
                assert sol.square_phase in (ExactScalar(1), ExactScalar(-1)), key
                tau = sol.representative
                assert tau == rep, key
                square = tau @ (tau.conj() if sol.candidate.antilinear else tau)
                assert sol.square_phase == square.scalar_multiple_of_identity(), key
            else:
                assert sol.square_phase is None, key

    def test_random_perturbed_matrix_fails_verification(self):
        model = model_for(4, mass=1)
        sol = solve_tau(model, TW)
        tau = sol.invertible_representative
        bad = tau + ExactMatrix.identity(model.dim).scale(ExactScalar(Fraction(1, 5)))
        assert not verify_tau(model, TW, bad)


def _oracle_basis(strings, nq):
    n = 1 << nq
    mats = [pauli.encode(1, 0, *pauli.unpack(s, nq), n) for s in strings]
    return _last_pivot_basis(mats)


class TestClosedFormBasis:
    """The full-ansatz basis is written down from the solution strings; the
    oracle eliminates their dense encodings exactly."""

    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
    def test_basis_matches_last_pivot_elimination(self, d):
        for v in VARIANTS:
            model = model_for_variant(d, v)
            nq = pauli.qubits(model.dim)
            for name, cand in CANDIDATES.items():
                rows, _ = symmetry._string_rows(model, cand, True)
                want = _oracle_basis(pauli.solve_affine(rows, 2 * nq), nq)
                sol = solve_tau(model, cand, variant=v)
                assert _dumps(sol.basis) == _dumps(want), (v, name)
                rep = _normalize(want[0]) if want else None
                assert _dumps([sol.representative]) == _dumps([rep]), (v, name)

    @settings(max_examples=80, deadline=None)
    @given(
        q=st.integers(0, 4),
        rows=st.lists(st.tuples(st.integers(0, 255), st.integers(0, 1)), max_size=9),
    )
    @example(q=4, rows=[])  # every string
    @example(q=4, rows=[(1 << b, b & 1) for b in range(8)])  # one string
    @example(q=3, rows=[(1, 0), (1, 1)])  # no string
    @example(q=2, rows=[(0b1010, 1)])  # two classes per x mask
    def test_random_affine_string_sets(self, q, rows):
        rows = [(mask & ((1 << 2 * q) - 1), rhs) for mask, rhs in rows]
        strings = pauli.solve_affine(rows, 2 * q)
        basis, rep = symmetry._solve_strings(strings, q)
        want = _oracle_basis(strings, q)
        assert _dumps(basis) == _dumps(want)
        assert _dumps([rep]) == _dumps([_normalize(want[0]) if want else None])

    def test_full_ansatz_makes_no_dense_arithmetic(self, monkeypatch):
        cells = [
            (model_for_variant(8, v), v, cand)
            for v in VARIANTS
            for cand in CANDIDATES.values()
        ]

        def dump():
            return [
                json.dumps(certificate.tau_solution_json(solve_tau(m, c, variant=v)))
                for m, v, c in cells
            ]

        want = dump()

        def refuse(*args, **kwargs):
            raise AssertionError("dense arithmetic in a full-ansatz solve")

        monkeypatch.setattr(exact._Rref, "add_row", refuse)
        monkeypatch.setattr(exact, "matmul", refuse)
        monkeypatch.setattr(ExactMatrix, "scale", refuse)
        monkeypatch.setattr(ExactMatrix, "scalar_multiple_of_identity", refuse)
        assert dump() == want


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
            reps = [_normalize(basis[0]) if basis else None, invertible_element(basis)]
            assert _dumps([sol.representative, sol.invertible_representative]) == (
                _dumps(reps)
            ), name

    @pytest.mark.parametrize(
        "d",
        [
            pytest.param(
                2,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="clifford2 at d = 2 keeps a zero matrix for each later "
                    "monomial on an excluded string: its 7 monomials hold only 4 "
                    "strings (the FOUND line on clifford2 at d = 2 in CHANGES.md); "
                    "perfbench/expected.json stores these d = 2 dims, so the fix "
                    "waits for the next benchmark change (ROADMAP item 2)",
                ),
            ),
            4,
            6,
        ],
    )
    def test_clifford2_basis_is_nonzero_and_independent(self, d):
        for v in ("single", "single-", "massless"):
            model = model_for_variant(d, v)
            for name in CLASSIFY_ORDER:
                sol = solve_tau(model, CANDIDATES[name], "clifford2", variant=v)
                assert not any(b.is_zero() for b in sol.basis), (v, name)
                flat = [[a for row in b.rows for a in row] for b in sol.basis]
                assert exact.rank(flat) == sol.dim, (v, name)

    def test_clifford2_needs_no_elimination_or_dense_monomials(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact elimination or dense encoding")

        with monkeypatch.context() as mp:
            mp.setattr(exact._Rref, "add_row", refuse)
            mp.setattr(exact, "nullspace_from_rref", refuse)
            for d in (2, 4, 6, 8):
                for v in ("single", "single-", "massless"):
                    model = model_for_variant(d, v)
                    for name in CLASSIFY_ORDER:
                        solve_tau(model, CANDIDATES[name], "clifford2", variant=v)
        monkeypatch.setattr(pauli, "encode_sum", refuse)
        assert len(monomial_basis(system_for(12), 2)) == 1 + 13 + 78

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
        # jobs is accepted and ignored, however large
        seq = classify([2, 4], variants=("single", "massless"))
        for jobs in (2, 10**6):
            par = classify([2, 4], variants=("single", "massless"), jobs=jobs)
            assert len(seq) == len(par)
            for a, b in zip(seq, par):
                assert (a.d, a.variant) == (b.d, b.variant)
                for name in a.entries:
                    assert a.entries[name].exists == b.entries[name].exists
                    assert a.entries[name].dim == b.entries[name].dim

    def test_one_model_per_row(self, monkeypatch):
        rows = []
        built = []

        def recording(d, variant, mass=1):
            rows.append((d, variant))
            return model_for_variant(d, variant, mass=mass)

        def counting(model, which, k=0, l=0):
            built.append(which)
            return real(model, which, k=k, l=l)

        real = models.generator
        monkeypatch.setattr(symmetry, "model_for_variant", recording)
        monkeypatch.setattr(models, "generator", counting)
        records = classify([4, 6], variants=("single", "doubled"))
        assert rows == [(4, "single"), (4, "doubled"), (6, "single"), (6, "doubled")]
        assert [len(r.entries) for r in records] == [len(CLASSIFY_ORDER)] * 4
        # the candidates of a row read their rows off the type table of
        # the generating set and build no generator
        assert built == []

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            model_for_variant(2, "triple")
