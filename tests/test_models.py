"""Operator symbols, canonical ordering, and the model generators."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from diracsym import ExactMatrix, ExactScalar, doubled, model_for
from diracsym import models
from diracsym.exact import I_UNIT
from diracsym.models import p_monomial, unit_monomial, x_monomial
from diracsym.symmetry import VARIANTS, model_for_variant

from conftest import block_diag, dense_alphas
from dense_oracle import (
    OperatorSymbol,
    coeff,
    commutator,
    dispersion_scalar,
    hamiltonian,
    max_var_degree,
    mul,
    square_of_hamiltonian,
    symbol,
    t_monomial,
)
from gamma_reference import kron_gammas


def generator(model, which, k=0, l=0):
    """The closed-form generator as a dense operator symbol."""
    return symbol(model, models.generator(model, which, k=k, l=l))


def _sym(model, mono, mat=None):
    s = OperatorSymbol(model.d, model.dim)
    s._add_term(mono, mat if mat is not None else ExactMatrix.identity(model.dim))
    return s


class TestCanonicalOrdering:
    def test_p_times_x_reorders_with_commutator(self):
        m = model_for(2)
        x1 = _sym(m, x_monomial(2, 1))
        p1 = _sym(m, p_monomial(2, 1))
        lhs = mul(p1, x1)
        rhs = mul(x1, p1) - _sym(m, unit_monomial(2)).scale(I_UNIT)
        assert (lhs - rhs).is_zero()

    def test_p_squared_x_squared_expansion(self):
        # p^2 x^2 = x^2 p^2 - 4i x p - 2
        m = model_for(2)
        x1 = _sym(m, x_monomial(2, 1))
        p1 = _sym(m, p_monomial(2, 1))
        lhs = mul(mul(p1, p1), mul(x1, x1))
        rhs = (
            mul(mul(x1, x1), mul(p1, p1))
            - mul(x1, p1).scale(ExactScalar(0, 4))
            - _sym(m, unit_monomial(2)).scale(ExactScalar(2))
        )
        assert (lhs - rhs).is_zero()

    def test_different_indices_commute(self):
        m = model_for(4)
        x1 = _sym(m, x_monomial(4, 1))
        p2 = _sym(m, p_monomial(4, 2))
        assert commutator(x1, p2).is_zero()

    def test_symbol_product_associative(self):
        m = model_for(2)
        a = _sym(m, x_monomial(2, 1)) + _sym(m, p_monomial(2, 2))
        b = _sym(m, p_monomial(2, 1)).scale(ExactScalar(0, 1))
        c = mul(_sym(m, x_monomial(2, 1)), _sym(m, p_monomial(2, 1)))
        assert (mul(mul(a, b), c) - mul(a, mul(b, c))).is_zero()


class TestHamiltonianAndGenerators:
    def test_hamiltonian_matrix_structure(self):
        m = model_for(4, mass=Fraction(3))
        p = [Fraction(1), Fraction(0), Fraction(-2), Fraction(5)]
        h = m.hamiltonian_matrix(p)
        want = ExactMatrix.zero(m.dim)
        for pk, ak in zip(p, dense_alphas(m)):
            want = want + ak.scale(ExactScalar(pk))
        want = want + m.beta.scale(ExactScalar(3))
        assert h == want

    def test_negative_branch_flips_mass_term(self):
        plus = model_for(4, mass=2, branch=1)
        minus = model_for(4, mass=2, branch=-1)
        zero = [Fraction(0)] * 4
        assert plus.hamiltonian_matrix(zero) == -minus.hamiltonian_matrix(zero)

    def test_square_of_hamiltonian_is_scalar_symbol(self):
        for d in (2, 4):
            m = model_for(d, mass=Fraction(5, 3))
            sq = square_of_hamiltonian(m)
            ident = ExactMatrix.identity(m.dim)
            want = OperatorSymbol(d, m.dim)
            want._add_term(
                unit_monomial(d), ident.scale(ExactScalar(Fraction(25, 9)))
            )
            for k in range(1, d + 1):
                mono = p_monomial(d, k)
                want._add_term((mono[0], mono[1], tuple(2 * e for e in mono[2])), ident)
            assert (sq - want).is_zero()
            disp = dispersion_scalar(m)
            assert disp is not None
            assert sorted(disp.terms) == sorted(want.terms)

    def test_boost_matches_symmetrized_oracle(self):
        # J0k must equal t*p_k - (x_k H + H x_k)/2 after canonical ordering
        half = ExactScalar(Fraction(1, 2))
        for d, variant, mass in itertools.product(
            (2, 4, 6, 8), VARIANTS, (Fraction(1), Fraction(3, 7))
        ):
            m = model_for_variant(d, variant, mass=mass)
            h = hamiltonian(m)
            for k in range(1, d + 1):
                xk = _sym(m, x_monomial(d, k))
                tpk = mul(_sym(m, t_monomial(d)), _sym(m, p_monomial(d, k)))
                oracle = tpk - (mul(xk, h) + mul(h, xk)).scale(half)
                assert (generator(m, "J0k", k=k) - oracle).is_zero(), (d, variant, mass, k)

    @pytest.mark.parametrize("d", [2, 4, 6])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_generators_match_kron_gammas(self, d, variant):
        # H and the spin terms (i/2) alpha_l alpha_k from the dense recursion
        m = model_for_variant(d, variant, mass=Fraction(3, 7))
        g = kron_gammas(d)
        alphas, beta = [g[0] @ gk for gk in g[1:]], g[0]
        if m.doubled:
            alphas = [block_diag(a, a) for a in alphas]
            beta = block_diag(beta, -beta)
        want = OperatorSymbol(d, m.dim)
        for k, a in enumerate(alphas, start=1):
            want._add_term(p_monomial(d, k), a)
        want._add_term(unit_monomial(d), beta.scale(ExactScalar(m.branch * m.mass)))
        assert generator(m, "P0") == want
        half_i = ExactScalar(0, Fraction(1, 2))
        for k in range(1, d + 1):
            for l in range(k + 1, d + 1):
                spin = (alphas[l - 1] @ alphas[k - 1]).scale(half_i)
                assert coeff(generator(m, "Jkl", k=k, l=l), unit_monomial(d)) == spin

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rotations_are_brackets_of_boosts(self, d, variant):
        # Jkl = i[J0k, J0l], the identity behind the solver's generating set
        m = model_for_variant(d, variant, mass=Fraction(3, 7))
        i_unit = ExactScalar(0, 1)
        for k in range(1, d + 1):
            for l in range(k + 1, d + 1):
                bracket = commutator(generator(m, "J0k", k=k), generator(m, "J0k", k=l))
                jkl = generator(m, "Jkl", k=k, l=l)
                assert (bracket.scale(i_unit) - jkl).is_zero(), (k, l)

    def test_generators_extend_the_generating_set(self):
        d = 6
        m = model_for(d)
        classes = ["P0"] + ["Pk"] * d + ["Jkl"] * (d * (d - 1) // 2) + ["J0k"] * d
        assert [g[0] for g in m.generators] == classes

    def test_boosts_and_p0_do_no_scalar_arithmetic(self, monkeypatch):
        # their scaled terms change only the phase exponent and the
        # magnitude; the values are checked against the dense oracle above
        def refuse(*args):
            raise AssertionError("scalar arithmetic in a generator")

        for mass in (0, Fraction(3, 7)):
            m = model_for(8, mass=mass, branch=-1)
            with monkeypatch.context() as mp:
                for name in ("__mul__", "__neg__", "__add__", "__sub__"):
                    mp.setattr(ExactScalar, name, refuse)
                models.generator(m, "P0")
                for k in range(1, 9):
                    models.generator(m, "J0k", k=k)

    def test_generator_symbols_are_affine_in_each_variable(self):
        m = model_for(4)
        for g in ("P0", "Pk", "Jkl", "J0k"):
            sym = generator(m, g, k=1, l=2)
            assert max_var_degree(sym) <= 1

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_rotation_translation_closure_all_triples(self, d):
        # [J_kl, P_m] == i*(delta_km P_l - delta_lm P_k) for every index triple
        m = model_for(d, mass=1)
        i_unit = ExactScalar(0, 1)
        ps = {k: generator(m, "Pk", k=k) for k in range(1, d + 1)}
        for k in range(1, d + 1):
            for l in range(k + 1, d + 1):
                jkl = generator(m, "Jkl", k=k, l=l)
                for mm in range(1, d + 1):
                    want = OperatorSymbol(d, m.dim)
                    if mm == k:
                        want = want + ps[l].scale(i_unit)
                    if mm == l:
                        want = want - ps[k].scale(i_unit)
                    assert (commutator(jkl, ps[mm]) - want).is_zero(), (k, l, mm)

    def test_algebra_closure(self):
        m = model_for(4, mass=2)
        h = generator(m, "P0")
        j12 = generator(m, "Jkl", k=1, l=2)
        j01 = generator(m, "J0k", k=1)
        p1 = generator(m, "Pk", k=1)
        p2 = generator(m, "Pk", k=2)
        assert commutator(j12, h).is_zero()
        assert (commutator(j01, h) - p1.scale(ExactScalar(0, -1))).is_zero()
        assert (commutator(j12, p1) - p2.scale(ExactScalar(0, 1))).is_zero()
        assert commutator(p1, p2).is_zero()


class TestDoubledModel:
    def test_blocks(self):
        single = model_for(4, mass=1)
        dbl = model_for(4, mass=1, doubled=True)
        n = single.dim
        assert dbl.dim == 2 * n
        for a_s, a_d in zip(dense_alphas(single), dense_alphas(dbl)):
            for i in range(n):
                for j in range(n):
                    assert a_d[i, j] == a_s[i, j]
                    assert a_d[n + i, n + j] == a_s[i, j]
                    assert a_d[i, n + j].is_zero()
        b_s, b_d = single.beta, dbl.beta
        for i in range(n):
            for j in range(n):
                assert b_d[i, j] == b_s[i, j]
                assert b_d[n + i, n + j] == -b_s[i, j]

    def test_double_of_doubled_rejected(self):
        with pytest.raises(ValueError):
            doubled(model_for(2, doubled=True))

    def test_doubled_hamiltonian_contains_both_branches(self):
        dbl = model_for(2, mass=3, doubled=True)
        plus = model_for(2, mass=3, branch=1)
        minus = model_for(2, mass=3, branch=-1)
        p = [Fraction(1), Fraction(-1)]
        h = dbl.hamiltonian_matrix(p)
        hp, hm = plus.hamiltonian_matrix(p), minus.hamiltonian_matrix(p)
        n = plus.dim
        for i in range(n):
            for j in range(n):
                assert h[i, j] == hp[i, j]
                assert h[n + i, n + j] == hm[i, j]


@pytest.mark.parametrize("d", [2, 4, 6])
def test_alpha_strings_encode_kron_alphas(d):
    single = model_for(d, mass=1)
    g = kron_gammas(d)
    reference = [g[0] @ gk for gk in g[1:]]
    assert dense_alphas(single) == reference
    dbl = doubled(single)
    assert dense_alphas(dbl) == [block_diag(a, a) for a in reference]
    assert dense_alphas(replace(single, mass=Fraction(3))) == reference


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        model_for(2, mass=-1)


def test_bad_generator_index_rejected():
    m = model_for(2)
    with pytest.raises(ValueError):
        models.generator(m, "Pk", k=3)
    with pytest.raises(ValueError):
        models.generator(m, "Jkl", k=2, l=2)
