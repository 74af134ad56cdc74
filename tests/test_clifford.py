"""Gamma-system construction and Clifford-monomial bookkeeping."""

import dataclasses
import math

import pytest

from diracsym import (
    ExactMatrix,
    GammaSystem,
    base_system,
    extend,
    monomial_basis,
    pauli,
    system_for,
)
from diracsym.exact import I_UNIT

from conftest import kron
from dense_oracle import monomials_span_full_space
from gamma_reference import SIGMA1, SIGMA2, SIGMA3, kron_gammas


def test_base_system_gammas():
    gs = base_system()
    assert gs.d == 2 and gs.rep_dim == 2
    assert gs.gammas[0] == SIGMA3
    assert gs.gammas[1] == SIGMA3 @ SIGMA1
    assert gs.gammas[2] == SIGMA3 @ SIGMA2


def test_base_alphas_and_beta_are_paulis():
    gs = base_system()
    model_alphas = [gs.gamma0 @ g for g in gs.gammas[1:]]
    assert model_alphas == [SIGMA1, SIGMA2]
    assert gs.gamma0 == SIGMA3


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
def test_string_gammas_match_kron_recursion(d):
    gs = system_for(d)
    assert list(gs.gammas) == kron_gammas(d)
    assert gs.gamma0 == gs.gammas[0]
    alphas = [pauli.encode(*s, gs.rep_dim) for s in gs.alpha]
    assert alphas == [gs.gammas[0] @ g for g in gs.gammas[1:]]


def test_alpha_strings_are_derived_once():
    gs = system_for(6)
    g0 = gs.strings[0]
    assert gs.alpha == tuple(pauli.mul(g0, g) for g in gs.strings[1:])
    assert gs.alpha is gs.alpha
    # derived: equality, hash and repr see only d and strings
    same = GammaSystem(d=6, strings=gs.strings)
    assert same == gs and hash(same) == hash(gs)
    assert "alpha" not in repr(gs)
    swapped = dataclasses.replace(gs, strings=(gs.strings[1], *gs.strings[1:]))
    assert swapped.alpha[0] == pauli.mul(gs.strings[1], gs.strings[1])


def test_monomials_carry_their_strings():
    gs = system_for(4)
    for mon in monomial_basis(gs, 5):
        want = ExactMatrix.identity(4)
        for idx in mon.index_subset:
            want = want @ gs.gammas[idx]
        assert pauli.encode(*mon.string, 4) == want


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
def test_clifford_relations_exact(d):
    gs = system_for(d)
    assert gs.rep_dim == 2 ** (d // 2)
    assert gs.relations_hold()


def test_extension_new_gamma_example():
    gs = extend(base_system())
    assert gs.d == 4 and gs.rep_dim == 4
    assert gs.gammas[4] == kron(ExactMatrix.identity(2), SIGMA1).scale(I_UNIT)


def test_gamma0_hermitian_spatial_antihermitian():
    gs = system_for(6)
    assert gs.gamma0.is_hermitian()
    for g in gs.gammas[1:]:
        assert g.is_anti_hermitian()


def test_alpha_reality_pattern():
    """alpha_k = gamma0*gamma_k: odd k real, even k imaginary; beta real."""
    for d in (2, 4, 6, 8):
        gs = system_for(d)
        assert gs.gamma0.conj() == gs.gamma0
        for k, g in enumerate(gs.gammas[1:], start=1):
            a = gs.gamma0 @ g
            if k % 2:
                assert a.conj() == a
            else:
                assert a.conj() == -a


def test_monomial_basis_counts():
    gs = system_for(4)
    mons = monomial_basis(gs, 2)
    assert len(mons) == 1 + 5 + math.comb(5, 2)
    full = monomial_basis(gs, 5)
    assert len(full) == 2**5


def test_monomial_basis_ordering_deterministic():
    gs = system_for(4)
    subsets = [m.index_subset for m in monomial_basis(gs, 2)]
    assert subsets[0] == ()
    degrees = [len(s) for s in subsets]
    assert degrees == sorted(degrees)
    assert subsets == sorted(subsets, key=lambda s: (len(s), s))


@pytest.mark.parametrize("d", [2, 4, 6])
def test_monomials_span_full_matrix_space(d):
    assert monomials_span_full_space(system_for(d))


def test_product_of_all_gammas_is_scalar():
    """At d=4 the ordered product of the five gammas is proportional to I."""
    gs = system_for(4)
    prod = ExactMatrix.identity(4)
    for g in gs.gammas:
        prod = prod @ g
    assert prod.scalar_multiple_of_identity() is not None


def test_odd_dimension_rejected():
    with pytest.raises(ValueError):
        system_for(3)
    with pytest.raises(ValueError):
        system_for(0)


def test_check_relations_report_shape():
    gs = system_for(2)
    report = gs.check_relations()
    assert len(report) == 6  # unordered pairs including diagonal for 3 gammas
    assert all(r["ok"] for r in report)
